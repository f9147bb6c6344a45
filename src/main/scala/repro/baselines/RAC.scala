package repro.baselines

import scala.collection.mutable
import repro.core.LocalGraph
import repro.core.model._

/** RAC (Sumengen et al. [56]) round simulator: the parallel nearest-
  * neighbor-chain algorithm. Each round merges every *reciprocally most
  * similar* pair of clusters (restricted to edges of weight ≥ t) — a
  * matching, so at most one merge per vertex per round, which is exactly
  * why RAC needs orders of magnitude more rounds than TeraHAC (Fig. 2).
  *
  * Because it is exact HAC, the resulting dendrogram equals ExactHAC's
  * (up to weight ties).
  */
object RAC {

  final case class Result(rounds: Int, merges: Vector[DendroRow], cappedOut: Boolean)

  def simulate(g: LocalGraph, t: Double = 0.0, maxRounds: Int = 100000): Result = {
    val merges = Vector.newBuilder[DendroRow]
    var rounds = 0
    var capped = false

    var done = false
    while (!done) {
      val best = mutable.HashMap.empty[Long, Long]
      for (v <- g.vertices) g.bestNeighbor(v, t).foreach(best(v) = _)
      val pairs = best.iterator.collect {
        case (u, v) if u < v && best.get(v).contains(u) => (u, v)
      }.toVector
      if (pairs.isEmpty) done = true
      else {
        rounds += 1
        for ((u, v) <- pairs) {
          val res = g.merge(u, v)
          merges += DendroRow(u, res.newId, res.sim)
          merges += DendroRow(v, res.newId, res.sim)
        }
        if (rounds >= maxRounds) { done = true; capped = true }
      }
    }
    Result(rounds, merges.result(), capped)
  }
}
