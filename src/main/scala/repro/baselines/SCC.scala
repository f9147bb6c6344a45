package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.collection.mutable
import repro.core.LocalGraph
import repro.graph.{GraphOps, UnionFind}
import repro.partition.Functional

/** SCC (Monath et al. [40]): the state-of-the-art distributed hierarchical
  * clustering baseline.
  *
  * r rounds of graph compression with a geometrically decreasing threshold
  * schedule τ₁ ≥ … ≥ τᵣ from the maximum edge weight down to the final
  * threshold t. In round i every cluster marks its best incident edge of
  * weight ≥ τᵢ (if any); connected components of the marked edges are
  * contracted (average linkage maintained through raw-sum renormalization).
  * Each round yields one flat clustering level over the original vertices.
  *
  * Two backends with identical semantics: a DataFrame implementation
  * (used for the Table 3 timing comparison) and a fast local one (used for
  * the Table 2 quality grid); tests assert they agree.
  */
object SCC {

  /** Threshold schedule: geometric interpolation wmax → t over r rounds. */
  def schedule(wmax: Double, t: Double, r: Int): Vector[Double] = {
    require(r >= 1 && t > 0 && wmax > 0)
    val lo = math.min(t, wmax)
    (1 to r).map(i => wmax * math.pow(lo / wmax, i.toDouble / r)).toVector
  }

  // ---------------------------------------------------------------- local

  /** @return one flat clustering (original id → cluster id) per round. */
  def runLocal(edges: Iterable[(Long, Long, Double)], rounds: Int,
               t: Double): Vector[Map[Long, Long]] = {
    var g = LocalGraph.fromEdges(edges)
    val orig = g.vertices.toVector
    var mapping: Map[Long, Long] = orig.map(v => v -> v).toMap
    val wmax0 = math.max(g.maxEdgeWeight, t)
    val taus = schedule(wmax0, t, rounds)
    val levels = Vector.newBuilder[Map[Long, Long]]

    for (tau <- taus) {
      // best qualifying neighbor per vertex (w desc, id asc), else self
      val f = mutable.HashMap.empty[Long, Long]
      for (v <- g.vertices) f(v) = g.bestNeighbor(v, tau).getOrElse(v)
      // components of the functional graph via union-find
      val uf = new UnionFind
      for ((v, to) <- f) uf.union(v, to)
      val assign: Long => Long = v => uf.find(v)
      g = LocalGraph.contracted(g, assign)
      mapping = mapping.map { case (o, c) => o -> assign(c) }
      levels += mapping
    }
    levels.result()
  }

  // ---------------------------------------------------------- distributed

  /** @param levels one (id, cluster) frame per round, over original ids */
  final case class DistResult(levels: Vector[DataFrame], rounds: Int)

  def runDistributed(spark: SparkSession, edges0: DataFrame, rounds: Int,
                     t: Double): DistResult = {
    var edges = GraphOps.checkpoint(edges0.select("src", "dst", "w"))
    var sizes = GraphOps.checkpoint(edges.select(col("src").as("id")).distinct()
      .select(col("id"), lit(1L).as("size")))
    var mapping = GraphOps.checkpoint(sizes.select(col("id"), col("id").as("cur")))

    val wmax0 = math.max(
      edges.agg(max("w")).collect()(0).getDouble(0), t)
    val taus = schedule(wmax0, t, rounds)
    val levels = Vector.newBuilder[DataFrame]

    for (tau <- taus) {
      val best = GraphOps.bestEdge(edges.filter(col("w") >= tau))
      // vertices with no qualifying edge point at themselves
      val f = sizes.select("id").join(best, Seq("id"), "left_outer")
        .select(col("id"), coalesce(col("to"), col("id")).as("to"))
      val assign = Functional.components(f)
        .select(col("id"), col("root").as("cid"))
      val (e2, s2) = GraphOps.contract(edges, sizes, assign)
      edges = GraphOps.checkpoint(e2)
      sizes = GraphOps.checkpoint(s2)
      mapping = GraphOps.checkpoint(
        mapping.join(assign.select(col("id").as("cur"), col("cid")), "cur")
          .select(col("id"), col("cid").as("cur")))
      levels += mapping.select(col("id"), col("cur").as("cluster"))
    }
    DistResult(levels.result(), rounds)
  }
}
