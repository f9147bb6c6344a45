package repro.core

import scala.collection.mutable
import repro.core.model._

/** Mutable in-memory weighted cluster graph: the per-machine kernel under
  * SubgraphHAC, ExactHAC, the RAC/ParHAC round simulators and the greedy
  * merge-sequence replay.
  *
  * Each vertex is a cluster carrying average-linkage metadata:
  *  - `size`     — number of original points in the cluster,
  *  - `minMerge` — M(v), the minimum linkage similarity of any merge that
  *                 formed v (∞ for singletons; Definition 2),
  *  - `minLeaf`  — minimum original vertex id contained in v (drives the
  *                 coordination-free dendrogram node-id scheme),
  *  - `active`   — whether v may participate in merges (SubgraphHAC marks
  *                 out-of-partition neighbors inactive).
  *
  * Edge weights are normalized average-linkage similarities. Merging u,v:
  * `w(u∪v, a) = (w(u,a)·|u| + w(v,a)·|v|) / (|u|+|v|)` — the |a| factor
  * cancels, so neighbor sizes are not needed for the update.
  *
  * `wmax(v)` is cached; reducibility (Definition 1) guarantees it never
  * increases for a surviving vertex (Lemma 1), and [[merge]] reports every
  * vertex whose cached wmax strictly decreased — SubgraphHAC uses those
  * events to re-arm its priority queue.
  */
final class LocalGraph {
  val nbrs: mutable.HashMap[Long, mutable.HashMap[Long, Double]] = mutable.HashMap.empty
  val size: mutable.HashMap[Long, Long] = mutable.HashMap.empty
  val minMerge: mutable.HashMap[Long, Double] = mutable.HashMap.empty
  val minLeaf: mutable.HashMap[Long, Long] = mutable.HashMap.empty
  val active: mutable.HashSet[Long] = mutable.HashSet.empty
  private val wmaxCache: mutable.HashMap[Long, Double] = mutable.HashMap.empty

  import LocalGraph.MergeResult

  def ensureVertex(id: Long, sz: Long, mm: Double, ml: Long, isActive: Boolean): Unit = {
    if (!size.contains(id)) {
      size(id) = sz
      minMerge(id) = mm
      minLeaf(id) = ml
      nbrs(id) = mutable.HashMap.empty
    }
    if (isActive) active += id
  }

  /** Adds (or overwrites) the undirected edge u—v. */
  def addEdge(u: Long, v: Long, w: Double): Unit = {
    require(u != v, s"self loop at $u")
    nbrs(u)(v) = w
    nbrs(v)(u) = w
    if (w > wmaxCache.getOrElse(u, 0.0)) wmaxCache(u) = w
    if (w > wmaxCache.getOrElse(v, 0.0)) wmaxCache(v) = w
  }

  def contains(id: Long): Boolean = size.contains(id)
  def vertices: Iterator[Long] = size.keysIterator
  def numVertices: Int = size.size
  def degree(v: Long): Int = nbrs(v).size
  def numEdges: Long = nbrs.valuesIterator.map(_.size.toLong).sum / 2
  def weight(u: Long, v: Long): Option[Double] = nbrs.get(u).flatMap(_.get(v))
  def isActive(v: Long): Boolean = active.contains(v)

  /** Maximum incident edge weight of v (0 if isolated). */
  def wmax(v: Long): Double = wmaxCache.getOrElse(v, 0.0)

  /** v's heaviest neighbour over edges of weight ≥ minW, ties broken toward
    * the smaller id; the local twin of [[repro.graph.GraphOps.bestEdge]].
    */
  def bestNeighbor(v: Long, minW: Double): Option[Long] =
    nbrs(v).iterator.filter(_._2 >= minW).maxByOption { case (a, w) => (w, -a) }.map(_._1)

  /** Undirected edge iterator with u < v. */
  def undirectedEdges: Iterator[(Long, Long, Double)] =
    for ((u, m) <- nbrs.iterator; (v, w) <- m.iterator if u < v) yield (u, v, w)

  /** Maximum edge weight in the whole graph (0 if edgeless). */
  def maxEdgeWeight: Double =
    if (wmaxCache.isEmpty) 0.0 else wmaxCache.valuesIterator.max

  /** goodness(uv) = max(wmax(u), wmax(v)) / min(M(u), M(v), w(uv)).
    * Requires the edge to exist. Lower is better (Definition 2).
    */
  def goodness(u: Long, v: Long): Double = {
    val w = nbrs(u)(v)
    val den = math.min(math.min(minMerge(u), minMerge(v)), w)
    math.max(wmax(u), wmax(v)) / den
  }

  /** A merge of uv is (1+ε)-good (with the global FP slack). */
  def isGood(u: Long, v: Long, eps: Double): Boolean =
    goodness(u, v) <= (1.0 + eps) * (1.0 + FpSlack)

  /** Merges u and v into a new vertex with id `IdOffset + max(minLeaf)`.
    * Both endpoints must be alive and adjacent. The new vertex is active.
    */
  def merge(u: Long, v: Long): MergeResult = {
    val wuv = nbrs(u)(v)
    val su = size(u); val sv = size(v)
    val z = IdOffset + math.max(minLeaf(u), minLeaf(v))
    require(!size.contains(z), s"dendrogram node id collision at $z")

    // Average-linkage neighborhood fold: partial sums w(x,a)·|x|.
    val zn = mutable.HashMap.empty[Long, Double]
    for ((a, w) <- nbrs(u) if a != v) zn(a) = w * su
    for ((a, w) <- nbrs(v) if a != u) zn(a) = zn.getOrElse(a, 0.0) + w * sv
    val total = (su + sv).toDouble

    var decreased: List[Long] = Nil
    var zmax = 0.0
    for ((a, partial) <- zn) {
      val wza = partial / total
      if (wza > zmax) zmax = wza
      val na = nbrs(a)
      val oldU = na.remove(u).getOrElse(0.0)
      val oldV = na.remove(v).getOrElse(0.0)
      na(z) = wza
      val cached = wmaxCache.getOrElse(a, 0.0)
      // Only a removed arg-max edge can lower wmax(a); wza ≤ max(oldU, oldV)
      // by reducibility so it cannot raise it.
      if (math.max(oldU, oldV) >= cached) {
        val fresh = if (na.isEmpty) 0.0 else na.valuesIterator.max
        if (fresh < cached) {
          wmaxCache(a) = fresh
          decreased ::= a
        }
      }
    }

    val znMap = mutable.HashMap.empty[Long, Double]
    for ((a, partial) <- zn) znMap(a) = partial / total

    nbrs.remove(u); nbrs.remove(v)
    wmaxCache.remove(u); wmaxCache.remove(v)
    active.remove(u); active.remove(v)
    nbrs(z) = znMap
    size(z) = su + sv
    minMerge(z) = math.min(math.min(minMerge(u), minMerge(v)), wuv)
    minLeaf(z) = math.min(minLeaf(u), minLeaf(v))
    size.remove(u); size.remove(v)
    minMerge.remove(u); minMerge.remove(v)
    minLeaf.remove(u); minLeaf.remove(v)
    wmaxCache(z) = zmax
    active += z
    MergeResult(z, wuv, decreased)
  }
}

object LocalGraph {

  /** Result of one merge: the new vertex id, the linkage similarity used,
    * and the surviving vertices whose wmax strictly decreased.
    */
  final case class MergeResult(newId: Long, sim: Double, wmaxDecreased: List[Long])

  /** Builds a graph of singleton clusters from an undirected edge list
    * (each pair listed once or twice — duplicates overwrite).
    */
  def fromEdges(edges: Iterable[(Long, Long, Double)]): LocalGraph = {
    val g = new LocalGraph
    for ((u, v, w) <- edges) {
      require(u < IdOffset && v < IdOffset, "original ids must be < IdOffset")
      g.ensureVertex(u, 1L, Double.PositiveInfinity, u, isActive = true)
      g.ensureVertex(v, 1L, Double.PositiveInfinity, v, isActive = true)
      g.addEdge(u, v, w)
    }
    g
  }

  /** Contracts `g` by the given (total) assignment old-id → group-id,
    * producing a fresh singleton-metadata-free graph: group sizes are the
    * member-size sums and weights are re-derived from raw sums — the local
    * mirror of [[repro.graph.GraphOps.contract]]. minMerge/minLeaf are
    * aggregated with min. Used by the SCC and DBSCAN local backends.
    */
  def contracted(g: LocalGraph, assign: Long => Long): LocalGraph = {
    val out = new LocalGraph
    val gsize = mutable.HashMap.empty[Long, Long]
    val gmm = mutable.HashMap.empty[Long, Double]
    val gml = mutable.HashMap.empty[Long, Long]
    for (v <- g.vertices) {
      val c = assign(v)
      gsize(c) = gsize.getOrElse(c, 0L) + g.size(v)
      gmm(c) = math.min(gmm.getOrElse(c, Double.PositiveInfinity), g.minMerge(v))
      gml(c) = math.min(gml.getOrElse(c, Long.MaxValue), g.minLeaf(v))
    }
    for ((c, s) <- gsize) out.ensureVertex(c, s, gmm(c), gml(c), isActive = true)
    val raw = mutable.HashMap.empty[(Long, Long), Double]
    for ((u, v, w) <- g.undirectedEdges) {
      val cu = assign(u); val cv = assign(v)
      if (cu != cv) {
        val key = if (cu < cv) (cu, cv) else (cv, cu)
        raw(key) = raw.getOrElse(key, 0.0) + w * g.size(u) * g.size(v)
      }
    }
    for (((cu, cv), r) <- raw)
      out.addEdge(cu, cv, r / (gsize(cu).toDouble * gsize(cv).toDouble))
    out
  }
}
