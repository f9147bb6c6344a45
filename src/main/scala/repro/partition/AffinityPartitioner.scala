package repro.partition

import scala.collection.mutable
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.{GraphOps, UnionFind}

/** Size-constrained affinity clustering (Bateni et al. [7], size constraint
  * per Epasto et al. [27]) — TeraHAC's round partitioner.
  *
  * Level 1 ([[partition]]): every vertex marks its maximum-weight incident
  * edge (ties broken toward the smaller neighbor id); connected components
  * of the marked edges form the affinity clusters. A vertex's best edge is
  * the most likely to induce a good merge, and affinity keeps every best
  * edge intra-cluster — unless the size cap forces a split.
  *
  * Size constraint (locality-preserving, as in [27]): within each affinity
  * component the marked edges are processed in decreasing weight order and
  * greedily unioned as long as the combined directed-edge load (Σ degrees)
  * stays within `capEdges`. Heavy best-edges are therefore kept
  * intra-partition even when a component must be split — a random
  * (hash-based) split would cut most best edges and stall the round.
  * Each component's capped union runs inside one `flatMapGroups` task; the
  * per-group data is O(component vertices), not O(edges).
  *
  * Levels 2 and up ([[coarsen]]): affinity clustering repeats its level on
  * the clusters, Borůvka-style, until the cap stops it. They need only the
  * level-1 cluster quotient — per cluster pair, the heaviest edge and the
  * edge count — which the caller collects to the driver, like a group is
  * held on one machine. The same weight-descending capped union then runs
  * over the quotient's cross-cluster rows; uncapped, that one pass reaches
  * the components all further levels would. A caller whose quotient has
  * more than `capEdges` rows keeps level 1.
  *
  * Cluster ids are the minimum member vertex id of each capped group —
  * globally unique because clusters partition the vertex set; a coarsened
  * group takes the minimum of its members' cluster ids.
  */
object AffinityPartitioner {

  /** One marked (best) edge with the grouping/bookkeeping metadata. */
  final case class MarkedEdge(root: Long, v: Long, to: Long, w: Double, deg: Long)

  /** The directed edges from level-1 cluster `cid` to cluster `dstCid`
    * (`dstCid == cid` for intra-cluster edges): their maximum weight and
    * their count.
    */
  final case class QuotientRow(cid: Long, dstCid: Long, w: Double, rows: Long)

  /** @param edges symmetric (src, dst, w)
    * @param salt  ignored: the greedy split is deterministic. It stays only
    *              because the benchmark harness (`perfbench`) passes it by
    *              name.
    * @return (id, cid) for every vertex with ≥ 1 edge
    */
  def partition(edges: DataFrame, capEdges: Long, salt: Long = 0L): DataFrame = {
    val spark = edges.sparkSession
    import spark.implicits._
    val best = GraphOps.bestEdge(edges) // (id, to, w, deg)
    val comps = Functional.components(best.select("id", "to")) // (id, root)

    val marked = best.join(comps, "id")
      .select(col("root"), col("id").as("v"), col("to"), col("w"), col("deg"))
      .as[MarkedEdge]

    marked.groupByKey(_.root)
      .flatMapGroups((_, it) => cappedUnion(it, capEdges))
      .toDF("id", "cid")
  }

  /** Greedy capped union of one affinity component's marked edges. */
  private[partition] def cappedUnion(it: Iterator[MarkedEdge],
                                     capEdges: Long): Iterator[(Long, Long)] = {
    val es = it.toArray
    val load = mutable.HashMap.from(es.iterator.map(e => e.v -> e.deg))
    // weight-descending greedy: the heaviest best-edges are the most likely
    // good merges and must stay intra-partition
    val uf = unionUnderCap(es.sortBy(x => (-x.w, x.v)).iterator.map(e => (e.v, e.to)),
                           load, capEdges)
    es.iterator.map(e => (e.v, uf.find(e.v)))
  }

  /** Levels 2 and up over a level-1 cluster quotient: cross-cluster rows
    * in decreasing weight order (ties toward the smaller, then the larger
    * cluster id) are unioned while the merged load stays within
    * `capEdges`. A group's load is the sum of the `rows` of the quotient
    * rows whose `cid` it contains (its members' summed degrees).
    *
    * @return every `cid` of the quotient → its group's minimum cid
    */
  def coarsen(quotient: Seq[QuotientRow], capEdges: Long): Map[Long, Long] = {
    val load = mutable.HashMap.empty[Long, Long]
    for (q <- quotient) load(q.cid) = load.getOrElse(q.cid, 0L) + q.rows
    val cids = load.keys.toVector
    val cross = quotient.filter(q => q.cid != q.dstCid)
      .sortBy(q => (-q.w, math.min(q.cid, q.dstCid), math.max(q.cid, q.dstCid)))
    val uf = unionUnderCap(cross.iterator.map(q => (q.cid, q.dstCid)), load, capEdges)
    cids.iterator.map(c => c -> uf.find(c)).toMap
  }

  /** Unions `pairs` in order while the two roots' summed load stays within
    * `capEdges`; `load` holds each root's load and follows the unions.
    */
  private def unionUnderCap(pairs: Iterator[(Long, Long)], load: mutable.Map[Long, Long],
                            capEdges: Long): UnionFind = {
    val uf = new UnionFind
    for ((a, b) <- pairs) {
      val ra = uf.find(a)
      val rb = uf.find(b)
      if (ra != rb && load(ra) + load(rb) <= capEdges) {
        uf.union(ra, rb) // the smaller root survives
        load(math.min(ra, rb)) = load(ra) + load(rb)
        load.remove(math.max(ra, rb))
      }
    }
    uf
  }
}
