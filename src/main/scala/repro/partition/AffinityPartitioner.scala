package repro.partition

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.{GraphOps, UnionFind}

/** Size-constrained affinity clustering (Bateni et al. [7], size constraint
  * per Epasto et al. [27]) — TeraHAC's round partitioner.
  *
  * Every vertex marks its maximum-weight incident edge (ties broken toward
  * the smaller neighbor id); connected components of the marked edges form
  * the affinity clusters. A vertex's best edge is the most likely to induce
  * a good merge, and affinity keeps every best edge intra-cluster — unless
  * the size cap forces a split.
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
  * Cluster ids are the minimum member vertex id of each capped group —
  * globally unique because clusters partition the vertex set.
  */
object AffinityPartitioner {

  /** One marked (best) edge with the grouping/bookkeeping metadata. */
  final case class MarkedEdge(root: Long, v: Long, to: Long, w: Double, deg: Long)

  /** @param edges symmetric (src, dst, w)
    * @param salt  ignored: the greedy split is deterministic. It stays only
    *              because the benchmark harness (`perfbench`) passes it by
    *              name.
    * @return (id, cid) for every vertex with ≥ 1 edge
    */
  def partition(edges: DataFrame, capEdges: Long, salt: Long = 0L): DataFrame = {
    val spark = edges.sparkSession
    import spark.implicits._
    val best = GraphOps.bestEdge(edges)
    val comps = Functional.components(best.select("id", "to")) // (id, root)
    val deg = edges.groupBy(col("src").as("id")).agg(count("*").as("deg"))

    val marked = best.join(comps, "id").join(deg, "id")
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
    val uf = new UnionFind
    val load = scala.collection.mutable.HashMap.empty[Long, Long]
    for (e <- es) load(e.v) = e.deg
    // weight-descending greedy: the heaviest best-edges are the most likely
    // good merges and must stay intra-partition
    for (e <- es.sortBy(x => (-x.w, x.v)) if e.v != e.to) {
      val ra = uf.find(e.v)
      val rb = uf.find(e.to)
      if (ra != rb && load(ra) + load(rb) <= capEdges) {
        uf.union(ra, rb) // the smaller root survives
        load(math.min(ra, rb)) = load(ra) + load(rb)
        load.remove(math.max(ra, rb))
      }
    }
    es.iterator.map(e => (e.v, uf.find(e.v)))
  }
}
