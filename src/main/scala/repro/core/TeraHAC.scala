package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.model._
import repro.graph.GraphOps
import repro.partition.AffinityPartitioner

/** TeraHAC (Algorithm 1 / the Fig. 5 dataflow) on Spark DataFrames.
  *
  * Per round:
  *  1. size-constrained affinity partitioning → (id, cid);
  *  2. enrich every directed edge with both endpoints' metadata and group
  *     by the source's cid — group C receives exactly the edges of G^C;
  *  3. run [[SubgraphHAC]] inside each group (`flatMapGroups`), emitting
  *     dendrogram rows, new cluster metadata (size, M(v), minLeaf), a
  *     vertex→cluster assignment with the new cluster's size, and one
  *     partial row per owned edge (u, v): the raw weight `w·|u|·|v|` keyed
  *     by (u's new cluster, v);
  *  4. finish the contraction with one rename of the old dst
  *     ([[GraphOps.renameDst]]: raw sums renormalized by new sizes);
  *  5. vertex pruning: drop vertices with wmax < t/(1+ε) and their edges.
  * The loop runs while any edge of weight ≥ t remains. Lineage is truncated
  * with [[GraphOps.checkpoint]] every round; the round's counts (merges,
  * vertices, edges, heavy edges) are observed on the checkpoints' own jobs,
  * and vertices left without edges drop out at the next round's partition.
  *
  * Stall handling: if a round performs zero merges (possible only when the
  * size cap split every reciprocal pair apart), the cap quadruples; three
  * consecutive stalls abort.
  */
object TeraHAC {

  final case class RoundStat(round: Int, nVertices: Long, nDirectedEdges: Long,
                             merges: Long, heavyEdges: Long, millis: Long)

  /** @param dendro  (child, parent, sim) rows of the full dendrogram
    * @param leaves  original vertex ids
    * @param rounds  number of rounds executed
    */
  final case class Result(dendro: DataFrame, leaves: DataFrame, rounds: Int,
                          stats: Vector[RoundStat]) {
    /** Collects the dendrogram locally (repro scale only). */
    def toLocal: Dendrogram = {
      val rows = dendro.collect().map(r =>
        DendroRow(r.getLong(0), r.getLong(1), r.getDouble(2)))
      Dendrogram.fromRows(rows, leaves.collect().map(_.getLong(0)))
    }
  }

  /** Runs TeraHAC.
    *
    * @param edges0         symmetric (src, dst, w), positive weights
    * @param eps            approximation parameter ε ≥ 0
    * @param t              weight threshold (0 ⇒ full dendrogram)
    * @param maxClusterEdges affinity size cap (directed-edge load)
    */
  def run(spark: SparkSession, edges0: DataFrame, eps: Double, t: Double,
          maxClusterEdges: Long = 1L << 20, maxRounds: Int = 100): Result = {
    import spark.implicits._
    require(eps >= 0 && t >= 0)

    var (edges, Seq(nE, heavy)) = GraphOps.checkpointCounting(
      edges0.select(col("src").cast("long").as("src"), col("dst").cast("long").as("dst"),
                    col("w").cast("double").as("w")),
      lit(true), col("w") >= t)
    var vertices = GraphOps.checkpoint(GraphOps.singletonVertices(edges))
    val leaves = vertices.select("id")
    var dendroParts: List[DataFrame] = Nil
    val stats = Vector.newBuilder[RoundStat]
    var round = 0
    var cap = maxClusterEdges
    var stalls = 0

    while (heavy > 0 && round < maxRounds) {
      round += 1
      val t0 = System.nanoTime()

      // vertices without edges have no cid, so the inner join drops them
      val cids = AffinityPartitioner.partition(edges, cap)
      val vc = vertices.join(cids, "id")
      val srcM = vc.select(col("id").as("src"), col("size").as("srcSize"),
        col("minMerge").as("srcMinMerge"), col("minLeaf").as("srcMinLeaf"),
        col("cid"))
      val dstM = vc.select(col("id").as("dst"), col("size").as("dstSize"),
        col("minMerge").as("dstMinMerge"), col("minLeaf").as("dstMinLeaf"),
        col("cid").as("dstCid"))
      val ctx = edges.join(srcM, "src").join(dstM, "dst")
        .select(col("cid"), col("src"), col("srcSize"), col("srcMinMerge"),
                col("srcMinLeaf"), col("dst"), col("dstSize"), col("dstMinMerge"),
                col("dstMinLeaf"), col("dstCid"), col("w"))
        .as[EdgeCtx]

      val out = ctx.groupByKey(_.cid)
        .flatMapGroups((cid, it) => runGroup(cid, it, eps))
        .toDF().persist()
      def rows(kind: Int) = out.filter(col("kind") === kind)

      // dendrogram and new-vertex rows outlive the round: one checkpoint
      // (one job) holds both
      val (kept, Seq(dendroRows, nVNew)) = GraphOps.checkpointCounting(
        out.filter(col("kind").isin(SubOut.Dendro, SubOut.Meta)),
        col("kind") === SubOut.Dendro, col("kind") === SubOut.Meta)
      val dendro = kept.filter(col("kind") === SubOut.Dendro)
        .select(col("a").as("child"), col("b").as("parent"), col("sim"))
      val newVerts = kept.filter(col("kind") === SubOut.Meta)
        .select(col("a").as("id"), col("size"), col("minMerge"), col("minLeaf"))
      val contracted = GraphOps.renameDst(
        rows(SubOut.Partial).select(col("a").as("src"), col("b").as("dst"),
                                    col("sim").as("raw"), col("size").as("sA")),
        rows(SubOut.Assign).select(col("a").as("id"), col("b").as("cid"), col("size")))
      val pruned = if (t == 0) contracted
                   else GraphOps.prune(contracted, newVerts, t / (1.0 + eps))._1
      val (newEdges, Seq(nENew, heavyNew)) =
        GraphOps.checkpointCounting(pruned, lit(true), col("w") >= t)
      out.unpersist()

      val merges = dendroRows / 2
      if (merges == 0) {
        stalls += 1
        cap = math.min(cap * 4, Long.MaxValue / 8)
        require(stalls < 3, s"TeraHAC stalled for 3 rounds at round $round")
      } else stalls = 0

      stats += RoundStat(round, nVNew + merges, nE, merges, heavyNew,
                         (System.nanoTime() - t0) / 1000000L)
      edges = newEdges
      vertices = newVerts
      nE = nENew
      heavy = heavyNew
      dendroParts ::= dendro
    }
    require(heavy == 0, s"TeraHAC did not finish within $maxRounds rounds")

    val empty = Seq.empty[(Long, Long, Double)].toDF("child", "parent", "sim")
    val dendroAll = dendroParts.foldLeft(empty)(_ union _)
    Result(dendroAll, leaves, round, stats.result())
  }

  /** One SubgraphHAC group: materializes G^C as a [[LocalGraph]] (actives =
    * vertices whose cid equals the group key), runs the local kernel and
    * emits its share of the contraction: one Partial row per owned edge and
    * one Assign row per active vertex, both with the new cluster's size.
    */
  def runGroup(cid: Long, it: Iterator[EdgeCtx], eps: Double): Iterator[SubOut] = {
    val g = new LocalGraph
    val owned = it.toVector
    for (e <- owned) {
      g.ensureVertex(e.src, e.srcSize, e.srcMinMerge, e.srcMinLeaf, isActive = true)
      g.ensureVertex(e.dst, e.dstSize, e.dstMinMerge, e.dstMinLeaf,
                     isActive = e.dstCid == cid)
      g.addEdge(e.src, e.dst, e.w)
    }
    val res = SubgraphHAC.run(g, eps)
    val size = res.meta.iterator.map(m => m.id -> m.size).toMap
    val dendro = res.merges.iterator.map(r =>
      SubOut(SubOut.Dendro, r.child, r.parent, r.sim, 0L, 0.0, 0L))
    val assign = res.assignment.iterator.map { case (v, c) =>
      SubOut(SubOut.Assign, v, c, 0.0, size(c), 0.0, 0L) }
    // raw weights from the input edges, as GraphOps.contract forms them
    val partial = owned.iterator.map { e =>
      val c = res.assignment(e.src)
      SubOut(SubOut.Partial, c, e.dst, e.w * e.srcSize * e.dstSize, size(c), 0.0, 0L) }
    val meta = res.meta.iterator.map(m =>
      SubOut(SubOut.Meta, m.id, 0L, 0.0, m.size, m.minMerge, m.minLeaf))
    dendro ++ assign ++ partial ++ meta
  }
}
