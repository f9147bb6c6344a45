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
  *     dendrogram rows, a vertex→cluster assignment, and new cluster
  *     metadata (size, M(v), minLeaf);
  *  4. contract the global graph by the assignment (raw-sum aggregation
  *     renormalized by new sizes);
  *  5. vertex pruning: drop vertices with wmax < t/(1+ε), then drop
  *     isolated vertices.
  * The loop runs while any edge of weight ≥ t remains. Lineage is truncated
  * with [[GraphOps.checkpoint]] every round.
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

    var edges = GraphOps.checkpoint(edges0.select(col("src").cast("long").as("src"),
                                                  col("dst").cast("long").as("dst"),
                                                  col("w").cast("double").as("w")))
    val leaves = GraphOps.checkpoint(edges.select(col("src").as("id")).distinct())
    var vertices = GraphOps.checkpoint(GraphOps.singletonVertices(edges))

    var dendroParts: List[DataFrame] = Nil
    val stats = Vector.newBuilder[RoundStat]
    var round = 0
    var cap = maxClusterEdges
    var stalls = 0
    var heavy = GraphOps.heavyCount(edges, t)

    while (heavy > 0 && round < maxRounds) {
      round += 1
      val t0 = System.nanoTime()
      val nV = vertices.count()
      val nE = edges.count()

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
        .persist()

      val dendro = GraphOps.checkpoint(out.filter(_.kind == SubOut.Dendro)
        .map(o => (o.a, o.b, o.sim)).toDF("child", "parent", "sim"))
      val assign = out.filter(_.kind == SubOut.Assign)
        .map(o => (o.a, o.b)).toDF("id", "cid")
      val newVerts = GraphOps.checkpoint(out.filter(_.kind == SubOut.Meta)
        .map(o => (o.a, o.size, o.minMerge, o.minLeaf))
        .toDF("id", "size", "minMerge", "minLeaf"))

      val (contracted, _) = GraphOps.contract(
        edges, vertices.select("id", "size"), assign,
        newSizes = Some(newVerts.select("id", "size")))

      val (pruned, v3) =
        if (t > 0) GraphOps.prune(contracted, newVerts, t / (1.0 + eps))
        else (contracted, newVerts)

      val newEdges = GraphOps.checkpoint(pruned)
      val v4 = GraphOps.checkpoint(v3.join(newEdges.select(col("src").as("id")).distinct(),
                                           Seq("id"), "left_semi"))

      val nVNew = newVerts.count()
      val merges = nV - nVNew
      out.unpersist()

      if (merges == 0) {
        stalls += 1
        cap = math.min(cap * 4, Long.MaxValue / 8)
        require(stalls < 3, s"TeraHAC stalled for 3 rounds at round $round")
      } else stalls = 0

      edges = newEdges
      vertices = v4
      dendroParts ::= dendro
      heavy = GraphOps.heavyCount(edges, t)
      stats += RoundStat(round, nV, nE, merges, heavy,
                         (System.nanoTime() - t0) / 1000000L)
    }
    require(heavy == 0, s"TeraHAC did not finish within $maxRounds rounds")

    val empty = Seq.empty[(Long, Long, Double)].toDF("child", "parent", "sim")
    val dendroAll = dendroParts.foldLeft(empty)(_ union _)
    Result(dendroAll, leaves, round, stats.result())
  }

  /** One SubgraphHAC group: materializes G^C as a [[LocalGraph]] (actives =
    * vertices whose cid equals the group key) and runs the local kernel.
    */
  def runGroup(cid: Long, it: Iterator[EdgeCtx], eps: Double): Iterator[SubOut] = {
    val g = new LocalGraph
    while (it.hasNext) {
      val e = it.next()
      g.ensureVertex(e.src, e.srcSize, e.srcMinMerge, e.srcMinLeaf, isActive = true)
      g.ensureVertex(e.dst, e.dstSize, e.dstMinMerge, e.dstMinLeaf,
                     isActive = e.dstCid == cid)
      g.addEdge(e.src, e.dst, e.w)
    }
    val res = SubgraphHAC.run(g, eps)
    val dendro = res.merges.iterator.map(r =>
      SubOut(SubOut.Dendro, r.child, r.parent, r.sim, 0L, 0.0, 0L))
    val assign = res.assignment.iterator.map { case (v, c) =>
      SubOut(SubOut.Assign, v, c, 0.0, 0L, 0.0, 0L) }
    val meta = res.meta.iterator.map(m =>
      SubOut(SubOut.Meta, m.id, 0L, 0.0, m.size, m.minMerge, m.minLeaf))
    dendro ++ assign ++ meta
  }
}
