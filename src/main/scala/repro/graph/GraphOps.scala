package repro.graph

import org.apache.spark.sql.{Column, DataFrame, Observation}
import org.apache.spark.sql.functions._

/** Relational building blocks of the distributed graph dataflow.
  *
  * Canonical schema: edges are `(src: Long, dst: Long, w: Double)` with BOTH
  * directions stored (symmetric), no self loops, positive weights; sizes are
  * `(id: Long, size: Long)`.
  */
object GraphOps {

  /** Materializes `df` and cuts its lineage; the program's only lineage cut.
    *
    * A `localCheckpoint` keeps the size estimate of the plan that produced
    * it, and a join estimates its size as the product of its inputs', so a
    * frame joined with itself and checkpointed every iteration squares its
    * estimate each time, until planning one query takes minutes. Rebuilding
    * the frame over the checkpointed rows drops that estimate (Spark then
    * assumes its default size) and runs no extra job.
    */
  def checkpoint(df: DataFrame): DataFrame = {
    val c = df.localCheckpoint()
    df.sparkSession.createDataFrame(c.rdd, c.schema)
  }

  /** [[checkpoint]] that also counts the rows matching each condition. The
    * checkpoint's own job counts them (an observed metric), so the counts
    * cost no extra action.
    */
  def checkpointCounting(df: DataFrame, conditions: Column*): (DataFrame, Seq[Long]) = {
    val o = Observation()
    val counts = conditions.zipWithIndex.map { case (c, i) => count_if(c).as(s"c$i") }
    val c = checkpoint(df.observe(o, counts.head, counts.tail: _*))
    val m = o.get
    (c, counts.indices.map(i => m(s"c$i").asInstanceOf[Long]))
  }

  /** Each source's best edge, (id, to, w): the heaviest, ties broken toward
    * the smaller dst (the max of (w, -dst)).
    */
  def bestEdge(edges: DataFrame): DataFrame =
    edges.groupBy(col("src").as("id"))
      .agg(max(struct(col("w"), (-col("dst")).as("nd"), col("dst"))).as("m"))
      .select(col("id"), col("m.dst").as("to"), col("m.w").as("w"))

  /** One pointer jump over labels (id, p): every p becomes p's own label. */
  def jump(p: DataFrame): DataFrame =
    p.as("x").join(p.as("y"), col("x.p") === col("y.id"))
      .select(col("x.id").as("id"), col("y.p").as("p"))

  /** Enough iterations for a pointer jump to reach any depth below 2^63. */
  private val MaxIterations = 64

  /** Applies `step` to labels (id, p) until no label changes, checkpointing
    * every iteration. The changed labels are counted by the checkpoint's own
    * job (an observed metric), so testing for convergence needs no separate
    * action.
    */
  def fixpoint(p0: DataFrame)(step: DataFrame => DataFrame): DataFrame = {
    var p = checkpoint(p0)
    var converged = false
    var i = 0
    while (!converged && i < MaxIterations) {
      val changed = Observation()
      p = checkpoint(step(p).as("new").join(p.as("old"), col("new.id") === col("old.id"))
        .observe(changed, count_if(col("new.p") =!= col("old.p")).as("changed"))
        .select(col("new.id").as("id"), col("new.p").as("p")))
      converged = changed.get("changed") == 0L
      i += 1
    }
    require(converged, s"labels did not converge in $MaxIterations iterations")
    p
  }

  /** Graph statistics: vertices, directed edge rows, average degree. */
  final case class Stats(numVertices: Long, numDirectedEdges: Long, avgDegree: Double)

  def stats(edges: DataFrame): Stats = {
    val n = edges.select("src").distinct().count()
    val m = edges.count()
    Stats(n, m, if (n == 0) 0.0 else m.toDouble / n)
  }

  /** Makes an arbitrary (src, dst) pair list a canonical undirected graph:
    * drops self loops, dedupes (keeping max weight), adds both directions.
    */
  def symmetrize(pairs: DataFrame): DataFrame = {
    val withW =
      if (pairs.columns.contains("w")) pairs.select("src", "dst", "w")
      else pairs.select(col("src"), col("dst"), lit(1.0).as("w"))
    val canon = withW
      .filter(col("src") =!= col("dst"))
      .select(least(col("src"), col("dst")).as("src"),
              greatest(col("src"), col("dst")).as("dst"),
              col("w"))
      .groupBy("src", "dst").agg(max("w").as("w"))
    canon.union(canon.select(col("dst").as("src"), col("src").as("dst"), col("w")))
  }

  /** The paper's weighting for unweighted graphs (§6): for a symmetric edge
    * set, set `w(u,v) = 1 / ln(deg(u) + deg(v))`, which favours merging
    * low-degree vertices.
    */
  def degreeWeights(symEdges: DataFrame): DataFrame = {
    val deg = symEdges.groupBy("src").agg(count("*").as("deg"))
    symEdges
      .join(deg.withColumnRenamed("src", "src").withColumnRenamed("deg", "degS"), "src")
      .join(deg.select(col("src").as("dst"), col("deg").as("degD")), "dst")
      .select(col("src"), col("dst"),
              (lit(1.0) / log(col("degS") + col("degD"))).as("w"))
  }

  /** Number of directed edge rows with weight ≥ t (paper's
    * NumberOfHeavyEdges). No program caller: `TeraHAC` counts heavy edges
    * on its edge checkpoint (an observed metric). It stays only because the
    * frozen benchmark harness (`perfbench`) calls it.
    */
  def heavyCount(edges: DataFrame, t: Double): Long =
    edges.filter(col("w") >= t).count()

  /** Per-vertex maximum incident weight: (id, wmax). */
  def wmaxPerVertex(edges: DataFrame): DataFrame =
    edges.groupBy(col("src").as("id")).agg(max("w").as("wmax"))

  /** Contracts the graph by a total assignment (id → cid).
    *
    * Average-linkage aware: forms the raw cross weight `w·|u|·|v|` of every
    * edge keyed by (new src, old dst) and finishes with [[renameDst]].
    * Self loops (intra-cluster edges) vanish. Returns (edges', sizes').
    *
    * @param newSizes optional precomputed sizes of the new clusters;
    *                 derived from `sizes`+`assign` when absent. No program
    *                 caller passes it: it stays only because the frozen
    *                 benchmark harness (`perfbench`) does.
    */
  def contract(edges: DataFrame, sizes: DataFrame, assign: DataFrame,
               newSizes: Option[DataFrame] = None): (DataFrame, DataFrame) = {
    val ns = newSizes.getOrElse(
      sizes.join(assign, "id").groupBy(col("cid").as("id")).agg(sum("size").as("size")))
    val sized = assign.join(ns.select(col("id").as("cid"), col("size")), "cid")
    val partials = edges
      .join(sizes.select(col("id").as("src"), col("size").as("srcSize")), "src")
      .join(sizes.select(col("id").as("dst"), col("size").as("dstSize")), "dst")
      .join(sized.select(col("id").as("src"), col("cid").as("nsrc"), col("size").as("sA")), "src")
      .select(col("nsrc").as("src"), col("dst"),
              (col("w") * col("srcSize") * col("dstSize")).as("raw"), col("sA"))
    (renameDst(partials, sized), ns)
  }

  /** Finishes a contraction from partial sums: renames each partial row's
    * old `dst` to its new cluster, drops intra-cluster pairs, and
    * renormalizes the summed raw weight of every cluster pair by the
    * product of the new sizes, `Σ raw / (|A||B|)`.
    *
    * @param partials (src: new cluster of the source, dst: old vertex,
    *                 raw = w·|u|·|v|, sA: size of src), one row per edge
    * @param assign   (id: old vertex, cid: its new cluster, size: the new
    *                 cluster's size), total over the old vertices
    */
  def renameDst(partials: DataFrame, assign: DataFrame): DataFrame =
    partials
      .join(assign.select(col("id").as("dst"), col("cid").as("ndst"), col("size").as("sB")), "dst")
      .filter(col("src") =!= col("ndst"))
      .groupBy(col("src"), col("ndst").as("dst"), col("sA"), col("sB"))
      .agg(sum("raw").as("raw"))
      .select(col("src"), col("dst"), (col("raw") / (col("sA") * col("sB"))).as("w"))

  /** Vertex pruning (Alg. 1 line 7): drop vertices whose max incident
    * weight is < thr, together with all their edges. Returns (edges',
    * surviving vertex frame filtered by `vertices`' id column).
    */
  def prune(edges: DataFrame, vertices: DataFrame, thr: Double): (DataFrame, DataFrame) = {
    val keep = wmaxPerVertex(edges).filter(col("wmax") >= thr).select("id")
    val e = edges
      .join(keep.select(col("id").as("src")), Seq("src"), "left_semi")
      .join(keep.select(col("id").as("dst")), Seq("dst"), "left_semi")
      .select("src", "dst", "w")
    (e, vertices.join(keep, Seq("id"), "left_semi"))
  }

  /** Initial singleton vertex metadata for an edge frame. */
  def singletonVertices(edges: DataFrame): DataFrame =
    edges.select(col("src").as("id")).distinct()
      .select(col("id"), lit(1L).as("size"),
              lit(Double.PositiveInfinity).as("minMerge"), col("id").as("minLeaf"))
}
