package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.{SynthGraphs, SynthPoints}
import repro.baselines.{ExactHAC, GraphDBSCAN, SCC}
import repro.core.{Dendrogram, LocalGraph, SubgraphHAC, TeraHAC}
import repro.core.model.FpSlack
import repro.exp.QualityExperiment
import repro.graph.GraphOps
import repro.partition.{AffinityPartitioner, ConnectedComponents, Functional}
import repro.quality.Metrics

/** The one file of the harness that calls into the program. A change to a
  * layer's signature should touch only this file.
  *
  * Results are read by field name, never by position, so fields added to
  * `TeraHAC.RoundStat` or `TeraHAC.Result` do not break the harness.
  */
object Layers {

  type UEdge = (Long, Long, Double)
  type Dendro = Dendrogram

  // ------------------------------------------------------------- inputs

  def plantedGraph(spark: SparkSession, n: Long, clusterSize: Int, seed: Long): DataFrame =
    SynthGraphs.plantedGraph(spark, n, clusterSize, seed = seed)

  def plantedLabel(clusterSize: Int)(v: Long): Long = SynthGraphs.plantedLabel(clusterSize)(v)

  def labeledPairs(n: Long, clusterSize: Int, count: Int, seed: Long): Vector[(Long, Long, Boolean)] =
    SynthGraphs.labeledPairs(n, clusterSize, count, seed = seed)

  /** The `digits` stand-in with `n` points, generated from `seed`:
    * (id → class label, complete max-normalized similarity graph).
    */
  def digits(n: Int, seed: Long): (Map[Long, Long], Vector[UEdge]) = {
    val spec = SynthPoints.QualityDatasets.find(_.name == "digits").get.copy(n = n, seed = seed)
    val pts = SynthPoints.dataset(spec)
    (pts.map(p => p.id -> p.label).toMap, SynthPoints.completeSimGraph(pts))
  }

  def collectUndirected(edges: DataFrame): Vector[UEdge] = SynthGraphs.collectUndirected(edges)

  // ------------------------------------------------------------ TeraHAC

  final case class Round(nVertices: Long, nDirectedEdges: Long, merges: Long,
                         heavyEdges: Long, millis: Long)

  /** A TeraHAC run; `result` stays opaque to the harness. */
  final case class Hac(result: TeraHAC.Result) {
    def rounds: Int = result.rounds
    def stats: Vector[Round] = result.stats.map(s =>
      Round(s.nVertices, s.nDirectedEdges, s.merges, s.heavyEdges, s.millis))
  }

  def teraHAC(spark: SparkSession, edges: DataFrame, eps: Double, t: Double,
              cap: Long): Hac =
    Hac(TeraHAC.run(spark, edges, eps = eps, t = t, maxClusterEdges = cap))

  def toLocal(h: Hac): Dendrogram = h.result.toLocal

  // --------------------------------------------------------- dendrogram

  def validate(d: Dendrogram): Unit = d.validate()
  def leaves(d: Dendrogram): Set[Long] = d.leafSet
  def numMerges(d: Dendrogram): Int = d.numMerges
  def flatten(d: Dendrogram, t: Double): Map[Long, Long] = d.flatten(t)

  // -------------------------------------------------- partition layers

  def partition(edges: DataFrame, cap: Long): DataFrame =
    AffinityPartitioner.partition(edges, cap, salt = 0L)

  def components(f: DataFrame): DataFrame = Functional.components(f)

  // --------------------------------------------------- local kernels

  /** Builds a LocalGraph of singleton clusters through the public API;
    * `active` decides which vertices may merge.
    */
  def localGraph(edges: Iterable[UEdge], active: Long => Boolean): LocalGraph = {
    val g = new LocalGraph
    for ((u, v, w) <- edges) {
      g.ensureVertex(u, 1L, Double.PositiveInfinity, u, isActive = active(u))
      g.ensureVertex(v, 1L, Double.PositiveInfinity, v, isActive = active(v))
      g.addEdge(u, v, w)
    }
    g
  }

  final case class Sub(merges: Int, actives: Int, assignment: Map[Long, Long],
                       newSizes: Vector[(Long, Long)])

  def subgraphHAC(g: LocalGraph, eps: Double): Sub = {
    val actives = g.active.size
    val r = SubgraphHAC.run(g, eps)
    Sub(r.merges.size / 2, actives, r.assignment, r.meta.map(m => (m.id, m.size)))
  }

  /** Exact HAC on `g`; returns the number of merges. */
  def exactHAC(g: LocalGraph): Int = ExactHAC.run(g).size / 2

  // -------------------------------------------------------- graph ops

  def contract(edges: DataFrame, sizes: DataFrame, assign: DataFrame,
               newSizes: DataFrame): DataFrame =
    GraphOps.contract(edges, sizes, assign, newSizes = Some(newSizes))._1

  def prune(edges: DataFrame, vertices: DataFrame, thr: Double): DataFrame =
    GraphOps.prune(edges, vertices, thr)._1

  def heavyCount(edges: DataFrame, t: Double): Long = GraphOps.heavyCount(edges, t)

  // -------------------------------------------------------- baselines

  /** SCC with `rounds` rounds, up to the count of its last level. */
  def scc(spark: SparkSession, edges: DataFrame, rounds: Int, t: Double): Long =
    SCC.runDistributed(spark, edges, rounds = rounds, t = t).levels.last.count()

  /** Graph DBSCAN, up to the count of its (id, cluster) rows. */
  def dbscan(spark: SparkSession, edges: DataFrame, epsSim: Double, minPts: Int): Long =
    GraphDBSCAN.runDistributed(spark, edges, epsSim = epsSim, minPts = minPts).count()

  def connectedComponents(vertices: DataFrame, edges: DataFrame): Long =
    ConnectedComponents.run(vertices, edges).count()

  // ---------------------------------------------------------- quality

  def thresholdGrid: Vector[Double] = QualityExperiment.ThresholdGrid
  def fpSlack: Double = FpSlack
  def ari(a: Map[Long, Long], b: Map[Long, Long]): Double = Metrics.ari(a, b)
  def precisionRecall(c: Map[Long, Long], pairs: Seq[(Long, Long, Boolean)]): (Double, Double) =
    Metrics.precisionRecall(c, pairs)
  def approxRatio(edges: Iterable[UEdge], d: Dendrogram): Double =
    Metrics.empiricalApproxRatio(edges, d)
}
