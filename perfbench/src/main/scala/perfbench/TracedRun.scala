package perfbench

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

/** The traced run: a listener records Spark jobs, stages and tasks, and the
  * harness opens a span around each call into a layer. The per-layer
  * metrics are read off those spans.
  */
final class TracedRun(spark: SparkSession, w: Workload, input: Input, o: Main.Opts) {
  import spark.implicits._
  import Main.median

  private val tracer = new Tracer(spark.sparkContext)

  def measure(): (Map[String, Metric], Int, Int) = {

    // 1. a full TeraHAC run, as in the end-to-end run
    val h = tracer.span("TeraHAC.run")(Layers.teraHAC(spark, input.edges, w.eps, w.t, w.cap))
    val d = tracer.span("Result.toLocal")(Layers.toLocal(h))
    val ok = Checks.passed(Checks.dendrogram(w, input, h, d) ++ Checks.approx(w, input, d) ++
      Checks.recall(Checks.recallP90(input, d)))
    tracer.span("Dendrogram.flatten")(Layers.thresholdGrid.foreach(Layers.flatten(d, _)))

    // 2. round 1, layer by layer, on the input
    val cids: Map[Long, Long] = tracer.span("AffinityPartitioner.partition") {
      Layers.partition(input.edges, w.cap).collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    }
    val directed = input.local.flatMap { case (u, v, x) => Vector((u, v, x), (v, u, x)) }
    // best edge per vertex: weight desc, neighbour id asc
    val best: Map[Long, Long] = directed.groupBy(_._1).map { case (v, es) =>
      v -> es.minBy { case (_, to, x) => (-x, to) }._2 }
    tracer.span("Functional.components")(Layers.components(best.toSeq.toDF("id", "to")).count())

    val groups = directed.groupBy(e => cids(e._1)).toVector.sortBy(_._1)
    val groupS = mutable.ArrayBuffer.empty[Double]
    val subs = tracer.span("SubgraphHAC.groups") {
      groups.map { case (c, es) =>
        val g = Layers.localGraph(es, v => cids(v) == c)
        val (sub, s) = Main.timed(Layers.subgraphHAC(g, w.eps))
        groupS += s
        sub
      }
    }
    val full = tracer.span("LocalGraph.build")(Layers.localGraph(input.local, _ => true))
    tracer.span("SubgraphHAC.full")(Layers.subgraphHAC(full, w.eps))

    val assign = subs.flatMap(_.assignment).toDF("id", "cid")
    val newSizes = subs.flatMap(_.newSizes).toDF("id", "size")
    val sizes = input.vertices.toSeq.map(v => (v, 1L)).toDF("id", "size")
    val contracted = tracer.span("GraphOps.contract") {
      val c = Layers.contract(input.edges, sizes, assign, newSizes).localCheckpoint()
      c.count(); c
    }
    tracer.span("GraphOps.prune")(Layers.prune(contracted, newSizes, w.t / (1 + w.eps)).count())
    tracer.span("GraphOps.heavyCount")(Layers.heavyCount(input.edges, w.t))

    // 3. the local exact baseline and the distributed baselines
    val exactGraph = Layers.localGraph(input.local, _ => true)
    val exactMerges = tracer.span("ExactHAC.run")(Layers.exactHAC(exactGraph))
    tracer.span("GraphDBSCAN.runDistributed")(
      Layers.dbscan(spark, input.edges, Workloads.DbscanEps, Workloads.DbscanMinPts))
    val vertexDf = input.vertices.toSeq.toDF("id")
    tracer.span("ConnectedComponents.run")(Layers.connectedComponents(vertexDf,
      input.edges.filter(col("w") >= Workloads.DbscanEps)))
    tracer.span("SCC.runDistributed")(Layers.scc(spark, input.edges, TracedRun.SccRounds, w.sccT))

    val all = tracer.snapshot()
    tracer.detach()
    tracer.write(o.traceFile)
    val byId = all.map(s => s.id -> s).toMap
    val self = Tracer.selfNs(all)
    def sp(name: String): Span = byId(tracer.idOf(name))
    def secs(name: String): Double = sp(name).seconds
    def jobs(name: String): Vector[Span] = all.filter(s => s.kind == "job" && s.parent == tracer.idOf(name)).toVector
    def below(name: String, kind: String): Vector[Span] =
      Tracer.descendants(all, tracer.idOf(name)).filter(_.kind == kind)
    def jobS(name: String): Double = Tracer.unionNs(jobs(name).map(j => (j.start, j.end))) / 1e9
    def sumAttr(name: String, attr: String): Double = below(name, "task").map(_.attrs(attr)).sum
    def mb(bytes: Double): Double = bytes / (1024.0 * 1024.0)

    val rounds = h.stats
    val nRounds = math.max(1, rounds.size)
    val hacJobs = jobs("TeraHAC.run").size
    val shrink = rounds.sliding(2).collect { case Seq(a, b) => b.nVertices.toDouble / a.nVertices }.toVector
    val degree = directed.groupBy(_._1).map { case (v, es) => v -> es.size.toDouble }
    val groupLoads = input.vertices.toVector.groupBy(cids).values.map(_.map(degree).sum).toVector
    val kept = best.count { case (v, to) => cids(v) == cids(to) }.toDouble / best.size
    val subMerges = subs.map(_.merges).sum.toDouble
    val groupsTotal = groupS.sum
    val scc = sp("SCC.runDistributed")

    def count(x: Double) = Metric(x, "count")
    def s(x: Double) = Metric(x, "s")
    val m = Map[String, Metric](
      "TeraHAC.hac_s" -> s(secs("TeraHAC.run") + secs("Result.toLocal")),
      "TeraHAC.rounds" -> count(h.rounds),
      "TeraHAC.jobs" -> count(hacJobs),
      "TeraHAC.jobs_per_round" -> Metric(hacJobs.toDouble / nRounds, "count"),
      "TeraHAC.stages" -> count(below("TeraHAC.run", "stage").size),
      "TeraHAC.tasks" -> count(below("TeraHAC.run", "task").size),
      "TeraHAC.job_s" -> s(jobS("TeraHAC.run")),
      "TeraHAC.driver_gap_s" -> s(self(tracer.idOf("TeraHAC.run")) / 1e9),
      "TeraHAC.task_busy_s" -> s(sumAttr("TeraHAC.run", "executor_run_ms") / 1e3),
      "TeraHAC.shuffle_write_mb" -> Metric(mb(sumAttr("TeraHAC.run", "shuffle_write_bytes")), "MB"),
      "TeraHAC.shuffle_read_mb" -> Metric(mb(sumAttr("TeraHAC.run", "shuffle_read_bytes")), "MB"),
      "TeraHAC.round1_ms" -> Metric(rounds.headOption.map(_.millis.toDouble).getOrElse(0.0), "ms"),
      "TeraHAC.round_ms_p50" -> Metric(median(rounds.map(_.millis.toDouble)), "ms"),
      "TeraHAC.round_ms_last" -> Metric(rounds.lastOption.map(_.millis.toDouble).getOrElse(0.0), "ms"),
      "TeraHAC.merges_per_round" -> Metric(rounds.map(_.merges).sum.toDouble / nRounds, "count"),
      "TeraHAC.shrink" -> Metric(if (shrink.isEmpty) 1.0 else median(shrink), "ratio"),
      "TeraHAC.stall_rounds" -> count(rounds.count(_.merges == 0)),
      "AffinityPartitioner.partition_s" -> s(secs("AffinityPartitioner.partition")),
      "AffinityPartitioner.jobs" -> count(jobs("AffinityPartitioner.partition").size),
      "AffinityPartitioner.groups" -> count(cids.values.toSet.size),
      "AffinityPartitioner.max_load" -> count(groupLoads.max),
      "AffinityPartitioner.load_skew" -> Metric(groupLoads.max / median(groupLoads), "ratio"),
      "AffinityPartitioner.best_edges_kept" -> Metric(kept, "ratio"),
      "Functional.components_s" -> s(secs("Functional.components")),
      "Functional.jobs" -> count(jobs("Functional.components").size),
      "SubgraphHAC.groups_s" -> s(groupsTotal),
      "SubgraphHAC.max_group_s" -> s(groupS.max),
      "SubgraphHAC.merges" -> count(subMerges),
      "SubgraphHAC.merges_per_s" -> Metric(subMerges / groupsTotal, "1/s"),
      "SubgraphHAC.merge_ratio" -> Metric(subMerges / subs.map(_.actives).sum, "ratio"),
      "SubgraphHAC.full_s" -> s(secs("SubgraphHAC.full")),
      "LocalGraph.build_s" -> s(secs("LocalGraph.build")),
      "ExactHAC.run_s" -> s(secs("ExactHAC.run")),
      "ExactHAC.merges_per_s" -> Metric(exactMerges / secs("ExactHAC.run"), "1/s"),
      "GraphOps.contract_s" -> s(secs("GraphOps.contract")),
      "GraphOps.contract_jobs" -> count(jobs("GraphOps.contract").size),
      "GraphOps.contract_shuffle_mb" -> Metric(mb(sumAttr("GraphOps.contract", "shuffle_write_bytes")), "MB"),
      "GraphOps.prune_s" -> s(secs("GraphOps.prune")),
      "GraphOps.heavyCount_s" -> s(secs("GraphOps.heavyCount")),
      "Dendrogram.to_local_s" -> s(secs("Result.toLocal")),
      "Dendrogram.flatten_s" -> s(secs("Dendrogram.flatten")),
      "SCC.run_s" -> s(scc.seconds),
      "SCC.jobs" -> count(jobs("SCC.runDistributed").size),
      "SCC.job_s" -> s(jobS("SCC.runDistributed")),
      "SCC.driver_gap_s" -> s(self(scc.id) / 1e9),
      "GraphDBSCAN.run_s" -> s(secs("GraphDBSCAN.runDistributed")),
      "GraphDBSCAN.jobs" -> count(jobs("GraphDBSCAN.runDistributed").size),
      "GraphDBSCAN.job_s" -> s(jobS("GraphDBSCAN.runDistributed")),
      "ConnectedComponents.run_s" -> s(secs("ConnectedComponents.run")),
      "ConnectedComponents.jobs" -> count(jobs("ConnectedComponents.run").size),
      "spark.task_failures" -> count(all.count(x => x.kind == "task" && x.attrs("failed") > 0)),
      "trace.listener_s" -> s(tracer.listenerSeconds),
      "trace.spans" -> count(all.size),
    )
    (m, 1, if (ok) 0 else 1)
  }
}

object TracedRun {
  /** SCC rounds in the trace. SCC-5, the paper's setting, spends minutes in
    * query planning from its fifth round on, beyond the time of one run.
    */
  val SccRounds = 3
}
