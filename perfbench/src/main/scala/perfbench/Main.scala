package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.io.Source
import org.apache.spark.sql.{DataFrame, SparkSession}
import perfbench.Layers.UEdge

/** The generated input of one workload, materialized. */
final case class Input(edges: DataFrame, local: Vector[UEdge], vertices: Set[Long],
                       labels: Map[Long, Long], pairs: Vector[(Long, Long, Boolean)]) {
  def directedEdges: Long = 2L * local.size
}

/** One named workload: how its input is made from a seed and the
  * parameters the layers run with.
  */
final case class Workload(name: String, eps: Double, t: Double, cap: Long,
                          sccT: Double, exactCheck: Boolean,
                          generate: (SparkSession, Long) => Input)

object Workloads {
  val ClusterSize = 8
  val WebQueryN = 1000L
  val DigitsN = 300
  val Pairs = 4000
  /** Table 3 flatten thresholds. */
  val RecallThresholds: Vector[Double] =
    Vector(0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05)
  /** Lowest accepted recall at precision ≥ 0.9; the seed state measures
    * 0.996–1.0 on both workloads.
    */
  val RecallFloor = 0.95
  /** DBSCAN(ε, minPts) of Table 3. */
  val DbscanEps = 0.9
  val DbscanMinPts = 4

  private def materialize(df: DataFrame): DataFrame = df.localCheckpoint()

  private def webquery(spark: SparkSession, seed: Long): Input = {
    val edges = materialize(Layers.plantedGraph(spark, WebQueryN, ClusterSize, seed))
    val local = Layers.collectUndirected(edges)
    val vertices = local.iterator.flatMap(e => Iterator(e._1, e._2)).toSet
    Input(edges, local, vertices,
      vertices.iterator.map(v => v -> Layers.plantedLabel(ClusterSize)(v)).toMap,
      Layers.labeledPairs(WebQueryN, ClusterSize, Pairs, seed + 1))
  }

  private def digits(spark: SparkSession, seed: Long): Input = {
    import spark.implicits._
    val (labels, complete) = Layers.digits(DigitsN, seed)
    val both = complete.flatMap { case (u, v, w) => Vector((u, v, w), (v, u, w)) }
    val edges = materialize(spark.sparkContext.parallelize(both, 4).toDF("src", "dst", "w"))
    Input(edges, complete, labels.keySet, labels, pairsFromLabels(labels, Pairs, seed + 1))
  }

  /** Labeled pairs drawn from class labels, 13 % positive as in the
    * paper's Web-Query sample.
    */
  def pairsFromLabels(labels: Map[Long, Long], count: Int,
                      seed: Long): Vector[(Long, Long, Boolean)] = {
    val rng = new scala.util.Random(seed)
    val byLabel = labels.toVector.groupBy(_._2).map { case (l, vs) => l -> vs.map(_._1).sorted }
    val classes = byLabel.keys.toVector.sorted
    val ids = labels.keys.toVector.sorted
    Vector.fill(count) {
      if (rng.nextDouble() < 0.13) {
        val members = byLabel(classes(rng.nextInt(classes.size)))
        val a = members(rng.nextInt(members.size))
        var b = a
        while (b == a) b = members(rng.nextInt(members.size))
        (a, b, true)
      } else {
        var a = ids(rng.nextInt(ids.size)); var b = ids(rng.nextInt(ids.size))
        while (labels(a) == labels(b)) { a = ids(rng.nextInt(ids.size)); b = ids(rng.nextInt(ids.size)) }
        (a, b, false)
      }
    }
  }

  val all: Vector[Workload] = Vector(
    Workload("webquery", eps = 0.1, t = 0.05, cap = 1L << 18,
      sccT = 0.05, exactCheck = false, generate = webquery),
    Workload("digits-dense", eps = 0.1, t = 0.0, cap = 1L << 40,
      sccT = 0.01, exactCheck = true, generate = digits),
  )
}

/** A metric as printed: value and unit. Counts print as whole numbers. */
final case class Metric(value: Double, unit: String)

object Main {

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean,
                        result: File, traceFile: File)

  private def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, sys.error(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1",
      new File(need("result")), new File(need("trace-file")))
  }

  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** The JVM's peak resident set (VmHWM), in MB. */
  def peakRssMb(): Double = {
    val src = Source.fromFile("/proc/self/status")
    try src.getLines().collectFirst {
      case l if l.startsWith("VmHWM:") => l.split("\\s+")(1).toDouble / 1024.0
    }.getOrElse(Double.NaN)
    finally src.close()
  }

  /** Prints a progress line with the time since the JVM started and the
    * JVM's running totals of GC time, JIT compilation time and CPU time.
    */
  def log(msg: String): Unit = {
    import scala.jdk.CollectionConverters._
    val gc = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum / 1e3
    val jit = ManagementFactory.getCompilationMXBean.getTotalCompilationTime / 1e3
    val cpu = ManagementFactory.getOperatingSystemMXBean
      .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime / 1e9
    println(f"[perfbench] ${ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%8.2f s  " +
      f"gc $gc%.2f s, jit $jit%.2f s, cpu $cpu%.2f s  $msg")
  }

  /** Number of set-up repetitions; set-up time is their median. */
  val SetupReps = 3

  /** One untimed TeraHAC run on a small fixed graph (64 vertices, two
    * rounds) before anything is measured. The first run in a JVM pays for
    * class loading, JIT compilation and Spark's code generation; how much
    * that costs varies from run to run with the load of the machine. After
    * this run the timed one finds the generated code in Spark's cache and
    * most of the planner compiled. Its time is part of `setup_s`.
    */
  def warmUp(spark: SparkSession, w: Workload): Unit = {
    val g = Layers.plantedGraph(spark, 64, Workloads.ClusterSize, seed = 7).localCheckpoint()
    val h = Layers.teraHAC(spark, g, w.eps, t = 0.9, w.cap)
    Layers.toLocal(h)
    log(s"warm-up: ${h.rounds} rounds")
  }

  def session(): SparkSession = {
    val k = math.min(4, Runtime.getRuntime.availableProcessors())
    val s = SparkSession.builder()
      .master(s"local[$k]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "8")
      .config("spark.default.parallelism", "4")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      // Spark's default cache of 100 generated classes is smaller than the
      // set of distinct plans of one TeraHAC round, so every round would
      // recompile its code and the JIT would compile the new classes again.
      .config("spark.sql.codegen.cache.maxEntries", "10000")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(".bench_build/spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(".bench_build/warehouse").getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val w = Workloads.all.find(_.name == o.workload)
      .getOrElse(sys.error(s"unknown workload ${o.workload}"))
    val spark = session()
    val sessionS = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
    val gens = (1 to SetupReps).map(_ => timed(w.generate(spark, o.seed)))
    val input = gens.last._1
    gens.init.foreach(_._1.edges.unpersist())
    val (_, warmS) = timed(warmUp(spark, w))
    val setupS = sessionS + median(gens.map(_._2)) + warmS
    println(f"[perfbench] ${w.name} seed=${o.seed}: ${input.vertices.size} vertices, " +
      f"${input.directedEdges} directed edges, warm-up ${warmS}%.2f s, set-up ${setupS}%.2f s")

    log("set-up done")
    // each mode returns (metrics, operations attempted, operations failed)
    val (metrics, attempted, failed) =
      if (o.trace) new TracedRun(spark, w, input, o).measure()
      else new EndToEndRun(spark, w, input, o).measure()
    log("measured and checked")
    val all = if (o.trace) metrics else metrics + ("setup_s" -> Metric(setupS, "s"))
    println(f"[perfbench] attempted=$attempted failed=$failed " +
      f"failed_frac=${failed.toDouble / math.max(1, attempted)}%.3f")
    for ((k, m) <- all.toVector.sortBy(_._1)) println(f"[perfbench]   $k%-36s ${m.value}%14.4f ${m.unit}")
    Json.writeResult(o.result, failed == 0, attempted, failed, all)
    spark.stop()
  }
}

/** Output checks shared by both modes; each returns the problems found. */
object Checks {
  /** Prints the problems; true when there are none. */
  def passed(problems: Vector[String]): Boolean = {
    problems.foreach(p => System.err.println(s"[perfbench] check failed: $p"))
    problems.isEmpty
  }

  def dendrogram(w: Workload, input: Input, h: Layers.Hac,
                 d: Layers.Dendro): Vector[String] = {
    val p = Vector.newBuilder[String]
    try Layers.validate(d) catch { case e: IllegalArgumentException => p += s"validate: ${e.getMessage}" }
    if (Layers.leaves(d) != input.vertices) p += "leaves differ from the input vertex set"
    h.stats.lastOption.foreach(s => if (s.heavyEdges != 0) p += s"last round left ${s.heavyEdges} heavy edges")
    if (w.exactCheck && Layers.numMerges(d) != input.vertices.size - 1)
      p += s"${Layers.numMerges(d)} merges, expected ${input.vertices.size - 1}"
    p.result()
  }

  /** The (1+ε) guarantee, replayed on the input; as costly as exact HAC. */
  def approx(w: Workload, input: Input, d: Layers.Dendro): Vector[String] =
    if (!w.exactCheck) Vector.empty
    else {
      val r = Layers.approxRatio(input.local, d)
      val bound = (1 + w.eps) * (1 + Layers.fpSlack)
      if (r <= bound) Vector.empty else Vector(f"approximation ratio $r%.6f > $bound%.6f")
    }

  def recall(r: Double): Vector[String] =
    if (r >= Workloads.RecallFloor) Vector.empty
    else Vector(f"recall at precision 0.9 is $r%.4f < ${Workloads.RecallFloor}")

  /** Best flat ARI against the labels over the quality threshold grid. */
  def ari(input: Input, d: Layers.Dendro): Double =
    Layers.thresholdGrid.map(t => Layers.ari(Layers.flatten(d, t), input.labels)).max

  /** Best recall at precision ≥ 0.9 over the Table 3 flatten thresholds. */
  def recallP90(input: Input, d: Layers.Dendro): Double =
    Workloads.RecallThresholds.map(t => Layers.precisionRecall(Layers.flatten(d, t), input.pairs))
      .collect { case (p, r) if p >= 0.9 => r }.maxOption.getOrElse(0.0)
}

/** The end-to-end run: no listener, no spans. */
final class EndToEndRun(spark: SparkSession, w: Workload, input: Input, o: Main.Opts) {
  import Main.{median, timed}

  def measure(): (Map[String, Metric], Int, Int) = {
    val hacS = mutable.ArrayBuffer.empty[Double]
    var attempted = 0
    var failed = 0
    var last: Option[Layers.Dendro] = None
    val t0 = System.nanoTime()
    while (attempted == 0 || (System.nanoTime() - t0) / 1e9 < o.seconds) {
      attempted += 1
      try {
        val ((h, d), s) = timed {
          val h = Layers.teraHAC(spark, input.edges, w.eps, w.t, w.cap)
          (h, Layers.toLocal(h))
        }
        Main.log(f"TeraHAC ${s}%.2f s")
        for ((r, i) <- h.stats.zipWithIndex)
          println(s"[perfbench]   round ${i + 1}: $r")
        if (Checks.passed(Checks.dendrogram(w, input, h, d))) { hacS += s; last = Some(d) }
        else failed += 1
      } catch {
        case e: Exception =>
          failed += 1
          System.err.println(s"[perfbench] run failed: $e")
      }
    }
    val metrics = last.map { d =>
      val recall = Checks.recallP90(input, d)
      if (!Checks.passed(Checks.approx(w, input, d) ++ Checks.recall(recall))) failed += 1
      val hac = median(hacS.toSeq)
      Map(
        "hac_s" -> Metric(hac, "s"),
        "edges_per_s" -> Metric(input.directedEdges / hac, "1/s"),
        "ari" -> Metric(Checks.ari(input, d), "ratio"),
        "recall_p90" -> Metric(recall, "ratio"),
        "peak_rss_mb" -> Metric(Main.peakRssMb(), "MB"))
    }.getOrElse(Map.empty)
    (metrics, attempted, failed)
  }
}
