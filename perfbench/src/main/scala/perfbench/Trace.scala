package perfbench

import java.io.{File, PrintWriter}
import java.util.concurrent.atomic.AtomicInteger
import scala.collection.mutable
import org.apache.spark.{SparkContext, Success}
import org.apache.spark.scheduler._

/** One traced interval. Times are epoch nanoseconds; `parent` is 0 for a
  * root span. Spark spans carry the task metrics in `attrs`.
  */
final case class Span(id: Int, parent: Int, kind: String, name: String,
                      start: Long, end: Long, attrs: Map[String, Double]) {
  def seconds: Double = (end - start) / 1e9
}

/** In-memory span store. The harness opens a span around every call it
  * makes into a layer; the [[SparkSpans]] listener adds one span per job,
  * stage and task, parented to the harness span that was open when the job
  * started. Spans are written out once, when the run ends.
  */
final class Tracer(sc: SparkContext) {
  private val ids = new AtomicInteger(0)
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open = List.empty[Int]
  private val named = mutable.HashMap.empty[String, Int]
  // epoch-ns clock with nanoTime resolution, comparable with Spark's ms times
  private val offsetNs = System.currentTimeMillis() * 1000000L - System.nanoTime()
  private val listener = new SparkSpans(this)
  sc.addSparkListener(listener)

  def nowNs: Long = System.nanoTime() + offsetNs
  def nextId(): Int = ids.incrementAndGet()
  def add(s: Span): Unit = synchronized { spans += s }
  def currentSpan: Int = open.headOption.getOrElse(0)
  /** Id of the latest harness span with this name. */
  def idOf(name: String): Int = named(name)

  /** Runs `body` inside a harness span named `name`. */
  def span[A](name: String)(body: => A): A = {
    val id = nextId()
    named(name) = id
    val parent = currentSpan
    open ::= id
    sc.setLocalProperty(SparkSpans.SpanKey, id.toString)
    val t0 = nowNs
    try body
    finally {
      add(Span(id, parent, "bench", name, t0, nowNs, Map.empty))
      open = open.tail
      sc.setLocalProperty(SparkSpans.SpanKey, open.headOption.map(_.toString).orNull)
    }
  }

  /** Waits until the listener has seen every event posted so far. */
  def drain(): Unit = {
    val bus = sc.getClass.getMethod("listenerBus").invoke(sc)
    bus.getClass.getMethod("waitUntilEmpty").invoke(bus)
  }

  def listenerSeconds: Double = listener.busyNs / 1e9

  def snapshot(): Vector[Span] = { drain(); synchronized(spans.toVector) }

  def detach(): Unit = sc.removeSparkListener(listener)

  /** Writes one JSON object per span, with its self time. */
  def write(file: File): Unit = {
    val all = snapshot()
    val self = Tracer.selfNs(all)
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file, "UTF-8")
    try for (s <- all.sortBy(_.start)) {
      val attrs = s.attrs.map { case (k, v) => s""""$k":${Json.num(v)}""" }.mkString(",")
      out.println(s"""{"id":${s.id},"parent":${s.parent},"kind":"${s.kind}",""" +
        s""""name":${Json.str(s.name)},"start_ns":${s.start},"end_ns":${s.end},""" +
        s""""self_ns":${self(s.id)},"attrs":{$attrs}}""")
    } finally out.close()
  }
}

object Tracer {
  /** Length of the union of the given intervals. */
  def unionNs(iv: Seq[(Long, Long)]): Long = {
    var total = 0L
    var curS = Long.MinValue
    var curE = Long.MinValue
    for ((s, e) <- iv.sortBy(_._1)) {
      if (s > curE) { total += curE - curS; curS = s; curE = e }
      else if (e > curE) curE = e
    }
    total + (curE - curS)
  }

  /** Self time of every span: its duration minus the part of it that its
    * children cover.
    */
  def selfNs(all: Seq[Span]): Map[Int, Long] = {
    val kids = all.groupBy(_.parent)
    all.map { s =>
      val cover = kids.getOrElse(s.id, Nil)
        .map(c => (math.max(c.start, s.start), math.min(c.end, s.end)))
        .filter { case (a, b) => b > a }
      s.id -> (s.end - s.start - unionNs(cover))
    }.toMap
  }

  /** Spans below `root` (not including it). */
  def descendants(all: Seq[Span], root: Int): Vector[Span] = {
    val kids = all.groupBy(_.parent)
    val out = Vector.newBuilder[Span]
    var frontier = List(root)
    while (frontier.nonEmpty) {
      val next = frontier.flatMap(p => kids.getOrElse(p, Nil))
      out ++= next
      frontier = next.map(_.id)
    }
    out.result()
  }
}

/** Records Spark jobs, stages and tasks as spans. A job's parent is the
  * harness span open on the thread that submitted it; a stage's parent is
  * the job that submitted it; a task's parent is its stage attempt.
  */
final class SparkSpans(tracer: Tracer) extends SparkListener {
  import SparkSpans.Open
  private val jobs = mutable.HashMap.empty[Int, Open]
  private val stageJob = mutable.HashMap.empty[Int, Int]        // stage id → job span
  private val stages = mutable.HashMap.empty[(Int, Int), Int]   // (stage, attempt) → span
  @volatile var busyNs = 0L

  private def ms(t: Long): Long = t * 1000000L
  private def timed(body: => Unit): Unit = {
    val t0 = System.nanoTime()
    synchronized(body)
    busyNs += System.nanoTime() - t0
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = timed {
    val parent = Option(e.properties).flatMap(p => Option(p.getProperty(SparkSpans.SpanKey)))
      .map(_.toInt).getOrElse(0)
    val id = tracer.nextId()
    jobs(e.jobId) = Open(id, parent, s"job ${e.jobId}", ms(e.time))
    e.stageIds.foreach(stageJob(_) = id)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = timed {
    jobs.remove(e.jobId).foreach { o =>
      val ok = if (e.jobResult == JobSucceeded) 1.0 else 0.0
      tracer.add(Span(o.id, o.parent, "job", o.name, o.start, ms(e.time), Map("succeeded" -> ok)))
    }
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = timed {
    val si = e.stageInfo
    stages((si.stageId, si.attemptNumber())) = tracer.nextId()
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = timed {
    val si = e.stageInfo
    stages.remove((si.stageId, si.attemptNumber())).foreach { id =>
      val start = si.submissionTime.getOrElse(0L)
      val end = si.completionTime.getOrElse(start)
      tracer.add(Span(id, stageJob.getOrElse(si.stageId, 0), "stage",
        s"stage ${si.stageId}.${si.attemptNumber()}", ms(start), ms(end),
        Map("tasks" -> si.numTasks.toDouble, "failed" -> (if (si.failureReason.isDefined) 1.0 else 0.0))))
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = timed {
    val ti = e.taskInfo
    val m = Option(e.taskMetrics)
    val attrs = Map(
      "failed" -> (if (e.reason == Success) 0.0 else 1.0),
      "executor_run_ms" -> m.map(_.executorRunTime.toDouble).getOrElse(0.0),
      "shuffle_write_bytes" -> m.map(_.shuffleWriteMetrics.bytesWritten.toDouble).getOrElse(0.0),
      "shuffle_read_bytes" -> m.map(_.shuffleReadMetrics.totalBytesRead.toDouble).getOrElse(0.0))
    val parent = stages.getOrElse((e.stageId, e.stageAttemptId), 0)
    tracer.add(Span(tracer.nextId(), parent, "task", s"task ${ti.taskId}",
      ms(ti.launchTime), ms(ti.finishTime), attrs))
  }
}

object SparkSpans {
  private final case class Open(id: Int, parent: Int, name: String, start: Long)

  /** Local property carrying the id of the open harness span. */
  val SpanKey = "perfbench.span"
}
