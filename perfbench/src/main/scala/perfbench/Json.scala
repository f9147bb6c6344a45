package perfbench

import java.io.{File, PrintWriter}

/** Minimal JSON writing for the result line and the trace file. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  /** Whole numbers print without a fraction; others with all digits. */
  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"metric value $x is not finite")
    if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else x.toString
  }

  def writeResult(file: File, correct: Boolean, attempted: Int, failed: Int,
                  metrics: Map[String, Metric]): Unit = {
    val ms = metrics.toVector.sortBy(_._1).map { case (k, m) =>
      s"""${str(k)}: {"value": ${num(m.value)}, "unit": ${str(m.unit)}}""" }
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file, "UTF-8")
    try out.println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": {${ms.mkString(", ")}}}""")
    finally out.close()
  }
}
