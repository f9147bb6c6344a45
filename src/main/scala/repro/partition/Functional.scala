package repro.partition

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.GraphOps

/** Components of a *functional* graph (every vertex has exactly one
  * out-pointer, e.g. its best-weight neighbor).
  *
  * Under (weight desc, id asc) tie-breaking, a best-neighbor graph's only
  * cycles are 2-cycles (reciprocal pairs) — a k-cycle would force all k
  * weights equal and the id tie-breaks to be simultaneously decreasing,
  * a contradiction. We canonicalize each 2-cycle to point at its min id,
  * then pointer-jump to the fixpoint, which is exact for trees hanging off
  * canonicalized roots.
  *
  * Used by the affinity partitioner and by every SCC compression round.
  */
object Functional {

  /** @param f (id, to) — one row per vertex; self loops allowed (roots).
    * @return (id, root) — root = min id of the component's central pair.
    */
  def components(f: DataFrame): DataFrame = {
    val p0 = f.as("a")
      .join(f.as("b"), col("a.to") === col("b.id"))
      .select(col("a.id").as("id"),
        when(col("b.to") === col("a.id"), least(col("a.id"), col("a.to")))
          .otherwise(col("a.to")).as("p"))
    GraphOps.fixpoint(p0)(GraphOps.jump).select(col("id"), col("p").as("root"))
  }
}
