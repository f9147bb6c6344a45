package repro.partition

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.GraphOps

/** Generic connected components over an arbitrary symmetric edge frame
  * (used by the DBSCAN baseline's core-subgraph step).
  *
  * Alternates min-label propagation along edges with pointer doubling
  * (hash-to-min style), which converges in O(log n) rounds on any graph.
  */
object ConnectedComponents {

  /** @param vertices (id) — every vertex, including isolated ones
    * @param symEdges (src, dst) symmetric edge rows
    * @return (id, root) with root = min id in the component
    */
  def run(vertices: DataFrame, symEdges: DataFrame): DataFrame = {
    val edges = symEdges.select("src", "dst")
    // labels only decrease and always name a vertex, so after propagating
    // the neighbor minimum one hop a plain jump keeps the smaller label
    def propagate(p: DataFrame): DataFrame = {
      val nbrMin = edges
        .join(p.select(col("id").as("dst"), col("p").as("np")), "dst")
        .groupBy(col("src").as("id")).agg(min("np").as("nm"))
      p.join(nbrMin, Seq("id"), "left_outer")
        .select(col("id"), least(col("p"), col("nm")).as("p"))
    }
    GraphOps.fixpoint(vertices.select(col("id"), col("id").as("p")))(
      p => GraphOps.jump(propagate(p)))
      .select(col("id"), col("p").as("root"))
  }
}
