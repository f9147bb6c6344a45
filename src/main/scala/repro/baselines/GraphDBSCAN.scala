package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.collection.mutable
import repro.graph.{GraphOps, UnionFind}
import repro.partition.ConnectedComponents

/** Graph-input DBSCAN, as adapted in §6.3 of the paper:
  *
  *  1. a vertex is a *core* vertex iff it has ≥ minPts incident edges of
  *     weight ≥ ε;
  *  2. core clusters = connected components of the subgraph of core
  *     vertices and the weight-≥ ε edges between them;
  *  3. a non-core vertex with no core neighbor of similarity ≥ ε becomes a
  *     singleton; every other non-core vertex joins the cluster of its most
  *     similar core neighbor.
  *
  * Distributed (Table 3 timings) and local (Table 2 grid search) backends;
  * tests assert agreement.
  */
object GraphDBSCAN {

  // ---------------------------------------------------------- distributed

  /** @return (id, cluster) for every vertex of the graph */
  def runDistributed(spark: SparkSession, edges: DataFrame, epsSim: Double,
                     minPts: Int): DataFrame = {
    val vertices = edges.select(col("src").as("id")).distinct()
    val heavy = edges.filter(col("w") >= epsSim)
    val core = heavy.groupBy(col("src").as("id")).agg(count("*").as("cnt"))
      .filter(col("cnt") >= minPts).select("id")

    val coreEdges = heavy
      .join(core.select(col("id").as("src")), Seq("src"), "left_semi")
      .join(core.select(col("id").as("dst")), Seq("dst"), "left_semi")
      .select("src", "dst")
    val comp = ConnectedComponents.run(core, coreEdges) // (id, root)

    // non-core vertices with a core neighbor of weight ≥ ε: join the most
    // similar such neighbor's cluster (ties → smaller neighbor id)
    val nonCore = vertices.join(core, Seq("id"), "left_anti")
    val toCore = GraphOps.bestEdge(heavy
      .join(nonCore.select(col("id").as("src")), Seq("src"), "left_semi")
      .join(core.select(col("id").as("dst")), Seq("dst"), "left_semi"))
      .select(col("id"), col("to").as("via"))
      .join(comp.select(col("id").as("via"), col("root")), "via")
      .select(col("id"), col("root").as("cluster"))

    val coreOut = comp.select(col("id"), col("root").as("cluster"))
    val singletons = vertices
      .join(core, Seq("id"), "left_anti")
      .join(toCore.select("id"), Seq("id"), "left_anti")
      .select(col("id"), col("id").as("cluster"))
    coreOut.union(toCore).union(singletons)
  }

  // ---------------------------------------------------------------- local

  /** `edges` may list each undirected pair once or twice (duplicates are
    * deduped through the adjacency map).
    */
  def runLocal(edges: Iterable[(Long, Long, Double)], epsSim: Double,
               minPts: Int): Map[Long, Long] = {
    val adj = mutable.HashMap.empty[Long, mutable.HashMap[Long, Double]]
    def add(u: Long, v: Long, w: Double): Unit =
      adj.getOrElseUpdate(u, mutable.HashMap.empty)(v) = w
    for ((u, v, w) <- edges) { add(u, v, w); add(v, u, w) }

    val core = adj.iterator.collect {
      case (v, ns) if ns.valuesIterator.count(_ >= epsSim) >= minPts => v
    }.to(mutable.HashSet)

    val uf = new UnionFind
    for (v <- core; (a, w) <- adj(v) if w >= epsSim && core.contains(a)) uf.union(v, a)

    val out = mutable.HashMap.empty[Long, Long]
    for (v <- core) out(v) = uf.find(v)
    for ((v, ns) <- adj if !core.contains(v)) {
      var bw = Double.NegativeInfinity; var bn = -1L
      for ((a, w) <- ns if w >= epsSim && core.contains(a)) {
        if (w > bw || (w == bw && a < bn)) { bw = w; bn = a }
      }
      out(v) = if (bn >= 0) uf.find(bn) else v
    }
    out.toMap
  }
}
