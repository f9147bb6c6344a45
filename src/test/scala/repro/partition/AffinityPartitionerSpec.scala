package repro.partition

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestUtil}
import repro.graph.GraphOps

class AffinityPartitionerSpec extends SparkSpec {

  private def sym(edges: Seq[(Long, Long, Double)]) = {
    import spark.implicits._
    GraphOps.symmetrize(edges.toDF("src", "dst", "w"))
  }

  private def partitionMap(edges: Seq[(Long, Long, Double)], cap: Long): Map[Long, Long] =
    AffinityPartitioner.partition(sym(edges), cap)
      .collect().map(r => r.getLong(0) -> r.getLong(1)).toMap

  test("reciprocal best pair lands in one cluster") {
    val p = partitionMap(Seq((1L, 2L, 0.9), (2L, 3L, 0.1)), cap = 1000)
    assert(p(1L) == p(2L))
  }

  test("chain of best edges forms one affinity cluster") {
    // 1→2 (0.5), 2→3 (0.6), 3→4 (0.7), 4⇄3: all marked edges connect 1..4
    val p = partitionMap(
      Seq((1L, 2L, 0.5), (2L, 3L, 0.6), (3L, 4L, 0.7)), cap = 1000)
    assert(p.values.toSet.size == 1)
  }

  test("weak bridges split clusters") {
    // two tight pairs joined by a weak edge: 2 clusters
    val p = partitionMap(
      Seq((1L, 2L, 0.9), (3L, 4L, 0.8), (2L, 3L, 0.1)), cap = 1000)
    assert(p(1L) == p(2L))
    assert(p(3L) == p(4L))
    assert(p(1L) != p(3L))
  }

  test("every vertex with an edge is assigned exactly once") {
    val edges = TestUtil.randomConnectedGraph(50, 80, seed = 3)
    val p = partitionMap(edges, cap = 1L << 20)
    assert(p.keySet == (0 until 50).map(_.toLong).toSet)
  }

  test("uncapped affinity keeps every best edge intra-cluster") {
    import repro.core.LocalGraph
    val edges = TestUtil.randomConnectedGraph(40, 70, seed = 5)
    val p = partitionMap(edges, cap = 1L << 30)
    val g = LocalGraph.fromEdges(edges)
    for (v <- g.vertices) {
      val best = g.nbrs(v).toVector.minBy { case (a, w) => (-w, a) }._1
      assert(p(v) == p(best), s"best edge $v-$best crosses clusters")
    }
  }

  test("partition matches local affinity components when uncapped") {
    import repro.core.LocalGraph
    for (seed <- 1 to 3) {
      val edges = TestUtil.randomConnectedGraph(45, 90, seed)
      val p = partitionMap(edges, cap = 1L << 30)
      val g = LocalGraph.fromEdges(edges)
      val f = g.vertices.map { v =>
        (v, g.nbrs(v).toVector.minBy { case (a, w) => (-w, a) }._1)
      }.toVector
      val ref = TestUtil.naiveComponents(f.map(_._1), f)
      assert(TestUtil.samePartition(p, ref), s"seed=$seed")
    }
  }

  test("size cap splits an oversized cluster") {
    // star: all best edges point at the hub → one affinity cluster, then
    // the cap forces a split
    val edges = (1 to 40).map(i => (0L, i.toLong, 0.5 + i * 0.001))
    val pUncapped = partitionMap(edges, cap = 1L << 20)
    assert(pUncapped.values.toSet.size == 1)
    val pCapped = partitionMap(edges, cap = 20)
    assert(pCapped.values.toSet.size > 1)
  }

  test("splitting is deterministic") {
    val edges = TestUtil.randomConnectedGraph(40, 80, seed = 7)
    val a = partitionMap(edges, cap = 30)
    val b = partitionMap(edges, cap = 30)
    assert(a == b)
  }

  test("oracle: best-edge selection matches SQL arg-max") {
    val edges = TestUtil.randomConnectedGraph(25, 40, seed = 11)
    val e = sym(edges)
    val best = GraphOps.bestEdge(e).select(col("id"), col("to").as("best_dst"))
    Oracle.assertEquivalent(
      best,
      """SELECT src AS id, dst AS best_dst FROM (
        |  SELECT CAST(src AS BIGINT) AS src, CAST(dst AS BIGINT) AS dst,
        |         row_number() OVER (PARTITION BY CAST(src AS BIGINT)
        |           ORDER BY CAST(w AS DOUBLE) DESC, CAST(dst AS BIGINT) ASC) AS rn
        |  FROM edges) WHERE rn = 1""".stripMargin,
      "edges" -> e)
  }

  test("oracle: per-cluster degree load matches SQL aggregation") {
    val edges = TestUtil.randomConnectedGraph(25, 40, seed = 13)
    val e = sym(edges)
    val comps = Functional.components(GraphOps.bestEdge(e).select("id", "to"))
    val deg = e.groupBy(col("src").as("id")).agg(count("*").as("deg"))
    val load = comps.join(deg, "id").groupBy("root").agg(sum("deg").as("load"))
    Oracle.assertEquivalent(
      load,
      """SELECT CAST(c.root AS BIGINT) AS root,
        |       CAST(SUM(d.deg) AS BIGINT) AS load FROM comps c
        |JOIN (SELECT src AS id, COUNT(*) AS deg FROM edges GROUP BY src) d
        |  ON c.id = d.id
        |GROUP BY c.root""".stripMargin,
      "comps" -> comps, "edges" -> e)
  }
}
