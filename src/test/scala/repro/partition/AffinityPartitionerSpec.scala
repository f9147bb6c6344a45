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

  private def q(cid: Long, dstCid: Long, w: Double, rows: Long) =
    AffinityPartitioner.QuotientRow(cid, dstCid, w, rows)

  test("coarsen: no group's load exceeds the cap unless it is one level-1 cluster") {
    val edges = TestUtil.randomConnectedGraph(60, 150, seed = 17)
    val level1 = (0L until 60L).map(v => v -> (v - v % 3)).toMap
    val quot = TestUtil.quotient(edges, level1)
    val load = quot.groupBy(_.cid).map { case (c, rs) => c -> rs.map(_.rows).sum }
    for (cap <- Seq(4L, 10L, 30L, 100L)) {
      val m = AffinityPartitioner.coarsen(quot, cap)
      assert(m.keySet == load.keySet)
      for ((g, members) <- m.groupBy(_._2)) {
        assert(members.keys.min == g, s"cap=$cap: group $g is not its minimum cid")
        val l = members.keys.iterator.map(load).sum
        assert(l <= cap || members.size == 1, s"cap=$cap: group $g has load $l")
      }
    }
    assert(AffinityPartitioner.coarsen(quot, 1L << 20).values.toSet == Set(0L))
  }

  test("coarsen unions the heaviest cross row first, ties toward smaller cids") {
    // clusters 1, 2, 3 of load 2 each; a cap of 4 admits one union only
    def chain(w12: Double, w23: Double) = Seq(
      q(1, 1, 0.5, 1), q(1, 2, w12, 1), q(2, 1, w12, 1),
      q(2, 3, w23, 1), q(3, 2, w23, 1), q(3, 3, 0.5, 1))
    assert(AffinityPartitioner.coarsen(chain(0.9, 0.8), 4) == Map(1L -> 1L, 2L -> 1L, 3L -> 3L))
    assert(AffinityPartitioner.coarsen(chain(0.8, 0.9), 4) == Map(1L -> 1L, 2L -> 2L, 3L -> 2L))
    assert(AffinityPartitioner.coarsen(chain(0.8, 0.8), 4) == Map(1L -> 1L, 2L -> 1L, 3L -> 3L))
  }

  test("coarsen is deterministic") {
    val edges = TestUtil.randomConnectedGraph(50, 120, seed = 19)
    val quot = TestUtil.quotient(edges, (0L until 50L).map(v => v -> (v - v % 4)).toMap)
    val ref = AffinityPartitioner.coarsen(quot, 24)
    assert(ref.values.toSet.size > 1)
    for (seed <- 1 to 5)
      assert(AffinityPartitioner.coarsen(new scala.util.Random(seed).shuffle(quot), 24) == ref)
  }

  test("coarsen maps a cluster with no cross rows to itself") {
    val quot = Seq(q(1, 2, 0.9, 3), q(2, 1, 0.9, 3), q(7, 7, 0.95, 4))
    assert(AffinityPartitioner.coarsen(quot, 100) == Map(1L -> 1L, 2L -> 1L, 7L -> 7L))
  }
}
