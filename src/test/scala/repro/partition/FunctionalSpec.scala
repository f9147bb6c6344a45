package repro.partition

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestUtil}

class FunctionalSpec extends SparkSpec {

  private def componentsOf(f: Seq[(Long, Long)]): Map[Long, Long] = {
    import spark.implicits._
    Functional.components(f.toDF("id", "to"))
      .collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
  }

  private def refComponents(f: Seq[(Long, Long)]): Map[Long, Long] =
    TestUtil.naiveComponents(f.map(_._1), f)

  test("single 2-cycle resolves to its min id") {
    val got = componentsOf(Seq((1L, 2L), (2L, 1L)))
    assert(got == Map(1L -> 1L, 2L -> 1L))
  }

  test("self loops are their own roots") {
    val got = componentsOf(Seq((5L, 5L), (6L, 6L)))
    assert(got == Map(5L -> 5L, 6L -> 6L))
  }

  test("chain into a 2-cycle") {
    // 4 → 3 → 2 ⇄ 1
    val got = componentsOf(Seq((4L, 3L), (3L, 2L), (2L, 1L), (1L, 2L)))
    assert(got.values.toSet == Set(1L))
  }

  test("two separate components") {
    val got = componentsOf(Seq((1L, 2L), (2L, 1L), (10L, 11L), (11L, 10L), (12L, 10L)))
    assert(got(1L) == got(2L))
    assert(got(10L) == got(11L) && got(11L) == got(12L))
    assert(got(1L) != got(10L))
  }

  test("long chain exercises pointer doubling") {
    val n = 200
    val f = (1 to n).map(i => (i.toLong, (i - 1).toLong)) :+ ((0L, 1L))
    val got = componentsOf(f)
    assert(got.values.toSet.size == 1)
  }

  test("matches union-find on random best-neighbor graphs") {
    import repro.core.LocalGraph
    for (seed <- 1 to 4) {
      val edges = TestUtil.randomConnectedGraph(60, 90, seed)
      val g = LocalGraph.fromEdges(edges)
      // best-neighbor functional graph with (w desc, id asc) tie-breaking
      val f = g.vertices.map { v =>
        val (bn, _) = g.nbrs(v).toVector.map { case (a, w) => (a, w) }
          .minBy { case (a, w) => (-w, a) }
        (v, bn)
      }.toVector
      val got = componentsOf(f)
      val ref = refComponents(f)
      assert(TestUtil.samePartition(got, ref), s"seed=$seed")
    }
  }

  test("roots are component minima of the central pair (deterministic)") {
    // star of reciprocal pair (2,7) with trees hanging off
    val f = Seq((2L, 7L), (7L, 2L), (9L, 7L), (4L, 9L), (1L, 2L))
    val got = componentsOf(f)
    assert(got.values.toSet == Set(2L))
  }

  test("the planner's size estimate stays bounded over many jumps") {
    // a 64-vertex chain takes 7 checkpointed jumps; if a checkpoint kept the
    // estimate of the self-join that produced it, every jump would square it
    import spark.implicits._
    val f = ((1 until 64).map(i => (i.toLong, i - 1L)) :+ ((0L, 1L))).toDF("id", "to")
    val roots = Functional.components(f)
    assert(roots.select("root").distinct().count() == 1)
    val size = roots.queryExecution.optimizedPlan.stats.sizeInBytes
    assert(size <= BigInt(Long.MaxValue), s"size estimate $size")
  }

  test("ids can exceed 2^32 (cluster-id range)") {
    val big = (1L << 41) + 5
    val got = componentsOf(Seq((big, 3L), (3L, big)))
    assert(got == Map(big -> 3L, 3L -> 3L))
  }
}
