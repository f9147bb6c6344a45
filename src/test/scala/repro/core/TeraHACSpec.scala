package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestUtil}
import repro.baselines.ExactHAC
import repro.core.model._
import repro.graph.GraphOps
import repro.partition.AffinityPartitioner
import repro.quality.Metrics

class TeraHACSpec extends SparkSpec {

  private def toDF(edges: Seq[(Long, Long, Double)]): DataFrame = {
    import spark.implicits._
    val once = edges.toDF("src", "dst", "w")
    repro.graph.GraphOps.symmetrize(once)
  }

  private def run(edges: Seq[(Long, Long, Double)], eps: Double, t: Double,
                  cap: Long = 64): TeraHAC.Result =
    TeraHAC.run(spark, toDF(edges), eps, t, maxClusterEdges = cap)

  test("two vertices: merges the single edge") {
    val res = run(Seq((3L, 7L, 0.5)), eps = 0.0, t = 0.0)
    val d = res.toLocal
    assert(d.parent == Map(
      3L -> (IdOffset + 7L, 0.5), 7L -> (IdOffset + 7L, 0.5)))
  }

  test("ε=0, t=0 equals exact HAC node-for-node") {
    for (seed <- 1 to 3) {
      val edges = TestUtil.randomConnectedGraph(40, 60, seed)
      val d = run(edges, eps = 0.0, t = 0.0).toLocal
      val ref = ExactHAC.dendrogram(edges)
      assert(d.parent.keySet == ref.parent.keySet, s"seed=$seed node sets differ")
      for ((c, (p, s)) <- d.parent) {
        val (rp, rs) = ref.parent(c)
        assert(p == rp, s"seed=$seed parent of $c differs")
        assert(math.abs(s - rs) <= 1e-9 * math.max(s, rs), s"seed=$seed sim of $c")
      }
    }
  }

  test("ε=0 output is invariant to the partitioning (cap)") {
    val edges = TestUtil.randomConnectedGraph(35, 70, seed = 9)
    val a = run(edges, 0.0, 0.0, cap = 32).toLocal
    val b = run(edges, 0.0, 0.0, cap = 512).toLocal
    assert(a.parent.keySet == b.parent.keySet)
    assert(a.parent.view.mapValues(_._1).toMap == b.parent.view.mapValues(_._1).toMap)
  }

  test("dendrogram validates and covers all leaves for ε=0.1, t=0") {
    val edges = TestUtil.randomConnectedGraph(50, 100, seed = 3)
    val res = run(edges, 0.1, 0.0)
    val d = res.toLocal
    d.validate()
    assert(d.leaves.size == 50)
    // connected graph + t=0 ⇒ complete dendrogram with a single root
    assert(d.roots.size == 1)
    assert(d.numMerges == 49)
  }

  test("empirical approximation ratio ≤ 1+ε (Lemma 4/7)") {
    for ((eps, seed) <- Seq((0.1, 4), (0.3, 5), (0.0, 6))) {
      val edges = TestUtil.randomConnectedGraph(40, 80, seed.toLong)
      val d = run(edges, eps, 0.0).toLocal
      val ratio = Metrics.empiricalApproxRatio(edges, d)
      assert(ratio <= (1 + eps) * (1 + 1e-6), s"eps=$eps ratio=$ratio")
    }
  }

  test("node ids are globally unique across rounds") {
    val edges = TestUtil.randomConnectedGraph(45, 90, seed = 7)
    val res = run(edges, 0.1, 0.0, cap = 24) // small cap → many rounds
    val parents = res.dendro.collect().map(_.getLong(1))
    val d = res.toLocal
    assert(d.internalNodes.size == parents.distinct.size)
    d.validate()
  }

  test("both ε settings finish in few rounds on a small graph") {
    // The paper's ε=0.1 ≪ ε=0 round separation is a property of skewed
    // real-graph weights (asserted at bench scale in RoundsBench); on tiny
    // uniform-weight graphs either can win, so here we only pin that both
    // terminate quickly.
    val edges = TestUtil.randomConnectedGraph(60, 180, seed = 12)
    val r1 = run(edges, 0.1, 0.0, cap = 64)
    val r0 = run(edges, 0.0, 0.0, cap = 64)
    assert(r1.rounds <= 20 && r0.rounds <= 20,
      s"rounds: eps=0.1 → ${r1.rounds}, eps=0 → ${r0.rounds}")
  }

  /** Round 1 built locally: the affinity partition of `edges` at `cap`,
    * then [[TeraHAC.runGroup]] on every group's singleton-vertex edges.
    */
  private def round1Groups(edges: Seq[(Long, Long, Double)], eps: Double,
                           cap: Long): (Map[Long, Long], Vector[SubOut]) = {
    val cids = AffinityPartitioner.partition(toDF(edges), cap).collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toMap
    val directed = edges.flatMap { case (u, v, w) => Seq((u, v, w), (v, u, w)) }
    val out = directed.groupBy(e => cids(e._1)).toVector.flatMap { case (c, es) =>
      val ctx = es.map { case (u, v, w) =>
        EdgeCtx(c, u, 1L, Double.PositiveInfinity, u, v, 1L, Double.PositiveInfinity, v,
                cids(v), w) }
      TeraHAC.runGroup(c, ctx.iterator, eps).toVector
    }
    (cids, out)
  }

  test("group-side contraction matches GraphOps.contract") {
    import spark.implicits._
    val edges = TestUtil.randomConnectedGraph(40, 80, seed = 41)
    val (cids, out) = round1Groups(edges, eps = 0.1, cap = 16)
    assert(edges.exists { case (u, v, _) => cids(u) != cids(v) }, "no cross-group edge")
    val assign = out.filter(_.kind == SubOut.Assign)
    val partials = out.filter(_.kind == SubOut.Partial)
      .map(o => (o.a, o.b, o.sim, o.size)).toDF("src", "dst", "raw", "sA")
    val got = GraphOps.renameDst(partials,
      assign.map(o => (o.a, o.b, o.size)).toDF("id", "cid", "size"))
    val sizes = toDF(edges).select(col("src").as("id")).distinct()
      .select(col("id"), lit(1L).as("size"))
    val (ref, _) = GraphOps.contract(toDF(edges), sizes,
      assign.map(o => (o.a, o.b)).toDF("id", "cid"))
    def collect(df: DataFrame): Map[(Long, Long), Double] = df.collect()
      .map(r => (r.getLong(0), r.getLong(1)) -> r.getDouble(2)).toMap
    val (g, r) = (collect(got), collect(ref))
    assert(g.nonEmpty && g.keySet == r.keySet)
    for ((k, w) <- g) assert(math.abs(w - r(k)) <= 1e-12 * r(k), s"weight of $k")
  }

  test("round stats are consistent with the dendrogram") {
    val edges = TestUtil.randomConnectedGraph(30, 60, seed = 14)
    val res = run(edges, 0.1, 0.0)
    assert(res.stats.map(_.merges).sum == res.toLocal.numMerges)
    assert(res.stats.last.heavyEdges == 0)
    assert(res.stats.map(_.round) == (1 to res.rounds).toVector)
    assert(res.stats.head.nVertices == 30)
    assert(res.stats.head.nDirectedEdges == 2 * edges.size)
    for (Seq(a, b) <- res.stats.sliding(2))
      assert(b.nVertices == a.nVertices - a.merges, s"round ${b.round}")
  }

  test("round 1 heavy edges match a local round 1") {
    val (eps, t, cap) = (0.1, 0.3, 64L)
    val edges = TestUtil.randomConnectedGraph(40, 80, seed = 42)
    val res = run(edges, eps, t, cap)
    val (_, out) = round1Groups(edges, eps, cap)
    val assign = out.filter(_.kind == SubOut.Assign).map(o => o.a -> o.b).toMap
    // pruning at t/(1+ε) < t keeps every edge of weight ≥ t
    val c = LocalGraph.contracted(LocalGraph.fromEdges(edges), assign)
    val heavy = 2 * c.undirectedEdges.count(_._3 >= t)
    assert(heavy > 0 && res.stats.head.heavyEdges == heavy)
  }

  test("graph shrinks monotonically across rounds") {
    val edges = TestUtil.randomConnectedGraph(60, 200, seed = 15)
    val res = run(edges, 0.1, 0.0)
    val nV = res.stats.map(_.nVertices)
    assert(nV == nV.sorted.reverse, s"vertex counts not decreasing: $nV")
  }

  test("Lemma 9: pruning with t'=t does not change the flattened output (ε=0)") {
    val edges = TestUtil.randomConnectedGraph(40, 80, seed = 21)
    val t = 0.5
    val full = run(edges, 0.0, 0.0).toLocal.flatten(t)
    val pruned = run(edges, 0.0, t).toLocal.flatten(t)
    assert(TestUtil.samePartition(full, pruned))
  }

  test("Lemma 9 holds for intermediate t' as well (ε=0)") {
    val edges = TestUtil.randomConnectedGraph(40, 80, seed = 22)
    val t = 0.4
    val full = run(edges, 0.0, 0.0).toLocal.flatten(t)
    val mid = run(edges, 0.0, t / 2).toLocal.flatten(t)
    assert(TestUtil.samePartition(full, mid))
  }

  test("thresholded run performs no more merges than the full run") {
    val edges = TestUtil.randomConnectedGraph(50, 150, seed = 23)
    val full = run(edges, 0.1, 0.0).toLocal
    val thr = run(edges, 0.1, 0.3).toLocal
    assert(thr.numMerges <= full.numMerges)
  }

  test("thresholded run uses no more rounds (Fig. 8 shape)") {
    val edges = TestUtil.randomConnectedGraph(60, 200, seed = 24)
    val r0 = run(edges, 0.1, 0.0)
    val rt = run(edges, 0.1, 0.4)
    assert(rt.rounds <= r0.rounds)
  }

  test("flattened clusters of a pruned ε=0.1 run obey Lemma 8") {
    val eps = 0.1
    val t = 0.4
    val edges = TestUtil.randomConnectedGraph(40, 100, seed = 25)
    val d = run(edges, eps, t).toLocal
    val flat = d.flatten(t)
    for (cl <- flat.values.toSet if d.internalNodes.contains(cl)) {
      def minSim(x: Long): Double =
        if (!d.internalNodes.contains(x)) Double.PositiveInfinity
        else math.min(d.simOf(x), d.childrenMap(x).map(minSim).min)
      assert(minSim(cl) >= t / (1 + eps) * (1 - 1e-9))
    }
  }

  test("disconnected graphs produce one dendrogram root per component") {
    val c1 = TestUtil.randomConnectedGraph(10, 10, seed = 30)
    val c2 = TestUtil.randomConnectedGraph(10, 10, seed = 31)
      .map { case (u, v, w) => (u + 100L, v + 100L, w) }
    val d = run(c1 ++ c2, 0.1, 0.0).toLocal
    assert(d.roots.size == 2)
  }

  test("tiny cluster cap still terminates and stays exact at ε=0") {
    val edges = TestUtil.randomConnectedGraph(25, 40, seed = 33)
    val d = run(edges, 0.0, 0.0, cap = 8).toLocal
    val ref = ExactHAC.dendrogram(edges)
    assert(d.parent.keySet == ref.parent.keySet)
  }

  test("leaves frame lists exactly the original vertex ids") {
    val edges = TestUtil.randomConnectedGraph(20, 30, seed = 34)
    val res = run(edges, 0.1, 0.0)
    val got = res.leaves.collect().map(_.getLong(0)).toSet
    assert(got == (0 until 20).map(_.toLong).toSet)
  }
}
