package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.baselines.ExactHAC
import repro.core.model._

class DendrogramSpec extends AnyFunSuite {

  // leaves 0..3; merge (0,1)→A sim .9; (2,3)→B sim .8; (A,B)→C sim .3
  private val A = IdOffset + 1L
  private val B = IdOffset + 3L
  private val C = IdOffset + 2L // consumed rep of B's subtree min = 2
  private def small: Dendrogram = Dendrogram.fromRows(
    Seq(DendroRow(0L, A, 0.9), DendroRow(1L, A, 0.9),
        DendroRow(2L, B, 0.8), DendroRow(3L, B, 0.8),
        DendroRow(A, C, 0.3), DendroRow(B, C, 0.3)),
    Seq(0L, 1L, 2L, 3L))

  test("nodes, internal nodes and roots") {
    val d = small
    assert(d.nodes == Set(0L, 1L, 2L, 3L, A, B, C))
    assert(d.internalNodes == Set(A, B, C))
    assert(d.roots == Vector(C))
  }

  test("children map is binary") {
    val d = small
    assert(d.childrenMap(A) == Vector(0L, 1L))
    assert(d.childrenMap(C).toSet == Set(A, B))
  }

  test("simOf: leaves are ∞, internal nodes carry the merge similarity") {
    val d = small
    assert(d.simOf(0L).isPosInfinity)
    assert(d.simOf(A) == 0.9)
    assert(d.simOf(C) == 0.3)
  }

  test("validate passes on a proper tree") { small.validate() }

  test("validate rejects a non-binary node") {
    val bad = Dendrogram.fromRows(
      Seq(DendroRow(0L, A, 0.9), DendroRow(1L, A, 0.9), DendroRow(2L, A, 0.9)),
      Seq(0L, 1L, 2L))
    assertThrows[IllegalArgumentException] { bad.validate() }
  }

  test("topologicalMerges puts children before parents") {
    val order = small.topologicalMerges
    assert(order.indexOf(A) < order.indexOf(C))
    assert(order.indexOf(B) < order.indexOf(C))
  }

  test("leavesUnder accumulates bottom-up") {
    val d = small
    assert(d.leavesUnder(A).toSet == Set(0L, 1L))
    assert(d.leavesUnder(C).toSet == Set(0L, 1L, 2L, 3L))
    assert(d.leavesUnder(2L) == Vector(2L))
  }

  test("flatten at a low threshold returns the root cluster") {
    val f = small.flatten(0.1)
    assert(f.values.toSet == Set(C))
  }

  test("flatten at an intermediate threshold splits at the weak merge") {
    val f = small.flatten(0.5)
    assert(f(0L) == A && f(1L) == A)
    assert(f(2L) == B && f(3L) == B)
  }

  test("flatten at a high threshold returns singletons") {
    val f = small.flatten(0.95)
    assert(f == Map(0L -> 0L, 1L -> 1L, 2L -> 2L, 3L -> 3L))
  }

  test("flatten picks the TOPMOST node with sim ≥ t (non-monotone path)") {
    // approximate dendrograms can have sims increase along a root path:
    // (0,1)→A sim .5 then (A,2)→P sim .7; flatten at .6 must return P
    val P = IdOffset + 2L
    val d = Dendrogram.fromRows(
      Seq(DendroRow(0L, A, 0.5), DendroRow(1L, A, 0.5),
          DendroRow(A, P, 0.7), DendroRow(2L, P, 0.7)),
      Seq(0L, 1L, 2L))
    val f = d.flatten(0.6)
    assert(f.values.toSet == Set(P))
  }

  test("flatten handles forests: each tree flattens independently") {
    val d = Dendrogram.fromRows(
      Seq(DendroRow(0L, A, 0.9), DendroRow(1L, A, 0.9)),
      Seq(0L, 1L, 2L, 3L))
    val f = d.flatten(0.5)
    assert(f == Map(0L -> A, 1L -> A, 2L -> 2L, 3L -> 3L))
  }

  test("flatten of an exact dendrogram equals merging edges ≥ t") {
    // in an exact dendrogram sims are non-increasing along root paths, so
    // flatten(t) = components after performing exactly the merges with
    // sim ≥ t
    for (seed <- 1 to 4) {
      val edges = TestUtil.randomConnectedGraph(30, 50, seed)
      val d = ExactHAC.dendrogram(edges)
      for (t <- Seq(0.2, 0.5, 0.8)) {
        val flat = d.flatten(t)
        // reference: run exact HAC stopping below t, take final clusters
        val g = LocalGraph.fromEdges(edges)
        val rows = ExactHAC.run(g) // full run, then cut by sims
        val triples = TestUtil.mergeTriples(rows).filter(_._4 >= t)
        // exact dendrograms are monotone: merges ≥ t form a prefix forest
        val childToParent = triples.flatMap(tr => Seq(tr._1, tr._2).map(_ -> tr._3)).toMap
        def top(x: Long): Long =
          childToParent.get(x).map(top).getOrElse(x)
        val ref = d.leaves.map(l => l -> top(l)).toMap
        assert(TestUtil.samePartition(flat, ref), s"t=$t seed=$seed")
      }
    }
  }

  test("exact dendrogram has non-increasing sims along root paths") {
    val edges = TestUtil.randomConnectedGraph(40, 80, seed = 17)
    val d = ExactHAC.dendrogram(edges)
    for ((c, (p, _)) <- d.parent if d.internalNodes.contains(c))
      assert(d.simOf(c) >= d.simOf(p) - 1e-12,
        s"sim increased from $c (${d.simOf(c)}) to $p (${d.simOf(p)})")
  }

  test("Lemma 8: flattened clusters are built from merges ≥ t/(1+ε)") {
    val eps = 0.3
    val edges = TestUtil.randomConnectedGraph(40, 80, seed = 23)
    val g = LocalGraph.fromEdges(edges)
    val leaves = g.vertices.toVector
    val res = SubgraphHAC.run(g, eps)
    val d = Dendrogram.fromRows(res.merges, leaves)
    val t = 0.5
    val flat = d.flatten(t)
    // min sim of the merges inside each flattened internal cluster
    for (cl <- flat.values.toSet if d.internalNodes.contains(cl)) {
      val sub = subtreeInternal(d, cl)
      val minSim = sub.map(d.simOf).min
      assert(minSim >= t / (1 + eps) * (1 - 1e-9), s"cluster $cl minSim=$minSim")
    }
  }

  private def subtreeInternal(d: Dendrogram, node: Long): Vector[Long] = {
    val out = Vector.newBuilder[Long]
    def rec(x: Long): Unit = if (d.internalNodes.contains(x)) {
      out += x
      d.childrenMap(x).foreach(rec)
    }
    rec(node)
    out.result()
  }

  test("fromRows sorts and dedupes leaves deterministically") {
    val d = Dendrogram.fromRows(Nil, Seq(3L, 1L, 2L))
    assert(d.leaves == Vector(1L, 2L, 3L))
    assert(d.roots.toSet == Set(1L, 2L, 3L))
  }

  test("flatten memoization agrees with direct recomputation") {
    val edges = TestUtil.randomConnectedGraph(60, 120, seed = 31)
    val d = ExactHAC.dendrogram(edges)
    for (t <- Seq(0.2, 0.4, 0.7)) {
      val flat = d.flatten(t)
      for (l <- d.leaves)
        assert(flat(l) == bestTop(d, l, t), s"leaf $l at t=$t")
    }
  }

  private def bestTop(d: Dendrogram, leaf: Long, t: Double): Long = {
    // topmost node on the path with sim ≥ t
    var node = leaf
    var top = if (d.simOf(node) >= t) node else -1L
    while (d.parent.contains(node)) {
      node = d.parent(node)._1
      if (d.simOf(node) >= t) top = node
    }
    if (top == -1L) leaf else top
  }
}
