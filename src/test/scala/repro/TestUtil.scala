package repro

import scala.collection.mutable
import scala.util.Random
import repro.core.LocalGraph
import repro.core.model._
import repro.partition.AffinityPartitioner

/** Shared helpers for the test suites: random graph generators, naive
  * reference implementations, and dendrogram/merge replay utilities.
  */
object TestUtil {

  /** Runs a raw ScalaCheck property (the scalatest-scalacheck bridge is not
    * on the offline classpath) and fails the enclosing test on falsify.
    */
  def checkProp(p: org.scalacheck.Prop, minTests: Int = 30): Unit = {
    val params = org.scalacheck.Test.Parameters.default
      .withMinSuccessfulTests(minTests)
    val res = org.scalacheck.Test.check(params, p)
    assert(res.passed, s"property falsified: ${res.status}")
  }

  /** Random Erdős–Rényi-ish graph with uniform continuous weights (ties
    * have probability ~0, which the ε=0 equivalence tests rely on).
    */
  def randomGraph(n: Int, p: Double, seed: Long): Vector[(Long, Long, Double)] = {
    val rng = new Random(seed)
    val out = Vector.newBuilder[(Long, Long, Double)]
    for (i <- 0 until n; j <- i + 1 until n if rng.nextDouble() < p)
      out += ((i.toLong, j.toLong, 0.05 + 0.95 * rng.nextDouble()))
    out.result()
  }

  /** Random connected graph: a random spanning tree plus extra edges. */
  def randomConnectedGraph(n: Int, extra: Int, seed: Long): Vector[(Long, Long, Double)] = {
    val rng = new Random(seed)
    val seen = mutable.HashSet.empty[(Long, Long)]
    val out = Vector.newBuilder[(Long, Long, Double)]
    def add(u: Long, v: Long): Unit = {
      val key = if (u < v) (u, v) else (v, u)
      if (u != v && seen.add(key))
        out += ((key._1, key._2, 0.05 + 0.95 * rng.nextDouble()))
    }
    for (i <- 1 until n) add(i.toLong, rng.nextInt(i).toLong)
    for (_ <- 0 until extra) add(rng.nextInt(n).toLong, rng.nextInt(n).toLong)
    out.result()
  }

  /** The cluster quotient of an undirected edge list under `cid`: per
    * ordered cluster pair, the max weight and the number of directed edge
    * rows — what a TeraHAC round collects before coarsening.
    */
  def quotient(edges: Seq[(Long, Long, Double)],
               cid: Map[Long, Long]): Vector[AffinityPartitioner.QuotientRow] =
    edges.flatMap { case (u, v, w) => Seq((cid(u), cid(v), w), (cid(v), cid(u), w)) }
      .groupBy(r => (r._1, r._2)).toVector.map { case ((a, b), rs) =>
        AffinityPartitioner.QuotientRow(a, b, rs.map(_._3).max, rs.size.toLong) }

  /** Naive O(n³) exact average-linkage HAC over an edge list — the
    * reference for ExactHAC. Returns (u, v, newId, sim) merge triples.
    */
  def naiveHAC(edges: Iterable[(Long, Long, Double)],
               stopBelow: Double = 0.0): Vector[(Long, Long, Long, Double)] = {
    val size = mutable.HashMap.empty[Long, Long]
    val minLeaf = mutable.HashMap.empty[Long, Long]
    val raw = mutable.HashMap.empty[(Long, Long), Double] // key u<v, raw sum
    def key(a: Long, b: Long) = if (a < b) (a, b) else (b, a)
    for ((u, v, w) <- edges) {
      size(u) = 1; size(v) = 1
      minLeaf(u) = u; minLeaf(v) = v
      raw(key(u, v)) = w
    }
    val out = Vector.newBuilder[(Long, Long, Long, Double)]
    var done = false
    while (!done) {
      var best = Double.NegativeInfinity
      var bk: (Long, Long) = null
      for (((a, b), r) <- raw) {
        val w = r / (size(a).toDouble * size(b))
        if (w > best) { best = w; bk = (a, b) }
      }
      if (bk == null || best <= stopBelow) done = true
      else {
        val (a, b) = bk
        val z = IdOffset + math.max(minLeaf(a), minLeaf(b))
        out += ((a, b, z, best))
        val zr = mutable.HashMap.empty[Long, Double]
        for (((x, y), r) <- raw.toVector if x == a || y == a || x == b || y == b) {
          raw.remove((x, y))
          val other = if (x == a || x == b) y else x
          if (other != a && other != b)
            zr(other) = zr.getOrElse(other, 0.0) + r
        }
        size(z) = size(a) + size(b)
        minLeaf(z) = math.min(minLeaf(a), minLeaf(b))
        size.remove(a); size.remove(b)
        minLeaf.remove(a); minLeaf.remove(b)
        for ((o, r) <- zr) raw(key(z, o)) = r
      }
    }
    out.result()
  }

  /** Groups SubgraphHAC/ExactHAC merge rows (emitted in pairs sharing a
    * parent) into (childA, childB, parent, sim) triples in merge order.
    */
  def mergeTriples(rows: Seq[DendroRow]): Vector[(Long, Long, Long, Double)] =
    rows.grouped(2).map { g =>
      require(g.size == 2 && g(0).parent == g(1).parent, "rows must pair up")
      (g(0).child, g(1).child, g(0).parent, g(0).sim)
    }.toVector

  /** Replays an ordered merge sequence on a fresh LocalGraph built from
    * `edges`, invoking `check(g, u, v)` immediately before each merge.
    */
  def replay(edges: Iterable[(Long, Long, Double)],
             triples: Seq[(Long, Long, Long, Double)])
            (check: (LocalGraph, Long, Long) => Unit): LocalGraph = {
    val g = LocalGraph.fromEdges(edges)
    for ((u, v, z, _) <- triples) {
      check(g, u, v)
      val res = g.merge(u, v)
      assert(res.newId == z, s"replay id mismatch: got ${res.newId}, expected $z")
    }
    g
  }

  /** Naive connected components via union-find. */
  def naiveComponents(vertices: Iterable[Long],
                      edges: Iterable[(Long, Long)]): Map[Long, Long] = {
    val uf = new repro.graph.UnionFind
    vertices.foreach(v => uf.union(v, v))
    for ((u, v) <- edges) uf.union(u, v)
    vertices.map(v => v -> uf.find(v)).toMap
  }

  /** Partition from an assignment-style map, for ARI comparisons. */
  def toPartition(m: Map[Long, Long]): Map[Long, Set[Long]] =
    m.groupBy(_._2).map { case (c, kv) => c -> kv.keySet }

  def samePartition(a: Map[Long, Long], b: Map[Long, Long]): Boolean =
    a.keySet == b.keySet &&
      toPartition(a).values.toSet == toPartition(b).values.toSet
}
