package repro.graph

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestUtil}

class GraphOpsSpec extends SparkSpec {

  import spark.implicits._

  private def sym(edges: Seq[(Long, Long, Double)]) =
    GraphOps.symmetrize(edges.toDF("src", "dst", "w"))

  test("symmetrize stores both directions") {
    val e = sym(Seq((1L, 2L, 0.5))).collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))).toSet
    assert(e == Set((1L, 2L, 0.5), (2L, 1L, 0.5)))
  }

  test("symmetrize drops self loops and dedupes to the max weight") {
    val e = sym(Seq((1L, 1L, 0.9), (1L, 2L, 0.3), (2L, 1L, 0.7)))
    val rows = e.collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))).toSet
    assert(rows == Set((1L, 2L, 0.7), (2L, 1L, 0.7)))
  }

  test("oracle: symmetrize canonical half matches SQL dedup") {
    val raw = Seq((1L, 2L, 0.3), (2L, 1L, 0.7), (3L, 3L, 0.5), (2L, 3L, 0.2))
      .toDF("src", "dst", "w")
    val canonical = sym(Seq((1L, 2L, 0.3), (2L, 1L, 0.7), (3L, 3L, 0.5), (2L, 3L, 0.2)))
      .filter(col("src") < col("dst"))
    Oracle.assertEquivalent(
      canonical,
      """SELECT LEAST(CAST(src AS BIGINT), CAST(dst AS BIGINT)) AS src,
        |       GREATEST(CAST(src AS BIGINT), CAST(dst AS BIGINT)) AS dst,
        |       MAX(CAST(w AS DOUBLE)) AS w
        |FROM raw WHERE src <> dst GROUP BY 1, 2""".stripMargin,
      "raw" -> raw)
  }

  test("stats counts vertices, directed edges and average degree") {
    val s = GraphOps.stats(sym(Seq((1L, 2L, 0.5), (2L, 3L, 0.5))))
    assert(s == GraphOps.Stats(3, 4, 4.0 / 3.0))
  }

  test("degreeWeights implements 1/ln(deg(u)+deg(v))") {
    // path 1-2-3: deg 1,2,1
    val e = GraphOps.degreeWeights(sym(Seq((1L, 2L, 1.0), (2L, 3L, 1.0))))
    val w12 = e.filter(col("src") === 1 && col("dst") === 2)
      .collect()(0).getDouble(2)
    assert(math.abs(w12 - 1.0 / math.log(3.0)) < 1e-12)
  }

  test("oracle: degreeWeights matches SQL join over degrees") {
    val e = sym(TestUtil.randomConnectedGraph(20, 30, seed = 3))
    val got = GraphOps.degreeWeights(e).select("src", "dst", "w")
    Oracle.assertEquivalent(
      got,
      """WITH deg AS (SELECT src AS id, COUNT(*) AS d FROM edges GROUP BY src)
        |SELECT CAST(e.src AS BIGINT) AS src, CAST(e.dst AS BIGINT) AS dst,
        |       1.0 / LN(ds.d + dd.d) AS w
        |FROM edges e JOIN deg ds ON e.src = ds.id JOIN deg dd ON e.dst = dd.id"""
        .stripMargin,
      "edges" -> e)
  }

  test("heavyCount filters by threshold") {
    val e = sym(Seq((1L, 2L, 0.5), (2L, 3L, 0.05)))
    assert(GraphOps.heavyCount(e, 0.1) == 2)
    assert(GraphOps.heavyCount(e, 0.0) == 4)
    assert(GraphOps.heavyCount(e, 0.9) == 0)
  }

  test("oracle: heavyCount matches SQL") {
    val e = sym(TestUtil.randomConnectedGraph(15, 25, seed = 4))
    val got = Seq(GraphOps.heavyCount(e, 0.5)).toDF("c")
    Oracle.assertEquivalent(
      got,
      "SELECT COUNT(*) AS c FROM edges WHERE CAST(w AS DOUBLE) >= 0.5",
      "edges" -> e)
  }

  test("wmaxPerVertex") {
    val e = sym(Seq((1L, 2L, 0.5), (2L, 3L, 0.8)))
    val m = GraphOps.wmaxPerVertex(e).collect()
      .map(r => r.getLong(0) -> r.getDouble(1)).toMap
    assert(m == Map(1L -> 0.5, 2L -> 0.8, 3L -> 0.8))
  }

  test("contract matches the local contraction kernel") {
    import repro.core.LocalGraph
    val edges = TestUtil.randomConnectedGraph(20, 40, seed = 6)
    val e = sym(edges)
    val sizes = e.select(col("src").as("id")).distinct()
      .select(col("id"), lit(1L).as("size"))
    // group vertices by id % 5
    val assign = sizes.select(col("id"), pmod(col("id"), lit(5L)).as("cid"))
    val (e2, s2) = GraphOps.contract(e, sizes, assign)
    val gotEdges = e2.filter(col("src") < col("dst")).collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
      .map { case (u, v, w) => (u, v, math.rint(w * 1e9) / 1e9) }.toSet
    val local = LocalGraph.contracted(LocalGraph.fromEdges(edges), v => v % 5)
    val refEdges = local.undirectedEdges
      .map { case (u, v, w) => (u, v, math.rint(w * 1e9) / 1e9) }.toSet
    assert(gotEdges == refEdges)
    val gotSizes = s2.collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    assert(gotSizes == local.vertices.map(v => v -> local.size(v)).toMap)
  }

  test("oracle: contraction raw-sum aggregation matches SQL") {
    val edges = TestUtil.randomConnectedGraph(18, 30, seed = 8)
    val e = sym(edges)
    val sizes = e.select(col("src").as("id")).distinct()
      .select(col("id"), (pmod(col("id"), lit(3L)) + 1L).as("size"))
    val assign = sizes.select(col("id"), pmod(col("id"), lit(4L)).as("cid"))
    val (e2, _) = GraphOps.contract(e, sizes, assign)
    Oracle.assertEquivalent(
      e2.select(col("src"), col("dst"), round(col("w"), 6).as("w")),
      """WITH x AS (
        |  SELECT a.cid AS nsrc, b.cid AS ndst,
        |         SUM(CAST(e.w AS DOUBLE) * CAST(sa.size AS BIGINT)
        |             * CAST(sb.size AS BIGINT)) AS raw
        |  FROM edges e
        |  JOIN assign a ON e.src = a.id JOIN assign b ON e.dst = b.id
        |  JOIN sizes sa ON e.src = sa.id JOIN sizes sb ON e.dst = sb.id
        |  WHERE a.cid <> b.cid GROUP BY 1, 2),
        |ns AS (SELECT cid, SUM(CAST(s.size AS BIGINT)) AS size
        |       FROM assign a JOIN sizes s ON a.id = s.id GROUP BY cid)
        |SELECT CAST(x.nsrc AS BIGINT) AS src, CAST(x.ndst AS BIGINT) AS dst,
        |       ROUND(x.raw / (n1.size * n2.size), 6) AS w
        |FROM x JOIN ns n1 ON x.nsrc = n1.cid JOIN ns n2 ON x.ndst = n2.cid"""
        .stripMargin,
      "edges" -> e, "assign" -> assign, "sizes" -> sizes)
  }

  test("contract keeps the edge frame symmetric") {
    val edges = TestUtil.randomConnectedGraph(20, 40, seed = 9)
    val e = sym(edges)
    val sizes = e.select(col("src").as("id")).distinct()
      .select(col("id"), lit(1L).as("size"))
    val assign = sizes.select(col("id"), pmod(col("id"), lit(4L)).as("cid"))
    val (e2, _) = GraphOps.contract(e, sizes, assign)
    val fwd = e2.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(fwd == fwd.map(_.swap))
  }

  test("prune drops light vertices and their edges") {
    val e = sym(Seq((1L, 2L, 0.9), (2L, 3L, 0.05), (3L, 4L, 0.04)))
    val verts = e.select(col("src").as("id")).distinct()
    val (e2, v2) = GraphOps.prune(e, verts, 0.1)
    val ids = v2.collect().map(_.getLong(0)).toSet
    assert(ids == Set(1L, 2L)) // 3 and 4 have wmax < 0.1
    val rows = e2.collect().map(r => (r.getLong(1), r.getLong(0))).toSet
    assert(rows.flatMap(t => Set(t._1, t._2)) == Set(1L, 2L))
  }

  test("prune with zero threshold keeps everything") {
    val e = sym(TestUtil.randomConnectedGraph(15, 20, seed = 10))
    val verts = e.select(col("src").as("id")).distinct()
    val (e2, v2) = GraphOps.prune(e, verts, 0.0)
    assert(e2.count() == e.count())
    assert(v2.count() == verts.count())
  }

  test("singletonVertices initializes metadata") {
    val e = sym(Seq((1L, 2L, 0.5)))
    val v = GraphOps.singletonVertices(e).collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2), r.getLong(3))).toSet
    assert(v == Set((1L, 1L, Double.PositiveInfinity, 1L),
                    (2L, 1L, Double.PositiveInfinity, 2L)))
  }
}
