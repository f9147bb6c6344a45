package repro

import org.apache.spark.sql.functions._
import repro.graph.GraphOps

class SynthDataSpec extends SparkSpec {

  // ----------------------------------------------------------- pointsets

  test("blobs are deterministic and labeled round-robin") {
    val a = SynthPoints.blobs(30, 3, 4, 1.0, 0.5, seed = 2)
    val b = SynthPoints.blobs(30, 3, 4, 1.0, 0.5, seed = 2)
    assert(a.map(_.vec.toVector) == b.map(_.vec.toVector))
    assert(a.map(_.label).toSet == Set(0L, 1L, 2L))
    assert(a.count(_.label == 0L) == 10)
  }

  test("quality dataset specs match the paper's (n, #classes)") {
    val byName = SynthPoints.QualityDatasets.map(s => s.name -> s).toMap
    assert(byName("iris").n == 150 && byName("iris").classes == 3)
    assert(byName("wine").n == 178 && byName("wine").classes == 3)
    assert(byName("digits").n == 1797 && byName("digits").classes == 10)
    assert(byName("faces").n == 400 && byName("faces").classes == 40)
  }

  test("kNN graph is symmetric with max weight 1") {
    val pts = SynthPoints.blobs(60, 3, 4, 2.0, 0.6, seed = 3)
    val g = SynthPoints.knnGraph(spark, pts, k = 5)
    val rows = g.collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
    val asSet = rows.map { case (u, v, _) => (u, v) }.toSet
    assert(asSet == asSet.map(_.swap))
    val maxW = rows.map(_._3).max
    assert(math.abs(maxW - 1.0) < 1e-12)
    assert(rows.forall(_._3 > 0))
  }

  test("kNN graph: every vertex keeps at least k incident edges") {
    val pts = SynthPoints.blobs(50, 2, 3, 2.0, 0.6, seed = 4)
    val g = SynthPoints.knnGraph(spark, pts, k = 5)
    val degs = g.groupBy("src").count().collect().map(_.getLong(1))
    assert(degs.forall(_ >= 5))
    assert(degs.length == 50)
  }

  test("oracle: kNN top-k selection matches a DuckDB window") {
    import spark.implicits._
    val pts = SynthPoints.blobs(25, 2, 3, 2.0, 0.6, seed = 5)
    val df = spark.createDataFrame(pts.map(p => (p.id, p.vec.toSeq))).toDF("id", "vec")
    val distUdf = udf((a: Seq[Double], b: Seq[Double]) =>
      SynthPoints.euclid(a.toArray, b.toArray))
    val pairs = df.as("a").crossJoin(df.as("b"))
      .filter(col("a.id") =!= col("b.id"))
      .select(col("a.id").as("src"), col("b.id").as("dst"),
              round(distUdf(col("a.vec"), col("b.vec")), 9).as("dist"))
    val win = org.apache.spark.sql.expressions.Window
      .partitionBy("src").orderBy(col("dist").asc, col("dst").asc)
    val knn = pairs.withColumn("rn", row_number().over(win))
      .filter(col("rn") <= 4).select("src", "dst")
    Oracle.assertEquivalent(
      knn,
      """SELECT src, dst FROM (
        |  SELECT CAST(src AS BIGINT) AS src, CAST(dst AS BIGINT) AS dst,
        |         row_number() OVER (PARTITION BY CAST(src AS BIGINT)
        |           ORDER BY CAST(dist AS DOUBLE) ASC, CAST(dst AS BIGINT) ASC) rn
        |  FROM pairs) WHERE rn <= 4""".stripMargin,
      "pairs" -> pairs)
  }

  test("complete similarity graph has n(n-1)/2 normalized entries") {
    val pts = SynthPoints.blobs(20, 2, 3, 2.0, 0.6, seed = 6)
    val sims = SynthPoints.completeSimGraph(pts)
    assert(sims.size == 20 * 19 / 2)
    assert(math.abs(sims.map(_._3).max - 1.0) < 1e-12)
    assert(sims.forall(s => s._3 > 0 && s._3 <= 1.0))
  }

  // --------------------------------------------------------------- rMAT

  test("rMAT vertex ids stay below 2^scale") {
    val g = SynthGraphs.rmat(spark, scale = 8, edgeFactor = 10, seed = 1)
    val maxId = g.agg(max("src")).collect()(0).getLong(0)
    assert(maxId < (1L << 8))
  }

  test("rMAT graph is symmetric, loop-free and degree-weighted") {
    val g = SynthGraphs.rmat(spark, scale = 7, edgeFactor = 10, seed = 2).cache()
    assert(g.filter(col("src") === col("dst")).count() == 0)
    val pairs = g.select("src", "dst").collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(pairs == pairs.map(_.swap))
    // spot-check the 1/ln(deg+deg) weighting
    val deg = g.groupBy("src").count().collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toMap
    val sample = g.limit(20).collect()
    for (r <- sample) {
      val expected = 1.0 / math.log((deg(r.getLong(0)) + deg(r.getLong(1))).toDouble)
      assert(math.abs(r.getDouble(2) - expected) < 1e-12)
    }
    g.unpersist()
  }

  test("rMAT degrees are skewed (hub-heavy)") {
    val g = SynthGraphs.rmat(spark, scale = 9, edgeFactor = 20, seed = 3)
    val degs = g.groupBy("src").count().collect().map(_.getLong(1)).sorted
    val maxDeg = degs.last.toDouble
    val medDeg = degs(degs.length / 2).toDouble
    assert(maxDeg / medDeg > 3.0, s"no skew: max=$maxDeg median=$medDeg")
  }

  test("rMAT is deterministic in the seed") {
    val a = SynthGraphs.rmat(spark, 6, 10, seed = 4).collect().toSet
    val b = SynthGraphs.rmat(spark, 6, 10, seed = 4).collect().toSet
    assert(a == b)
  }

  // ------------------------------------------------------- planted graph

  test("planted graph is symmetric with weights in (0,1]") {
    val g = SynthGraphs.plantedGraph(spark, 2000, clusterSize = 8)
    val rows = g.collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
    val pairs = rows.map { case (u, v, _) => (u, v) }.toSet
    assert(pairs == pairs.map(_.swap))
    assert(rows.forall(r => r._3 > 0 && r._3 <= 1.0))
    assert(rows.forall(r => r._1 >= 0 && r._1 < 2000))
  }

  test("planted intra-cluster edges are denser and heavier") {
    val g = SynthGraphs.plantedGraph(spark, 2000, clusterSize = 8).cache()
    val intra = g.filter((col("src") / 8).cast("long") === (col("dst") / 8).cast("long"))
    val inter = g.filter((col("src") / 8).cast("long") =!= (col("dst") / 8).cast("long"))
    val wIntra = intra.agg(avg("w")).collect()(0).getDouble(0)
    val wInter = inter.agg(avg("w")).collect()(0).getDouble(0)
    assert(wIntra > wInter)
    g.unpersist()
  }

  test("labeled pairs hit the requested positive fraction") {
    val pairs = SynthGraphs.labeledPairs(10000, 8, count = 2000, posFrac = 0.13)
    val frac = pairs.count(_._3).toDouble / pairs.size
    assert(math.abs(frac - 0.13) < 0.03, s"positive fraction $frac")
    for ((a, b, pos) <- pairs)
      assert((a / 8 == b / 8) == pos)
  }

  test("collectUndirected halves the symmetric frame") {
    val g = SynthGraphs.plantedGraph(spark, 500, clusterSize = 5)
    val und = SynthGraphs.collectUndirected(g)
    assert(und.size * 2 == g.count())
    assert(und.forall(e => e._1 < e._2))
  }
}
