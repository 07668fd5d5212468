package repro.kg

import org.apache.spark.sql.functions.col
import repro.{Oracle, SparkSpec}
import repro.core.RelKind
import repro.data.DatasetGen

class RelevanceEngineSpec extends SparkSpec {
  import KGSchema._

  private def handEdges = {
    import spark.implicits._
    // items 0,1 share features 10,11; items 1,2 share feature 12;
    // items 0,1 share brand 20; items 0,2 share category 30
    Seq(
      (0L, 100L + 10, Supports), (1L, 100L + 10, Supports),
      (0L, 100L + 11, Supports), (1L, 100L + 11, Supports),
      (1L, 100L + 12, Supports), (2L, 100L + 12, Supports),
      (0L, 200L + 20, ProducedBy), (1L, 200L + 20, ProducedBy), (2L, 200L + 21, ProducedBy),
      (0L, 300L + 30, BelongsTo), (2L, 300L + 30, BelongsTo), (1L, 300L + 31, BelongsTo),
    ).toDF("src", "dst", "etype")
  }

  private val mFeat = MetaGraph.SharedNeighbor("mC1", RelKind.Complementary, Supports)
  private val mBrand = MetaGraph.SharedNeighbor("mC2", RelKind.Complementary, ProducedBy)
  private val mCat = MetaGraph.SharedNeighbor("mS1", RelKind.Substitutable, BelongsTo)
  private val mConj = MetaGraph.Conjunction("mC3", RelKind.Complementary, Supports, ProducedBy)

  test("pairCounts counts common neighbors (shared features)") {
    val counts = RelevanceEngine.pairCounts(handEdges, mFeat).collect()
      .map(r => ((r.getLong(0), r.getLong(1)), r.getLong(2))).toMap
    assert(counts((0L, 1L)) == 2)
    assert(counts((1L, 2L)) == 1)
    assert(!counts.contains((0L, 2L)))
  }

  test("pairCounts on a conjunction is the product of common-neighbor counts") {
    val counts = RelevanceEngine.pairCounts(handEdges, mConj).collect()
      .map(r => ((r.getLong(0), r.getLong(1)), r.getLong(2))).toMap
    // (0,1): 2 common features x 1 common brand = 2; (1,2): no common brand
    assert(counts == Map((0L, 1L) -> 2L))
  }

  test("relevance normalizes by the per-meta-graph max count") {
    val rel = RelevanceEngine.relevance(handEdges, mFeat).collect()
      .map(r => ((r.getLong(0), r.getLong(1)), r.getDouble(2))).toMap
    assert(math.abs(rel((0L, 1L)) - 1.0) < 1e-12)
    assert(math.abs(rel((1L, 2L)) - 0.5) < 1e-12)
  }

  test("duplicate KG edges do not inflate instance counts") {
    val dup = handEdges.unionByName(handEdges)
    val a = RelevanceEngine.pairCounts(handEdges, mFeat).collect().toSet
    val b = RelevanceEngine.pairCounts(dup, mFeat).collect().toSet
    assert(a == b)
  }

  test("oracle: SharedNeighbor relevance matches DuckDB") {
    val sparkDf = RelevanceEngine.relevance(handEdges, mFeat)
      .select(col("x"), col("y"), col("s"))
    Oracle.assertEquivalent(sparkDf, RelevanceEngine.duckSql(mFeat), "edges" -> handEdges)
  }

  test("oracle: Conjunction relevance matches DuckDB") {
    val sparkDf = RelevanceEngine.relevance(handEdges, mConj)
      .select(col("x"), col("y"), col("s"))
    Oracle.assertEquivalent(sparkDf, RelevanceEngine.duckSql(mConj), "edges" -> handEdges)
  }

  test("oracle: generated 6-type KG relevance matches DuckDB for every meta-graph") {
    val edges = KGGenerator.edges(spark, KGSpec(nItems = 15, nFeatures = 12, nBrands = 4,
      nCategories = 3, nTags = 8, featuresPerItem = 3, tagsPerItem = 2, sixType = true, seed = 13L))
    MetaGraph.sixTypeSet.foreach { m =>
      val sparkDf = RelevanceEngine.relevance(edges, m).select(col("x"), col("y"), col("s"))
      if (!sparkDf.isEmpty)
        Oracle.assertEquivalent(sparkDf, RelevanceEngine.duckSql(m), "edges" -> edges)
    }
  }

  test("oracle: generated 3-type KG relevance matches DuckDB for every meta-graph") {
    val edges = KGGenerator.edges(spark, KGSpec(nItems = 15, nCategories = 5, nTags = 10,
      tagsPerItem = 3, sixType = false, seed = 14L))
    MetaGraph.threeTypeSet.foreach { m =>
      val sparkDf = RelevanceEngine.relevance(edges, m).select(col("x"), col("y"), col("s"))
      if (!sparkDf.isEmpty)
        Oracle.assertEquivalent(sparkDf, RelevanceEngine.duckSql(m), "edges" -> edges)
    }
  }

  test("relevanceAll stacks every meta-graph with kind labels") {
    val all = RelevanceEngine.relevanceAll(handEdges, Seq(mFeat, mBrand, mCat)).collect()
    val metas = all.map(_.getString(0)).toSet
    assert(metas == Set("mC1", "mC2", "mS1"))
    assert(all.forall(r => Set("Complementary", "Substitutable").contains(r.getString(1))))
  }

  test("collectMatrix builds a symmetric zero-diagonal matrix") {
    val mat = RelevanceEngine.collectMatrix(RelevanceEngine.relevance(handEdges, mFeat), 3)
    for (i <- 0 until 3) assert(mat(i)(i) == 0.0)
    for (i <- 0 until 3; j <- 0 until 3) assert(mat(i)(j) == mat(j)(i))
    assert(mat(0)(1) == 1.0 && mat(1)(2) == 0.5 && mat(0)(2) == 0.0)
  }

  test("collectMatrices preserves meta-graph order and fills absent pairs with zero") {
    val mats = RelevanceEngine.collectMatrices(handEdges, Seq(mFeat, mCat), 3)
    assert(mats.size == 2)
    assert(mats(0)(0)(1) == 1.0)
    assert(mats(1)(0)(2) == 1.0) // only category pair
    assert(mats(1)(0)(1) == 0.0)
  }

  /** The per-meta-graph path: one `relevance` query per meta-graph. */
  private def perMeta(edges: org.apache.spark.sql.DataFrame, ms: Seq[MetaGraph], n: Int) =
    ms.map(m => RelevanceEngine.collectMatrix(RelevanceEngine.relevance(edges, m), n)).toVector

  private def assertSameBits(got: Vector[Array[Array[Double]]], want: Vector[Array[Array[Double]]], what: String): Unit = {
    assert(got.size == want.size, what)
    for (k <- want.indices; x <- want(k).indices)
      assert(java.util.Arrays.equals(got(k)(x), want(k)(x)), s"$what: meta-graph $k, row $x")
  }

  test("collectMatrices equals the per-meta-graph relevance bit for bit on every dataset family") {
    val families = Seq(DatasetGen.amazonSmall(), DatasetGen.amazonLite(), DatasetGen.yelpLite(),
      DatasetGen.doubanLite(), DatasetGen.gowallaLite())
    families.foreach { cfg =>
      val edges = KGGenerator.edges(spark, cfg.kg)
      val want = perMeta(edges, cfg.metaGraphs, cfg.nItems)
      assert(want.exists(_.exists(_.exists(_ > 0.0))), cfg.name)
      assertSameBits(RelevanceEngine.collectMatrices(edges, cfg.metaGraphs, cfg.nItems), want, cfg.name)
    }
    val hand = Seq(mFeat, mBrand, mCat, mConj)
    assertSameBits(RelevanceEngine.collectMatrices(handEdges, hand, 3), perMeta(handEdges, hand, 3), "handEdges")
  }

  test("collectMatrices counts each edge type apart when types reuse neighbor ids") {
    import spark.implicits._
    // node 7 is a feature of item 0 and a brand of item 1, node 8 the reverse:
    // no two items share a neighbor under one edge type, so every matrix is 0
    val edges = Seq((0L, 7L, Supports), (1L, 8L, Supports), (1L, 7L, ProducedBy), (0L, 8L, ProducedBy),
      (2L, 7L, Supports), (2L, 9L, ProducedBy)).toDF("src", "dst", "etype")
    val ms = Seq(mFeat, mBrand, mConj)
    val got = RelevanceEngine.collectMatrices(edges, ms, 3)
    assertSameBits(got, perMeta(edges, ms, 3), "reused ids")
    assert(got(0)(0)(2) == 1.0 && got(0)(0)(1) == 0.0 && got(1).forall(_.forall(_ == 0.0)))
  }

  test("collectMatrices ignores duplicate KG edges") {
    val ms = Seq(mFeat, mBrand, mCat, mConj)
    assertSameBits(RelevanceEngine.collectMatrices(handEdges.unionByName(handEdges), ms, 3),
      perMeta(handEdges, ms, 3), "duplicated edges")
  }

  test("collectMatrices rejects out-of-range item ids") {
    assertThrows[IllegalArgumentException](RelevanceEngine.collectMatrices(handEdges, Seq(mFeat), 2))
  }

  test("collectMatrices gives an all-zero matrix for a meta-graph over an absent edge type") {
    val absent = MetaGraph.SharedNeighbor("mX", RelKind.Complementary, HasTag)
    val conj = MetaGraph.Conjunction("mX2", RelKind.Substitutable, BelongsTo, HasTag)
    val mats = RelevanceEngine.collectMatrices(handEdges, Seq(absent, mFeat, conj), 3)
    assert(mats(0).forall(_.forall(_ == 0.0)) && mats(2).forall(_.forall(_ == 0.0)))
    assert(mats(1)(0)(1) == 1.0 && mats(1)(1)(2) == 0.5)
  }

  test("collectMatrix rejects out-of-range item ids") {
    assertThrows[IllegalArgumentException](
      RelevanceEngine.collectMatrix(RelevanceEngine.relevance(handEdges, mFeat), 1))
  }

  test("s values always lie in (0, 1]") {
    val edges = KGGenerator.edges(spark, KGSpec(nItems = 25, sixType = true, seed = 15L))
    MetaGraph.sixTypeSet.foreach { m =>
      val ss = RelevanceEngine.relevance(edges, m).select("s").collect().map(_.getDouble(0))
      assert(ss.forall(s => s > 0.0 && s <= 1.0 + 1e-12), m.name)
    }
  }
}
