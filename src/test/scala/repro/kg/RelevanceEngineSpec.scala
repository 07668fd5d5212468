package repro.kg

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}
import repro.core.RelKind
import repro.data.DatasetGen
import scala.jdk.CollectionConverters._

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

  // A hand KG where the conjunction's product and a sum disagree: (0,1) share
  // 2 features and 2 brands (4 instances), (1,2) 1 feature and 3 brands (3)
  private def productEdges = {
    import spark.implicits._
    val feats = Map(0L -> Seq(10L, 11L), 1L -> Seq(10L, 11L, 12L), 2L -> Seq(12L))
    val brands = Map(0L -> Seq(20L, 21L), 1L -> Seq(20L, 21L, 22L, 23L, 24L), 2L -> Seq(22L, 23L, 24L))
    (feats.toSeq.flatMap { case (i, ns) => ns.map(n => (i, 100L + n, Supports)) } ++
      brands.toSeq.flatMap { case (i, ns) => ns.map(n => (i, 200L + n, ProducedBy)) }).toDF("src", "dst", "etype")
  }

  // The two hand counts keep the names of the former pairCounts query's tests;
  // the counts now come from collectMatrices.
  test("pairCounts counts common neighbors (shared features)") {
    val Vector(feat, brand, cat) = RelevanceEngine.collectMatrices(handEdges, Seq(mFeat, mBrand, mCat), 3)
    // features: (0,1) share 2, (1,2) share 1, so s = 2/2 and 1/2
    assert(feat(0)(1) == 1.0 && feat(1)(2) == 0.5 && feat(0)(2) == 0.0)
    assert(brand(0)(1) == 1.0 && brand(0)(2) == 0.0 && brand(1)(2) == 0.0)
    assert(cat(0)(2) == 1.0 && cat(0)(1) == 0.0 && cat(1)(2) == 0.0)
  }

  test("pairCounts on a conjunction is the product of common-neighbor counts") {
    val Vector(conj) = RelevanceEngine.collectMatrices(handEdges, Seq(mConj), 3)
    // (0,1): 2 common features x 1 common brand; (1,2) has no common brand
    assert(conj(0)(1) == 1.0 && conj(0)(2) == 0.0 && conj(1)(2) == 0.0)
    // 4 and 3 instances: a sum (4 and 4) would give (1,2) s = 1
    val Vector(prod) = RelevanceEngine.collectMatrices(productEdges, Seq(mConj), 3)
    assert(prod(0)(1) == 1.0 && prod(1)(2) == 0.75 && prod(0)(2) == 0.0)
  }

  test("relevance normalizes by the per-meta-graph max count") {
    val rel = RelevanceEngine.relevance(handEdges, mFeat).collect()
      .map(r => ((r.getLong(0), r.getLong(1)), r.getDouble(2))).toMap
    assert(rel == Map((0L, 1L) -> 1.0, (1L, 2L) -> 0.5))
  }

  test("duplicate KG edges do not inflate instance counts") {
    // through relevance, the DataFrame entry point: item 2's edges thrice,
    // the others twice; counted with multiplicity, mFeat's (1,2) would read 0.75
    val dup = handEdges.unionByName(handEdges).unionByName(handEdges.filter("src = 2"))
    def rel(edges: DataFrame, m: MetaGraph) = RelevanceEngine.relevance(edges, m).collect()
      .map(r => ((r.getLong(0), r.getLong(1)), r.getDouble(2))).toMap
    for (m <- Seq(mFeat, mBrand, mCat, mConj)) assert(rel(dup, m) == rel(handEdges, m), m.name)
  }

  /** Positive upper-triangle entries of a relevance matrix as DataFrame(x, y, s). */
  private def entries(mat: Array[Array[Double]]) = {
    import spark.implicits._
    (for (x <- mat.indices; y <- x + 1 until mat.length if mat(x)(y) > 0.0)
      yield (x.toLong, y.toLong, mat(x)(y))).toDF("x", "y", "s")
  }

  /** The edges as a local DataFrame: the oracle reads them once per meta-graph. */
  private def local(kg: DataFrame) = spark.createDataFrame(kg.collect().toSeq.asJava, kg.schema)

  /** Diffs collectMatrices' entries for every meta-graph of `ms` against DuckDB. */
  private def assertMatchesDuck(edges: DataFrame, ms: Seq[MetaGraph], n: Int): Unit =
    ms.zip(RelevanceEngine.collectMatrices(edges, ms, n)).foreach { case (m, mat) =>
      Oracle.assertEquivalent(entries(mat), RelevanceEngine.duckSql(m), "edges" -> edges)
    }

  /** (name, local edges, meta-graphs, items, collectMatrices output) of every dataset family and handEdges. */
  private lazy val families = {
    val gen = Seq(DatasetGen.amazonSmall(), DatasetGen.amazonLite(), DatasetGen.yelpLite(),
      DatasetGen.doubanLite(), DatasetGen.gowallaLite())
      .map(cfg => (cfg.name, local(KGGenerator.edges(spark, cfg.kg)), cfg.metaGraphs, cfg.nItems))
    assert(gen.map(_._3).toSet == Set(MetaGraph.sixTypeSet, MetaGraph.threeTypeSet))
    (gen :+ (("handEdges", local(handEdges), Vector(mFeat, mBrand, mCat, mConj), 3))).map { case (name, e, ms, n) =>
      (name, e, ms, n, RelevanceEngine.collectMatrices(e, ms, n))
    }
  }

  test("oracle: SharedNeighbor relevance matches DuckDB") {
    assertMatchesDuck(local(handEdges), Seq(mFeat, mBrand, mCat), 3)
  }

  test("oracle: Conjunction relevance matches DuckDB") {
    assertMatchesDuck(local(handEdges), Seq(mConj), 3)
    assertMatchesDuck(local(productEdges), Seq(mConj), 3)
  }

  private def assertFamiliesMatchDuck(set: Seq[MetaGraph]): Unit = {
    val fs = families.filter(_._3 == set)
    assert(fs.nonEmpty)
    fs.foreach { case (_, edges, ms, _, mats) =>
      ms.zip(mats).foreach { case (m, mat) =>
        Oracle.assertEquivalent(entries(mat), RelevanceEngine.duckSql(m), "edges" -> edges)
      }
    }
  }

  test("oracle: generated 6-type KG relevance matches DuckDB for every meta-graph") {
    assertFamiliesMatchDuck(MetaGraph.sixTypeSet)
  }

  test("oracle: generated 3-type KG relevance matches DuckDB for every meta-graph") {
    assertFamiliesMatchDuck(MetaGraph.threeTypeSet)
  }

  test("s values always lie in (0, 1]") {
    families.foreach { case (name, _, ms, n, mats) =>
      ms.zip(mats).foreach { case (m, mat) =>
        val what = s"$name ${m.name}"
        for (x <- 0 until n) {
          assert(mat(x)(x) == 0.0, what)
          for (y <- 0 until n) assert(mat(x)(y) == mat(y)(x) && mat(x)(y) >= 0.0 && mat(x)(y) <= 1.0, what)
        }
        val top = mat.iterator.flatten.max
        assert(top == 0.0 || top == 1.0, s"$what: max $top")
      }
      def nonZero(kind: RelKind) = ms.zip(mats).exists { case (m, mat) => m.kind == kind && mat.exists(_.exists(_ > 0.0)) }
      assert(nonZero(RelKind.Complementary) && nonZero(RelKind.Substitutable), name)
    }
  }

  test("collectMatrices equals the per-meta-graph relevance bit for bit on every dataset family") {
    families.foreach { case (name, edges, ms, n, mats) =>
      ms.zip(mats).foreach { case (m, mat) =>
        val want = RelevanceEngine.collectMatrix(RelevanceEngine.relevance(edges, m), n)
        for (x <- 0 until n) assert(java.util.Arrays.equals(mat(x), want(x)), s"$name ${m.name}, row $x")
      }
    }
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

  test("collectMatrices counts each edge type apart when types reuse neighbor ids") {
    import spark.implicits._
    // node 7 is a feature of item 0 and a brand of item 1, node 8 the reverse:
    // no two items share a neighbor under one edge type, so every matrix is 0
    val edges = Seq((0L, 7L, Supports), (1L, 8L, Supports), (1L, 7L, ProducedBy), (0L, 8L, ProducedBy),
      (2L, 7L, Supports), (2L, 9L, ProducedBy)).toDF("src", "dst", "etype")
    val Vector(feat, brand, conj) = RelevanceEngine.collectMatrices(edges, Seq(mFeat, mBrand, mConj), 3)
    // only items 0 and 2 share a feature (node 7)
    assert(feat(0)(2) == 1.0 && feat(0)(1) == 0.0 && feat(1)(2) == 0.0)
    assert(brand.forall(_.forall(_ == 0.0)) && conj.forall(_.forall(_ == 0.0)))
  }

  test("collectMatrices ignores duplicate KG edges") {
    // item 2's edges thrice, the others twice: counted with multiplicity,
    // (1,2) would share as many features as (0,1)
    val dup = handEdges.unionByName(handEdges).unionByName(handEdges.filter("src = 2"))
    val ms = Seq(mFeat, mBrand, mCat, mConj)
    val got = RelevanceEngine.collectMatrices(dup, ms, 3)
    val want = RelevanceEngine.collectMatrices(handEdges, ms, 3)
    for (k <- ms.indices; x <- 0 until 3) assert(java.util.Arrays.equals(got(k)(x), want(k)(x)), s"${ms(k).name}, row $x")
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
}
