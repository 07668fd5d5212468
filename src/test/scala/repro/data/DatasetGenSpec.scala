package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.kg.{KGGenerator, KGSchema, KGSpec}

class DatasetGenSpec extends AnyFunSuite {

  test("the four lite families have the paper's type shapes") {
    val sixType = Seq(DatasetGen.amazonLite(), DatasetGen.yelpLite())
    sixType.foreach { cfg =>
      assert(cfg.kg.sixType, cfg.name)
      assert(cfg.metaGraphs.size == 6, cfg.name)
    }
    val threeType = Seq(DatasetGen.doubanLite(), DatasetGen.gowallaLite())
    threeType.foreach { cfg =>
      assert(!cfg.kg.sixType, cfg.name)
      assert(cfg.metaGraphs.size == 3, cfg.name)
    }
  }

  test("douban-lite is the largest network (paper order by users)") {
    val all = DatasetGen.allLite()
    assert(all.last.name == "douban-lite")
    assert(all.map(_.nUsers) == all.map(_.nUsers).sorted, "allLite is ordered by user count")
  }

  test("douban-lite is complementary-heavy: tags shared widely, categories fragmented") {
    val douban = DatasetGen.doubanLite()
    val edges = KGGenerator.edgeList(douban.kg)
    val tagPairs = sharedPairs(edges, KGSchema.HasTag)
    val catPairs = sharedPairs(edges, KGSchema.BelongsTo)
    assert(tagPairs > 2 * catPairs, s"tag pairs $tagPairs vs category pairs $catPairs")
  }

  test("gowalla-lite uses uniform-random importance, others price-like") {
    assert(DatasetGen.gowallaLite().importanceMode == ImportanceMode.UniformRandom)
    assert(DatasetGen.amazonLite().importanceMode == ImportanceMode.Price)
    assert(DatasetGen.doubanLite().importanceMode == ImportanceMode.Price)
  }

  test("amazon-small is a 100-user sample (the Fig. 5 OPT setting)") {
    val cfg = DatasetGen.amazonSmall()
    assert(cfg.nUsers == 100)
    assert(cfg.nItems <= 10, "small item set keeps OPT brute force feasible")
  }

  test("scale parameter shrinks users and edges together") {
    val full = DatasetGen.amazonLite()
    val half = DatasetGen.amazonLite(scale = 0.5)
    assert(half.nUsers < full.nUsers && half.nEdges < full.nEdges)
    assert(half.nItems == full.nItems, "item catalog does not scale")
  }

  test("byName returns each of the five families, equal to its direct call, and rejects an unknown name") {
    val direct = Seq(DatasetGen.amazonSmall(4.0, 2), DatasetGen.amazonLite(4.0, 2), DatasetGen.yelpLite(4.0, 2),
      DatasetGen.doubanLite(4.0, 2), DatasetGen.gowallaLite(4.0, 2))
    direct.foreach(cfg => assert(DatasetGen.byName(cfg.name, 4.0, 2) == cfg, cfg.name))
    val e = intercept[IllegalArgumentException](DatasetGen.byName("amazon", 4.0, 2))
    assert(e.getMessage.contains("amazon"), e.getMessage)
  }

  test("every lite family has at least 50 users and 200 edges at any scale, liteParams and cost scale 0.1") {
    // (family, users at scale 1, edges at scale 1)
    val families = Seq[(Double => DatasetConfig, Int, Int)](
      (s => DatasetGen.amazonLite(scale = s), 800, 6400), (s => DatasetGen.yelpLite(scale = s), 600, 4800),
      (s => DatasetGen.doubanLite(scale = s), 1400, 11000), (s => DatasetGen.gowallaLite(scale = s), 1000, 8000))
    for ((family, users, edges) <- families; scale <- Seq(0.0, 0.0625, 1.0)) {
      val cfg = family(scale)
      val clue = s"${cfg.name} at scale $scale"
      assert(cfg.nUsers == math.max(50, math.floor(users * scale).toInt), clue)
      assert(cfg.nEdges == math.max(200, math.floor(edges * scale).toInt), clue)
      assert(cfg.params == DatasetGen.liteParams && cfg.costScale == 0.1, clue)
    }
  }

  // construction-time validation: one test per rejected field, each case
  // failing in the constructor with the field's name in the message
  private val kg6 = DatasetGen.amazonLite().kg
  private val cfg = DatasetGen.amazonLite()

  private def rejects(owner: String, field: String)(cases: (() => Any)*): Unit =
    test(s"$owner rejects a malformed $field at construction") {
      cases.foreach { mk =>
        val e = intercept[IllegalArgumentException](mk())
        assert(e.getMessage.contains(field), e.getMessage)
      }
    }

  rejects("KGSpec", "nCategories")(() => kg6.copy(nCategories = 0), () => kg6.copy(nCategories = -1))
  rejects("KGSpec", "nTags")(() => kg6.copy(nTags = 1), () => kg6.copy(nTags = 0))
  rejects("KGSpec", "nFeatures")(() => kg6.copy(nFeatures = 0))
  rejects("KGSpec", "nBrands")(() => kg6.copy(nBrands = 0))
  rejects("KGSpec", "featuresPerItem")(() => kg6.copy(featuresPerItem = -1))
  rejects("KGSpec", "tagsPerItem")(() => kg6.copy(tagsPerItem = -1))
  rejects("KGSpec", "crossShare")(
    () => kg6.copy(crossShare = -0.1), () => kg6.copy(crossShare = 1.5), () => kg6.copy(crossShare = Double.NaN))
  rejects("KGSpec", "tagAffinity")(
    () => kg6.copy(tagAffinity = -0.1), () => kg6.copy(tagAffinity = 1.5), () => kg6.copy(tagAffinity = Double.NaN))
  rejects("DatasetConfig", "nUsers")(() => cfg.copy(nUsers = 1), () => cfg.copy(nUsers = 0))
  rejects("DatasetConfig", "nEdges")(() => cfg.copy(nEdges = -1))
  rejects("DatasetConfig", "costScale")(
    () => cfg.copy(costScale = 0.0), () => cfg.copy(costScale = -0.1),
    () => cfg.copy(costScale = Double.PositiveInfinity), () => cfg.copy(costScale = Double.NaN))

  test("the smallest accepted KGSpec generates its edges, with every tag id in range") {
    val smallest = Seq(
      KGSpec(nItems = 2, nFeatures = 1, nBrands = 1, nCategories = 1, nTags = 2, crossShare = 0.0, tagAffinity = 1.0),
      KGSpec(nItems = 2, nFeatures = 0, nBrands = 0, nCategories = 1, nTags = 2, featuresPerItem = 0,
        tagsPerItem = 0, sixType = false, crossShare = 1.0, tagAffinity = 0.0))
    smallest.foreach { spec =>
      val tags = KGGenerator.edgeList(spec).collect { case (_, dst, KGSchema.HasTag | KGSchema.CatTag) => dst - KGGenerator.TagBase }
      assert(tags.forall(t => t >= 0 && t < spec.nTags), s"$spec: tags $tags")
    }
  }

  /** Count item pairs sharing at least one neighbor of the given edge type. */
  private def sharedPairs(edges: Seq[(Long, Long, String)], etype: String): Int = {
    val byItem = edges.filter(_._3 == etype).groupBy(_._1).view.mapValues(_.map(_._2).toSet).toMap
    val items = byItem.keys.toVector
    (for {
      i <- items.indices
      j <- (i + 1) until items.size
      if (byItem(items(i)) & byItem(items(j))).nonEmpty
    } yield 1).sum
  }
}
