package repro.kg

import repro.SparkSpec

class KGGeneratorSpec extends SparkSpec {

  private val spec6 = KGSpec(nItems = 20, nFeatures = 15, nBrands = 5, nCategories = 4,
    nTags = 10, featuresPerItem = 3, tagsPerItem = 2, sixType = true, seed = 3L)
  private val spec3 = KGSpec(nItems = 20, nCategories = 6, nTags = 12, tagsPerItem = 3,
    sixType = false, seed = 4L)

  test("edge list is deterministic in the spec") {
    assert(KGGenerator.edgeList(spec6) == KGGenerator.edgeList(spec6))
  }

  test("6-type KG has exactly 6 node types and 6 edge types") {
    val edges = KGGenerator.edgeList(spec6)
    val etypes = edges.map(_._3).toSet
    assert(etypes == Set(KGSchema.Supports, KGSchema.ProducedBy, KGSchema.BelongsTo,
      KGSchema.HasTag, KGSchema.SoldAt, KGSchema.CatTag))
    val ntypes = edges.flatMap(e => Seq(KGGenerator.typeOf(e._1), KGGenerator.typeOf(e._2))).toSet
    assert(ntypes == Set(KGSchema.Item, KGSchema.Feature, KGSchema.Brand, KGSchema.Category,
      KGSchema.Tag, KGSchema.Shop))
  }

  test("3-type KG has exactly 3 node types and 3 edge types") {
    val edges = KGGenerator.edgeList(spec3)
    assert(edges.map(_._3).toSet == Set(KGSchema.HasTag, KGSchema.BelongsTo, KGSchema.CatTag))
    val ntypes = edges.flatMap(e => Seq(KGGenerator.typeOf(e._1), KGGenerator.typeOf(e._2))).toSet
    assert(ntypes == Set(KGSchema.Item, KGSchema.Tag, KGSchema.Category))
  }

  test("every item has exactly one category") {
    val edges = KGGenerator.edgeList(spec6)
    val cats = edges.filter(_._3 == KGSchema.BelongsTo).groupBy(_._1)
    assert(cats.size == spec6.nItems)
    cats.values.foreach(es => assert(es.size == 1))
  }

  test("no duplicate item-feature edges") {
    val sup = KGGenerator.edgeList(spec6).filter(_._3 == KGSchema.Supports)
    assert(sup.distinct.size == sup.size)
  }

  test("node id ranges map to the right types") {
    assert(KGGenerator.typeOf(0L) == KGSchema.Item)
    assert(KGGenerator.typeOf(KGGenerator.FeatureBase + 1) == KGSchema.Feature)
    assert(KGGenerator.typeOf(KGGenerator.BrandBase) == KGSchema.Brand)
    assert(KGGenerator.typeOf(KGGenerator.CategoryBase + 5) == KGSchema.Category)
    assert(KGGenerator.typeOf(KGGenerator.TagBase) == KGSchema.Tag)
    assert(KGGenerator.typeOf(KGGenerator.ShopBase + 2) == KGSchema.Shop)
  }

  test("edges DataFrame matches the local edge list") {
    val df = KGGenerator.edges(spark, spec3)
    val collected = df.collect().map(r => (r.getLong(0), r.getLong(1), r.getString(2))).toVector
    assert(collected.sorted == KGGenerator.edgeList(spec3).sorted)
  }

  test("nodes DataFrame covers all items and has typed attribute nodes") {
    val nodes = KGGenerator.nodes(spark, spec3).collect().map(r => (r.getLong(0), r.getString(1)))
    val items = nodes.filter(_._2 == KGSchema.Item).map(_._1).toSet
    assert((0L until spec3.nItems.toLong).toSet.subsetOf(items))
    assert(nodes.exists(_._2 == KGSchema.Tag))
    assert(nodes.exists(_._2 == KGSchema.Category))
  }

  test("high tag affinity yields more shared tags than low affinity") {
    def sharedPairs(aff: Double): Int = {
      val edges = KGGenerator.edgeList(spec3.copy(tagAffinity = aff, seed = 9L))
      val tagSets = edges.filter(_._3 == KGSchema.HasTag).groupBy(_._1).view.mapValues(_.map(_._2).toSet)
      val items = tagSets.keys.toVector
      (for (i <- items.indices; j <- (i + 1) until items.size
            if (tagSets(items(i)) & tagSets(items(j))).nonEmpty) yield 1).sum
    }
    assert(sharedPairs(0.9) > sharedPairs(0.1))
  }
}
