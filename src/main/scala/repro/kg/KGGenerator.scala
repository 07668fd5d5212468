package repro.kg

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.util.Random

/** Parameters of the synthetic HIN generator (stand-in for the paper's
  * real KGs — see DESIGN.md Sec. 2 substitution table).
  *
  * Design goals that drive the qualitative results:
  *  - features and brands are shared '''across''' categories (global draws
  *    with probability `crossShare`), so complementary relevance connects
  *    items of different categories;
  *  - categories are Zipf-skewed, so some categories are big, producing
  *    strong substitutable relevance within them;
  *  - `tagAffinity` (3-type datasets) controls how concentrated tags are:
  *    high affinity (Douban-lite) makes most item pairs share tags, i.e. a
  *    complementary-heavy catalog ("items in Douban are usually
  *    complementary", Sec. VI-B).
  */
final case class KGSpec(
    nItems: Int,
    nFeatures: Int = 40,
    nBrands: Int = 12,
    nCategories: Int = 8,
    nTags: Int = 30,
    featuresPerItem: Int = 4,
    tagsPerItem: Int = 3,
    sixType: Boolean = true,
    crossShare: Double = 0.5,
    tagAffinity: Double = 0.3,
    seed: Long = 7L) {
  require(nItems >= 2, "need at least two items for relevance")
}

/** Deterministic generator of the synthetic knowledge graph as typed node
  * and edge DataFrames (`nodes(id, ntype)`, `edges(src, dst, etype)`).
  *
  * Node id spaces: items are [0, nItems); attribute nodes are offset into
  * disjoint ranges so ids never collide.
  */
object KGGenerator {
  val FeatureBase  = 1000000L
  val BrandBase    = 2000000L
  val CategoryBase = 3000000L
  val TagBase      = 4000000L
  val ShopBase     = 5000000L

  /** Shops an item of a 6-type KG is sold at (no meta-graph reads SOLD_AT). */
  val NShops: Int = 10

  /** Zipf-ish draw over [0, n): rank r with probability ∝ 1/(r+1)^alpha. */
  private def zipfDraw(rnd: Random, n: Int, alpha: Double): Int = {
    // inverse-CDF on the unnormalized weights; n is small so linear scan is fine
    val weights = zipfWeights(n, alpha)
    val u = rnd.nextDouble() * weights.last
    var i = 0
    while (i < n - 1 && weights(i) < u) i += 1
    i
  }

  private val weightCache = scala.collection.mutable.HashMap.empty[(Int, Double), Array[Double]]
  private def zipfWeights(n: Int, alpha: Double): Array[Double] = synchronized {
    weightCache.getOrElseUpdate((n, alpha), {
      val w = new Array[Double](n)
      var acc = 0.0
      var i = 0
      while (i < n) { acc += 1.0 / math.pow(i + 1, alpha); w(i) = acc; i += 1 }
      w
    })
  }

  /** Generate the raw typed edge list (driver-side; the KG at lite scale is
    * small, the bulk work is the relevance self-joins on Spark).
    */
  def edgeList(spec: KGSpec): Vector[(Long, Long, String)] = {
    val rnd = new Random(spec.seed)
    val b = Vector.newBuilder[(Long, Long, String)]
    var x = 0
    while (x < spec.nItems) {
      val item = x.toLong
      val cat = zipfDraw(rnd, spec.nCategories, 1.1)
      b += ((item, CategoryBase + cat, KGSchema.BelongsTo))
      if (spec.sixType) {
        val brand = zipfDraw(rnd, spec.nBrands, 1.0)
        b += ((item, BrandBase + brand, KGSchema.ProducedBy))
        var f = 0
        val seen = scala.collection.mutable.HashSet.empty[Int]
        while (f < spec.featuresPerItem) {
          // global draw with prob crossShare, otherwise a category-local pool
          val feat =
            if (rnd.nextDouble() < spec.crossShare) rnd.nextInt(spec.nFeatures)
            else {
              val poolSize = math.max(2, spec.nFeatures / spec.nCategories)
              (cat * poolSize + rnd.nextInt(poolSize)) % spec.nFeatures
            }
          if (seen.add(feat)) b += ((item, FeatureBase + feat, KGSchema.Supports))
          f += 1
        }
        b += ((item, ShopBase + rnd.nextInt(NShops), KGSchema.SoldAt))
      }
      // tags exist in both the 3-type and 6-type configurations
      var tIdx = 0
      val seenTags = scala.collection.mutable.HashSet.empty[Int]
      while (tIdx < spec.tagsPerItem) {
        // high tagAffinity concentrates draws on few head tags => heavy sharing
        val tag =
          if (rnd.nextDouble() < spec.tagAffinity) zipfDraw(rnd, math.max(2, spec.nTags / 4), 1.3)
          else rnd.nextInt(spec.nTags)
        if (seenTags.add(tag)) b += ((item, TagBase + tag, KGSchema.HasTag))
        tIdx += 1
      }
      x += 1
    }
    // taxonomy edges, drawn after every item's draws
    var c = 0
    while (c < spec.nCategories) {
      b += ((CategoryBase + c, TagBase + rnd.nextInt(spec.nTags), KGSchema.CatTag))
      c += 1
    }
    b.result()
  }

  /** Edge DataFrame `edges(src, dst, etype)`. */
  def edges(spark: SparkSession, spec: KGSpec): DataFrame = {
    import spark.implicits._
    edgeList(spec).toDF("src", "dst", "etype")
  }

  /** Node DataFrame `nodes(id, ntype)` derived from the edge endpoints. */
  def nodes(spark: SparkSession, spec: KGSpec): DataFrame = {
    import spark.implicits._
    val typed = edgeList(spec)
      .flatMap { case (s, d, _) => Seq(s, d) }
      .distinct
      .map(id => (id, typeOf(id)))
    // items with no edges still exist as nodes
    val items = (0L until spec.nItems.toLong).map(i => (i, KGSchema.Item))
    (typed ++ items).distinct.toDF("id", "ntype")
  }

  /** Node type from the id range. */
  def typeOf(id: Long): String =
    if (id < FeatureBase) KGSchema.Item
    else if (id < BrandBase) KGSchema.Feature
    else if (id < CategoryBase) KGSchema.Brand
    else if (id < TagBase) KGSchema.Category
    else if (id < ShopBase) KGSchema.Tag
    else KGSchema.Shop
}
