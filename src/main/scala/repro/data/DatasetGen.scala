package repro.data

import repro.core.Params
import repro.kg.{KGSpec, MetaGraph}

/** The four "-lite" dataset families standing in for the paper's Amazon,
  * Yelp, Douban and Gowalla (Sec. VI-A), plus the 100-user Amazon sample
  * used for the OPT comparison (Fig. 5). `scale` multiplies users/edges so
  * the scalability table (Fig. 6(h)) can sweep sizes.
  *
  * Shape notes (DESIGN.md Sec. 2):
  *  - amazon/yelp: 6 node types / 6 edge types, price importance;
  *  - douban: 3 types, '''complementary-heavy''' (high tag affinity, many
  *    small categories ⇒ little substitutable relevance), largest network;
  *  - gowalla: 3 types, uniform-random importance.
  */
object DatasetGen {

  /** Damped dynamics for the "large" lite families: keeps the mean-field
    * subcritical (a seed's cascade dies out instead of saturating the
    * network), which both matches IC-style diffusion behaviour and keeps a
    * σ evaluation at O(10 ms).
    */
  val liteParams: Params = Params(
    eta = 2.0, beta = 0.3, gamma = 0.3, extraScale = 0.2,
    actScale = 0.8, actBase = 0.3, maxSteps = 5, eps = 1e-3)

  def amazonSmall(budget: Double = 6, t: Int = 3): DatasetConfig = DatasetConfig(
    name = "amazon-small",
    nUsers = 100,
    nEdges = 420,
    kg = KGSpec(nItems = 8, nFeatures = 10, nBrands = 4, nCategories = 3, nTags = 8,
      featuresPerItem = 3, tagsPerItem = 2, sixType = true, crossShare = 0.5, seed = 21L),
    metaGraphs = MetaGraph.sixTypeSet,
    importanceMode = ImportanceMode.Price,
    budget = budget,
    T = t,
    // mean pair cost ~3: the Fig. 5 budgets admit only a handful of seeds,
    // which keeps the brute-force OPT exhaustive over the real search space
    costScale = 0.6,
    socialSeed = 31L)

  /** A lite family: at least 50 users and 200 edges at any scale, the
    * meta-graph set of the KG's type shape, [[liteParams]] and cost scale
    * 0.1.
    */
  private def lite(name: String, users: Int, edges: Int, kg: KGSpec, importanceMode: ImportanceMode,
      socialSeed: Long)(budget: Double, t: Int, scale: Double): DatasetConfig = DatasetConfig(
    name = name,
    nUsers = math.max(50, (users * scale).toInt),
    nEdges = math.max(200, (edges * scale).toInt),
    kg = kg,
    metaGraphs = if (kg.sixType) MetaGraph.sixTypeSet else MetaGraph.threeTypeSet,
    importanceMode = importanceMode,
    budget = budget,
    T = t,
    params = liteParams,
    costScale = 0.1,
    socialSeed = socialSeed)

  def amazonLite(budget: Double = 40, t: Int = 5, scale: Double = 1.0): DatasetConfig =
    lite("amazon-lite", 800, 6400,
      KGSpec(nItems = 30, nFeatures = 40, nBrands = 12, nCategories = 8, nTags = 30,
        featuresPerItem = 4, tagsPerItem = 3, sixType = true, crossShare = 0.5, seed = 41L),
      ImportanceMode.Price, socialSeed = 51L)(budget, t, scale)

  def yelpLite(budget: Double = 40, t: Int = 5, scale: Double = 1.0): DatasetConfig =
    lite("yelp-lite", 600, 4800,
      KGSpec(nItems = 24, nFeatures = 32, nBrands = 10, nCategories = 6, nTags = 24,
        featuresPerItem = 4, tagsPerItem = 3, sixType = true, crossShare = 0.45, seed = 61L),
      ImportanceMode.Price, socialSeed = 71L)(budget, t, scale)

  def doubanLite(budget: Double = 40, t: Int = 5, scale: Double = 1.0): DatasetConfig =
    lite("douban-lite", 1400, 11000,
      KGSpec(nItems = 40, nFeatures = 0, nBrands = 0, nCategories = 32, nTags = 24,
        featuresPerItem = 0, tagsPerItem = 4, sixType = false, crossShare = 0.5,
        tagAffinity = 0.85, seed = 81L),
      ImportanceMode.Price, socialSeed = 91L)(budget, t, scale)

  def gowallaLite(budget: Double = 40, t: Int = 5, scale: Double = 1.0): DatasetConfig =
    lite("gowalla-lite", 1000, 8000,
      KGSpec(nItems = 32, nFeatures = 0, nBrands = 0, nCategories = 12, nTags = 30,
        featuresPerItem = 0, tagsPerItem = 3, sixType = false, crossShare = 0.5,
        tagAffinity = 0.4, seed = 111L),
      ImportanceMode.UniformRandom, socialSeed = 121L)(budget, t, scale)

  /** All four large families in the paper's Fig. 6(h) order (by #users). */
  def allLite(budget: Double = 40, t: Int = 5, scale: Double = 1.0): Vector[DatasetConfig] =
    Vector(yelpLite(budget, t, scale), amazonLite(budget, t, scale),
      gowallaLite(budget, t, scale), doubanLite(budget, t, scale))

  /** The family called `name` (amazon-small or one of the four lite
    * families, at full scale).
    */
  def byName(name: String, budget: Double, t: Int): DatasetConfig =
    (amazonSmall(budget, t) +: allLite(budget, t)).find(_.name == name)
      .getOrElse(throw new IllegalArgumentException(s"unknown dataset: $name"))
}
