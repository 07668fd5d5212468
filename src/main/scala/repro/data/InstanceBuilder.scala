package repro.data

import org.apache.spark.sql.SparkSession
import repro.core.{Params, ProblemInstance}
import repro.kg.{KGGenerator, KGSpec, MetaGraph, RelevanceEngine}
import repro.social.SocialGen

/** How item importance is drawn. */
sealed trait ImportanceMode
object ImportanceMode {
  case object Price extends ImportanceMode
  case object UniformRandom extends ImportanceMode
}

/** One synthetic dataset family (a "-lite" stand-in for a paper dataset —
  * DESIGN.md Sec. 2). The item catalog is the KG's: [[nItems]] is
  * `kg.nItems`.
  */
final case class DatasetConfig(
    name: String,
    nUsers: Int,
    nEdges: Int,
    kg: KGSpec,
    metaGraphs: Vector[MetaGraph],
    importanceMode: ImportanceMode,
    budget: Double,
    T: Int,
    params: Params = Params(),
    costScale: Double = 0.02,
    prefSeed: Long = 101L,
    socialSeed: Long = 11L) {
  require(nUsers >= 2, s"nUsers=$nUsers, need at least two users")
  require(nEdges >= 0, s"nEdges=$nEdges is negative")
  require(costScale > 0.0 && !costScale.isInfinite, s"costScale=$costScale must be finite and > 0")

  def nItems: Int = kg.nItems
}

/** Assembles a driver-local [[ProblemInstance]] from the Spark substrates:
  * social graph DataFrame, KG DataFrame and the meta-graph relevance
  * matrices (the bulk Catalyst work), plus the deterministic cost /
  * preference / importance model.
  */
object InstanceBuilder {

  def build(spark: SparkSession, cfg: DatasetConfig): ProblemInstance = {
    // ---- social substrate (Spark) ---------------------------------------
    val edgesDf = SocialGen.edges(spark, cfg.nUsers, cfg.nEdges, cfg.socialSeed)
    val edgePairs = SocialGen.collectEdges(edgesDf)

    // ---- KG substrate + relevance (Spark, Catalyst self-joins) ----------
    val kgEdges = KGGenerator.edges(spark, cfg.kg)
    val metaS = RelevanceEngine.collectMatrices(kgEdges, cfg.metaGraphs, cfg.nItems)

    fromParts(cfg, edgePairs, metaS)
  }

  /** Pure assembly from collected parts (also used by tests that hand-craft
    * graphs).
    */
  def fromParts(
      cfg: DatasetConfig,
      edgePairs: Seq[(Int, Int)],
      metaS: Vector[Array[Array[Double]]]): ProblemInstance = {
    val n = cfg.nUsers
    val inB = Array.fill(n)(Array.newBuilder[Int])
    val outB = Array.fill(n)(Array.newBuilder[Int])
    edgePairs.foreach { case (s, d) =>
      require(s >= 0 && s < n && d >= 0 && d < n, s"social edge out of range: ($s,$d)")
      inB(d) += s
      outB(s) += d
    }
    val inNbr = inB.map(_.result())
    val outNbr = outB.map(_.result())
    val p = cfg.params
    val inAct = Array.tabulate(n) { v =>
      val indeg = math.max(1, inNbr(v).length)
      Array.fill(inNbr(v).length)(math.min(p.actBase, p.actScale / indeg))
    }
    val basePref = Array.tabulate(n, cfg.nItems)((u, x) => CostModel.basePref(u, x, cfg.prefSeed))
    val cost = Array.tabulate(n, cfg.nItems)((u, x) =>
      CostModel.cost(outNbr(u).length, basePref(u)(x), cfg.costScale))
    val importance = Array.tabulate(cfg.nItems) { x =>
      cfg.importanceMode match {
        case ImportanceMode.Price         => CostModel.priceImportance(x, cfg.prefSeed)
        case ImportanceMode.UniformRandom => CostModel.uniformImportance(x, cfg.prefSeed)
      }
    }
    ProblemInstance(
      nUsers = n,
      nItems = cfg.nItems,
      itemNames = (0 until cfg.nItems).map(i => s"item-$i").toVector,
      importance = importance,
      inNbr = inNbr,
      inAct = inAct,
      outNbr = outNbr,
      basePref = basePref,
      metaKinds = cfg.metaGraphs.map(_.kind),
      metaS = metaS,
      cost = cost,
      budget = cfg.budget,
      T = cfg.T,
      params = cfg.params)
  }
}
