package repro.core

/** Dysim — Dynamic perception for seeding in target markets (Algorithm 1).
  *
  * Phases: TMI selects and clusters nominees into prioritized target
  * markets; for each market, DRE repeatedly picks the item with the
  * highest dynamic reachability and TDSI assigns the item's nominees
  * their promotion rounds by substantial influence.
  */
object Dysim {

  final case class Trace(
      nominees: Vector[Nominee],
      markets: Vector[TargetMarket],
      groups: Vector[Vector[TargetMarket]],
      seeds: Vector[Seed])

  def run(inst: ProblemInstance, cfg: TMI.Config = TMI.Config()): Vector[Seed] =
    runTraced(inst, cfg).seeds

  def runTraced(inst: ProblemInstance, cfg: TMI.Config = TMI.Config()): Trace = {
    // ---- TMI -----------------------------------------------------------
    val nominees = TMI.selectNominees(inst, cfg)
    val clusters = TMI.clusterNominees(inst, nominees, cfg)
    val markets = TMI.identifyMarkets(inst, clusters, cfg)
    val groups = TMI.groupAndPrioritize(inst, markets, cfg)

    val s = scala.collection.mutable.ArrayBuffer.empty[Seed]
    groups.foreach { group =>
      val totalNominees = math.max(1, group.iterator.map(_.nominees.length).sum)
      var prevMarketSeeds: Seq[Seed] = Nil
      group.foreach { market =>
        // promotional duration T^τk ∝ |N^τk| (Sec. IV-B.3)
        val tTauK = math.max(1, math.round(market.nominees.length.toDouble * inst.T / totalNominees).toInt)
        val marketMask = market.mask(inst.nUsers)
        val marketSeeds = scala.collection.mutable.ArrayBuffer.empty[Seed]
        var itemsLeft = market.items
        while (itemsLeft.nonEmpty) {
          // ---- DRE: pick the item with the highest DR under current S^G --
          val rel = marketRelevance(inst, s.toSeq, market)
          val xp = DRE.bestItem(rel._1, rel._2, inst.importance, market.diameter, itemsLeft)
          itemsLeft -= xp
          val np = market.nominees.filter(_.item == xp)
          // ---- TDSI: assign promotion rounds by SI -----------------------
          val chosen = TDSI.assignTimings(inst, s, prevMarketSeeds, tTauK, np, marketMask)
          marketSeeds ++= chosen
        }
        prevMarketSeeds = marketSeeds.toSeq
      }
    }
    Trace(nominees, markets, groups, s.toVector)
  }

  /** Average relevance over the market's users *after the promotion of the
    * seeds so far* (the dynamic part of DR): simulate S^G over the market
    * ([[TDSI.marketDiffusion]]), take the market users' updated weightings,
    * average.
    */
  def marketRelevance(
      inst: ProblemInstance,
      sG: Seq[Seed],
      market: TargetMarket): (Array[Array[Double]], Array[Array[Double]]) = {
    if (sG.isEmpty) TMI.initialAvgRel(inst)
    else {
      val res = TDSI.marketDiffusion(inst, sG, market.mask(inst.nUsers))
      val ws = market.users.toArray.sorted.map(res.w)
      TMI.avgRel(inst, ws)
    }
  }
}
