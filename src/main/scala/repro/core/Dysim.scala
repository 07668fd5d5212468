package repro.core

import repro.diffusion.DiffusionResult

/** Dysim — Dynamic perception for seeding in target markets (Algorithm 1).
  *
  * Phases: TMI selects and clusters nominees into prioritized target
  * markets; for each market, DRE repeatedly picks the item with the
  * highest dynamic reachability and TDSI assigns the item's nominees
  * their promotion rounds by substantial influence.
  *
  * Each market carries one [[TDSI.MarketCampaign]], the campaign of the
  * current S^G under the market's diffusion mask: it is simulated once
  * when the market starts, DRE reads its weightings, TDSI scores its
  * candidates against it and hands back its last winner's campaign.
  */
object Dysim {

  /** What a run did. `siCandidates` counts the candidates TDSI scored by
    * SI, each one masked market campaign.
    */
  final case class Trace(
      nominees: Vector[Nominee],
      markets: Vector[TargetMarket],
      groups: Vector[Vector[TargetMarket]],
      seeds: Vector[Seed],
      siCandidates: Int) {

    /** The masked market campaigns the run simulated: one per market, when
      * it starts, plus one per SI candidate.
      */
    def marketCampaigns: Int = markets.size + siCandidates
  }

  def run(inst: ProblemInstance, cfg: TMI.Config = TMI.Config()): Vector[Seed] =
    runTraced(inst, cfg).seeds

  def runTraced(inst: ProblemInstance, cfg: TMI.Config = TMI.Config()): Trace = {
    // ---- TMI -----------------------------------------------------------
    val nominees = TMI.selectNominees(inst, cfg)
    val clusters = TMI.clusterNominees(inst, nominees, cfg)
    val markets = TMI.identifyMarkets(inst, clusters, cfg)
    val groups = TMI.groupAndPrioritize(inst, markets, cfg)

    val s = scala.collection.mutable.ArrayBuffer.empty[Seed]
    var siCandidates = 0
    groups.foreach { group =>
      val totalNominees = math.max(1, group.iterator.map(_.nominees.length).sum)
      var prevMarketSeeds: Seq[Seed] = Nil
      group.foreach { market =>
        // promotional duration T^τk ∝ |N^τk| (Sec. IV-B.3)
        val tTauK = math.max(1, math.round(market.nominees.length.toDouble * inst.T / totalNominees).toInt)
        val marketMask = market.mask(inst.nUsers)
        var campaign = TDSI.marketCampaign(inst, s.toSeq, marketMask)
        val marketSeeds = scala.collection.mutable.ArrayBuffer.empty[Seed]
        var itemsLeft = market.items
        while (itemsLeft.nonEmpty) {
          // ---- DRE: pick the item with the highest DR under current S^G --
          // (a market's last item is picked without ranking)
          val xp =
            if (itemsLeft.size == 1) itemsLeft.head
            else {
              val (rC, rS) = campaignRelevance(inst, market, Option.when(s.nonEmpty)(campaign.res))
              DRE.bestItem(rC, rS, inst.importance, market.diameter, itemsLeft)
            }
          itemsLeft -= xp
          val np = market.nominees.filter(_.item == xp)
          // ---- TDSI: assign promotion rounds by SI -----------------------
          val timed = TDSI.timings(inst, s, prevMarketSeeds, tTauK, np, marketMask, campaign)
          campaign = timed.campaign
          siCandidates += timed.candidates
          marketSeeds ++= timed.seeds
        }
        prevMarketSeeds = marketSeeds.toSeq
      }
    }
    Trace(nominees, markets, groups, s.toVector, siCandidates)
  }

  /** Average relevance over the market's users *after the promotion of the
    * seeds so far* (the dynamic part of DR): simulate S^G over the market
    * ([[TDSI.marketDiffusion]]) and average its users' weightings
    * ([[campaignRelevance]]).
    */
  def marketRelevance(
      inst: ProblemInstance,
      sG: Seq[Seed],
      market: TargetMarket): (Array[Array[Double]], Array[Array[Double]]) =
    campaignRelevance(inst, market, Option.when(sG.nonEmpty)(TDSI.marketDiffusion(inst, sG, market.mask(inst.nUsers))))

  /** (r̄C, r̄S) over the market's users' weightings in `campaign`, the
    * market campaign of S^G; `None` for an empty S^G, where every user
    * still holds the uniform initial weightings ([[TMI.initialAvgRel]]).
    */
  def campaignRelevance(
      inst: ProblemInstance,
      market: TargetMarket,
      campaign: Option[DiffusionResult]): (Array[Array[Double]], Array[Array[Double]]) =
    campaign match {
      case None      => TMI.initialAvgRel(inst)
      case Some(res) => TMI.avgRel(inst, market.users.toArray.sorted.map(res.w))
    }
}
