package repro.core

import scala.collection.mutable.ArrayBuffer

/** Dysim's DRE and TDSI loops written out from their definitions: every
  * campaign they read is simulated from scratch (DRE's relevance at every
  * item, TDSI's base at every pick and every candidate). Each returns its
  * seeds with the number of SI candidates it scored.
  */
object ReferenceDysim {

  /** TDSI's timing loop: iteratively the candidate with the largest
    * (SI, −t, −user), its SI from a fresh base campaign of `s`.
    */
  def timings(
      inst: ProblemInstance,
      s: ArrayBuffer[Seed],
      sPrevMarket: Seq[Seed],
      tTauK: Int,
      np: Vector[Nominee],
      marketMask: Array[Boolean]): (Vector[Seed], Int) = {
    val maxTPrev = if (sPrevMarket.isEmpty) 0 else sPrevMarket.map(_.t).max
    var candidates = 0
    var remaining = np
    val out = Vector.newBuilder[Seed]
    while (remaining.nonEmpty) {
      val tHat = if (s.isEmpty) 1 else s.map(_.t).max
      val base = TDSI.evalMarket(inst, s.toSeq, marketMask)
      val cands = for (n <- remaining; t <- TDSI.window(tHat, tTauK, maxTPrev, inst.T))
        yield Seed(n.user, n.item, t)
      val best = cands.maxBy { c =>
        candidates += 1
        (TDSI.si(inst, s.toSeq, base, c, marketMask), -c.t, -c.user)
      }
      s += best
      out += best
      remaining = remaining.filterNot(n => n.user == best.user && n.item == best.item)
    }
    (out.result(), candidates)
  }

  /** Dysim after TMI: per market, per item, DRE's relevance from a fresh
    * market campaign of S^G (the initial average while S^G is empty), then
    * [[timings]].
    */
  def run(inst: ProblemInstance, cfg: TMI.Config): (Vector[Seed], Int) = {
    val nominees = TMI.selectNominees(inst, cfg)
    val clusters = TMI.clusterNominees(inst, nominees, cfg)
    val groups = TMI.groupAndPrioritize(inst, TMI.identifyMarkets(inst, clusters, cfg), cfg)
    val s = ArrayBuffer.empty[Seed]
    var candidates = 0
    groups.foreach { group =>
      val totalNominees = math.max(1, group.iterator.map(_.nominees.length).sum)
      var prevMarketSeeds: Seq[Seed] = Nil
      group.foreach { market =>
        val tTauK = math.max(1, math.round(market.nominees.length.toDouble * inst.T / totalNominees).toInt)
        val marketMask = market.mask(inst.nUsers)
        val marketSeeds = ArrayBuffer.empty[Seed]
        var itemsLeft = market.items
        while (itemsLeft.nonEmpty) {
          val (rC, rS) =
            if (s.isEmpty) TMI.initialAvgRel(inst)
            else {
              val res = TDSI.marketDiffusion(inst, s.toSeq, marketMask)
              TMI.avgRel(inst, market.users.toArray.sorted.map(res.w))
            }
          val xp = DRE.bestItem(rC, rS, inst.importance, market.diameter, itemsLeft)
          itemsLeft -= xp
          val (chosen, scored) = timings(inst, s, prevMarketSeeds, tTauK, market.nominees.filter(_.item == xp), marketMask)
          candidates += scored
          marketSeeds ++= chosen
        }
        prevMarketSeeds = marketSeeds.toSeq
      }
    }
    (s.toVector, candidates)
  }
}
