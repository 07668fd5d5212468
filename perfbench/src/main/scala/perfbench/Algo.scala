package perfbench

import scala.collection.mutable
import repro.baselines.{BundleGRD, CRGreedy, HAG, PS}
import repro.core._
import repro.social.MIOA

/** Per-layer counters, summed over a workload's runs. */
final class Counters {
  private val m = mutable.LinkedHashMap.empty[String, Double]
  def add(name: String, v: Double): Unit = m(name) = m.getOrElse(name, 0.0) + v
  def max(name: String, v: Double): Unit = m(name) = math.max(m.getOrElse(name, 0.0), v)
  def apply(name: String): Double = m.getOrElse(name, 0.0)
}

/** One seed-selection algorithm as the benchmark drives it: `run` calls the
  * program's own entry point; `traced` re-drives the same computation from
  * the public functions it is made of, with a span around each, and must
  * return exactly the seeds `run` returns. `None` is a HAG timeout.
  */
sealed trait Algo {
  def name: String
  def run(inst: ProblemInstance): Option[Vector[Seed]]
  def traced(inst: ProblemInstance, tr: Tracer, c: Counters): Option[Vector[Seed]]
}

object Algo {

  final case class Dysim(maxCandidates: Int) extends Algo {
    val name = "dysim"
    private val cfg = TMI.Config(maxCandidates = maxCandidates)

    def run(inst: ProblemInstance): Option[Vector[Seed]] = Some(repro.core.Dysim.run(inst, cfg))

    /** The loop of `Dysim.runTraced`, phase by phase. */
    def traced(inst: ProblemInstance, tr: Tracer, c: Counters): Option[Vector[Seed]] = {
      val nominees = tr.span("tmi.nominate")(TMI.selectNominees(inst, cfg))
      val clusters = tr.span("tmi.cluster")(TMI.clusterNominees(inst, nominees, cfg))
      val markets = tr.span("tmi.markets")(TMI.identifyMarkets(inst, clusters, cfg))
      val groups = tr.span("tmi.group")(TMI.groupAndPrioritize(inst, markets, cfg))
      c.add("tmi.nominees", nominees.size)
      c.add("tmi.markets", markets.size)
      markets.foreach(m => c.max("tmi.market_users_max", m.users.size))

      val s = mutable.ArrayBuffer.empty[Seed]
      groups.foreach { group =>
        val totalNominees = math.max(1, group.iterator.map(_.nominees.length).sum)
        var prevMarketSeeds: Seq[Seed] = Nil
        group.foreach { market =>
          val tTauK = math.max(1, math.round(market.nominees.length.toDouble * inst.T / totalNominees).toInt)
          val marketMask = market.mask(inst.nUsers)
          val marketSeeds = mutable.ArrayBuffer.empty[Seed]
          var itemsLeft = market.items
          while (itemsLeft.nonEmpty) {
            val xp = tr.span("dre") {
              val (rC, rS) = repro.core.Dysim.marketRelevance(inst, s.toSeq, market)
              DRE.bestItem(rC, rS, inst.importance, market.diameter, itemsLeft)
            }
            c.add("dre.picks", 1)
            itemsLeft -= xp
            val np = market.nominees.filter(_.item == xp)
            val before = s.toVector
            val chosen = tr.span("tdsi")(TDSI.assignTimings(inst, s, prevMarketSeeds, tTauK, np, marketMask))
            c.add("tdsi.picks", chosen.size)
            c.add("tdsi.evals", Replay.tdsiEvals(inst.T, before, prevMarketSeeds, tTauK, np, chosen).toDouble)
            marketSeeds ++= chosen
          }
          prevMarketSeeds = marketSeeds.toSeq
        }
      }
      Some(s.toVector)
    }
  }

  /** A single-promotion baseline whose pairs CR-Greedy schedules. */
  sealed abstract class Baseline(val name: String) extends Algo {
    def selectPairs(inst: ProblemInstance): Option[Vector[Nominee]]

    def traced(inst: ProblemInstance, tr: Tracer, c: Counters): Option[Vector[Seed]] =
      tr.span(s"$name.select")(selectPairs(inst)).map { pairs =>
        c.add(s"$name.pairs", pairs.size)
        c.add("crgreedy.evals", Replay.crGreedyEvals(inst.T, pairs).toDouble)
        tr.span("crgreedy.schedule")(CRGreedy.schedule(inst, pairs))
      }
  }

  final case class BundleGrd(pool: Int) extends Baseline("bundlegrd") {
    def run(inst: ProblemInstance): Option[Vector[Seed]] = Some(BundleGRD.run(inst, pool))
    def selectPairs(inst: ProblemInstance): Option[Vector[Nominee]] = Some(BundleGRD.selectPairs(inst, pool))
  }

  final case class Hag(pool: Int, timeoutMs: Long) extends Baseline("hag") {
    def run(inst: ProblemInstance): Option[Vector[Seed]] = HAG.run(inst, pool, timeoutMs)
    def selectPairs(inst: ProblemInstance): Option[Vector[Nominee]] = HAG.selectPairs(inst, pool, timeoutMs)
  }

  final case class Ps(pool: Int) extends Baseline("ps") {
    def run(inst: ProblemInstance): Option[Vector[Seed]] = Some(PS.run(inst, pool))
    def selectPairs(inst: ProblemInstance): Option[Vector[Nominee]] = Some(PS.selectPairs(inst, pool))

    /** PS's maximum-influence-path scan on its own (PS's default path
      * threshold), timed apart from the traced pass.
      */
    def mioaScan(inst: ProblemInstance): Unit = {
      val outAdj = MIOA.outAdjacency(inst.inNbr, inst.inAct)
      CandidatePool.users(inst, pool).foreach(u => MIOA.reachLocal(outAdj, Seq(u), 0.01))
    }
  }
}

/** Exact replays of how many campaign evaluations a call made, from its
  * inputs and outputs alone (the program keeps no counters).
  */
object Replay {

  /** `TDSI.assignTimings` evaluates the market once per pick (the base) and
    * once per remaining nominee and window round.
    */
  def tdsiEvals(
      totalT: Int,
      before: Seq[Seed],
      prevMarketSeeds: Seq[Seed],
      tTauK: Int,
      np: Vector[Nominee],
      chosen: Seq[Seed]): Long = {
    val maxTPrev = if (prevMarketSeeds.isEmpty) 0 else prevMarketSeeds.map(_.t).max
    var tHat = if (before.isEmpty) 1 else before.map(_.t).max
    var remaining = np
    var evals = 0L
    chosen.foreach { best =>
      evals += 1 + remaining.size.toLong * TDSI.window(tHat, tTauK, maxTPrev, totalT).size
      tHat = math.max(tHat, best.t)
      remaining = remaining.filterNot(n => n.user == best.user && n.item == best.item)
    }
    evals
  }

  /** `CRGreedy.schedule` evaluates every pair at every round 1..T. */
  def crGreedyEvals(totalT: Int, pairs: Seq[Nominee]): Long = pairs.size.toLong * totalT
}
