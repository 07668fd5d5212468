package perfbench

import scala.collection.mutable
import repro.TestInstances
import repro.baselines.CRGreedy
import repro.core.{Nominee, ProblemInstance, Seed, TDSI}
import repro.diffusion.LocalDiffusion

/** Checks of the benchmark's own code that need no Spark: the order
  * statistics, and the evaluation-count replays against counting copies of
  * the loops they replay (each copy must also pick what the program picks).
  * Run with `python3 perfbench/run.py --selftest`.
  */
object SelfTest {

  private var failures = 0

  private def check(what: String, ok: Boolean): Unit =
    if (!ok) { failures += 1; println(s"FAIL $what") }

  private def close(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-12

  /** `TDSI.assignTimings`, counting every market evaluation it makes. */
  def countedTdsi(
      inst: ProblemInstance,
      start: Seq[Seed],
      prev: Seq[Seed],
      tTauK: Int,
      np: Vector[Nominee],
      mask: Array[Boolean]): (Vector[Seed], Long) = {
    var evals = 0L
    val s = mutable.ArrayBuffer.from(start)
    val maxTPrev = if (prev.isEmpty) 0 else prev.map(_.t).max
    var remaining = np
    val out = Vector.newBuilder[Seed]
    while (remaining.nonEmpty) {
      val tHat = if (s.isEmpty) 1 else s.map(_.t).max
      val base = TDSI.evalMarket(inst, s.toSeq, mask)
      evals += 1
      val cands = for (n <- remaining; t <- TDSI.window(tHat, tTauK, maxTPrev, inst.T)) yield Seed(n.user, n.item, t)
      val best = cands.maxBy { c => evals += 1; (TDSI.si(inst, s.toSeq, base, c, mask), -c.t, -c.user) }
      s += best
      out += best
      remaining = remaining.filterNot(n => n.user == best.user && n.item == best.item)
    }
    (out.result(), evals)
  }

  /** `CRGreedy.schedule`, counting every σ evaluation it makes. */
  def countedCrGreedy(inst: ProblemInstance, pairs: Seq[Nominee]): (Vector[Seed], Long) = {
    var evals = 0L
    val scheduled = mutable.ArrayBuffer.empty[Seed]
    var sigmaSoFar = 0.0
    pairs.foreach { n =>
      var bestT = 1
      var bestSigma = Double.NegativeInfinity
      for (t <- 1 to inst.T) {
        val sig = LocalDiffusion.sigma(inst, (scheduled :+ Seed(n.user, n.item, t)).toSeq)
        evals += 1
        if (sig > bestSigma + 1e-12) { bestSigma = sig; bestT = t }
      }
      if (bestSigma > sigmaSoFar - 1e-12) { scheduled += Seed(n.user, n.item, bestT); sigmaSoFar = bestSigma }
    }
    (scheduled.toVector, evals)
  }

  def run(): Unit = {
    // order statistics, against Python's statistics.median / quantiles(n=4)
    check("median odd", Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    check("median even", Stats.median(Seq(1.0, 2.0, 3.0, 4.0)) == 2.5)
    val q = Stats.quartiles(Seq(1.0, 2.0, 3.0, 4.0))
    check("quartiles of 4", close(q._1, 1.25) && close(q._2, 2.5) && close(q._3, 3.75))
    val q10 = Stats.quartiles(Seq(5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0))
    check("quartiles of 10", close(q10._1, 2.75) && close(q10._2, 5.5) && close(q10._3, 8.25))
    val q3 = Stats.quartiles(Seq(3.0, 1.0, 2.0))
    check("quartiles of 3", q3 == ((1.0, 2.0, 3.0)))
    check("quartiles of 1", Stats.quartiles(Seq(7.0)) == ((7.0, 7.0, 7.0)))
    check("no percentile under 20 samples", Stats.tailPercentile((1 to 19).map(_.toDouble)).isEmpty)
    check("p50 of 25", Stats.tailPercentile((1 to 25).map(_.toDouble)).contains((50.0, 13.0)))
    check("p90 of 100", Stats.tailPercentile((1 to 100).map(_.toDouble)).contains((90.0, 90.0)))
    check("p99 of 1000", Stats.tailPercentile((1 to 1000).map(_.toDouble)).contains((99.0, 990.0)))

    // TDSI and CR-Greedy evaluation counts
    var cases = 0
    for (seed <- 1L to 6L; tTauK <- 1 to 3) {
      val inst = TestInstances.random(seed).withT(4)
      val mask = Array.tabulate(inst.nUsers)(_ % 3 != 2)
      val item = (seed % inst.nItems).toInt
      val np = (0 until 5).map(u => Nominee(u, item)).toVector
      val start = if (seed % 2 == 0) Seq(Seed(6, (item + 1) % inst.nItems, 2)) else Nil
      val prev = if (tTauK == 2) Seq(Seed(7, (item + 2) % inst.nItems, 1)) else Nil
      val s = mutable.ArrayBuffer.from(start)
      val chosen = TDSI.assignTimings(inst, s, prev, tTauK, np, mask)
      val (bruteChosen, bruteEvals) = countedTdsi(inst, start, prev, tTauK, np, mask)
      check(s"TDSI copy picks as the program (seed $seed, tTauK $tTauK)", bruteChosen == chosen)
      check(s"TDSI eval replay (seed $seed, tTauK $tTauK)",
        Replay.tdsiEvals(inst.T, start, prev, tTauK, np, chosen) == bruteEvals)

      val pairs = (0 until 4).map(u => Nominee(u + tTauK, (item + u) % inst.nItems))
      val (bruteSched, crEvals) = countedCrGreedy(inst, pairs)
      check(s"CR-Greedy copy schedules as the program (seed $seed)", bruteSched == CRGreedy.schedule(inst, pairs))
      check(s"CR-Greedy eval replay (seed $seed)", Replay.crGreedyEvals(inst.T, pairs) == crEvals)
      cases += 1
    }
    println(s"selftest: $cases replay cases, $failures failures")
    if (failures > 0) sys.exit(1)
  }
}
