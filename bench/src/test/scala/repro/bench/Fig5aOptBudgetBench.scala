package repro.bench

import repro.{ReferenceDiffusion, SparkSpec}
import repro.baselines.OptBruteForce
import repro.core.TMI
import repro.data.{DatasetGen, InstanceBuilder}
import repro.diffusion.LocalDiffusion

/** Table T-5a (paper Fig. 5(a)): importance-aware influence vs budget on
  * the 100-user Amazon sample, compared against the brute-force OPT.
  *
  * Paper's qualitative result: Dysim is closest to OPT and above
  * BundleGRD, HAG and PS at every budget. OPT is exhaustive over the top
  * 10 pairs x all rounds, up to 4 seeds (the budgets admit at most ~4
  * seeds at mean pair cost ~3 — see DESIGN.md / EXPERIMENTS.md).
  */
class Fig5aOptBudgetBench extends SparkSpec {
  import BenchHarness._

  test("T-5a: sigma vs budget vs OPT (amazon-small)") {
    val budgets = Seq(2.0, 3.0, 4.0, 5.0)
    val base = InstanceBuilder.build(spark, DatasetGen.amazonSmall(t = 3))
    val rows = budgets.map { b =>
      val inst = base.withBudget(b)
      val pool = OptBruteForce.defaultPool(inst, poolSize = 12)
      val (optSeeds, optSigma) = OptBruteForce.run(inst, pool, maxSeeds = 4)
      val runs = contenders(inst, poolUsers = 30)
      runs.foreach(r => assert(r.sigma.isFinite && r.sigma >= 0.0))
      Seq(f1(b), f2(optSigma)) ++ runs.map(_.sigmaCell(f2)) :+
        optSeeds.size.toString
    }
    val text = formatTable(
      "T-5a: importance-aware influence vs budget (amazon-small, 100 users, T=3)",
      Seq("budget", "OPT", "Dysim", "BundleGRD", "HAG", "PS", "opt-seeds"),
      rows)
    report("T5a.txt", text)
    // structural sanity: influence grows (weakly) with budget for Dysim
    val dysimCol = rows.map(_(2).toDouble)
    assert(dysimCol.zip(dysimCol.tail).forall { case (a, c) => c >= a - 1e-6 })
  }

  test("T-5a cross-check: one point evaluated on the dense reference matches") {
    val inst = InstanceBuilder.build(spark, DatasetGen.amazonSmall(t = 2)).withBudget(3.0)
    val seeds = repro.core.Dysim.run(inst, TMI.Config(maxCandidates = 200))
    val localSigma = LocalDiffusion.sigma(inst, seeds)
    val refSigma = ReferenceDiffusion.sigma(inst, ReferenceDiffusion.run(inst, seeds))
    info(s"local $localSigma, reference $refSigma")
    assert(math.abs(localSigma - refSigma) < 1e-4 * math.max(1.0, localSigma),
      s"local $localSigma vs reference $refSigma")
  }
}
