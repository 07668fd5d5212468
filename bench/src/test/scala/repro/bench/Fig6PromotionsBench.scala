package repro.bench

import repro.SparkSpec
import repro.data.{DatasetGen, InstanceBuilder}

/** Tables T-6ef and T-6g (paper Figs. 6(e-f), 6(g)): importance-aware
  * influence and execution time vs the number of promotions T on two lite
  * datasets.
  *
  * Paper's qualitative results: Dysim grows markedly with T (TMI orders
  * markets, TDSI times nominees) while the baselines plateau, especially
  * for T >= 20; Dysim's timing search is pruned so its runtime barely
  * grows with T, whereas the CR-Greedy-scheduled baselines suffer.
  */
class Fig6PromotionsBench extends SparkSpec {
  import BenchHarness._

  test("T-6ef/T-6g: sigma and time vs #promotions (amazon-lite, douban-lite)") {
    sigmaTimeSweep("T",
      "T6ef.txt" -> "T-6ef: importance-aware influence vs #promotions (b=10)",
      "T6g.txt" -> "T-6g: execution time (ms) vs #promotions (b=10)")(
      Seq(DatasetGen.amazonLite(budget = 10.0), DatasetGen.doubanLite(budget = 10.0)).iterator.flatMap { cfg =>
        // one build per dataset: T only sets the instance's T
        val base = InstanceBuilder.build(spark, cfg)
        // T sweep capped at 10 for wall-clock (the growth-vs-plateau contrast
        // is established well before the paper's T=40 tail)
        Seq(1, 2, 5, 10).map(t => Point(cfg.name, t.toString, base.withT(t), 240000L))
      })
  }
}
