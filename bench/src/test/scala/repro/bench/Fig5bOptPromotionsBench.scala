package repro.bench

import repro.SparkSpec
import repro.baselines.OptBruteForce
import repro.data.{DatasetGen, InstanceBuilder}

/** Table T-5b (paper Fig. 5(b)): importance-aware influence vs the number
  * of promotions T on the 100-user Amazon sample, vs OPT.
  *
  * Paper's qualitative result: Dysim's influence grows with T (it times
  * complementary promotions) and stays closest to OPT; the baselines
  * barely benefit from more promotions.
  */
class Fig5bOptPromotionsBench extends SparkSpec {
  import BenchHarness._

  test("T-5b: sigma vs number of promotions vs OPT (amazon-small)") {
    // one build: T only sets the instance's T
    val base = InstanceBuilder.build(spark, DatasetGen.amazonSmall(budget = 4.0))
    val rows = Seq(1, 2, 3, 4).map { t =>
      val inst = base.withT(t)
      val pool = OptBruteForce.defaultPool(inst, poolSize = 10)
      val (_, optSigma) = OptBruteForce.run(inst, pool, maxSeeds = 3)
      val runs = contenders(inst, poolUsers = 200)
      Seq(t.toString, f2(optSigma)) ++ runs.map(_.sigmaCell(f2))
    }
    val text = formatTable(
      "T-5b: importance-aware influence vs #promotions (amazon-small, 100 users, b=4)",
      Seq("T", "OPT", "Dysim", "BundleGRD", "HAG", "PS"),
      rows)
    report("T5b.txt", text)
    rows.foreach(r => assert(r.drop(1).forall(c => c == "timeout" || c.toDouble >= 0.0)))
  }
}
