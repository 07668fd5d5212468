package repro.bench

import repro.SparkSpec
import repro.core.TMI
import repro.data.{DatasetGen, InstanceBuilder}

/** Table T-7b (paper Fig. 7(b)): sensitivity of Dysim's influence to the
  * common-user threshold θ of TMI.
  *
  * Paper's qualitative result: both very small θ (markets over-grouped,
  * promotional durations squeezed) and very large θ (substitutable items
  * promoted to common users) slightly hurt — an interior optimum.
  */
class Fig7bThetaBench extends SparkSpec {
  import BenchHarness._

  test("T-7b: sigma vs theta (amazon-lite)") {
    val inst = InstanceBuilder.build(spark, DatasetGen.amazonLite(budget = 10.0, t = 5))
    val thetas = Seq(1, 2, 4, 8, 16)
    val rows = thetas.map { th =>
      val r = dysim(inst, TMI.Config(maxCandidates = 200, thetaCommon = th))
      Seq(th.toString, f1(r.sigma), r.nSeeds.toString)
    }
    report("T7b.txt", formatTable(
      "T-7b: Dysim influence vs theta (amazon-lite, b=10, T=5)",
      Seq("theta", "sigma", "seeds"),
      rows))
    assert(rows.forall(_(1).toDouble > 0.0))
  }
}
