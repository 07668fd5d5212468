package repro.bench

import repro.SparkSpec
import repro.core.TMI
import repro.data.{DatasetGen, InstanceBuilder}
import repro.kg.MetaGraph

/** Table T-7a (paper Fig. 7(a)): sensitivity of Dysim's influence to the
  * number of meta-graphs on Amazon.
  *
  * Paper's qualitative result: more meta-graphs capture perceptions better
  * and raise the importance-aware influence.
  */
class Fig7aMetaGraphBench extends SparkSpec {
  import BenchHarness._

  test("T-7a: sigma vs number of meta-graphs (amazon-lite)") {
    // interleave C and S meta-graphs so every prefix models both relations
    val six = MetaGraph.sixTypeSet
    val interleaved = Vector(six(0), six(3), six(1), six(4), six(2), six(5))
    val rows = (1 to 6).map { k =>
      val cfg = DatasetGen.amazonLite(budget = 10.0, t = 5).copy(metaGraphs = interleaved.take(k))
      val r = dysim(InstanceBuilder.build(spark, cfg), TMI.Config(maxCandidates = 200))
      Seq(k.toString, f1(r.sigma), r.nSeeds.toString)
    }
    report("T7a.txt", formatTable(
      "T-7a: Dysim influence vs #meta-graphs (amazon-lite, b=10, T=5)",
      Seq("meta-graphs", "sigma", "seeds"),
      rows))
    assert(rows.forall(_(1).toDouble > 0.0))
  }
}
