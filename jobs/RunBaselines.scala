package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.baselines.{BundleGRD, HAG, PS}
import repro.core.{Dysim, TMI}
import repro.data.{DatasetGen, InstanceBuilder}
import repro.diffusion.LocalDiffusion

/** spark-submit entrypoint: run Dysim and the three baselines on one lite
  * dataset and print their importance-aware influence side by side.
  *
  * Usage: RunBaselines [dataset=amazon-lite] [budget=10] [T=5]
  */
object RunBaselines {
  def main(args: Array[String]): Unit = {
    val name = args.lift(0).getOrElse("amazon-lite")
    val budget = args.lift(1).map(_.toDouble).getOrElse(10.0)
    val t = args.lift(2).map(_.toInt).getOrElse(5)
    val spark = SparkSession.builder().appName(s"baselines-$name").master(
      sys.env.getOrElse("SPARK_MASTER", "local[*]")).getOrCreate()
    try {
      val inst = InstanceBuilder.build(spark, DatasetGen.byName(name, budget, t))
      def show(algo: String, seeds: Option[Vector[repro.core.Seed]]): Unit = seeds match {
        case Some(ss) => println(f"$algo%10s: sigma=${LocalDiffusion.sigma(inst, ss)}%8.2f seeds=${ss.size}")
        case None     => println(f"$algo%10s: timeout")
      }
      show("Dysim", Some(Dysim.run(inst, TMI.Config(maxCandidates = 200))))
      show("BundleGRD", Some(BundleGRD.run(inst, 200)))
      show("HAG", HAG.run(inst, 200, timeoutMs = 240000L))
      show("PS", Some(PS.run(inst, 200)))
    } finally spark.stop()
  }
}
