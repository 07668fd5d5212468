package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.{Dysim, TMI}
import repro.data.{DatasetGen, InstanceBuilder}
import repro.diffusion.LocalDiffusion

/** spark-submit entrypoint: run Dysim on one lite dataset and print the
  * seed group and its importance-aware influence.
  *
  * Usage: RunDysim [dataset=amazon-lite] [budget=10] [T=5]
  * where dataset ∈ {amazon-small, amazon-lite, yelp-lite, douban-lite, gowalla-lite}.
  */
object RunDysim {

  def main(args: Array[String]): Unit = {
    val name = args.lift(0).getOrElse("amazon-lite")
    val budget = args.lift(1).map(_.toDouble).getOrElse(10.0)
    val t = args.lift(2).map(_.toInt).getOrElse(5)
    val spark = SparkSession.builder().appName(s"dysim-$name").master(
      sys.env.getOrElse("SPARK_MASTER", "local[*]")).getOrCreate()
    try {
      val inst = InstanceBuilder.build(spark, DatasetGen.byName(name, budget, t))
      val trace = Dysim.runTraced(inst, TMI.Config(maxCandidates = 200))
      println(s"dataset=$name users=${inst.nUsers} items=${inst.nItems} budget=$budget T=$t")
      println(s"nominees=${trace.nominees.size} markets=${trace.markets.size} groups=${trace.groups.size}")
      println(s"market campaigns=${trace.marketCampaigns} SI candidates=${trace.siCandidates}")
      def ms(ns: Long) = f"${ns / 1e6}%.1f"
      println(s"phase ms: nominate=${ms(trace.nominateNs)} cluster=${ms(trace.clusterNs)} markets=${ms(trace.marketsNs)} " +
        s"group=${ms(trace.groupNs)} dre=${ms(trace.dreNs)} tdsi=${ms(trace.tdsiNs)}")
      trace.seeds.sortBy(s => (s.t, s.user)).foreach { s =>
        println(f"  seed user=${s.user}%5d item=${inst.itemNames(s.item)}%10s round=${s.t}%2d cost=${inst.cost(s.user)(s.item)}%.2f")
      }
      println(f"total cost = ${inst.totalCost(trace.seeds)}%.2f / $budget%.2f")
      println(f"sigma (importance-aware influence) = ${LocalDiffusion.sigma(inst, trace.seeds)}%.2f")
    } finally spark.stop()
  }
}
