package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.DatasetGen
import repro.kg.{KGGenerator, RelevanceEngine}

/** spark-submit entrypoint: generate a lite dataset's KG, build every
  * meta-graph's relevance matrix as the instance build does (one Spark
  * self-join) and print per-meta-graph statistics over the item pairs
  * with positive relevance.
  *
  * Usage: BuildRelevance [dataset=amazon-lite]
  */
object BuildRelevance {
  def main(args: Array[String]): Unit = {
    val name = args.lift(0).getOrElse("amazon-lite")
    val spark = SparkSession.builder().appName(s"relevance-$name").master(
      sys.env.getOrElse("SPARK_MASTER", "local[*]")).getOrCreate()
    try {
      val cfg = DatasetGen.byName(name, 10.0, 5)
      val edges = KGGenerator.edges(spark, cfg.kg)
      println(s"KG edges: ${edges.count()} of types ${edges.select("etype").distinct().collect().map(_.getString(0)).sorted.mkString(", ")}")
      val mats = RelevanceEngine.collectMatrices(edges, cfg.metaGraphs, cfg.nItems)
      println(f"${"meta"}%-22s ${"kind"}%-13s ${"pairs"}%6s ${"avg_s"}%7s ${"max_s"}%7s")
      cfg.metaGraphs.zip(mats).foreach { case (m, mat) =>
        val ss = for (x <- mat.indices; y <- x + 1 until mat.length if mat(x)(y) > 0.0) yield mat(x)(y)
        val (avg, mx) = if (ss.isEmpty) (0.0, 0.0) else (ss.sum / ss.size, ss.max)
        println(f"${m.name}%-22s ${m.kind.toString}%-13s ${ss.size}%6d $avg%7.4f $mx%7.4f")
      }
    } finally spark.stop()
  }
}
