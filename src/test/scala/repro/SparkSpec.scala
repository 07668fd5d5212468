package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

/** Base of the suites that need Spark, sharing one local-mode
  * SparkSession per test JVM. These are the relevance, KG, social, MIOA
  * and instance-build suites, and every `bench/` suite, which builds its
  * dataset through Spark. Suites of driver-local code (the diffusion, the
  * dynamics, the algorithms) extend `AnyFunSuite` and start no Spark.
  *
  * The driver heap comes from SPARK_DRIVER_MEM through ``Test /
  * javaOptions`` in build.sbt. Broadcast joins are disabled, so the KG
  * self-joins run as shuffle joins even on test-sized inputs, the plan
  * they take on inputs too large to broadcast.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
