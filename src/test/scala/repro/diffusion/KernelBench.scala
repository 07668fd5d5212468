package repro.diffusion

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import repro.core.{Params, ProblemInstance, Seed}
import repro.TestInstances
import scala.sys.process._

/** Warm-JIT micro-benchmark of one [[LocalDiffusion.run]]: milliseconds per
  * campaign and microseconds per mean-field step, for `Params()` and
  * `Params().frozen`, with and without a half mask, over 8 draws of
  * 50-user, 30-item [[TestInstances.random]] instances at T = 3 with six
  * seeds each. Each case runs its campaigns for [[WarmupS]] seconds, then
  * times [[Reps]] repetitions of at least [[RepS]] seconds each on one
  * thread and reports their median, minimum and maximum.
  *
  * {{{
  * sbt "Test/runMain repro.diffusion.KernelBench [out.json] [git sha]"
  * }}}
  * appends one run to the JSON array in `out.json` (default
  * `BENCH_kernel.json`), labelled with the given sha or else the checkout's
  * `git rev-parse HEAD` (suffixed `-dirty` if tracked files are modified).
  */
object KernelBench {

  val Draws = 8
  val WarmupS = 3.0
  val Reps = 5
  val RepS = 1.0

  private final case class Case(name: String, params: Params, masked: Boolean)

  private val cases = Seq(
    Case("dynamic", Params(), masked = false),
    Case("dynamic", Params(), masked = true),
    Case("frozen", Params().frozen, masked = false),
    Case("frozen", Params().frozen, masked = true))

  private def campaigns(c: Case): Seq[(ProblemInstance, Seq[Seed], Option[Array[Boolean]])] =
    (1L to Draws.toLong).map { seed =>
      val inst = TestInstances.random(1000 + seed, nUsers = 50, nItems = 30, nEdges = 200).withParams(c.params).withT(3)
      val mask = if (c.masked) Some(KernelGoldenSpec.halfMask(seed, inst.nUsers)) else None
      (inst, KernelGoldenSpec.campaignSeeds(seed, inst), mask)
    }

  /** Runs the campaigns round-robin for at least `seconds`; returns
    * (elapsed ns, campaigns, steps, checksum of σ).
    */
  private def timed(cs: Seq[(ProblemInstance, Seq[Seed], Option[Array[Boolean]])], seconds: Double): (Long, Long, Long, Double) = {
    val t0 = System.nanoTime()
    val until = t0 + (seconds * 1e9).toLong
    var n = 0L
    var steps = 0L
    var sink = 0.0
    var now = t0
    while (now < until) {
      cs.foreach { case (inst, seeds, mask) =>
        val res = LocalDiffusion.run(inst, seeds, mask)
        steps += res.steps
        sink += LocalDiffusion.sigmaOf(inst, res)
      }
      n += cs.length
      now = System.nanoTime()
    }
    (now - t0, n, steps, sink)
  }

  private def median(xs: Seq[Double]): Double = { val s = xs.sorted; s(s.length / 2) }

  private def sha(): String =
    try {
      val head = Seq("git", "rev-parse", "HEAD").!!.trim
      if (Seq("git", "status", "--porcelain", "--untracked-files=no").!!.trim.nonEmpty) head + "-dirty" else head
    } catch { case _: Exception => "unknown" }

  def main(args: Array[String]): Unit = {
    val out = Paths.get(args.headOption.getOrElse("BENCH_kernel.json"))
    val label = if (args.length > 1) args(1) else sha()
    val results = cases.map { c =>
      val cs = campaigns(c)
      timed(cs, WarmupS)
      val reps = Seq.fill(Reps)(timed(cs, RepS))
      val msPerCampaign = reps.map { case (ns, n, _, _) => ns / 1e6 / n }
      val usPerStep = reps.map { case (ns, _, steps, _) => ns / 1e3 / steps }
      val stepsPerCampaign = reps.head._3.toDouble / reps.head._2
      println(f"${c.name}%-8s mask=${if (c.masked) "half" else "none"}%-4s  " +
        f"${median(msPerCampaign)}%.4f ms/campaign  ${median(usPerStep)}%.3f us/step  $stepsPerCampaign%.1f steps/campaign")
      s"""    {"params": "${c.name}", "mask": "${if (c.masked) "half" else "none"}", """ +
        f""""ms_per_campaign": ${median(msPerCampaign)}%.5f, "ms_per_campaign_min": ${msPerCampaign.min}%.5f, "ms_per_campaign_max": ${msPerCampaign.max}%.5f, """ +
        f""""us_per_step": ${median(usPerStep)}%.4f, "steps_per_campaign": $stepsPerCampaign%.2f}"""
    }
    val run =
      s"""  {"bench": "kernel", "git_sha": "$label", "java": "${System.getProperty("java.version")}", """ +
        s""""cpus": ${Runtime.getRuntime.availableProcessors}, "instances": "TestInstances.random(1001..${1000 + Draws}, 50 users, 30 items, 200 edges), T = 3, 6 seeds", """ +
        s""""warmup_s": $WarmupS, "reps": $Reps, "rep_s": $RepS, "cases": [\n${results.mkString(",\n")}\n  ]}"""
    val prev = if (Files.exists(out)) new String(Files.readAllBytes(out), StandardCharsets.UTF_8).trim else ""
    val json =
      if (prev.startsWith("[") && prev.endsWith("]") && prev.length > 2) prev.dropRight(1).trim + ",\n" + run + "\n]\n"
      else "[\n" + run + "\n]\n"
    Files.write(out, json.getBytes(StandardCharsets.UTF_8))
    println(s"appended run $label to $out")
  }
}
