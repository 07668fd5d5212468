package repro.diffusion

import org.scalatest.funsuite.AnyFunSuite
import repro.TestInstances
import repro.baselines.{BundleGRD, HAG, OptBruteForce, PS}
import repro.core.{Dysim, Params, ProblemInstance, Seed}
import scala.io.Source
import scala.util.Random

/** Bit-exact regression suite for the mean-field kernel and the algorithms
  * built on it. The expected values in `kernel-golden.txt` were captured
  * from the straightforward kernel (dense similarity, every dynamic factor
  * evaluated even at zero rate, boxed step state); any rewrite of
  * [[LocalDiffusion]] must reproduce them to the last bit. The OPT rows
  * (`defaultPool` order, then `run`'s seeds and σ) were added later,
  * captured before OPT's pool ranking and budget check moved onto the
  * shared `FrozenSpread` and `ProblemInstance.fits`.
  *
  * Regenerate only from a commit whose kernel is trusted:
  * `sbt "Test/runMain repro.diffusion.KernelGoldenSpec src/test/resources/repro/diffusion/kernel-golden.txt"`
  */
class KernelGoldenSpec extends AnyFunSuite {
  import KernelGoldenSpec._

  private val golden: Map[String, String] = {
    val src = Source.fromResource("repro/diffusion/kernel-golden.txt")
    try src.getLines().filter(_.nonEmpty).map { l => val (k, v) = l.splitAt(l.indexOf('|')); k -> v.tail }.toMap
    finally src.close()
  }

  private lazy val (optRows, heuristicRows) = algorithmRows.partition(_._1.startsWith("opt"))

  test("golden table covers every campaign and algorithm case") {
    assert(golden.keySet == (campaignRows ++ algorithmRows).map(_._1).toSet)
  }

  test("LocalDiffusion reproduces steps, a, w, sigma and pi bit for bit") {
    campaignRows.foreach { case (key, value) => assert(value == golden(key), key) }
  }

  test("Dysim, BundleGRD, HAG and PS reproduce their seeds and sigma bit for bit") {
    heuristicRows.foreach { case (key, value) => assert(value == golden(key), key) }
  }

  test("OPT reproduces its pool, seeds and sigma bit for bit") {
    optRows.foreach { case (key, value) => assert(value == golden(key), key) }
  }
}

object KernelGoldenSpec {

  val instanceSeeds: Seq[Long] = 1L to 20L
  val algorithmSeeds: Seq[Long] = Seq(2L, 5L, 9L, 14L, 19L)

  def instance(seed: Long): ProblemInstance =
    TestInstances.random(seed, nUsers = 40, nItems = 12, nEdges = 120)

  private val paramSets: Seq[(String, Params)] = {
    val p = Params()
    Seq("dynamic" -> p, "frozen" -> p.frozen, "frozen4" -> p.frozen.copy(maxSteps = 4))
  }

  /** Six seeds at rounds 1..T, drawn from the instance seed. */
  def campaignSeeds(seed: Long, inst: ProblemInstance): Seq[Seed] = {
    val rnd = new Random(seed * 1009 + inst.T)
    Seq.fill(6)(Seed(rnd.nextInt(inst.nUsers), rnd.nextInt(inst.nItems), 1 + rnd.nextInt(inst.T)))
  }

  def halfMask(seed: Long, n: Int): Array[Boolean] = Array.tabulate(n)(v => (v + seed) % 2 == 0)

  private def bits(d: Double): String = java.lang.Long.toHexString(java.lang.Double.doubleToLongBits(d))

  /** `steps σ π Σw hash(a) hash(w)` of one campaign; with a mask, σ and π
    * count only the masked users (as TDSI's σ^τ and π^τ do).
    */
  def campaign(inst: ProblemInstance, seeds: Seq[Seed], mask: Option[Array[Boolean]]): String = {
    val res = LocalDiffusion.run(inst, seeds, mask)
    val wSum = res.w.iterator.flatMap(_.iterator).foldLeft(0.0)(_ + _)
    Seq(
      res.steps.toString,
      bits(LocalDiffusion.sigmaOf(inst, res, mask)),
      bits(LocalDiffusion.pi(inst, res, mask)),
      bits(wSum),
      java.util.Arrays.deepHashCode(res.a.asInstanceOf[Array[AnyRef]]).toHexString,
      java.util.Arrays.deepHashCode(res.w.asInstanceOf[Array[AnyRef]]).toHexString).mkString(" ")
  }

  def campaignRows: Seq[(String, String)] =
    for {
      seed <- instanceSeeds
      (pName, params) <- paramSets
      t <- Seq(1, 3)
      masked <- Seq(false, true)
    } yield {
      val inst = instance(seed).withParams(params).withT(t)
      val mask = if (masked) Some(halfMask(seed, inst.nUsers)) else None
      s"campaign $seed $pName T=$t ${if (masked) "half" else "all"}" ->
        campaign(inst, campaignSeeds(seed, inst), mask)
    }

  private def algorithm(inst: ProblemInstance, seeds: Seq[Seed]): String =
    seeds.map(s => s"${s.user},${s.item},${s.t}").mkString(";") + " " + bits(LocalDiffusion.sigma(inst, seeds))

  def algorithmRows: Seq[(String, String)] =
    algorithmSeeds.flatMap { seed =>
      val inst = instance(seed).withBudget(6.0).withT(3)
      val optPool = OptBruteForce.defaultPool(inst, 10)
      Seq(
        s"dysim $seed" -> algorithm(inst, Dysim.run(inst)),
        s"bundlegrd $seed" -> algorithm(inst, BundleGRD.run(inst)),
        s"hag $seed" -> algorithm(inst, HAG.run(inst).getOrElse(Vector.empty)),
        s"ps $seed" -> algorithm(inst, PS.run(inst)),
        s"opt pool $seed" -> optPool.map(n => s"${n.user},${n.item}").mkString(";"),
        s"opt $seed" -> {
          val (seeds, sigma) = OptBruteForce.run(inst, optPool, maxSeeds = 2)
          algorithm(inst, seeds) + " " + bits(sigma)
        })
    }

  /** Writes the golden table to the path given as the only argument. */
  def main(args: Array[String]): Unit = {
    val out = new java.io.PrintWriter(args(0), "UTF-8")
    try (campaignRows ++ algorithmRows).foreach { case (k, v) => out.println(s"$k|$v") }
    finally out.close()
  }
}
