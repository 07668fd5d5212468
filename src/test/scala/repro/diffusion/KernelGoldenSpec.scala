package repro.diffusion

import org.scalatest.funsuite.AnyFunSuite
import repro.TestInstances
import repro.baselines.{BundleGRD, CRGreedy, HAG, OptBruteForce, PS}
import repro.core.{Dysim, Nominee, Params, ProblemInstance, Seed, TDSI}
import scala.collection.mutable.ArrayBuffer
import scala.io.Source
import scala.util.Random

/** Bit-exact regression suite for the mean-field kernel and the algorithms
  * built on it. The expected values in `kernel-golden.txt` were captured
  * from the straightforward kernel (dense similarity, every dynamic factor
  * evaluated even at zero rate, boxed step state); any rewrite of
  * [[LocalDiffusion]] must reproduce them to the last bit. The OPT rows
  * (`defaultPool` order, then `run`'s seeds and σ) were added later,
  * captured before OPT's pool ranking and budget check moved onto the
  * shared `FrozenSpread` and `ProblemInstance.fits`. The CR-Greedy and
  * TDSI rows (T = 5, dynamic params) were captured before CR-Greedy
  * started forking candidates from the scheduled campaign's round state.
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

  private lazy val (optRows, otherRows) = algorithmRows.partition(_._1.startsWith("opt"))
  private lazy val (roundSearchRows, heuristicRows) =
    otherRows.partition(r => r._1.startsWith("crgreedy") || r._1.startsWith("tdsi"))

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

  test("CR-Greedy and TDSI reproduce their rounds and sigma bit for bit at T = 5") {
    roundSearchRows.foreach { case (key, value) => assert(value == golden(key), key) }
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

  private def pairs(ns: Seq[Nominee]): String = ns.map(n => s"${n.user},${n.item}").mkString(";")

  /** CR-Greedy at T = 5 over BundleGRD's pairs for budget 16: one user's
    * 12-item bundle, then a second user's partial bundle.
    */
  def crGreedyRow(seed: Long): String = {
    val inst = instance(seed).withParams(Params()).withBudget(16.0).withT(5)
    val ps = BundleGRD.selectPairs(inst)
    pairs(ps) + " " + algorithm(inst, CRGreedy.schedule(inst, ps))
  }

  /** TDSI at T = 5 under the half mask, with two seeds already placed
    * (t̂ = 2) and a previous market ending at round 2, so the windows are
    * [2,3], [3,4], [4,5] and [5,5]. Five nominees of one item; with
    * `outside`, one of them is a user outside the market.
    */
  def tdsiRow(seed: Long, outside: Boolean): String = {
    val inst = instance(seed).withParams(Params()).withT(5)
    val mask = halfMask(seed, inst.nUsers)
    val rnd = new Random(seed * 7919)
    val item = rnd.nextInt(inst.nItems)
    val (in, out) = rnd.shuffle((0 until inst.nUsers).toVector).partition(mask)
    val s = ArrayBuffer(Seed(out(0), (item + 1) % inst.nItems, 2), Seed(in(0), (item + 2) % inst.nItems, 1))
    val users = if (outside) in.slice(1, 5) :+ out(1) else in.slice(1, 6)
    val np = users.map(Nominee(_, item))
    val prev = Seq(Seed(in(6), (item + 3) % inst.nItems, 2))
    val chosen = TDSI.assignTimings(inst, s, prev, tTauK = 3, np, mask)
    val ev = TDSI.evalMarket(inst, s.toSeq, mask)
    pairs(np) + " " + algorithm(inst, chosen) + " " + algorithm(inst, s.toSeq) + " " + bits(ev.sigma) + " " + bits(ev.pi)
  }

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
        },
        s"crgreedy $seed" -> crGreedyRow(seed),
        s"tdsi $seed" -> tdsiRow(seed, outside = false),
        s"tdsi fallback $seed" -> tdsiRow(seed, outside = true))
    }

  /** Writes the golden table to the path given as the only argument. */
  def main(args: Array[String]): Unit = {
    val out = new java.io.PrintWriter(args(0), "UTF-8")
    try (campaignRows ++ algorithmRows).foreach { case (k, v) => out.println(s"$k|$v") }
    finally out.close()
  }
}
