package repro.diffusion

import org.scalatest.funsuite.AnyFunSuite
import repro.TestInstances
import repro.baselines.{BundleGRD, CRGreedy, HAG, OptBruteForce, PS}
import repro.core.{Dysim, Nominee, Params, ProblemInstance, Seed, TDSI}
import scala.collection.mutable.ArrayBuffer
import scala.io.Source
import scala.util.Random

/** Regression suite for the mean-field kernel and the algorithms built on
  * it. The expected values in `kernel-golden.txt` were captured from the
  * straightforward kernel (dense similarity, every dynamic factor
  * evaluated even at zero rate, boxed step state). The OPT rows
  * (`defaultPool` order, then `run`'s seeds and σ) were added later,
  * captured before OPT's pool ranking and budget check moved onto the
  * shared `FrozenSpread` and `ProblemInstance.fits`. The CR-Greedy and
  * TDSI rows (T = 5, dynamic params) were captured before CR-Greedy
  * started forking candidates from the scheduled campaign's round state.
  * `kernel-golden-aw.txt` holds every value of `a` and `w` of the campaign
  * rows of [[KernelGoldenSpec.elementSeeds]], captured before the
  * item-association step was reassociated (DESIGN.md Sec. 4, "Association
  * step").
  *
  * That step sums in another order than the kernel the tables were
  * captured from, so the comparison is not bit for bit. Step counts, seeds,
  * pairs and rounds must be equal; σ, π and Σw must be within
  * [[KernelGoldenSpec.Tol]] relative, and every `a` and `w` value within
  * `Tol` absolute. The campaign rows' hashes of `a` and `w` stay in the
  * table but are not compared.
  *
  * Both tables are the reference for that reassociation: do not regenerate
  * them from a later kernel.
  *
  * `selection-golden.txt` holds the algorithm rows of the reassociated
  * kernel, captured before CELF started from singleton bounds
  * ([[repro.baselines.Celf]]). They are compared bit for bit, so an exact
  * rewrite of the kernel or of a selection must leave every seed, pair,
  * round and σ as it is. The three tables are written by
  * `sbt "Test/runMain repro.diffusion.KernelGoldenSpec <golden file> <a, w file> <selection file>"`.
  */
class KernelGoldenSpec extends AnyFunSuite {
  import KernelGoldenSpec._

  private def load(name: String): Map[String, String] = {
    val src = Source.fromResource(s"repro/diffusion/$name")
    try src.getLines().filter(_.nonEmpty).map { l => val (k, v) = l.splitAt(l.indexOf('|')); k -> v.tail }.toMap
    finally src.close()
  }

  private val golden = load("kernel-golden.txt")
  private val goldenElements = load("kernel-golden-aw.txt")
  private val goldenSelection = load("selection-golden.txt")

  private lazy val algorithms = algorithmRows
  private lazy val (optRows, otherRows) = algorithms.partition(_._1.startsWith("opt"))
  private lazy val (roundSearchRows, heuristicRows) =
    otherRows.partition(r => r._1.startsWith("crgreedy") || r._1.startsWith("tdsi"))

  /** Compares each row with its golden row token by token and returns the
    * largest relative difference. Tokens at the indices in `skip` are not
    * compared; a token `exact` accepts (given its index and golden value)
    * must be equal; every other one holds a double's bits and must be
    * within [[Tol]] relative.
    */
  private def check(rows: Seq[(String, String)], exact: (Int, String) => Boolean, skip: Set[Int] = Set.empty): Double =
    rows.flatMap { case (key, row) =>
      val got = row.split(" ", -1)
      val want = golden(key).split(" ", -1)
      assert(got.length == want.length, key)
      got.indices.filterNot(skip).map { i =>
        if (exact(i, want(i))) { assert(got(i) == want(i), s"$key, token $i"); 0.0 }
        else {
          val d = relDiff(value(got(i)), value(want(i)))
          assert(d <= Tol, s"$key, token $i: relative difference $d")
          d
        }
      }
    }.foldLeft(0.0)(math.max)

  /** Algorithm rows: the tokens that hold bits are σ; seeds, pairs and
    * rounds must be equal.
    */
  private def checkAlgorithms(rows: Seq[(String, String)]): Unit =
    info(f"largest relative difference in sigma: ${check(rows, (_, tok) => !isBits(tok))}%.3g")

  test("golden table covers every campaign and algorithm case") {
    assert(golden.keySet == (campaignRows ++ algorithmRows).map(_._1).toSet)
    assert(goldenElements.keySet == elementRows.map(_._1).toSet)
  }

  test("LocalDiffusion keeps steps; sigma, pi and sum w within 1e-12") {
    // tokens: steps σ π Σw hash(a) hash(w)
    val worst = check(campaignRows, (i, _) => i == 0, skip = Set(4, 5))
    info(f"largest relative difference in sigma, pi or sum w: $worst%.3g")
  }

  test("LocalDiffusion keeps a and w within 1e-12 on instance seeds 1-3") {
    val worst = elementRows.map { case (key, row) =>
      val got = row.split(" ").map(value)
      val want = goldenElements(key).split(" ").map(value)
      assert(got.length == want.length, key)
      got.indices.map { i =>
        val d = math.abs(got(i) - want(i))
        assert(d <= Tol, s"$key, value $i: absolute difference $d")
        d
      }.max
    }.max
    info(f"largest absolute difference in a or w: $worst%.3g")
  }

  test("Dysim, BundleGRD, HAG and PS keep seeds; sigma within 1e-12") {
    checkAlgorithms(heuristicRows)
  }

  test("OPT keeps its pool and seeds; sigma within 1e-12") {
    checkAlgorithms(optRows)
  }

  test("CR-Greedy and TDSI keep rounds at T = 5; sigma within 1e-12") {
    checkAlgorithms(roundSearchRows)
  }

  test("every algorithm row equals selection-golden.txt bit for bit") {
    assert(goldenSelection.keySet == algorithms.map(_._1).toSet)
    algorithms.foreach { case (key, row) => assert(row == goldenSelection(key), key) }
  }
}

object KernelGoldenSpec {

  /** Relative bound on σ, π and Σw; absolute bound on each `a` and `w`. */
  val Tol = 1e-12

  val instanceSeeds: Seq[Long] = 1L to 20L
  val algorithmSeeds: Seq[Long] = Seq(2L, 5L, 9L, 14L, 19L)
  /** The instance seeds whose campaigns are also pinned value by value. */
  val elementSeeds: Seq[Long] = 1L to 3L

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

  /** The double whose bits `bits` wrote. */
  private def value(hex: String): Double = java.lang.Double.longBitsToDouble(java.lang.Long.parseUnsignedLong(hex, 16))

  /** Whether a token holds a double's bits (seeds and pairs hold commas). */
  private def isBits(tok: String): Boolean = tok.nonEmpty && tok.forall(Character.digit(_, 16) >= 0)

  /** |x − y| / max(|x|, |y|), and 0 when x == y. */
  private def relDiff(x: Double, y: Double): Double =
    if (x == y) 0.0 else math.abs(x - y) / math.max(math.abs(x), math.abs(y))

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

  /** Key, instance, seeds and mask of every campaign case of `seeds`. */
  private def campaignCases(seeds: Seq[Long]): Seq[(String, ProblemInstance, Seq[Seed], Option[Array[Boolean]])] =
    for {
      seed <- seeds
      (pName, params) <- paramSets
      t <- Seq(1, 3)
      masked <- Seq(false, true)
    } yield {
      val inst = instance(seed).withParams(params).withT(t)
      val mask = if (masked) Some(halfMask(seed, inst.nUsers)) else None
      (s"campaign $seed $pName T=$t ${if (masked) "half" else "all"}", inst, campaignSeeds(seed, inst), mask)
    }

  def campaignRows: Seq[(String, String)] =
    campaignCases(instanceSeeds).map { case (key, inst, seeds, mask) => key -> campaign(inst, seeds, mask) }

  /** The bits of every `a` value (user-major) under `<key> a`, and of every
    * `w` value under `<key> w`, for the campaign cases of [[elementSeeds]].
    */
  def elementRows: Seq[(String, String)] =
    campaignCases(elementSeeds).flatMap { case (key, inst, seeds, mask) =>
      val res = LocalDiffusion.run(inst, seeds, mask)
      Seq(
        s"$key a" -> res.a.iterator.flatMap(_.iterator).map(bits).mkString(" "),
        s"$key w" -> res.w.iterator.flatMap(_.iterator).map(bits).mkString(" "))
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

  /** Writes the golden table to the first argument's path, the `a`, `w`
    * table to the second's and the selection table to the third's.
    */
  def main(args: Array[String]): Unit = {
    val algorithms = algorithmRows
    Seq(args(0) -> (campaignRows ++ algorithms), args(1) -> elementRows, args(2) -> algorithms).foreach { case (path, rows) =>
      val out = new java.io.PrintWriter(path, "UTF-8")
      try rows.foreach { case (k, v) => out.println(s"$k|$v") }
      finally out.close()
    }
  }
}
