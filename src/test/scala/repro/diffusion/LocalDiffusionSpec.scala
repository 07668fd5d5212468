package repro.diffusion

import org.scalatest.funsuite.AnyFunSuite
import repro.TestInstances
import repro.core.{Params, ProblemInstance, RelKind, Seed}
import repro.dynamics.Dynamics
import scala.util.Random

class LocalDiffusionSpec extends AnyFunSuite {

  test("no seeds -> no adoptions, sigma 0") {
    val inst = TestInstances.line3
    val res = LocalDiffusion.run(inst, Nil)
    assert(res.a.flatten.forall(_ == 0.0))
    assert(LocalDiffusion.sigmaOf(inst, res) == 0.0)
  }

  test("a seed adopts its item deterministically") {
    val inst = TestInstances.line3
    val res = LocalDiffusion.run(inst, Seq(Seed(0, 0, 1)))
    assert(res.a(0)(0) == 1.0)
  }

  test("influence propagates along the line with act*pref at hop 1") {
    // frozen + single promotion: exact closed form (T>1 adds retry rounds)
    val inst = TestInstances.line3.withParams(Params().frozen).withT(1)
    val res = LocalDiffusion.run(inst, Seq(Seed(0, 0, 1)))
    // user 1: q = act = 0.3, pref = 0.3 -> a = 0.09
    assert(math.abs(res.a(1)(0) - 0.09) < 1e-9)
    // user 2, item 0: direct channel q0*pref = (0.09*0.3)*0.3, plus the
    // item-association channel from item 1's promotion (user 1 partially
    // adopted the complement): q1*pref*scale*rC = (0.036*0.3)*0.3*0.5*0.8
    val direct = 0.09 * 0.3 * 0.3
    val viaAssoc = (0.036 * 0.3) * 0.3 * 0.5 * 0.8
    assert(math.abs(res.a(2)(0) - (direct + viaAssoc)) < 1e-9)
  }

  test("no propagation against edge direction") {
    val inst = TestInstances.line3
    val res = LocalDiffusion.run(inst, Seq(Seed(2, 0, 1)))
    assert(res.a(1)(0) == 0.0 && res.a(0)(0) == 0.0)
  }

  test("item associations trigger extra adoption of complements") {
    val inst = TestInstances.line3 // items 0,1 complementary with s = 0.8
    val res = LocalDiffusion.run(inst, Seq(Seed(0, 0, 1)))
    assert(res.a(1)(1) > 0.0, "user 1 should partially adopt the complement")
    assert(res.a(1)(1) < res.a(1)(0), "extra adoption is weaker than direct")
  }

  test("frozen extra adoption matches P_ext = q*pref*rC*scale") {
    val inst = TestInstances.line3.withParams(Params().frozen).withT(1)
    val res = LocalDiffusion.run(inst, Seq(Seed(0, 0, 1)))
    val q = 0.3
    val expected = q * 0.3 * 0.8 * inst.params.extraScale
    assert(math.abs(res.a(1)(1) - expected) < 1e-9)
  }

  test("association step in closed form: capped row, partly adopted target, substitutable edge") {
    // arc 0 → 1 with P_act 0.3; items 0, 1, 2 with P_pref 0.5, 0.4, 0.2;
    // complementary s(0,1) = 0.9, s(0,2) = 0.8 (row 0 sums to 1.7 > 1);
    // substitutable s(0,2) = 0.5. Frozen, so W = 1 on each meta-graph;
    // one step per promotion; extraScale 0.5
    val inst = TestInstances.mk(
      nUsers = 2, nItems = 3, edges = Seq((0, 1)),
      metaS = Vector(TestInstances.sym(3)((0, 1, 0.9), (0, 2, 0.8)), TestInstances.sym(3)((0, 2, 0.5))),
      basePref = (_, x) => Seq(0.5, 0.4, 0.2)(x),
      t = 2,
      params = Params().frozen.copy(maxSteps = 1))
    val res = LocalDiffusion.run(inst, Seq(Seed(0, 1, 1), Seed(0, 0, 2)))
    // round 1, item 1 promoted with q = 0.3: direct 0.3·0.4 = 0.12; row 1
    // sums to 0.9 ≤ 1, so item 0 gets 0.3·0.4·0.5·0.9 = 0.054
    val (a0, a1) = (0.054, 0.12)
    // round 2, items 0 and 1 both promoted with q = 0.3; every term carries
    // (1 − a) of the round's start, and row 0's terms are divided by 1.7
    val expected = Seq(
      a0 + (1 - a0) * 0.3 * 0.5 + (1 - a0) * 0.3 * 0.4 * 0.5 * 0.9,
      a1 + (1 - a1) * 0.3 * 0.4 + (1 - a1) * 0.3 * 0.5 * 0.5 * 0.9 / 1.7,
      0.3 * 0.5 * 0.5 * 0.8 / 1.7)
    assert(res.steps == 2)
    for (x <- 0 until 3)
      assert(math.abs(res.a(1)(x) - expected(x)) < 1e-12, s"a(1)($x) = ${res.a(1)(x)}, expected ${expected(x)}")
  }

  test("adoption probabilities stay in [0,1]") {
    for (seed <- 1L to 10L) {
      val inst = TestInstances.random(seed)
      val seeds = Seq(Seed(0, 0, 1), Seed(1, 1, 2), Seed(2, 2, 1))
      val res = LocalDiffusion.run(inst, seeds)
      assert(res.a.flatten.forall(v => v >= 0.0 && v <= 1.0 + 1e-12), s"seed=$seed")
    }
  }

  test("sigma is monotone in the seed group (adding a seed never hurts)") {
    for (seed <- 1L to 8L) {
      val inst = TestInstances.random(seed)
      val s1 = LocalDiffusion.sigma(inst, Seq(Seed(0, 0, 1)))
      val s2 = LocalDiffusion.sigma(inst, Seq(Seed(0, 0, 1), Seed(3, 1, 1)))
      assert(s2 >= s1 - 1e-9, s"seed=$seed: $s2 < $s1")
    }
    // frozen σ (TMI's f, which CELF treats as monotone) on random groups
    for (seed <- 1L to 24L; t <- Seq(1, 3)) {
      val rnd = new Random(seed * 13 + t)
      val inst = TestInstances.random(seed, nUsers = 10 + rnd.nextInt(15), nItems = 2 + rnd.nextInt(5), nEdges = 50)
        .withParams(Params().frozen).withT(t)
      def pick() = Seed(rnd.nextInt(inst.nUsers), rnd.nextInt(inst.nItems), 1 + rnd.nextInt(t))
      for (_ <- 1 to 5) {
        val s = Seq.fill(1 + rnd.nextInt(3))(pick())
        val s1 = LocalDiffusion.sigma(inst, s)
        val s2 = LocalDiffusion.sigma(inst, s :+ pick())
        assert(s2 >= s1, s"frozen seed=$seed T=$t: $s2 < $s1")
      }
    }
  }

  test("sigma weights adoptions by item importance") {
    val inst = TestInstances.mk(
      nUsers = 2, nItems = 2, edges = Seq((0, 1)),
      importance = x => if (x == 0) 2.0 else 1.0)
    val sImportant = LocalDiffusion.sigma(inst, Seq(Seed(0, 0, 1)))
    val sPlain = LocalDiffusion.sigma(inst, Seq(Seed(0, 1, 1)))
    assert(sImportant > sPlain)
  }

  test("later-round seed does not propagate before its round") {
    val inst = TestInstances.line3.withT(2)
    val res1 = LocalDiffusion.run(inst.withT(1), Seq(Seed(0, 0, 1)))
    val res2 = LocalDiffusion.run(inst, Seq(Seed(0, 0, 2)))
    // seeding at t=2 of a T=2 campaign propagates the same as t=1 of T=1
    assert(math.abs(res1.a(1)(0) - res2.a(1)(0)) < 1e-9)
  }

  test("seed round beyond T is rejected") {
    val inst = TestInstances.line3 // T = 3
    assertThrows[IllegalArgumentException](LocalDiffusion.run(inst, Seq(Seed(0, 0, 4))))
  }

  test("mask restricts diffusion to the induced subgraph") {
    val inst = TestInstances.line3
    val mask = Array(true, false, true) // user 1 cut out
    val res = LocalDiffusion.run(inst, Seq(Seed(0, 0, 1)), Some(mask))
    assert(res.a(1)(0) == 0.0 && res.a(2)(0) == 0.0)
  }

  test("countMask restricts sigma but not diffusion") {
    val inst = TestInstances.line3
    val res = LocalDiffusion.run(inst, Seq(Seed(0, 0, 1)))
    val all = LocalDiffusion.sigmaOf(inst, res)
    val only2 = LocalDiffusion.sigmaOf(inst, res, Some(Array(false, false, true)))
    assert(only2 > 0.0 && only2 < all)
  }

  test("dynamics amplify spread versus frozen (complementary catalog)") {
    val inst = TestInstances.line3.withT(2)
    val dyn = LocalDiffusion.sigma(inst, Seq(Seed(0, 0, 1), Seed(0, 1, 2)))
    val froz = LocalDiffusion.sigma(inst.withParams(inst.params.frozen), Seq(Seed(0, 0, 1), Seed(0, 1, 2)))
    assert(dyn > froz, s"dynamic $dyn should beat frozen $froz on complements")
  }

  test("re-seeding an adopted pair is a no-op") {
    val inst = TestInstances.line3
    val a = LocalDiffusion.sigma(inst, Seq(Seed(0, 0, 1)))
    val b = LocalDiffusion.sigma(inst, Seq(Seed(0, 0, 1), Seed(0, 0, 2)))
    assert(math.abs(a - b) < 1e-9)
  }

  test("pi is positive when adopters border non-adopters and 0 with no adoptions") {
    val inst = TestInstances.line3
    val res0 = LocalDiffusion.run(inst, Nil)
    assert(LocalDiffusion.pi(inst, res0) == 0.0)
    val res = LocalDiffusion.run(inst, Seq(Seed(0, 0, 1)))
    assert(LocalDiffusion.pi(inst, res) > 0.0)
  }

  test("pi: adding a seed raises the future-adoption likelihood on a fresh frontier") {
    val inst = TestInstances.mk(
      nUsers = 4, nItems = 2,
      edges = Seq((0, 1), (2, 3)), // two disjoint arcs
      metaS = Vector(TestInstances.sym(2)((0, 1, 0.5)), Array.fill(2, 2)(0.0)))
    val r1 = LocalDiffusion.run(inst, Seq(Seed(0, 0, 1)))
    val r2 = LocalDiffusion.run(inst, Seq(Seed(0, 0, 1), Seed(2, 0, 1)))
    assert(LocalDiffusion.pi(inst, r2) > LocalDiffusion.pi(inst, r1))
  }

  test("substitutable adoption suppresses preference for the substitute") {
    val subInst = TestInstances.mk(
      nUsers = 2, nItems = 2, edges = Seq((0, 1)),
      metaS = Vector(Array.fill(2, 2)(0.0), TestInstances.sym(2)((0, 1, 0.9))))
    // baseline: independent items
    val indInst = subInst.copy(metaS = Vector(Array.fill(2, 2)(0.0), Array.fill(2, 2)(0.0)))
    val seeds = Seq(Seed(0, 0, 1), Seed(0, 1, 2))
    val subA = LocalDiffusion.run(subInst.withT(2), seeds).a(1)(1)
    val indA = LocalDiffusion.run(indInst.withT(2), seeds).a(1)(1)
    assert(subA < indA, s"substitute adoption $subA should be below independent $indA")
  }

  test("steps counter advances and respects maxSteps") {
    val inst = TestInstances.line3.withParams(Params(maxSteps = 1)).withT(1)
    val res = LocalDiffusion.run(inst, Seq(Seed(0, 0, 1)))
    assert(res.steps <= 1)
    assert(res.a(2)(0) == 0.0, "hop 2 unreachable in one step of one promotion")
  }

  test("frozen run: untouched users keep the initial weights, touched users get updateUserWeights'") {
    for (seed <- 1L to 6L) {
      val inst = TestInstances.random(seed, nUsers = 30, nItems = 8).withParams(Params().frozen)
      val res = LocalDiffusion.run(inst, Seq(Seed(0, 0, 1), Seed(5, 3, 2)))
      val init = Dynamics.initUserWeights(inst)
      for (v <- 0 until inst.nUsers) {
        val expected =
          if (res.a(v).forall(_ == 0.0)) init
          else { val out = new Array[Double](inst.nMeta); Dynamics.updateUserWeights(inst, res.a(v), out); out }
        assert(res.w(v).toSeq == expected.toSeq, s"seed=$seed user=$v")
      }
      assert(res.w.distinct.length == inst.nUsers, "every user owns its weight vector")
    }
  }

  test("multi-round re-diffusion: more promotions retry and grow the spread") {
    val inst = TestInstances.line3
    val s1 = LocalDiffusion.sigma(inst.withT(1), Seq(Seed(0, 0, 1)))
    val s3 = LocalDiffusion.sigma(inst.withT(3), Seq(Seed(0, 0, 1)))
    assert(s3 > s1, s"T=3 ($s3) must exceed T=1 ($s1) via per-promotion retries")
  }
  // ---- forks from a round state ---------------------------------------------

  /** Random instances × {dynamic, frozen} × {no mask, half mask} at T = 4,
    * each with a three-seed campaign S and a candidate pair c.
    */
  private val forkCases = for {
    seed <- 1L to 5L
    (pName, params) <- Seq("dynamic" -> Params(), "frozen" -> Params().frozen)
    masked <- Seq(false, true)
  } yield {
    val inst = TestInstances.random(seed, nUsers = 20, nItems = 6, nEdges = 60).withParams(params).withT(4)
    val mask = if (masked) Some(Array.tabulate(inst.nUsers)(v => (v + seed) % 2 == 0)) else None
    val rnd = new Random(seed)
    val s = Seq.fill(3)(Seed(rnd.nextInt(inst.nUsers), rnd.nextInt(inst.nItems), 1 + rnd.nextInt(inst.T)))
    val c = (rnd.nextInt(inst.nUsers), rnd.nextInt(inst.nItems))
    (s"seed=$seed $pName ${if (masked) "half" else "all"}", inst, mask, s, c)
  }

  /** S's state at the start of every round t, at index t - 1. */
  private def roundStates(inst: ProblemInstance, seeds: Seq[Seed], mask: Option[Array[Boolean]]) =
    LocalDiffusion.resume(LocalDiffusion.start(inst, mask), seeds)._2

  private def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)

  private def assertSameBits(
      inst: ProblemInstance, mask: Option[Array[Boolean]], x: DiffusionResult, y: DiffusionResult, clue: String): Unit = {
    assert(x.steps == y.steps, clue)
    assert(java.util.Arrays.deepEquals(x.a.asInstanceOf[Array[AnyRef]], y.a.asInstanceOf[Array[AnyRef]]), clue)
    assert(java.util.Arrays.deepEquals(x.w.asInstanceOf[Array[AnyRef]], y.w.asInstanceOf[Array[AnyRef]]), clue)
    assert(bits(LocalDiffusion.sigmaOf(inst, x, mask)) == bits(LocalDiffusion.sigmaOf(inst, y, mask)), clue)
    assert(bits(LocalDiffusion.pi(inst, x, mask)) == bits(LocalDiffusion.pi(inst, y, mask)), clue)
  }

  test("a candidate forked from S's state at its round equals the full run of S :+ c, bit for bit") {
    forkCases.foreach { case (name, inst, mask, s, (u, x)) =>
      val states = roundStates(inst, s, mask)
      assert(states.map(_.t) == (1 to inst.T), name)
      for (t <- 1 to inst.T) {
        val withC = s :+ Seed(u, x, t)
        val (forked, later) = LocalDiffusion.resume(states(t - 1), withC)
        assertSameBits(inst, mask, forked, LocalDiffusion.run(inst, withC, mask), s"$name t=$t")
        assert(later.map(_.t) == (t to inst.T) && (later.head eq states(t - 1)), s"$name t=$t")
        // the fork's own states serve the next fork, as in CR-Greedy
        val next = states.take(t - 1) ++ later
        for (t2 <- 1 to inst.T) {
          val again = withC :+ Seed((u + 1) % inst.nUsers, (x + 1) % inst.nItems, t2)
          assertSameBits(inst, mask, LocalDiffusion.resume(next(t2 - 1), again)._1,
            LocalDiffusion.run(inst, again, mask), s"$name t=$t t2=$t2")
        }
      }
    }
  }

  test("two forks from one state equal two fresh runs: states are never aliased") {
    forkCases.foreach { case (name, inst, mask, s, (u, x)) =>
      val states = roundStates(inst, s, mask)
      for (t <- 1 to inst.T) {
        val c1 = s :+ Seed(u, x, t)
        val c2 = s :+ Seed(u, (x + 1) % inst.nItems, t)
        val f1 = LocalDiffusion.resume(states(t - 1), c1)._1
        val f2 = LocalDiffusion.resume(states(t - 1), c2)._1
        val f1Again = LocalDiffusion.resume(states(t - 1), c1)._1
        assertSameBits(inst, mask, f1, LocalDiffusion.run(inst, c1, mask), s"$name t=$t c1")
        assertSameBits(inst, mask, f2, LocalDiffusion.run(inst, c2, mask), s"$name t=$t c2")
        assertSameBits(inst, mask, f1Again, f1, s"$name t=$t c1 again")
        assert(f1.a.indices.forall(v => (f1.a(v) ne f2.a(v)) && (f1.w(v) ne f2.w(v))), s"$name t=$t")
      }
    }
  }

  test("a state produced under other earlier seeds is rejected") {
    forkCases.foreach { case (name, inst, mask, s, (u, x)) =>
      val states = roundStates(inst, s, mask)
      val extra = (0 until inst.nUsers).map(Seed(_, x, 1)).find(e => !s.contains(e)).get
      for (t <- 2 to inst.T) {
        val withC = s :+ Seed(u, x, t)
        assertThrows[IllegalArgumentException](LocalDiffusion.resume(states(t - 1), withC :+ extra), s"$name t=$t")
        if (s.exists(_.t < t))
          assertThrows[IllegalArgumentException](
            LocalDiffusion.resume(states(t - 1), withC.filterNot(_.t < t)), s"$name t=$t")
      }
    }
  }

  test("a mask or countMask of the wrong length is rejected") {
    val inst = TestInstances.random(1L, nUsers = 20, nItems = 6)
    val seeds = Seq(Seed(0, 0, 1))
    val res = LocalDiffusion.run(inst, seeds)
    for (len <- Seq(0, inst.nUsers - 1, inst.nUsers + 1)) {
      val bad = Some(Array.fill(len)(true))
      assertThrows[IllegalArgumentException](LocalDiffusion.start(inst, bad), s"start len=$len")
      assertThrows[IllegalArgumentException](LocalDiffusion.run(inst, seeds, bad), s"run len=$len")
      assertThrows[IllegalArgumentException](LocalDiffusion.sigmaOf(inst, res, bad), s"sigmaOf len=$len")
      assertThrows[IllegalArgumentException](LocalDiffusion.pi(inst, res, bad), s"pi len=$len")
    }
  }
}
