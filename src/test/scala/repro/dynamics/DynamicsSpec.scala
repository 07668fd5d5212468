package repro.dynamics

import org.scalatest.funsuite.AnyFunSuite
import repro.TestInstances
import repro.core.{Params, ProblemInstance, RelKind}

class DynamicsSpec extends AnyFunSuite {
  private val eps = 1e-12

  private def inst = TestInstances.mk(
    nUsers = 2,
    nItems = 3,
    edges = Seq((0, 1)),
    metaKinds = Vector(RelKind.Complementary, RelKind.Complementary, RelKind.Substitutable),
    metaS = Vector(
      TestInstances.sym(3)((0, 1, 1.0), (1, 2, 0.5)),
      TestInstances.sym(3)((0, 2, 0.4)),
      TestInstances.sym(3)((0, 1, 0.6))))

  test("initial weights are uniform within each relationship class") {
    val w = Dynamics.initUserWeights(inst)
    assert(math.abs(w(0) - 0.5) < eps && math.abs(w(1) - 0.5) < eps)
    assert(math.abs(w(2) - 1.0) < eps)
  }

  test("initial weights sum to 1 per class") {
    val w = Dynamics.initUserWeights(inst)
    assert(math.abs(inst.cMeta.map(w).sum - 1.0) < eps)
    assert(math.abs(inst.sMeta.map(w).sum - 1.0) < eps)
  }

  test("evidence is the s-weighted sum over co-adopted pairs") {
    val a = Array(1.0, 1.0, 0.0)
    assert(math.abs(Dynamics.evidence(inst, a, 0) - 1.0) < eps) // pair (0,1) s=1
    assert(math.abs(Dynamics.evidence(inst, a, 1) - 0.0) < eps) // pair (0,2) not co-adopted
    assert(math.abs(Dynamics.evidence(inst, a, 2) - 0.6) < eps)
  }

  test("evidence scales with fractional adoptions") {
    val a = Array(0.5, 0.5, 0.0)
    assert(math.abs(Dynamics.evidence(inst, a, 0) - 0.25) < eps)
  }

  test("weight update shifts mass to meta-graphs explaining co-adoptions") {
    val a = Array(1.0, 1.0, 0.0)
    val w = new Array[Double](3)
    Dynamics.updateUserWeights(inst, a, w)
    // meta 0 has evidence 1, meta 1 has 0 -> w(0) > w(1)
    assert(w(0) > w(1))
    assert(math.abs(w(0) + w(1) - 1.0) < eps)
    assert(math.abs(w(2) - 1.0) < eps) // single S meta stays 1 after normalization
  }

  test("weight update with zero eta returns the uniform prior") {
    // bit for bit: LocalDiffusion leaves the weightings alone under η = 0
    import java.lang.Double.{doubleToRawLongBits => bits}
    def assertPrior(fi: ProblemInstance, a: Array[Double], clue: String): Unit = {
      val w = new Array[Double](fi.nMeta)
      Dynamics.updateUserWeights(fi, a, w)
      assert(w.map(bits).toSeq == Dynamics.initUserWeights(fi).map(bits).toSeq, clue)
    }
    val fi = inst.withParams(inst.params.frozen)
    assertPrior(fi, Array(1.0, 1.0, 1.0), "hand instance")
    assert(Dynamics.initUserWeights(fi).toSeq == Seq(0.5, 0.5, 1.0))
    for (seed <- 1L to 24L) {
      val rnd = new scala.util.Random(seed)
      val r = TestInstances.random(seed, nUsers = 4, nItems = 1 + rnd.nextInt(12))
      // the draw's classes have 2 and 1 members; a 3-member class also
      // needs the sum of W0s to be exact
      val allC = r.copy(metaKinds = r.metaKinds.map(_ => RelKind.Complementary))
      for (fr <- Seq(r, allC).map(i => i.withParams(i.params.copy(eta = 0.0))); k <- 1 to 5)
        assertPrior(fr, Array.fill(r.nItems)(if (rnd.nextBoolean()) 0.0 else rnd.nextDouble()), s"seed=$seed row=$k")
    }
  }

  test("assocCap is min(1, 1/Σ_c w_c·Σ_y s(x,y|c)) over the C meta-graphs") {
    val rnd = new scala.util.Random(11)
    for (seed <- 1L to 30L) {
      val r = TestInstances.random(seed, nUsers = 2, nItems = 2 + rnd.nextInt(10))
      val cMeta = r.cMeta.toArray
      val cNbrs = cMeta.map(r.metaNbrs)
      for (k <- 1 to 10) {
        // zero weights, tiny weights (row sums <= 1) and large ones
        val scale = Seq(0.01, 1.0, 5.0)(k % 3)
        val w = Array.fill(r.nMeta)(if (rnd.nextInt(4) == 0) 0.0 else scale * rnd.nextDouble())
        for (x <- 0 until r.nItems) {
          val rowSum = cMeta.map(c => w(c) * r.metaS(c)(x).sum).sum
          val expected = math.min(1.0, 1.0 / rowSum)
          val got = Dynamics.assocCap(w, cMeta, cNbrs, x)
          assert(math.abs(got - expected) <= 1e-12 * expected, s"seed=$seed x=$x: $got vs $expected")
          if (rowSum <= 1.0) assert(got == 1.0)
        }
      }
    }
  }

  test("rC and rS are the weighted sums of class matrices") {
    val w = Array(0.5, 0.5, 1.0)
    assert(math.abs(Dynamics.rC(inst, w, 0, 1) - 0.5 * 1.0) < eps)
    assert(math.abs(Dynamics.rC(inst, w, 0, 2) - 0.5 * 0.4) < eps)
    assert(math.abs(Dynamics.rS(inst, w, 0, 1) - 0.6) < eps)
  }

  test("prefContrib matches the direct double sum") {
    val w = Array(0.7, 0.3, 1.0)
    val a = Array(0.9, 0.2, 0.4)
    val contrib = Dynamics.prefContrib(inst, w, a)
    for (y <- 0 until 3) {
      var direct = 0.0
      for (x <- 0 until 3 if x != y)
        direct += a(x) * (Dynamics.rC(inst, w, x, y) - Dynamics.rS(inst, w, x, y))
      assert(math.abs(contrib(y) - direct) < 1e-9, s"item $y")
    }
  }

  test("adopting a complement raises preference; a substitute lowers it") {
    val w = Dynamics.initUserWeights(inst)
    // item 2 is complementary to 1 (s=0.5 on meta 0) with no substitution
    val aComp = Array(0.0, 1.0, 0.0)
    val c = Dynamics.prefContrib(inst, w, aComp)
    assert(c(2) > 0.0)
    // item 0 vs 1: rC = 0.5, rS = 0.6 -> net substitutable
    val aSub = Array(1.0, 0.0, 0.0)
    val c2 = Dynamics.prefContrib(inst, w, aSub)
    assert(c2(1) < 0.0)
  }

  test("pref clamps to [0,1]") {
    assert(Dynamics.pref(inst, 0.9, 10.0) == 1.0)
    assert(Dynamics.pref(inst, 0.1, -10.0) == 0.0)
    val mid = Dynamics.pref(inst, 0.3, 0.5)
    assert(math.abs(mid - (0.3 + inst.params.beta * 0.5)) < eps)
  }

  test("sim is 0 with no overlap and grows with shared adoptions") {
    val a1 = Array(1.0, 0.0, 0.0)
    val a2 = Array(0.0, 1.0, 0.0)
    assert(Dynamics.sim(a1, a2, 1.0, 1.0) < 1e-6)
    val a3 = Array(1.0, 0.0, 0.0)
    assert(Dynamics.sim(a1, a3, 1.0, 1.0) > 0.99)
  }

  test("sim is symmetric") {
    val a1 = Array(0.8, 0.1, 0.3)
    val a2 = Array(0.2, 0.9, 0.3)
    val s1 = Dynamics.sim(a1, a2, a1.sum, a2.sum)
    val s2 = Dynamics.sim(a2, a1, a2.sum, a1.sum)
    assert(math.abs(s1 - s2) < eps)
  }

  test("sparseSim over the ascending support equals sim bit for bit") {
    val rnd = new scala.util.Random(7)
    for (_ <- 1 to 500) {
      val n = 1 + rnd.nextInt(30)
      def vec() = Array.fill(n)(if (rnd.nextDouble() < 0.6) 0.0 else rnd.nextDouble())
      val aU = vec()
      val aV = vec()
      val (sumU, sumV) = (aU.sum, aV.sum)
      val dense = Dynamics.sim(aU, aV, sumU, sumV)
      for (supp <- Seq(aU, aV).map(a => a.indices.filter(a(_) > 0.0).toArray)) {
        val sparse = Dynamics.sparseSim(supp, supp.length, aU, aV, sumU, sumV)
        assert(java.lang.Double.doubleToLongBits(sparse) == java.lang.Double.doubleToLongBits(dense))
      }
    }
  }

  test("act caps at actCap") {
    assert(Dynamics.act(inst, 0.85, 1.0) == Dynamics.ActCap)
    assert(math.abs(Dynamics.act(inst, 0.2, 0.5) - (0.2 + inst.params.gamma * 0.5)) < eps)
  }

  test("act with gamma=0 equals base") {
    val fi = inst.withParams(Params(gamma = 0.0))
    assert(Dynamics.act(fi, 0.25, 0.9) == 0.25)
  }

  test("clamp01 and capAct return the bits of the min/max forms for every double") {
    import java.lang.Double.{doubleToRawLongBits => bits, longBitsToDouble}
    val cap = Dynamics.ActCap
    val special = Seq(0.0, -0.0, Double.NaN, longBitsToDouble(0x7ff0000000000abcL),
      longBitsToDouble(0xfff8000000000123L), Double.PositiveInfinity, Double.NegativeInfinity,
      Double.MinPositiveValue, -Double.MinPositiveValue, Double.MaxValue, Double.MinValue,
      1.0, math.nextUp(1.0), math.nextDown(1.0), -1.0,
      cap, math.nextUp(cap), math.nextDown(cap), 0.5)
    val rnd = new scala.util.Random(20261019L)
    val inputs = special ++ Iterator.continually(longBitsToDouble(rnd.nextLong())).take(100000)
    inputs.foreach { v =>
      assert(bits(Dynamics.clamp01(v)) == bits(math.min(1.0, math.max(0.0, v))), s"clamp01(${bits(v)})")
      assert(bits(Dynamics.capAct(v)) == bits(math.min(cap, v)), s"capAct(${bits(v)})")
    }
  }
}
