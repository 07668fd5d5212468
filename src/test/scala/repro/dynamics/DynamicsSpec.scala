package repro.dynamics

import org.scalatest.funsuite.AnyFunSuite
import repro.TestInstances
import repro.core.{Params, RelKind}

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
    val fi = inst.withParams(inst.params.frozen)
    val a = Array(1.0, 1.0, 1.0)
    val w = new Array[Double](3)
    Dynamics.updateUserWeights(fi, a, w)
    assert(math.abs(w(0) - 0.5) < eps && math.abs(w(1) - 0.5) < eps && math.abs(w(2) - 1.0) < eps)
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
}
