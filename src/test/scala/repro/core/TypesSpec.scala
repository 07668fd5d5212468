package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestInstances

class TypesSpec extends AnyFunSuite {

  test("Seed rejects round 0") {
    assertThrows[IllegalArgumentException](Seed(0, 0, 0))
  }

  test("Params.frozen zeroes all dynamic rates and keeps the rest") {
    val p = Params(eta = 2.0, beta = 0.5, gamma = 0.3, extraScale = 0.4)
    val f = p.frozen
    assert(f.eta == 0.0 && f.beta == 0.0 && f.gamma == 0.0)
    assert(f.extraScale == 0.4 && f.maxSteps == p.maxSteps)
  }

  test("Params validates maxSteps") {
    assertThrows[IllegalArgumentException](Params(maxSteps = 0))
  }

  test("Params rejects negative or non-finite rates and a negative eps") {
    for (bad <- Seq(-0.1, Double.NaN, Double.PositiveInfinity)) {
      assertThrows[IllegalArgumentException](Params(eta = bad))
      assertThrows[IllegalArgumentException](Params(beta = bad))
      assertThrows[IllegalArgumentException](Params(gamma = bad))
      assertThrows[IllegalArgumentException](Params(extraScale = bad))
    }
    assertThrows[IllegalArgumentException](Params(eps = -1e-6))
    assertThrows[IllegalArgumentException](Params(eps = Double.NaN))
    Params(eta = 0.0, beta = 0.0, gamma = 0.0, extraScale = 0.0, eps = 0.0) // zero is allowed
  }

  test("cMeta/sMeta index the kinds correctly") {
    val inst = TestInstances.random(1L)
    assert(inst.cMeta.forall(m => inst.metaKinds(m) == RelKind.Complementary))
    assert(inst.sMeta.forall(m => inst.metaKinds(m) == RelKind.Substitutable))
    assert((inst.cMeta ++ inst.sMeta).sorted == (0 until inst.nMeta))
  }

  test("metaPairs lists exactly the positive upper-triangle entries") {
    val inst = TestInstances.line3
    val pairs = inst.metaPairs(0)
    assert(pairs.toSeq == Seq((0, 1, 0.8)))
    assert(inst.metaPairs(1).isEmpty)
  }

  test("metaNbrs is the symmetric expansion of metaPairs") {
    val inst = TestInstances.line3
    assert(inst.metaNbrs(0)(0).toSeq == Seq((1, 0.8)))
    assert(inst.metaNbrs(0)(1).toSeq == Seq((0, 0.8)))
    val r = TestInstances.random(3L, nUsers = 4, nItems = 9)
    for (m <- 0 until r.nMeta; x <- 0 until r.nItems) {
      val expanded = r.metaPairs(m).toSeq.collect {
        case (`x`, y, s) => (y, s)
        case (y, `x`, s) => (y, s)
      }
      assert(r.metaNbrs(m)(x) == expanded, s"meta $m item $x")
    }
  }

  test("MetaNbrs.rowSum is the ascending sum of each row's s") {
    for (seed <- 1L to 5L) {
      val r = TestInstances.random(seed, nUsers = 4, nItems = 9)
      for (m <- 0 until r.nMeta; x <- 0 until r.nItems) {
        val nbrs = r.metaNbrs(m)
        assert(nbrs.rowSum(x) == nbrs(x).map(_._2).foldLeft(0.0)(_ + _), s"seed $seed meta $m item $x")
        assert(math.abs(nbrs.rowSum(x) - r.metaS(m)(x).sum) <= 1e-15, s"seed $seed meta $m item $x")
      }
    }
  }

  // ---- ProblemInstance validation: one case per rejected field ---------------

  private def line3With(cost: Double = 1.0, pref: Double = 0.3, act: Double = 0.3, budget: Double = 10.0) =
    TestInstances.mk(3, 2, Seq((0, 1), (1, 2)), cost = (_, _) => cost, basePref = (_, _) => pref, act = act,
      budget = budget)

  test("ProblemInstance rejects a zero, negative or non-finite cost") {
    for (bad <- Seq(0.0, -1.0, Double.NaN, Double.PositiveInfinity))
      assertThrows[IllegalArgumentException](line3With(cost = bad))
  }

  test("ProblemInstance rejects a basePref outside [0,1]") {
    for (bad <- Seq(-0.1, 1.1, Double.NaN)) assertThrows[IllegalArgumentException](line3With(pref = bad))
    line3With(pref = 0.0); line3With(pref = 1.0) // the bounds are allowed
  }

  test("ProblemInstance rejects inAct outside (0,1] or misaligned with inNbr") {
    for (bad <- Seq(0.0, 1.5, Double.NaN)) assertThrows[IllegalArgumentException](line3With(act = bad))
    line3With(act = 1.0)
    val inst = TestInstances.line3
    assertThrows[IllegalArgumentException](inst.copy(inAct = Array(Array.empty[Double], Array.empty[Double], Array(0.3))))
  }

  test("ProblemInstance rejects a malformed relevance matrix") {
    val inst = TestInstances.line3
    def withC(m: Array[Array[Double]]) = inst.copy(metaS = Vector(m, inst.metaS(1)))
    assertThrows[IllegalArgumentException](withC(Array(Array(0.0, 0.8), Array(0.7, 0.0)))) // asymmetric
    assertThrows[IllegalArgumentException](withC(Array(Array(0.5, 0.8), Array(0.8, 0.0)))) // non-zero diagonal
    assertThrows[IllegalArgumentException](withC(TestInstances.sym(2)((0, 1, 1.5)))) // above 1
    assertThrows[IllegalArgumentException](withC(TestInstances.sym(2)((0, 1, -0.1)))) // below 0
    assertThrows[IllegalArgumentException](withC(Array(Array(0.0, 0.8)))) // not nItems x nItems
  }

  test("ProblemInstance rejects a negative or non-finite budget") {
    for (bad <- Seq(-1.0, Double.NaN, Double.PositiveInfinity))
      assertThrows[IllegalArgumentException](line3With(budget = bad))
    line3With(budget = 0.0)
  }

  test("fits allows the rounding slack and nothing more") {
    assert(ProblemInstance.fits(1.0, 1.0) && ProblemInstance.fits(1.0 + 1e-10, 1.0))
    assert(!ProblemInstance.fits(1.0 + 1e-8, 1.0))
  }

  test("totalCost and withinBudget") {
    val inst = TestInstances.line3 // unit costs, budget 10
    val seeds = Seq(Seed(0, 0, 1), Seed(1, 1, 2))
    assert(inst.totalCost(seeds) == 2.0)
    assert(inst.withinBudget(seeds))
    assert(!inst.withBudget(1.0).withinBudget(seeds))
  }

  test("with* helpers replace only their field") {
    val inst = TestInstances.line3
    assert(inst.withT(7).T == 7)
    assert(inst.withBudget(3.0).budget == 3.0)
    val p = Params(beta = 0.0)
    assert(inst.withParams(p).params.beta == 0.0)
  }

  test("degree helpers") {
    val inst = TestInstances.line3
    assert(inst.outDegree(0) == 1 && inst.inDegree(1) == 1 && inst.inDegree(0) == 0)
  }

  test("RelKind signs") {
    assert(RelKind.Complementary.sign == 1.0)
    assert(RelKind.Substitutable.sign == -1.0)
  }
}
