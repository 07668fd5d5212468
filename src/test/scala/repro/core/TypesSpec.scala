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

  test("Params validates actCap and maxSteps") {
    assertThrows[IllegalArgumentException](Params(actCap = 1.0))
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
