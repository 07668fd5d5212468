package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestInstances
import repro.core.{Nominee, Params, ProblemInstance}
import repro.data.DatasetGen

/** [[FrozenSpread.singletonBound]] bounds every exact frozen singleton
  * spread from above, and is tight where the linearized step is exact.
  */
class SingletonBoundSpec extends AnyFunSuite {

  private def exact(frozen: ProblemInstance, u: Int, x: Int): Double =
    FrozenSpread.sigmaOn(frozen, Seq(Nominee(u, x)))

  test("bounds every affordable pair's singleton on random instances, hops 1-5") {
    var pairs = 0
    var tightest = 0.0
    for {
      seed <- 1L to 15L
      (pName, params) <- Seq("default" -> Params(), "lite" -> DatasetGen.liteParams)
      hops <- 1 to 5
    } {
      val inst = TestInstances.random(seed, nUsers = 20, nItems = 6, nEdges = 60).withParams(params)
      val frozen = FrozenSpread.instance(inst, hops)
      val bound = FrozenSpread.singletonBound(frozen)
      for (u <- 0 until inst.nUsers; x <- 0 until inst.nItems if ProblemInstance.fits(inst.cost(u)(x), inst.budget)) {
        val f = exact(frozen, u, x)
        assert(f <= bound(u)(x), s"seed=$seed $pName hops=$hops pair=($u,$x): f=$f bound=${bound(u)(x)}")
        tightest = math.max(tightest, f / bound(u)(x))
        pairs += 1
      }
    }
    info(f"$pairs pairs; largest f / bound: $tightest%.12f")
  }

  test("equals f up to its margin where the linear step is exact") {
    // a directed line 0 → 1 → 2 → 3 and an arc-less user 4, two items with
    // no relevance: no receiver is reached twice and no association fires,
    // so f = imp(x)·(1 + p + p² + p³) from user 0 and f = imp(x) from user 4
    val inst = TestInstances.mk(
      nUsers = 5, nItems = 2, edges = Seq((0, 1), (1, 2), (2, 3)),
      act = 0.3, basePref = (_, _) => 0.3, importance = x => 1.0 + x)
    val frozen = FrozenSpread.instance(inst, hops = 3)
    val bound = FrozenSpread.singletonBound(frozen)
    val p = 0.3 * 0.3
    for (x <- 0 until 2) {
      val imp = 1.0 + x
      assert(exact(frozen, 4, x) == imp)
      assert(bound(4)(x) == imp * (1.0 + FrozenSpread.BoundMargin) + FrozenSpread.BoundFloor)
      val f = exact(frozen, 0, x)
      assert(math.abs(f - imp * (1 + p + p * p + p * p * p)) <= 1e-14 * f)
      assert(f <= bound(0)(x))
      assert(bound(0)(x) - f <= 2 * FrozenSpread.BoundMargin * f + FrozenSpread.BoundFloor, s"item $x")
    }
  }

  test("rejects an instance with dynamics") {
    assertThrows[IllegalArgumentException](FrozenSpread.singletonBound(TestInstances.random(1L)))
  }
}
