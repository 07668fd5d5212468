package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestInstances
import scala.collection.mutable.ArrayBuffer

class TDSISpec extends AnyFunSuite {

  test("paper Example 3: first window is [2,3] for tHat=2, T^τ=3, maxTPrev=2, T=5") {
    assert(TDSI.window(tHat = 2, tTauK = 3, maxTPrev = 2, totalT = 5) == (2 to 3))
  }

  test("paper Example 3: second window is [3,4] after the first seed lands at t=3") {
    assert(TDSI.window(tHat = 3, tTauK = 3, maxTPrev = 2, totalT = 5) == (3 to 4))
  }

  test("window is clamped to [1, T]") {
    assert(TDSI.window(tHat = 5, tTauK = 3, maxTPrev = 4, totalT = 5) == (5 to 5))
    assert(TDSI.window(tHat = 9, tTauK = 3, maxTPrev = 4, totalT = 5) == (5 to 5))
    assert(TDSI.window(tHat = 1, tTauK = 1, maxTPrev = 0, totalT = 5) == (1 to 1))
  }

  test("window never extends more than one round past tHat") {
    for (tHat <- 1 to 4; tt <- 1 to 4; prev <- 0 to 4) {
      val w = TDSI.window(tHat, tt, prev, 5)
      assert(w.start == tHat && w.end <= tHat + 1, s"($tHat,$tt,$prev) -> $w")
    }
  }

  test("evalMarket counts sigma/pi only over market users") {
    val inst = TestInstances.line3
    val mask = Array(true, true, false)
    val ev = TDSI.evalMarket(inst, Seq(Seed(0, 0, 1)), mask)
    val full = TDSI.evalMarket(inst, Seq(Seed(0, 0, 1)), Array(true, true, true))
    assert(ev.sigma > 0.0 && ev.sigma <= full.sigma)
  }

  test("evalMarket includes external seed users in the diffusion") {
    val inst = TestInstances.line3
    val mask = Array(false, true, true) // market excludes the seed user 0
    val ev = TDSI.evalMarket(inst, Seq(Seed(0, 0, 1)), mask)
    assert(ev.sigma > 0.0, "influence from the external seed must reach the market")
  }

  test("SI is positive for a fresh useful seed") {
    val inst = TestInstances.line3
    val mask = Array(true, true, true)
    val base = TDSI.evalMarket(inst, Nil, mask)
    val si = TDSI.si(inst, Nil, base, Seed(0, 0, 1), mask)
    assert(si > 0.0)
  }

  test("SI of a redundant duplicate seed is ~0") {
    val inst = TestInstances.line3
    val mask = Array(true, true, true)
    val sG = Seq(Seed(0, 0, 1))
    val base = TDSI.evalMarket(inst, sG, mask)
    val si = TDSI.si(inst, sG, base, Seed(0, 0, 2), mask)
    assert(math.abs(si) < 1e-6)
  }

  test("the ML term is weighted by (T - t + 1)/T: later timing discounts future likelihood") {
    val inst = TestInstances.mk(
      nUsers = 3, nItems = 2, edges = Seq((0, 1), (1, 2)),
      metaS = Vector(TestInstances.sym(2)((0, 1, 0.8)), Array.fill(2, 2)(0.0)),
      t = 4)
    val mask = Array(true, true, true)
    val base = TDSI.evalMarket(inst, Nil, mask)
    val siEarly = TDSI.si(inst, Nil, base, Seed(0, 0, 1), mask)
    val siLate = TDSI.si(inst, Nil, base, Seed(0, 0, 4), mask)
    // identical MA (same diffusion, just shifted), smaller weighted ML late
    assert(siEarly > siLate)
  }

  test("assignTimings assigns every nominee exactly once, within [1, T]") {
    val inst = TestInstances.line3
    val s = scala.collection.mutable.ArrayBuffer.empty[Seed]
    val np = Vector(Nominee(0, 0), Nominee(1, 0))
    val out = TDSI.assignTimings(inst, s, Nil, tTauK = 2, np, Array(true, true, true))
    assert(out.size == 2)
    assert(out.map(o => (o.user, o.item)).toSet == np.map(n => (n.user, n.item)).toSet)
    assert(out.forall(o => o.t >= 1 && o.t <= inst.T))
    assert(s.size == 2, "chosen seeds are appended to the global group")
  }

  test("assignTimings is sequential: windows advance with tHat") {
    val inst = TestInstances.line3.withT(5)
    val s = scala.collection.mutable.ArrayBuffer[Seed](Seed(2, 1, 2))
    val np = Vector(Nominee(0, 0))
    val out = TDSI.assignTimings(inst, s, Nil, tTauK = 3, np, Array(true, true, true))
    assert(out.head.t >= 2, "cannot schedule before the latest existing promotion")
  }
  /** The timing loop written out from its definition: a full market
    * campaign for the base of every pick and for every candidate.
    */
  private def referenceTimings(
      inst: ProblemInstance,
      s: ArrayBuffer[Seed],
      sPrevMarket: Seq[Seed],
      tTauK: Int,
      np: Vector[Nominee],
      marketMask: Array[Boolean]): Vector[Seed] = {
    val maxTPrev = if (sPrevMarket.isEmpty) 0 else sPrevMarket.map(_.t).max
    var remaining = np
    val out = Vector.newBuilder[Seed]
    while (remaining.nonEmpty) {
      val tHat = if (s.isEmpty) 1 else s.map(_.t).max
      val base = TDSI.evalMarket(inst, s.toSeq, marketMask)
      val cands = for (n <- remaining; t <- TDSI.window(tHat, tTauK, maxTPrev, inst.T))
        yield Seed(n.user, n.item, t)
      val best = cands.maxBy(c => (TDSI.si(inst, s.toSeq, base, c, marketMask), -c.t, -c.user))
      s += best
      out += best
      remaining = remaining.filterNot(n => n.user == best.user && n.item == best.item)
    }
    out.result()
  }

  test("assignTimings with a nominee outside the market and unseeded picks what full re-simulation picks") {
    var outsidePickedEarly = 0
    for (seed <- 1L to 12L) {
      val inst = TestInstances.random(seed, nUsers = 20, nItems = 6, nEdges = 60).withParams(Params()).withT(4)
      val mask = Array.tabulate(inst.nUsers)(v => (v + seed) % 2 == 0)
      val (in, out) = new scala.util.Random(seed).shuffle((0 until inst.nUsers).toVector).partition(mask)
      val item = (seed % inst.nItems).toInt
      val start = Seq(Seed(in(0), (item + 1) % inst.nItems, 2), Seed(out(0), (item + 2) % inst.nItems, 1))
      val np = Vector(Nominee(in(1), item), Nominee(out(1), item), Nominee(in(2), item), Nominee(in(3), item))
      assert(!mask(out(1)) && !start.exists(_.user == out(1)))
      val prev = Seq(Seed(in(4), item, 2))
      val s = ArrayBuffer.from(start)
      val chosen = TDSI.assignTimings(inst, s, prev, tTauK = 3, np, mask)
      val sRef = ArrayBuffer.from(start)
      assert(chosen == referenceTimings(inst, sRef, prev, 3, np, mask), s"seed=$seed")
      assert(s == sRef, s"seed=$seed")
      if (chosen.indexWhere(_.user == out(1)) < np.size - 1) outsidePickedEarly += 1
    }
    // an outside winner widened the diffusion mask of a later pick
    assert(outsidePickedEarly > 0)
  }
}
