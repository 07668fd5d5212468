package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestInstances
import repro.core.{Nominee, Seed}
import repro.diffusion.LocalDiffusion

class BaselinesSpec extends AnyFunSuite {

  private def inst = TestInstances.mk(
    nUsers = 8,
    nItems = 2,
    edges = Seq((0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (6, 7)),
    metaS = Vector(TestInstances.sym(2)((0, 1, 0.6)), Array.fill(2, 2)(0.0)),
    budget = 4.0,
    t = 3,
    cost = (_, _) => 1.0)

  // ---- FrozenSpread ----------------------------------------------------

  test("FrozenSpread equals LocalDiffusion with frozen params, T=1") {
    val i = inst
    val noms = Seq(Nominee(0, 0), Nominee(4, 1))
    val f = FrozenSpread.sigma(i, noms, hops = 3)
    val direct = LocalDiffusion.sigma(
      i.withParams(i.params.frozen.copy(maxSteps = 3)).withT(1),
      noms.map(n => Seed(n.user, n.item, 1)))
    assert(f == direct)
  }

  test("FrozenSpread is monotone in the nominee set") {
    val i = inst
    val small = FrozenSpread.sigma(i, Seq(Nominee(0, 0)))
    val big = FrozenSpread.sigma(i, Seq(Nominee(0, 0), Nominee(4, 0)))
    assert(big > small)
  }

  // ---- CRGreedy ---------------------------------------------------------

  test("CRGreedy schedules every pair exactly once within [1,T]") {
    val i = inst
    val pairs = Seq(Nominee(0, 0), Nominee(4, 1))
    val seeds = CRGreedy.schedule(i, pairs)
    assert(seeds.size == 2)
    assert(seeds.forall(s => s.t >= 1 && s.t <= i.T))
    assert(seeds.map(_.nominee).toSet == pairs.toSet)
  }

  test("CRGreedy prefers the early round for a complementary pair sequence") {
    // two items complementary: seeding item 0 early lets item 1 benefit
    val i = inst
    val seeds = CRGreedy.schedule(i, Seq(Nominee(0, 0), Nominee(0, 1)))
    assert(seeds.head.t <= seeds(1).t, "the first scheduled pair should not come after the second")
  }

  // ---- BundleGRD ---------------------------------------------------------

  test("BundleGRD selects whole bundles per user") {
    val i = inst
    val pairs = BundleGRD.selectPairs(i, maxCandidates = 16)
    val byUser = pairs.groupBy(_.user)
    byUser.foreach { case (_, ps) =>
      assert(ps.map(_.item).toSet == (0 until i.nItems).toSet, "a selected user promotes all items")
    }
  }

  test("BundleGRD stays within budget (bundle-level accounting)") {
    val i = inst
    val pairs = BundleGRD.selectPairs(i, maxCandidates = 16)
    assert(pairs.map(n => i.cost(n.user)(n.item)).sum <= i.budget + 1e-9)
  }

  test("BundleGRD run produces valid timed seeds") {
    val i = inst
    val seeds = BundleGRD.run(i, maxCandidates = 16)
    assert(seeds.nonEmpty)
    assert(seeds.forall(s => s.t >= 1 && s.t <= i.T))
  }

  // ---- HAG ---------------------------------------------------------------

  test("HAG respects the budget and returns pairs") {
    val i = inst
    val Some(pairs) = HAG.selectPairs(i, maxCandidates = 16)
    assert(pairs.nonEmpty)
    assert(pairs.map(n => i.cost(n.user)(n.item)).sum <= i.budget + 1e-9)
  }

  test("HAG picks the hub user first (most influential pair)") {
    val i = inst
    val Some(pairs) = HAG.selectPairs(i, maxCandidates = 16)
    assert(Set(0, 4).contains(pairs.head.user), "first pick should be one of the hubs")
  }

  test("HAG times out when the deadline is impossible") {
    val i = inst
    assert(HAG.selectPairs(i, maxCandidates = 16, timeoutMs = 0).isEmpty)
    assert(HAG.run(i, maxCandidates = 16, timeoutMs = 0).isEmpty)
  }

  // ---- PS ------------------------------------------------------------------

  test("PS respects the budget") {
    val i = inst
    val pairs = PS.selectPairs(i, maxCandidates = 16)
    assert(pairs.map(n => i.cost(n.user)(n.item)).sum <= i.budget + 1e-9)
  }

  test("PS scores ignore seed interactions: top pick is a hub pair") {
    val i = inst
    val pairs = PS.selectPairs(i, maxCandidates = 16)
    assert(pairs.nonEmpty)
    assert(Set(0, 4, 6).contains(pairs.head.user))
  }

  test("PS degree-discount reduces a neighbor's score after selection") {
    // user 0 -> 1; selecting (0, x) must discount (1, x)
    val i = TestInstances.mk(
      nUsers = 2, nItems = 1, edges = Seq((0, 1)),
      budget = 2.0, cost = (_, _) => 1.0)
    val pairs = PS.selectPairs(i, maxCandidates = 2)
    assert(pairs.head.user == 0, "the influencer scores higher than the follower")
  }

  test("PS breaks an exact score tie between two pairs by ascending (user, item)") {
    // only the two pairs (a, xa) and (b, xb) are affordable; with no arcs
    // and uniform preference both score exactly 0.3, and one fits the budget
    for ((a, xa, b, xb) <- Seq((0, 1, 1, 1), (1, 0, 5, 0), (2, 1, 7, 0), (3, 0, 4, 1), (6, 0, 6, 1))) {
      val i = TestInstances.mk(
        nUsers = 8, nItems = 2, edges = Nil, budget = 1.0,
        cost = (u, x) => if ((u, x) == ((a, xa)) || (u, x) == ((b, xb))) 1.0 else 5.0)
      assert(PS.selectPairs(i, maxCandidates = 4) == Vector(Nominee(a, xa)), s"($a,$xa) vs ($b,$xb)")
    }
  }

  test("PS run produces valid timed seeds") {
    val i = inst
    val seeds = PS.run(i, maxCandidates = 16)
    assert(seeds.forall(s => s.t >= 1 && s.t <= i.T))
  }

  // ---- determinism across baselines ---------------------------------------

  test("all baselines are deterministic") {
    val i = inst
    assert(BundleGRD.run(i, 8) == BundleGRD.run(i, 8))
    assert(HAG.run(i, 8) == HAG.run(i, 8))
    assert(PS.run(i, 8) == PS.run(i, 8))
  }
}
