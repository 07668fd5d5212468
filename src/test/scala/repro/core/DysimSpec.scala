package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestInstances
import repro.diffusion.LocalDiffusion

class DysimSpec extends AnyFunSuite {

  private def inst = TestInstances.mk(
    nUsers = 10,
    nItems = 3,
    edges = Seq((0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (6, 7), (6, 8), (7, 9)),
    metaS = Vector(
      TestInstances.sym(3)((0, 1, 0.8)), // 0-1 complements
      TestInstances.sym(3)((0, 2, 0.7))), // 0-2 substitutes
    budget = 5.0,
    t = 4,
    cost = (_, _) => 1.0)

  private val cfg = TMI.Config(maxCandidates = 20, thetaCommon = 2)

  test("produces a non-empty seed group within budget") {
    val seeds = Dysim.run(inst, cfg)
    assert(seeds.nonEmpty)
    assert(inst.withinBudget(seeds))
  }

  test("all seed rounds are within [1, T]") {
    val seeds = Dysim.run(inst, cfg)
    assert(seeds.forall(s => s.t >= 1 && s.t <= inst.T))
  }

  test("seeds are exactly the TMI nominees with assigned timings") {
    val trace = Dysim.runTraced(inst, cfg)
    assert(trace.seeds.map(_.nominee).toSet == trace.nominees.toSet)
  }

  test("is deterministic") {
    val a = Dysim.run(inst, cfg)
    val b = Dysim.run(inst, cfg)
    assert(a == b)
  }

  test("markets cover the nominees that formed them") {
    val trace = Dysim.runTraced(inst, cfg)
    trace.markets.foreach { m =>
      m.nominees.foreach(n => assert(m.users.contains(n.user)))
    }
  }

  test("every market appears in exactly one group") {
    val trace = Dysim.runTraced(inst, cfg)
    val grouped = trace.groups.flatten
    assert(grouped.size == trace.markets.size)
  }

  test("achieves at least the spread of its own nominees all seeded at t=1") {
    val trace = Dysim.runTraced(inst, cfg)
    val dysimSigma = LocalDiffusion.sigma(inst, trace.seeds)
    val naive = trace.nominees.map(n => Seed(n.user, n.item, 1))
    val naiveSigma = LocalDiffusion.sigma(inst, naive)
    // timing by SI should not lose badly to the trivial all-at-once schedule
    assert(dysimSigma >= 0.8 * naiveSigma, s"dysim $dysimSigma vs naive $naiveSigma")
  }

  test("marketRelevance with no seeds equals the initial average") {
    val m = TargetMarket(Vector(Nominee(0, 0)), Set(0, 1, 2), 2)
    val (rC0, rS0) = TMI.initialAvgRel(inst)
    val (rC, rS) = Dysim.marketRelevance(inst, Nil, m)
    for (x <- 0 until 3; y <- 0 until 3) {
      assert(rC(x)(y) == rC0(x)(y) && rS(x)(y) == rS0(x)(y))
    }
  }

  // `inst` with a second complementary meta-graph: with one meta-graph per
  // class the weightings cannot move r̄C/r̄S, so only this instance shows DR's
  // dynamic part
  private def twoC = TestInstances.mk(
    nUsers = 10,
    nItems = 3,
    edges = Seq((0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (6, 7), (6, 8), (7, 9)),
    metaKinds = Vector(RelKind.Complementary, RelKind.Complementary, RelKind.Substitutable),
    metaS = Vector(TestInstances.sym(3)((0, 1, 0.8)), TestInstances.sym(3)((1, 2, 0.5)), TestInstances.sym(3)((0, 2, 0.7))))

  test("marketRelevance shifts after promotions (dynamic perception)") {
    val i = twoC
    val m = TargetMarket(Vector(Nominee(0, 0)), Set(0, 1, 2, 3, 4, 5), 2)
    val (rC0, _) = TMI.initialAvgRel(i)
    // promote both complements from the hub: weightings move toward the
    // meta-graph relating them
    val (rC, _) = Dysim.marketRelevance(i, Seq(Seed(0, 0, 1), Seed(0, 1, 2)), m)
    assert(rC(0)(1) > rC0(0)(1), "perceptions should have moved")
  }

  test("marketRelevance diffuses a seed whose user is outside the market") {
    val i = twoC
    val market = TargetMarket(Vector(Nominee(1, 0)), Set(1, 2, 3, 4, 5), 2) // the hub 0 is outside
    val sG = Seq(Seed(0, 0, 1), Seed(0, 1, 2))
    val (rC0, _) = TMI.initialAvgRel(i)
    val (rC, rS) = Dysim.marketRelevance(i, sG, market)
    assert(rC(0)(1) > rC0(0)(1), "the hub's co-promotion of 0 and 1 should raise r̄C(0,1) in the market")
    // exactly the weightings of a campaign over the market plus the seeded user
    val res = LocalDiffusion.run(i, sG, Some(Array.tabulate(i.nUsers)(_ <= 5)))
    val (eC, eS) = TMI.avgRel(i, Array(1, 2, 3, 4, 5).map(res.w))
    for (x <- 0 until 3; y <- 0 until 3) assert(rC(x)(y) == eC(x)(y) && rS(x)(y) == eS(x)(y), s"($x,$y)")
  }

  test("trace counts one market campaign per market plus one per SI candidate") {
    val trace = Dysim.runTraced(inst, cfg)
    val (_, refCandidates) = ReferenceDysim.run(inst, cfg)
    assert(trace.siCandidates == refCandidates)
    assert(trace.marketCampaigns == trace.markets.size + trace.siCandidates)
    assert((trace.markets.size, trace.siCandidates, trace.marketCampaigns) == ((2, 10, 12)))
  }

  test("trace's phase times are non-negative and sum to at most the run's wall time") {
    val start = System.nanoTime()
    val trace = Dysim.runTraced(inst, cfg)
    val wall = System.nanoTime() - start
    val phases = Seq(trace.nominateNs, trace.clusterNs, trace.marketsNs, trace.groupNs, trace.dreNs, trace.tdsiNs)
    assert(phases.forall(_ >= 0L), s"phases $phases")
    assert(phases.sum <= wall, s"phases $phases sum to ${phases.sum} ns, wall $wall ns")
    assert(trace.tdsiNs > 0L, "every market's starting campaign is timed under TDSI")
  }

  test("run equals the loop that re-simulates every campaign, in seeds and sigma bits (random instances)") {
    var multiItem = 0
    var sharedGroup = 0
    for (seed <- 1L to 16L) {
      val i = TestInstances.random(seed, nUsers = 30, nItems = 6, nEdges = 40).withParams(Params()).withT(4)
      val c = TMI.Config(maxCandidates = 40, thetaCommon = 1)
      val trace = Dysim.runTraced(i, c)
      val (refSeeds, refCandidates) = ReferenceDysim.run(i, c)
      assert(trace.seeds == refSeeds, s"seed=$seed")
      val bits = (seeds: Vector[Seed]) => java.lang.Double.doubleToLongBits(LocalDiffusion.sigma(i, seeds))
      assert(bits(trace.seeds) == bits(refSeeds), s"seed=$seed")
      assert(trace.siCandidates == refCandidates, s"seed=$seed")
      if (trace.markets.exists(_.items.size > 1)) multiItem += 1
      if (trace.groups.exists(_.size > 1)) sharedGroup += 1
    }
    // DRE read campaigns that TDSI handed back, and a market of a group
    // started from the seeds of the one before it
    assert(multiItem > 0 && sharedGroup > 0, s"multi-item $multiItem, shared group $sharedGroup")
  }

  test("empty-budget instance yields no seeds") {
    val broke = inst.withBudget(0.0)
    assert(Dysim.run(broke, cfg).isEmpty)
  }
}
