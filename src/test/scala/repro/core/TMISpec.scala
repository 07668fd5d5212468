package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestInstances
import repro.baselines.{Celf, FrozenSpread}
import repro.core.RelKind._

class TMISpec extends AnyFunSuite {

  private def starInst = TestInstances.mk(
    nUsers = 7,
    nItems = 3,
    // hub 0 -> 1..4; separate arc 5 -> 6
    edges = Seq((0, 1), (0, 2), (0, 3), (0, 4), (5, 6)),
    metaS = Vector(TestInstances.sym(3)((0, 1, 0.7)), TestInstances.sym(3)((0, 2, 0.6))),
    budget = 4.0,
    cost = (_, _) => 1.0)

  test("initialAvgRel reflects uniform weights") {
    val inst = starInst
    val (rC, rS) = TMI.initialAvgRel(inst)
    assert(math.abs(rC(0)(1) - 0.7) < 1e-12) // single C meta, weight 1
    assert(math.abs(rS(0)(2) - 0.6) < 1e-12)
    assert(rC(1)(2) == 0.0)
  }

  test("candidatePool is capped, affordable, and covers both ranking regimes") {
    val inst = starInst
    val pool = TMI.candidatePool(inst, TMI.Config(maxCandidates = 6))
    assert(pool.size == 6)
    assert(pool.forall(n => inst.cost(n.user)(n.item) <= inst.budget + 1e-9))
    // with unit costs both regimes rank by proxy gain: the hub leads
    assert(pool.head.user == 0)
  }

  test("candidatePool proxy favors high out-degree at equal cost") {
    val inst = starInst
    assert(CandidatePool.proxyGain(inst, 0, 0) > CandidatePool.proxyGain(inst, 6, 0))
  }

  test("selectNominees respects the budget") {
    val inst = starInst
    val nominees = TMI.selectNominees(inst, TMI.Config(maxCandidates = 12))
    val spent = nominees.map(n => inst.cost(n.user)(n.item)).sum
    assert(spent <= inst.budget + 1e-9)
    assert(nominees.nonEmpty)
  }

  test("selectNominees prefers the hub (higher marginal spread per cost)") {
    val inst = starInst
    val nominees = TMI.selectNominees(inst, TMI.Config(maxCandidates = 12))
    assert(nominees.head.user == 0)
  }

  test("selectNominees keeps the best singleton when it beats the ratio-greedy set") {
    // one expensive seed reaching many vs cheap seeds reaching nobody
    val inst = TestInstances.mk(
      nUsers = 6, nItems = 1,
      edges = Seq((0, 1), (0, 2), (0, 3), (0, 4), (0, 5)),
      cost = (u, _) => if (u == 0) 4.0 else 1.0,
      basePref = (u, _) => if (u == 0) 0.2 else 0.9, // cheap seeds have great ratio on themselves
      budget = 4.0)
    val nominees = TMI.selectNominees(inst, TMI.Config(maxCandidates = 6))
    assert(nominees.map(n => inst.cost(n.user)(n.item)).sum <= inst.budget + 1e-9)
  }

  test("selectNominees equals the eager selection that simulates every singleton") {
    for (seed <- 1L to 30L) {
      val rnd = new scala.util.Random(seed)
      val base = TestInstances.random(seed, nUsers = 16, nItems = 5, nEdges = 40)
      val inst = base.copy(cost = Array.fill(base.nUsers, base.nItems)(0.3 + 2.5 * rnd.nextDouble()), budget = 1.0 + 3 * rnd.nextDouble())
      val pool = TMI.candidatePool(inst, TMI.Config(maxCandidates = 40))
      val frozen = FrozenSpread.instance(inst, TMI.FrozenHops)
      def f(set: Iterable[Nominee]): Double = FrozenSpread.sigmaOn(frozen, set)
      val cost = (n: Nominee) => inst.cost(n.user)(n.item)
      val greedy = Celf.select[Nominee](pool, cost, inst.budget, set => f(set))
      val best = pool.filter(n => ProblemInstance.fits(cost(n), inst.budget)).maxBy(n => (f(Seq(n)), -n.user, -n.item))
      val eager =
        if (f(Seq(best)) > (if (greedy.isEmpty) 0.0 else f(greedy)) && f(Seq(best)) > ProblemInstance.MinGain) Vector(best)
        else greedy
      assert(TMI.selectNominees(inst, TMI.Config(maxCandidates = 40)) == eager, s"seed=$seed")
    }
  }

  test("the knapsack correction looks past the pair with the largest bound") {
    // 0 ↔ 1 and 0 → 2: the linear bound of (0,0) counts the echo 0 → 1 → 0,
    // which adds nothing to f, so it ranks above the tree hub 3 → 4, 5, 6 by
    // bound and below it by f. Ratio-greedy takes the cheap isolated user 7
    // and can afford nothing more, so the best singleton, (3,0), must win
    val inst = TestInstances.mk(
      nUsers = 8, nItems = 1,
      edges = Seq((0, 1), (1, 0), (0, 2), (3, 4), (3, 5), (3, 6)),
      act = 0.9, basePref = (_, _) => 0.9,
      cost = (u, _) => if (u == 0 || u == 3) 4.0 else if (u == 7) 1.0 else 3.5,
      budget = 4.0)
    val frozen = FrozenSpread.instance(inst, TMI.FrozenHops)
    val bound = FrozenSpread.singletonBound(frozen)
    def f(u: Int): Double = FrozenSpread.sigmaOn(frozen, Seq(Nominee(u, 0)))
    assert(bound(0)(0) > bound(3)(0) && f(0) < f(3))
    assert(TMI.selectNominees(inst, TMI.Config(maxCandidates = 8)) == Vector(Nominee(3, 0)))
  }

  test("hopDistances: undirected BFS with cap") {
    val inst = starInst
    val d = TMI.hopDistances(inst, 1, maxHops = 6)
    assert(d(1) == 0 && d(0) == 1 && d(2) == 2) // via the hub, undirected
    assert(d(5) == -1 && d(6) == -1) // disconnected component
    val capped = TMI.hopDistances(inst, 1, maxHops = 1)
    assert(capped(2) == -1)
  }

  test("clusterNominees: socially close complementary nominees merge, distant ones do not") {
    val inst = starInst
    val ns = Vector(Nominee(0, 0), Nominee(1, 1), Nominee(5, 0))
    val clusters = TMI.clusterNominees(inst, ns, TMI.Config())
    // (0,0) and (1,1): hop dist 1, rC=0.7 -> score 1 - 1.4 <= 2.0: merged
    // (5,0) unreachable from both: own cluster
    assert(clusters.size == 2)
    val big = clusters.find(_.size == 2).get
    assert(big.toSet == Set(Nominee(0, 0), Nominee(1, 1)))
  }

  test("clusterNominees separates substitutable items at the same distance") {
    val inst = starInst
    // items 0 and 2 are substitutes (rS = 0.6): 1 - 2*(0 - 0.6) = 2.2 > 2.0
    val ns = Vector(Nominee(0, 0), Nominee(1, 2))
    val clusters = TMI.clusterNominees(inst, ns, TMI.Config())
    assert(clusters.size == 2)
  }

  test("identifyMarkets: the market contains the MIOA reach of its nominees") {
    val inst = starInst
    val markets = TMI.identifyMarkets(inst, Vector(Vector(Nominee(0, 0))), TMI.Config(thetaMioa = 0.1))
    assert(markets.size == 1)
    val m = markets.head
    assert(m.users.contains(0))
    assert(Set(1, 2, 3, 4).subsetOf(m.users)) // act 0.3 >= 0.1 one hop
    assert(!m.users.contains(5) && !m.users.contains(6))
    assert(m.diameter >= 1)
  }

  test("antagonisticExtent sums cross-market substitutable relevance") {
    val inst = starInst
    val (_, rS) = TMI.initialAvgRel(inst)
    val m1 = TargetMarket(Vector(Nominee(0, 0)), Set(0, 1), 1)
    val m2 = TargetMarket(Vector(Nominee(5, 2)), Set(5, 6), 1)
    // items 0 vs 2: rS = 0.6
    assert(math.abs(TMI.antagonisticExtent(m1, Seq(m2), rS) - 0.6) < 1e-12)
    assert(math.abs(TMI.antagonisticExtent(m2, Seq(m1), rS) - 0.6) < 1e-12)
  }

  test("paper Example 1: markets are promoted in ascending AE order") {
    // three markets promoting iPad(0), iPad(0), iPhone(1); iPad-iPhone rS = 0.5
    // AE(t1) = 0.5, AE(t2) = 0.5, AE(t3) = 0.5 + 0.5 = 1 -> t3 last
    val inst = TestInstances.mk(
      nUsers = 8, nItems = 2,
      edges = Seq((0, 1), (2, 3), (4, 5), (1, 3), (3, 5), (5, 1)),
      metaS = Vector(Array.fill(2, 2)(0.0), TestInstances.sym(2)((0, 1, 0.5))))
    val t1 = TargetMarket(Vector(Nominee(0, 0)), Set(0, 1, 3), 2)
    val t2 = TargetMarket(Vector(Nominee(2, 0)), Set(2, 3, 5), 2)
    val t3 = TargetMarket(Vector(Nominee(4, 1)), Set(4, 5, 1, 3), 2)
    val groups = TMI.groupAndPrioritize(inst, Vector(t3, t1, t2), TMI.Config(thetaCommon = 1))
    assert(groups.size == 1)
    val ordered = groups.head
    assert(ordered.last eq t3, "the doubly-antagonistic market goes last")
  }

  test("groupAndPrioritize: disjoint markets form separate groups") {
    val inst = starInst
    val m1 = TargetMarket(Vector(Nominee(0, 0)), Set(0, 1, 2), 1)
    val m2 = TargetMarket(Vector(Nominee(5, 1)), Set(5, 6), 1)
    val groups = TMI.groupAndPrioritize(inst, Vector(m1, m2), TMI.Config(thetaCommon = 1))
    assert(groups.size == 2)
  }

  test("groupAndPrioritize: groups tied on (nominee count, first user) keep the order of their union-find roots") {
    // eight markets in five groups: {0, 1}, {2}, {3, 4}, {5}, {6, 7}, linked
    // by one shared user; each group holds two nominees, all of user 0, and
    // no item is substitutable, so every group ties on the sort key and
    // keeps the order of its root, the group's lowest market index, in
    // groupBy's hash map (roots 1, 2, 4, 5, 7 come out in another order)
    val inst = TestInstances.mk(nUsers = 20, nItems = 8, edges = Seq((0, 1)))
    val linkedTo = Map(1 -> 0, 4 -> 3, 7 -> 6)
    val markets = (0 until 8).toVector.map { k =>
      val users = Set(10 + k) ++ linkedTo.get(k).map(10 + _)
      val nominees = if (Set(2, 5)(k)) Vector(Nominee(0, k), Nominee(1, k)) else Vector(Nominee(0, k))
      TargetMarket(nominees, users, 1)
    }
    val groups = TMI.groupAndPrioritize(inst, markets, TMI.Config(thetaCommon = 1))
    assert(groups.map(_.map(markets.indexOf(_))) == Vector(Vector(0, 1), Vector(5), Vector(6, 7), Vector(2), Vector(3, 4)))
  }

  test("groupAndPrioritize: theta controls grouping") {
    val inst = starInst
    val m1 = TargetMarket(Vector(Nominee(0, 0)), Set(0, 1, 2), 1)
    val m2 = TargetMarket(Vector(Nominee(5, 1)), Set(1, 2, 5), 1) // 2 common users with m1
    val loose = TMI.groupAndPrioritize(inst, Vector(m1, m2), TMI.Config(thetaCommon = 2))
    assert(loose.size == 1)
    val strict = TMI.groupAndPrioritize(inst, Vector(m1, m2), TMI.Config(thetaCommon = 3))
    assert(strict.size == 2)
  }
}
