package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestInstances
import repro.baselines.{BundleGRD, HAG, OptBruteForce, PS}
import repro.diffusion.LocalDiffusion
import scala.util.Random

/** Invariants of the diffusion and of every selection algorithm, checked on
  * seeded random instances (a fixed loop of draws in place of a property
  * checker, so every failure names its seed).
  */
class RandomInvariantsSpec extends AnyFunSuite {

  /** A random instance with random costs and a budget that admits a few seeds. */
  private def draw(seed: Long, t: Int): ProblemInstance = {
    val rnd = new Random(seed * 7919)
    val base = TestInstances.random(seed, nUsers = 10 + rnd.nextInt(15), nItems = 2 + rnd.nextInt(5), nEdges = 50)
    base.copy(cost = Array.fill(base.nUsers, base.nItems)(0.3 + 2.5 * rnd.nextDouble()), budget = 1.0 + 3 * rnd.nextDouble(), T = t)
  }

  private def randomSeeds(inst: ProblemInstance, rnd: Random): Seq[Seed] =
    Seq.fill(1 + rnd.nextInt(4))(Seed(rnd.nextInt(inst.nUsers), rnd.nextInt(inst.nItems), 1 + rnd.nextInt(inst.T)))

  test("every a lies in [0, 1], each weighting class sums to 1 and steps <= T * maxSteps") {
    for {
      seed <- 1L to 24L
      t <- Seq(1, 3)
      (pName, params) <- Seq("dynamic" -> Params(), "frozen" -> Params().frozen)
    } {
      val inst = draw(seed, t).withParams(params)
      val seeds = randomSeeds(inst, new Random(seed + 31 * t))
      val res = LocalDiffusion.run(inst, seeds)
      val clue = s"seed=$seed T=$t $pName"
      assert(res.a.forall(_.forall(x => x >= 0.0 && x <= 1.0)), clue)
      for (wv <- res.w; cls <- Seq(inst.cMeta, inst.sMeta) if cls.nonEmpty)
        assert(math.abs(cls.map(wv).sum - 1.0) <= 1e-12, clue)
      assert(res.steps <= t * params.maxSteps, clue)
    }
  }

  private val algorithms: Seq[(String, ProblemInstance => Vector[Seed])] = Seq(
    "Dysim" -> (i => Dysim.run(i, TMI.Config(maxCandidates = 30))),
    "BundleGRD" -> (i => BundleGRD.run(i, maxCandidates = 30)),
    "HAG" -> (i => HAG.run(i, maxCandidates = 30).get),
    "PS" -> (i => PS.run(i, maxCandidates = 30)))

  test("each algorithm's seeds fit the budget, lie in rounds 1..T, repeat no pair and are deterministic") {
    for ((name, run) <- algorithms) {
      val picked = (1L to 6L).count { seed =>
        val inst = draw(seed, 3)
        val seeds = run(inst)
        val clue = s"$name seed=$seed: $seeds"
        assert(inst.withinBudget(seeds), clue)
        assert(seeds.forall(s => s.t >= 1 && s.t <= inst.T), clue)
        assert(seeds.map(_.nominee).distinct.size == seeds.size, clue)
        assert(run(inst) == seeds, clue)
        seeds.size > 1
      }
      assert(picked > 0, s"$name never picked two seeds")
    }
  }

  test("a budget below every cost gives no seeds and no failure") {
    for (seed <- 1L to 5L) {
      val inst = draw(seed, 3)
      val broke = inst.withBudget(inst.cost.iterator.flatten.min / 2)
      for ((name, run) <- algorithms) assert(run(broke).isEmpty, s"$name seed=$seed")
      val pool = OptBruteForce.defaultPool(broke, poolSize = 6)
      assert(OptBruteForce.run(broke, pool, maxSeeds = 2)._1.isEmpty, s"OPT seed=$seed")
    }
  }
}
