package repro.baselines

import repro.core.{CandidatePool, Nominee, ProblemInstance, Seed}
import repro.diffusion.LocalDiffusion

/** OPT: exhaustive search over seed groups (Sec. VI-B compares against a
  * brute-force optimum on 100-user samples). Exponential, so the search
  * space is a restricted candidate pool of user-item pairs crossed with
  * all rounds, subsets up to `maxSeeds`, subject to the budget — the same
  * restriction any brute force on this problem needs (documented in
  * DESIGN.md / EXPERIMENTS.md).
  */
object OptBruteForce {

  /** Propagation horizon of the frozen spread that ranks [[defaultPool]]. */
  val FrozenHops: Int = 3

  /** Default pool: the affordable pairs with the best individual frozen
    * spread — half taken by spread per cost (the cost-effective picks),
    * half by raw spread (the expensive-hub picks), so the exhaustive
    * search sees both regimes ([[CandidatePool.split]]).
    */
  def defaultPool(inst: ProblemInstance, poolSize: Int): Vector[Nominee] = {
    val frozen = FrozenSpread.instance(inst, FrozenHops)
    CandidatePool.split(inst, poolSize)(n => FrozenSpread.sigmaOn(frozen, Seq(n)))
  }

  /** Exhaustive maximization of the dynamic σ over subsets (≤ maxSeeds) of
    * pool × rounds within budget. Returns (best seed group, its σ).
    */
  def run(inst: ProblemInstance, pool: Vector[Nominee], maxSeeds: Int): (Vector[Seed], Double) = {
    val options: Vector[Seed] =
      (for (n <- pool; t <- 1 to inst.T) yield Seed(n.user, n.item, t)).toVector
    var best = (Vector.empty[Seed], 0.0)

    def rec(startIdx: Int, chosen: List[Seed], costSoFar: Double, usedPairs: Set[Nominee]): Unit = {
      if (chosen.nonEmpty) {
        val sig = LocalDiffusion.sigma(inst, chosen)
        if (sig > best._2) best = (chosen.toVector, sig)
      }
      if (chosen.length < maxSeeds) {
        var i = startIdx
        while (i < options.length) {
          val s = options(i)
          val pair = Nominee(s.user, s.item)
          val c = inst.cost(s.user)(s.item)
          // a pair may be seeded at multiple rounds per the paper, but the
          // re-seeding of an already-adopted (u, x) is a no-op; skip it.
          if (!usedPairs.contains(pair) && ProblemInstance.fits(costSoFar + c, inst.budget))
            rec(i + 1, s :: chosen, costSoFar + c, usedPairs + pair)
          i += 1
        }
      }
    }
    rec(0, Nil, 0.0, Set.empty)
    best
  }
}
