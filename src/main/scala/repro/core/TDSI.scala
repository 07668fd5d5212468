package repro.core

import repro.diffusion.{DiffusionResult, LocalDiffusion}

/** Phase 3 of Dysim — Timing Determination by Substantial Influence
  * (Sec. IV-B.3, Eqs. 2, 5, 6, 7): for a candidate seed (u, x_p, t),
  *
  *   SI = MA(S^G, (u,x_p,t)) + ((T − t + 1)/T) · ML(S^G, (u,x_p,t)),
  *
  * where MA is the marginal importance-aware influence in the market τ_k
  * and ML the marginal future-adoption likelihood π in τ_k, both under the
  * already-scheduled seeds S^G.
  */
object TDSI {

  /** The pruned timing search window of Algorithm 1 line 17:
    * t ∈ [t̂, min(t̂+1, T^τk + max{t' ∈ S^{τ_{k−1}}})], clamped to [1, T].
    * `tHat` is the latest promotion in the seed group so far (1 if empty);
    * `maxTPrev` is 0 for the group's first market.
    */
  def window(tHat: Int, tTauK: Int, maxTPrev: Int, totalT: Int): Range = {
    val lo = math.min(totalT, math.max(1, tHat))
    val hi = math.max(lo, math.min(totalT, math.min(tHat + 1, tTauK + maxTPrev)))
    lo to hi
  }

  /** The campaign of `seeds` restricted to the market's users plus all
    * seeded users (so earlier promotions still reach the market) — the
    * diffusion behind σ^τ, π^τ and DRE's dynamic relevance.
    */
  def marketDiffusion(inst: ProblemInstance, seeds: Seq[Seed], marketMask: Array[Boolean]): DiffusionResult = {
    val diffuse = marketMask.clone()
    seeds.foreach(s => diffuse(s.user) = true)
    LocalDiffusion.run(inst, seeds, Some(diffuse))
  }

  /** Evaluation of σ^τ and π^τ for a seed group over [[marketDiffusion]]. */
  final case class MarketEval(sigma: Double, pi: Double)

  def evalMarket(inst: ProblemInstance, seeds: Seq[Seed], marketMask: Array[Boolean]): MarketEval = {
    val res = marketDiffusion(inst, seeds, marketMask)
    MarketEval(
      LocalDiffusion.sigmaOf(inst, res, Some(marketMask)),
      LocalDiffusion.pi(inst, res, Some(marketMask)))
  }

  /** SI of a candidate (Eq. 2) given the evaluation of the current S^G. */
  def si(inst: ProblemInstance, sG: Seq[Seed], base: MarketEval, cand: Seed, marketMask: Array[Boolean]): Double = {
    val withC = evalMarket(inst, sG :+ cand, marketMask)
    val ma = withC.sigma - base.sigma
    val ml = withC.pi - base.pi
    ma + ((inst.T - cand.t + 1).toDouble / inst.T) * ml
  }

  /** Assign timings to all nominees `np` (same item) of market τ_k:
    * iteratively extract the (u, x_p, t) with the largest SI.
    * Returns the chosen seeds in pick order.
    */
  def assignTimings(
      inst: ProblemInstance,
      s: scala.collection.mutable.ArrayBuffer[Seed], // global S, mutated as seeds are chosen
      sPrevMarket: Seq[Seed],
      tTauK: Int,
      np: Vector[Nominee],
      marketMask: Array[Boolean]): Vector[Seed] = {
    val maxTPrev = if (sPrevMarket.isEmpty) 0 else sPrevMarket.map(_.t).max
    var remaining = np
    val out = Vector.newBuilder[Seed]
    while (remaining.nonEmpty) {
      val tHat = if (s.isEmpty) 1 else s.map(_.t).max
      val base = evalMarket(inst, s.toSeq, marketMask)
      val cands = for (n <- remaining; t <- window(tHat, tTauK, maxTPrev, inst.T))
        yield Seed(n.user, n.item, t)
      val best = cands.maxBy(c => (si(inst, s.toSeq, base, c, marketMask), -c.t, -c.user))
      s += best
      out += best
      remaining = remaining.filterNot(n => n.user == best.user && n.item == best.item)
    }
    out.result()
  }
}
