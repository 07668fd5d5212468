package repro.baselines

import repro.core.{Nominee, ProblemInstance, Seed}
import repro.social.MIOA

/** PS, after the multi-grade revenue maximization of [20] (Sec. VI-A):
  * scores each user-item pair '''alone''' — no marginal interaction with
  * already-selected seeds — via maximum influence paths, then selects by
  * score among the still-affordable pairs (the Sec. VI-A cost extension)
  * with a degree-discount-style correction (Sec. VI-B:
  * "PS only estimates the influence of a seed alone"; "employs a
  * discounting strategy", which is why it is cheap but weak).
  *
  * score(u, x) = w_x · Σ_v mip(u→v) · basePref(v, x), where mip is the
  * best path probability over the static P_act (Dijkstra per user — the
  * cost center the paper attributes to PS).
  */
object PS {

  /** Path-probability threshold of the maximum-influence-path reach. */
  val ThetaPath: Double = 0.01

  def selectPairs(inst: ProblemInstance, maxCandidates: Int = 400): Vector[Nominee] = {
    val outAdj = MIOA.outAdjacency(inst.inNbr, inst.inAct)
    val pool = repro.core.CandidatePool.pairs(inst, maxCandidates)
    val users = pool.map(_.user).distinct
    // maximum-influence-path reach per candidate user (the expensive scan)
    val reach: Map[Int, Map[Int, Double]] =
      users.iterator.map(u => u -> MIOA.reachLocal(outAdj, Seq(u), ThetaPath)).toMap
    val score = scala.collection.mutable.HashMap.empty[Nominee, Double]
    pool.foreach { n =>
      var sc = 0.0
      reach(n.user).foreach { case (v, p) => sc += p * inst.basePref(v)(n.item) }
      score(n) = inst.importance(n.item) * sc
    }
    val selected = Vector.newBuilder[Nominee]
    var budgetLeft = inst.budget
    var continue = true
    while (continue) {
      val affordable = score.iterator.filter { case (n, _) => ProblemInstance.fits(inst.cost(n.user)(n.item), budgetLeft) }
      // exact score ties go to the smallest (user, item), whatever the
      // map's iteration order (scores are finite and >= +0)
      affordable.maxByOption { case (n, s) => (s, -n.user, -n.item) } match {
        case Some((n, sc)) if sc > 1e-12 =>
          selected += n
          budgetLeft -= inst.cost(n.user)(n.item)
          score.remove(n)
          // degree-discount: out-neighbors of n.user are partially covered for n.item
          inst.outNbr(n.user).foreach { v =>
            val key = Nominee(v, n.item)
            score.get(key).foreach { s =>
              val idx = inst.inNbr(v).indexOf(n.user)
              val p = if (idx >= 0) inst.inAct(v)(idx) else 0.0
              score(key) = s * (1.0 - p)
            }
          }
        case _ => continue = false
      }
    }
    selected.result()
  }

  def run(inst: ProblemInstance, maxCandidates: Int = 400): Vector[Seed] =
    CRGreedy.schedule(inst, selectPairs(inst, maxCandidates))
}
