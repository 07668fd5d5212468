package repro.baselines

import repro.core.{Nominee, ProblemInstance, Seed}

/** HAG, after "when social influence meets item inference" [10]
  * (Sec. VI-A): greedily selects the most influential user-item '''pair'''
  * combination by marginal influence per cost. It is item-association
  * aware (its spread evaluation includes the extra-adoption channel) but
  * its perceptions are static — it evaluates the full single-shot
  * diffusion with frozen perception/preference/influence dynamics.
  *
  * Faithful cost profile: HAG re-simulates the whole diffusion for each
  * candidate pair (CELF-pruned), so its runtime blows up with the budget
  * and the network size — the paper's Fig. 6(c) omits HAG because it could
  * not finish within 12 hours; [[run]] takes a `timeoutMs` reproducing
  * that behaviour (returns None on timeout).
  */
object HAG {

  def selectPairs(
      inst: ProblemInstance,
      maxCandidates: Int = 400,
      timeoutMs: Long = Long.MaxValue): Option[Vector[Nominee]] = {
    val pool = repro.core.CandidatePool.pairs(inst, maxCandidates)
    val deadline = if (timeoutMs == Long.MaxValue) Long.MaxValue else System.nanoTime() + timeoutMs * 1000000L
    // frozen spread without the 3-4 hop limit of TMI/BundleGRD: associations
    // included, dynamics frozen — the expensive part HAG is known for
    val frozen = FrozenSpread.instance(inst, inst.params.maxSteps)
    def f(set: Set[Nominee]): Double = {
      if (System.nanoTime() > deadline) throw new HagTimeout
      FrozenSpread.sigmaOn(frozen, set)
    }
    // raw marginal gain among affordable pairs (Sec. VI-A extension), not
    // gain per cost — cost-effectiveness is Dysim's MCP, not HAG's
    try Some(Celf.select[Nominee](pool, n => inst.cost(n.user)(n.item), inst.budget, f, useRatio = false))
    catch { case _: HagTimeout => None }
  }

  /** None = timed out (the paper reports HAG as absent in that case). */
  def run(
      inst: ProblemInstance,
      maxCandidates: Int = 400,
      timeoutMs: Long = Long.MaxValue): Option[Vector[Seed]] =
    selectPairs(inst, maxCandidates, timeoutMs).map(CRGreedy.schedule(inst, _))

  private final class HagTimeout extends RuntimeException("HAG timeout")
}
