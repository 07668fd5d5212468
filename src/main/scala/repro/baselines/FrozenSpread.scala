package repro.baselines

import repro.core.{Nominee, ProblemInstance, Seed}
import repro.diffusion.LocalDiffusion

/** The frozen-probability spread function f of TMI's MCP (Sec. IV-B.1):
  * σ with the nominees seeded in the first promotion and P_pref, P_act,
  * P_ext fixed at their initial values — i.e. the campaign simulator with
  * all dynamics disabled (`Params.frozen`) and one promotion of at most
  * `hops` steps.
  */
object FrozenSpread {

  def instance(inst: ProblemInstance, hops: Int): ProblemInstance =
    inst.withParams(inst.params.frozen.copy(maxSteps = hops)).withT(1)

  /** f on an instance built once by [[instance]] (selection loops call
    * this, so each evaluation skips the instance rebuild).
    */
  def sigmaOn(frozen: ProblemInstance, nominees: Iterable[Nominee]): Double =
    LocalDiffusion.sigma(frozen, nominees.iterator.map(n => Seed(n.user, n.item, 1)).toSeq)

  def sigma(inst: ProblemInstance, nominees: Iterable[Nominee], hops: Int = 3): Double =
    sigmaOn(instance(inst, hops), nominees)
}

/** CELF lazy greedy [21] for budgeted submodular-style selection.
  *
  * With `useRatio = true` the pick criterion is marginal gain per cost
  * (the MCP of Dysim's TMI). With `useRatio = false` it is the raw
  * marginal gain among still-affordable elements — the paper's extension
  * of the baselines to heterogeneous costs ("selecting from the user-item
  * pairs that satisfy the remaining budget", Sec. VI-A), which is exactly
  * what makes them less cost-effective than MCP.
  */
object Celf {

  /** @param pool      candidate elements
    * @param cost      element cost (must be > 0)
    * @param budget    knapsack budget
    * @param f         set function (monotone; evaluated from scratch per call)
    * @param useRatio  rank by gain/cost (true) or raw gain (false)
    * @param initGains precomputed f({a}) per element (skips the first
    *                  full-pool evaluation round when the caller already
    *                  has the singleton gains)
    * @return selected elements in pick order; selection stops once the best
    *         marginal gain is at most [[ProblemInstance.MinGain]]
    */
  def select[A](
      pool: IndexedSeq[A],
      cost: A => Double,
      budget: Double,
      f: Set[A] => Double,
      useRatio: Boolean = true,
      initGains: A => Double = null.asInstanceOf[A => Double]): Vector[A] = {
    pool.foreach(a => require(cost(a) > 0.0, s"non-positive cost for $a"))
    def key(g: Double, c: Double): Double = if (useRatio) g / c else g
    val selected = Vector.newBuilder[A]
    var chosen = Set.empty[A]
    var fChosen = 0.0
    var spent = 0.0
    // (rank key, marginal gain, element, round at which the bound was computed)
    var round = 0
    val pq = scala.collection.mutable.PriorityQueue.empty[(Double, Double, A, Int)](Ordering.by(_._1))
    pool.foreach { a =>
      val g = if (initGains != null) initGains(a) else f(Set(a))
      pq.enqueue((key(g, cost(a)), g, a, 0))
    }
    var done = pq.isEmpty
    while (!done) {
      round += 1
      var picked = false
      while (!picked && pq.nonEmpty) {
        val (_, gain, a, when) = pq.dequeue()
        if (chosen.contains(a) || !ProblemInstance.fits(cost(a), budget - spent)) {
          // unaffordable or already in: drop permanently (costs are fixed)
        } else if (when == round) {
          if (gain > ProblemInstance.MinGain) {
            chosen += a
            fChosen = f(chosen)
            spent += cost(a)
            selected += a
          } else done = true
          picked = true // fresh top either selected or below the gain floor
        } else {
          val g = f(chosen + a) - fChosen
          pq.enqueue((key(g, cost(a)), g, a, round))
        }
      }
      if (pq.isEmpty) done = true
    }
    selected.result()
  }
}
