package repro.baselines

import repro.core.{Nominee, ProblemInstance}

/** BundleGRD, after the utility-driven welfare maximization of [33]
  * (Sec. VI-A): treats the whole item set as one bundle — it greedily
  * selects '''users''' (not user-item pairs) by marginal frozen spread
  * among the still-affordable users, where seeding a user promotes
  * '''every''' item from that user.
  * It neglects the substitutable relationship and the per-item budget
  * granularity ("regards all items as a bundle to be promoted",
  * Sec. VI-B), which is exactly why it wastes budget on complementary-
  * heavy catalogs like Douban.
  */
object BundleGRD {

  /** Propagation horizon of the frozen spread that scores bundles. */
  val FrozenHops: Int = 3

  /** Selected user-item pairs (a bundle per selected user), in user pick
    * order; round assignment is delegated to [[CRGreedy]].
    *
    * Bundles are truncated to the remaining budget, taking items in
    * descending importance — the budget still lands on few users promoting
    * many items, which is BundleGRD's defining (and wasteful) trait.
    */
  def selectPairs(inst: ProblemInstance, maxCandidates: Int = 400): Vector[Nominee] = {
    val itemsByImportance = (0 until inst.nItems).sortBy(x => (-inst.importance(x), x)).toVector
    // few users end up selected, so a modest user pool suffices (each
    // candidate evaluation re-simulates the whole chosen bundle set)
    val users = repro.core.CandidatePool.users(inst, maxCandidates).take(40)

    def bundleOf(u: Int, budgetLeft: Double): Vector[Nominee] = {
      var left = budgetLeft
      val b = Vector.newBuilder[Nominee]
      itemsByImportance.foreach { x =>
        if (ProblemInstance.fits(inst.cost(u)(x), left)) { left -= inst.cost(u)(x); b += Nominee(u, x) }
      }
      b.result()
    }

    val frozen = FrozenSpread.instance(inst, FrozenHops)
    val selected = Vector.newBuilder[Nominee]
    var chosen = Vector.empty[Nominee]
    var spent = 0.0
    var remaining = users
    var go = true
    while (go && remaining.nonEmpty) {
      val fChosen = if (chosen.isEmpty) 0.0 else FrozenSpread.sigmaOn(frozen, chosen)
      val cands = remaining.map { u =>
        val bundle = bundleOf(u, inst.budget - spent)
        val gain =
          if (bundle.isEmpty) 0.0
          else FrozenSpread.sigmaOn(frozen, chosen ++ bundle) - fChosen
        (u, bundle, gain)
      }
      val (u, bundle, gain) = cands.maxBy(c => (c._3, -c._1))
      if (bundle.isEmpty || gain <= ProblemInstance.MinGain) go = false
      else {
        chosen = chosen ++ bundle
        spent += bundle.iterator.map(n => inst.cost(n.user)(n.item)).sum
        selected ++= bundle
        remaining = remaining.filterNot(_ == u)
      }
    }
    selected.result()
  }

  def run(inst: ProblemInstance, maxCandidates: Int = 400): Vector[repro.core.Seed] =
    CRGreedy.schedule(inst, selectPairs(inst, maxCandidates))
}
