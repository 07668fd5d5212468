package repro.core

/** Shared candidate-pool builder: the nominee universe U = V × I is capped
  * for tractability (the paper ran days on a 1 TB server; DESIGN.md
  * Sec. 2). Pairs are ranked by a cheap proxy of their individual spread —
  * importance · preference · (1 + out-degree) — and the pool takes the top
  * half by proxy gain '''per cost''' (the cost-effective regime Dysim's
  * MCP lives in) plus the top half by raw proxy gain (the expensive-hub
  * regime the raw-gain baselines live in), affordable pairs only.
  */
object CandidatePool {

  /** Proxy for the individual frozen spread of seeding (u, x). */
  def proxyGain(inst: ProblemInstance, u: Int, x: Int): Double =
    inst.importance(x) * inst.basePref(u)(x) * (1.0 + inst.outDegree(u))

  /** Up to `maxCandidates` affordable pairs, both regimes represented. */
  def pairs(inst: ProblemInstance, maxCandidates: Int): Vector[Nominee] = {
    require(maxCandidates >= 1, "need a positive pool cap")
    split(inst, maxCandidates)(n => proxyGain(inst, n.user, n.item))
  }

  /** The two-regime split under any individual `gain`: up to `size`
    * affordable pairs, the top half (rounded up) by gain per cost, then the
    * top by raw gain. Ties go to the other score, then to the smallest
    * (user, item).
    */
  def split(inst: ProblemInstance, size: Int)(gain: Nominee => Double): Vector[Nominee] = {
    val pool = for {
      u <- (0 until inst.nUsers).toVector
      x <- 0 until inst.nItems
      if ProblemInstance.fits(inst.cost(u)(x), inst.budget)
    } yield Nominee(u, x)
    val g = pool.map(gain).toArray
    val negGain = g.map(v => -v)
    val negRatio = Array.tabulate(pool.length)(i => -(g(i) / inst.cost(pool(i).user)(pool(i).item)))
    // `pool` is in ascending (user, item) order, so the index breaks the
    // last ties; Double.compare is the total order of Ordering[Double]
    def by(first: Array[Double], second: Array[Double]): Vector[Nominee] = {
      val idx = Array.tabulate[Integer](pool.length)(i => i)
      java.util.Arrays.sort(idx, (i: Integer, j: Integer) => {
        val c = java.lang.Double.compare(first(i), first(j))
        if (c != 0) c
        else {
          val d = java.lang.Double.compare(second(i), second(j))
          if (d != 0) d else Integer.compare(i, j)
        }
      })
      idx.iterator.map(i => pool(i)).toVector
    }
    (by(negRatio, negGain).take((size + 1) / 2) ++ by(negGain, negRatio)).distinct.take(size)
  }

  /** Distinct users of [[pairs]] (for user-level algorithms like BundleGRD). */
  def users(inst: ProblemInstance, maxCandidates: Int): Vector[Int] =
    pairs(inst, maxCandidates).map(_.user).distinct
}
