package repro.baselines

import repro.core.{Nominee, ProblemInstance, Seed}
import repro.diffusion.LocalDiffusion
import repro.dynamics.Dynamics

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

  /** Relative and absolute margin of [[singletonBound]] over the linear
    * bound, so that rounding in either sum cannot put it below f.
    */
  val BoundMargin: Double = 1e-9
  val BoundFloor: Double = 1e-12

  /** An upper bound on `sigmaOn(frozen, Seq(Nominee(u, x)))` at (u)(x), for
    * every user u and item x, from one adjoint pass of the linearized
    * frozen step (DESIGN.md Sec. 4, "Singleton bound"):
    * G₀(v,y) = imp(y) and
    * Gₖ(u,x) = Σ_{v∈out(u)} P_act(u,v)·P_pref(v,x)·(Gₖ₋₁(v,x) + extraScale·Σ_y A₀(x,y)·Gₖ₋₁(v,y)),
    * with A₀(x,y) = min(1, 1/Σ_c w0_c·R_c(x))·Σ_c w0_c·s_c(x,y), whose cap
    * is [[Dynamics.assocCap]] at the initial weightings w0; the bound
    * is Σ_{k=0..hops} Gₖ, times 1 + [[BoundMargin]], plus [[BoundFloor]].
    * Costs hops·(nUsers·nnz(A₀) + arcs·nItems).
    */
  def singletonBound(frozen: ProblemInstance): Array[Array[Double]] = {
    val p = frozen.params
    require(p.eta == 0.0 && p.beta == 0.0 && p.gamma == 0.0 && frozen.T == 1,
      "singletonBound takes an instance built by FrozenSpread.instance")
    require(frozen.importance.forall(_ >= 0.0), "singletonBound needs non-negative importance")
    val n = frozen.nUsers
    val nI = frozen.nItems
    // the frozen weightings: with η = 0 every user keeps the initial ones
    val w0 = Dynamics.initUserWeights(frozen)
    val cMeta = frozen.cMeta.toArray
    val cNbrs = cMeta.map(frozen.metaNbrs)
    val cap = Array.tabulate(nI)(Dynamics.assocCap(w0, cMeta, cNbrs, _))
    val pPref = Array.tabulate(n, nI)((v, x) => Dynamics.pref(frozen, frozen.basePref(v)(x), 0.0))
    val act = Array.tabulate(n)(v => frozen.inAct(v).map(Dynamics.act(frozen, _, 0.0)))
    var g = Array.fill(n)(frozen.importance.clone())
    val bound = g.map(_.clone())
    val h = new Array[Double](nI)
    var k = 1
    while (k <= p.maxSteps) {
      val next = Array.ofDim[Double](n, nI)
      var v = 0
      while (v < n) {
        val nbrs = frozen.inNbr(v)
        if (nbrs.nonEmpty) {
          // h(x) = P_pref(v,x)·(G(v,x) + extraScale·Σ_y A₀(x,y)·G(v,y))
          val gv = g(v)
          var x = 0
          while (x < nI) {
            var assoc = 0.0
            var c = 0
            while (c < cMeta.length) {
              val wc = w0(cMeta(c))
              val ys = cNbrs(c).nbr
              val ss = cNbrs(c).s
              var j = cNbrs(c).start(x)
              val end = cNbrs(c).start(x + 1)
              while (j < end) { assoc += wc * ss(j) * gv(ys(j)); j += 1 }
              c += 1
            }
            h(x) = pPref(v)(x) * (gv(x) + p.extraScale * cap(x) * assoc)
            x += 1
          }
          // every arc u → v carries P_act(u,v)·h back to u
          var i = 0
          while (i < nbrs.length) {
            val gu = next(nbrs(i))
            val pa = act(v)(i)
            x = 0
            while (x < nI) { gu(x) += pa * h(x); x += 1 }
            i += 1
          }
        }
        v += 1
      }
      g = next
      var u = 0
      while (u < n) {
        var x = 0
        while (x < nI) { bound(u)(x) += g(u)(x); x += 1 }
        u += 1
      }
      k += 1
    }
    bound.map(_.map(b => b * (1.0 + BoundMargin) + BoundFloor))
  }
}

/** CELF lazy greedy [21] for budgeted submodular-style selection.
  *
  * With `useRatio = true` the pick criterion is marginal gain per cost
  * (the MCP of Dysim's TMI). With `useRatio = false` it is the raw
  * marginal gain among still-affordable elements — the paper's extension
  * of the baselines to heterogeneous costs ("selecting from the user-item
  * pairs that satisfy the remaining budget", Sec. VI-A), which is exactly
  * what makes them less cost-effective than MCP.
  *
  * Bound-first start (UBLF, Zhou et al., ICDM 2013): every element enters
  * the queue keyed by an upper bound on its singleton value f({a}). When
  * such an entry is first popped, f({a}) is computed and the entry is
  * re-queued with the key eager CELF gives it before round 1. In round 1,
  * f({a}) is f(chosen + a) itself, so the entry goes back fresh and its
  * next pop picks it without a second simulation. Equal keys go to the
  * bound entry, then to the element earlier in `pool`. So the queue pops
  * the exact entries in eager CELF's order, and the picks are eager CELF's
  * for any valid bounds; with the default bound +∞ every singleton is
  * computed first, in pool order, as in eager CELF.
  */
object Celf {

  /** A queue entry: `key` ranks it, `gain` is the element's marginal gain
    * (its bound while `when` is [[Bounded]]), `fWith` is f(chosen + a) when
    * `when` is the current round, and `when` is the round of that value.
    */
  private final class Entry(val key: Double, val idx: Int, val gain: Double, val fWith: Double, val when: Int)

  private val Bounded = -1

  /** By key, then bound entries, then the earlier pool index. */
  private val Order: Ordering[Entry] = (x: Entry, y: Entry) => {
    val byKey = java.lang.Double.compare(x.key, y.key)
    if (byKey != 0) byKey
    else if ((x.when == Bounded) != (y.when == Bounded)) { if (x.when == Bounded) 1 else -1 }
    else Integer.compare(y.idx, x.idx)
  }

  /** @param pool     candidate elements
    * @param cost     element cost (must be > 0)
    * @param budget   knapsack budget
    * @param f        set function (monotone; evaluated from scratch per call)
    * @param useRatio rank by gain/cost (true) or raw gain (false)
    * @param bound    upper bound on f({a}) per element; an exact singleton
    *                 above its bound fails the selection
    * @param single   f({a}) per element (default: f(Set(a))); callers that
    *                 need the singletons elsewhere pass a memoized one
    * @return selected elements in pick order; selection stops once the best
    *         marginal gain is at most [[ProblemInstance.MinGain]]
    */
  def select[A](
      pool: IndexedSeq[A],
      cost: A => Double,
      budget: Double,
      f: Set[A] => Double,
      useRatio: Boolean = true,
      bound: A => Double = (_: A) => Double.PositiveInfinity,
      single: A => Double = null.asInstanceOf[A => Double]): Vector[A] = {
    pool.foreach(a => require(cost(a) > 0.0, s"non-positive cost for $a"))
    def key(g: Double, c: Double): Double = if (useRatio) g / c else g
    val singleton: A => Double = if (single != null) single else a => f(Set(a))
    val selected = Vector.newBuilder[A]
    var chosen = Set.empty[A]
    var fChosen = 0.0
    var spent = 0.0
    var round = 0
    val pq = scala.collection.mutable.PriorityQueue.empty[Entry](Order)
    pool.indices.foreach { i =>
      val b = bound(pool(i))
      require(!b.isNaN, s"NaN bound for ${pool(i)}")
      pq.enqueue(new Entry(key(b, cost(pool(i))), i, b, Double.NaN, Bounded))
    }
    var done = pq.isEmpty
    while (!done) {
      round += 1
      var picked = false
      while (!picked && pq.nonEmpty) {
        val e = pq.dequeue()
        val a = pool(e.idx)
        if (chosen.contains(a) || !ProblemInstance.fits(cost(a), budget - spent)) {
          // unaffordable or already in: drop permanently (costs are fixed)
        } else if (e.when == Bounded) {
          val s = singleton(a)
          require(s <= e.gain, s"f({$a}) = $s exceeds its bound ${e.gain}")
          if (round == 1) pq.enqueue(new Entry(key(s, cost(a)), e.idx, s, s, round))
          else pq.enqueue(new Entry(key(s, cost(a)), e.idx, s, Double.NaN, 0))
        } else if (e.when == round) {
          if (e.gain > ProblemInstance.MinGain) {
            chosen += a
            fChosen = e.fWith // f(chosen) of the new set, computed this round
            spent += cost(a)
            selected += a
          } else done = true
          picked = true // fresh top either selected or below the gain floor
        } else {
          val fWith = f(chosen + a)
          val g = fWith - fChosen
          pq.enqueue(new Entry(key(g, cost(a)), e.idx, g, fWith, round))
        }
      }
      if (pq.isEmpty) done = true
    }
    selected.result()
  }
}
