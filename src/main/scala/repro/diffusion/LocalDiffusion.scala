package repro.diffusion

import repro.core.{ProblemInstance, Seed}
import repro.dynamics.Dynamics

/** Final state of a campaign simulation.
  *
  * @param a     expected adoption probability per (user, item)
  * @param w     per-user meta-graph weightings at the end of the campaign
  * @param steps total mean-field steps executed across all promotions
  */
final case class DiffusionResult(a: Array[Array[Double]], w: Array[Array[Double]], steps: Int)

/** Driver-local mean-field campaign simulator — the one implementation of
  * the diffusion process of Sec. III with the dynamic factors of Sec. V-A
  * (formulas in [[repro.dynamics.Dynamics]]). `ReferenceDiffusionSpec`
  * checks it against `repro.ReferenceDiffusion`, a dense transcription of
  * DESIGN.md Sec. 4 in the test sources.
  *
  * Semantics per promotion t = 1..T:
  *  - at ζ_t = 0 the round's seeds adopt deterministically (a := 1) and
  *    perceptions update;
  *  - at each step ζ_t ≥ 1, last step's new (expected) adoptions send
  *    promotions over social arcs with the dynamic P_act, adoption deltas
  *    are (1−a)·q·P_pref, item associations add (1−a)·q·P_pref(x)·r^C·scale
  *    extra deltas, then weightings / preferences / influence update;
  *  - a promotion stops when no delta exceeds `params.eps` or after
  *    `params.maxSteps` steps.
  *
  * `mask` (if given) restricts the diffusion to the induced subgraph of the
  * masked users (used for per-target-market evaluations σ^τ in TDSI).
  *
  * Association step (DESIGN.md Sec. 4). A receiver's association terms
  * q·P_pref(x)·extraScale·min(1, 1/Σ_y r^C(x,y))·W(c)·s_c(x,y) are summed
  * per item y over all promoted x first, and each sum is multiplied by
  * (1 − a(v,y)) once; the cap is [[repro.dynamics.Dynamics.assocCap]], whose
  * row sum is Σ_c W(c)·R_c(x) over the static row sums
  * [[repro.core.MetaNbrs.rowSum]]. This is the formula in another
  * summation order: equal in real arithmetic, and within 1e-12 of the
  * term-by-term sum in floating point (`KernelGoldenSpec`).
  *
  * Exact fast paths (DESIGN.md Sec. 4). Apart from that order, the
  * simulator skips only work whose result cannot change a bit of `a`, `w`
  * or `steps`:
  *  - zero rates (`Params.frozen` and any rate set to 0): with γ = 0 the
  *    similarity is not computed (P_act = base + 0·sim = base); with β = 0
  *    the cross-elasticity is not computed (P_pref = base + 0·contrib); with
  *    η = 0 the weightings are not updated: W0 + 0·e = W0 for every
  *    evidence e, and with W0 = 1 the normalized W0/ΣW0 is the bits of
  *    [[repro.dynamics.Dynamics.initUserWeights]], which every row holds
  *    from [[start]] on (`DynamicsSpec` pins this). `Params`
  *    requires the rates to be finite and non-negative, so 0·x is ±0 and
  *    adding it changes nothing;
  *  - per-step state lives in reused primitive buffers. Each user's deltas
  *    within a step depend only on last step's state and its own row, so a
  *    receiver's deltas are applied as soon as they are computed; every other
  *    sum and product keeps the order of the dense formulation. A moved
  *    user's step deltas are a dense row with 0 for each item it did not
  *    move on; the 1 − q product multiplies that item by 1 − 0·P_act = 1
  *    exactly;
  *  - forks: round t depends only on the state at its start and the seeds
  *    of rounds ≥ t, and that state depends only on the seeds of rounds < t
  *    and the mask. So a campaign S :+ c with c at round t, resumed
  *    ([[resume]]) from S's [[RoundState]] at round t, equals `run(S :+ c)`
  *    bit for bit. [[resume]] runs on the state's instance and mask and
  *    checks that the seeds of rounds < t are the state's. [[run]] is the
  *    resume from round 1; there is one step loop.
  */
object LocalDiffusion {

  /** Per-user deltas of one step: `moved(v)` marks the users with a delta,
    * and `delta(v)` holds every item's delta of a moved user, 0 where it has
    * none. A row is allocated at its user's first delta and reused after.
    */
  private final class Deltas(n: Int, nI: Int) {
    val delta = new Array[Array[Double]](n)
    val moved = new Array[Boolean](n)

    def row(v: Int): Array[Double] = {
      if (delta(v) == null) delta(v) = new Array[Double](nI)
      delta(v)
    }

    def clear(): Unit = java.util.Arrays.fill(moved, false)
  }

  /** The whole state of a campaign at the start of round `t`: adoptions
    * `a`, weightings `w`, per-user adoption mass `sumA` and the steps run so
    * far. At a round boundary the step buffers are empty and the frontier is
    * rebuilt from `a`, so nothing else is needed to resume. The arrays are private copies;
    * [[resume]] never writes them. `prefix` (the seeds of rounds < t),
    * `mask` and `inst` are what the state was produced under.
    */
  final class RoundState private[LocalDiffusion] (
      val t: Int,
      private[LocalDiffusion] val inst: ProblemInstance,
      private[LocalDiffusion] val prefix: Set[Seed],
      private[LocalDiffusion] val mask: Array[Boolean],
      private[LocalDiffusion] val a: Array[Array[Double]],
      private[LocalDiffusion] val w: Array[Array[Double]],
      private[LocalDiffusion] val sumA: Array[Double],
      private[LocalDiffusion] val steps: Int) {

    private[LocalDiffusion] def copy(): RoundState =
      new RoundState(t, inst, prefix, mask, a.map(_.clone()), w.map(_.clone()), sumA.clone(), steps)
  }

  /** The state before round 1: nothing adopted, initial weightings. */
  def start(inst: ProblemInstance, mask: Option[Array[Boolean]] = None): RoundState = {
    requireUserMask(inst, mask, "mask")
    val w0 = Dynamics.initUserWeights(inst)
    new RoundState(
      1, inst, Set.empty, mask.map(_.clone()).orNull,
      Array.fill(inst.nUsers)(new Array[Double](inst.nItems)), Array.fill(inst.nUsers)(w0.clone()),
      new Array[Double](inst.nUsers), 0)
  }

  private def requireUserMask(inst: ProblemInstance, mask: Option[Array[Boolean]], name: String): Unit =
    mask.foreach(m => require(m.length == inst.nUsers, s"$name has ${m.length} entries, expected nUsers=${inst.nUsers}"))

  /** The campaign `seeds` over rounds 1..T. */
  def run(inst: ProblemInstance, seeds: Seq[Seed], mask: Option[Array[Boolean]] = None): DiffusionResult =
    simulate(start(inst, mask), seeds, record = false)._1

  /** The campaign `seeds` resumed from `from`: rounds from.t..T run on a
    * copy of the state, under its instance and mask, so one state can be
    * forked any number of times. The result equals `run(inst, seeds, mask)`
    * bit for bit, because the rounds before from.t depend only on the seeds
    * of those rounds; this call therefore requires that `seeds` of rounds
    * < from.t equal the ones `from` was produced under. It also returns the
    * campaign's state at the start of every round from.t..T, in round
    * order, with `from` itself first.
    */
  def resume(from: RoundState, seeds: Seq[Seed]): (DiffusionResult, Vector[RoundState]) = {
    val (res, later) = simulate(from.copy(), seeds, record = true)
    (res, from +: later)
  }

  /** Runs rounds st.t..T, updating `st`'s arrays in place; with `record`,
    * also returns the state at the start of every round st.t+1..T.
    */
  private def simulate(st: RoundState, seeds: Seq[Seed], record: Boolean): (DiffusionResult, Vector[RoundState]) = {
    val inst = st.inst
    seeds.foreach { s =>
      require(s.t <= inst.T, s"seed round ${s.t} exceeds T=${inst.T}")
      require(s.user >= 0 && s.user < inst.nUsers && s.item >= 0 && s.item < inst.nItems, s"bad seed $s")
    }
    require(st.t == 1 || seeds.iterator.filter(_.t < st.t).toSet == st.prefix,
      s"round state was produced under other seeds before round ${st.t}")
    val n = inst.nUsers
    val nI = inst.nItems
    val p = inst.params
    val mk = st.mask
    def active(v: Int): Boolean = mk == null || mk(v)
    val a = st.a
    val w = st.w
    val sumA = st.sumA
    val cMeta = inst.cMeta.toArray
    val cNbrs = cMeta.map(inst.metaNbrs)

    // zero-rate fast paths (see the object doc)
    val useSim = p.gamma != 0.0
    val usePref = p.beta != 0.0
    val useW = p.eta != 0.0

    // applies the raw deltas of user v (zeroing `raw`), writes them to v's
    // row of `out` if v moved and returns the largest one
    def applyRow(v: Int, raw: Array[Double], out: Deltas): Double = {
      val av = a(v)
      var dv: Array[Double] = null // v's row of `out`, taken at its first delta
      var maxD = 0.0
      var x = 0
      while (x < nI) {
        val r = raw(x)
        raw(x) = 0.0
        val d = if (r > 0.0) math.max(math.min(r, 1.0 - av(x)), 0.0) else 0.0
        if (d > 0.0) {
          if (dv == null) { dv = out.row(v); java.util.Arrays.fill(dv, 0, x, 0.0); out.moved(v) = true }
          av(x) += d
          sumA(v) += d
          if (d > maxD) maxD = d
        }
        if (dv != null) dv(x) = d
        x += 1
      }
      if (dv != null && useW) Dynamics.updateUserWeights(inst, av, w(v))
      maxD
    }

    // the seeds sorted by (round, user) and walked once; at the start of
    // round t, `nextSeed` indexes its first seed
    val ordered = seeds.toArray.sortWith((x, y) => x.t < y.t || (x.t == y.t && x.user < y.user))
    var nextSeed = ordered.count(_.t < st.t)
    val raw = new Array[Double](nI)
    val ext = new Array[Double](nI) // one receiver's association terms, zero between receivers
    val notProm = new Array[Array[Double]](n)
    val receivers = new Array[Int](n)
    var last = new Deltas(n, nI)
    var next = new Deltas(n, nI)
    var totalSteps = st.steps
    val recorded = Vector.newBuilder[RoundState]

    var t = st.t
    while (t <= inst.T) {
      if (record && t > st.t)
        recorded += new RoundState(t, inst, seeds.iterator.filter(_.t < t).toSet, mk, a, w, sumA, totalSteps).copy()
      // ζ_t = 0: seed adoptions
      next.clear()
      var seedMax = 0.0
      while (nextSeed < ordered.length && ordered(nextSeed).t == t) {
        val v = ordered(nextSeed).user
        val first = nextSeed
        while (nextSeed < ordered.length && ordered(nextSeed).t == t && ordered(nextSeed).user == v) nextSeed += 1
        if (active(v)) {
          var k = first
          while (k < nextSeed) { val x = ordered(k).item; raw(x) = math.max(raw(x), 1.0 - a(v)(x)); k += 1 }
          seedMax = math.max(seedMax, applyRow(v, raw, next))
        }
      }
      // each promotion re-diffuses from every current adopter (multi-round
      // IM semantics of [5], which the paper follows): the round's frontier
      // carries the full adoption mass (seeds now included in `a`), so
      // later rounds retry the influence attempts that failed earlier
      last.clear()
      var frontier = false
      var v = 0
      while (v < n) {
        if (active(v) && sumA(v) > 0.0) {
          System.arraycopy(a(v), 0, last.row(v), 0, nI)
          last.moved(v) = true
          frontier = true
        }
        v += 1
      }
      var moving = seedMax > 0.0 || frontier

      var step = 0
      while (moving && step < p.maxSteps) {
        step += 1
        totalSteps += 1
        // 1 - Π(1 - Δa(u',x)·P_act(u',v)) accumulated multiplicatively
        var nRecv = 0
        v = 0
        while (v < n) {
          if (active(v)) {
            val nbrs = inst.inNbr(v)
            var np: Array[Double] = null
            var i = 0
            while (i < nbrs.length) {
              val u = nbrs(i)
              if (last.moved(u)) {
                val similarity = if (useSim) Dynamics.sim(a(u), a(v), sumA(u), sumA(v)) else 0.0
                val actUV = Dynamics.act(inst, inst.inAct(v)(i), similarity)
                if (np == null) {
                  if (notProm(v) == null) notProm(v) = new Array[Double](nI)
                  np = notProm(v)
                  java.util.Arrays.fill(np, 1.0)
                  receivers(nRecv) = v
                  nRecv += 1
                }
                val du = last.delta(u)
                var x = 0
                while (x < nI) { np(x) *= (1.0 - du(x) * actUV); x += 1 }
              }
              i += 1
            }
          }
          v += 1
        }
        // adoption + extra-adoption deltas, applied per receiver
        next.clear()
        var maxD = 0.0
        var r = 0
        while (r < nRecv) {
          v = receivers(r)
          val np = notProm(v)
          val av = a(v)
          val wv = w(v)
          val contrib = if (usePref) Dynamics.prefContrib(inst, wv, av) else null
          var x = 0
          while (x < nI) {
            if (np(x) < 1.0) {
              val q = 1.0 - np(x)
              val pPref = Dynamics.pref(inst, inst.basePref(v)(x), if (usePref) contrib(x) else 0.0)
              raw(x) += (1.0 - av(x)) * q * pPref
              // item associations: P_ext = q · P_pref(x) · r^C(v,x,y) · scale,
              // with the total association mass of one promotion event
              // bounded by q · P_pref · scale (the r^C row is normalized to
              // sum <= 1 — DESIGN.md Sec. 4; keeps dense complementary
              // catalogs from exploding super-linearly under bundles). The
              // terms go to `ext` without their (1 − a(v,y)) factor, which
              // is applied once per item below (a(v,·) holds until applyRow)
              val base = q * pPref * p.extraScale
              if (base > 0.0) {
                val coef = base * Dynamics.assocCap(wv, cMeta, cNbrs, x)
                var c = 0
                while (c < cMeta.length) {
                  val wm = wv(cMeta(c))
                  if (wm > 0.0) {
                    val cw = coef * wm
                    val ys = cNbrs(c).nbr
                    val ss = cNbrs(c).s
                    var j = cNbrs(c).start(x)
                    val end = cNbrs(c).start(x + 1)
                    while (j < end) { ext(ys(j)) += cw * ss(j); j += 1 }
                  }
                  c += 1
                }
              }
            }
            x += 1
          }
          x = 0
          while (x < nI) { raw(x) += (1.0 - av(x)) * ext(x); ext(x) = 0.0; x += 1 }
          maxD = math.max(maxD, applyRow(v, raw, next))
          r += 1
        }
        val swap = last; last = next; next = swap
        moving = maxD > p.eps
      }
      t += 1
    }
    (DiffusionResult(a, w, totalSteps), recorded.result())
  }

  /** Importance-aware influence σ (Def. 1): Σ_x w_x Σ_v a(v,x), optionally
    * counting only users in `countMask` (σ^τ of Eq. 5).
    */
  def sigmaOf(inst: ProblemInstance, res: DiffusionResult, countMask: Option[Array[Boolean]] = None): Double = {
    requireUserMask(inst, countMask, "countMask")
    val counted = countMask.orNull
    var acc = 0.0
    var v = 0
    while (v < inst.nUsers) {
      if (counted == null || counted(v)) {
        val av = res.a(v)
        var x = 0
        while (x < inst.nItems) { acc += inst.importance(x) * av(x); x += 1 }
      }
      v += 1
    }
    acc
  }

  /** Convenience: run + σ, unmasked (masked callers use run + [[sigmaOf]]). */
  def sigma(inst: ProblemInstance, seeds: Seq[Seed]): Double =
    sigmaOf(inst, run(inst, seeds))

  /** Σ_y a(v,y) per user, summed from left to right from a(v,0) (not from
    * 0.0), as `Array.sum` sums.
    */
  private def adoptionMass(a: Array[Array[Double]]): Array[Double] = {
    val mass = new Array[Double](a.length)
    var v = 0
    while (v < a.length) {
      val av = a(v)
      if (av.length > 0) {
        var s = av(0)
        var y = 1
        while (y < av.length) { s += av(y); y += 1 }
        mass(v) = s
      }
      v += 1
    }
    mass
  }

  /** Future-adoption likelihood π (Eq. 7) of the end state:
    * Σ_v Σ_y (1−a(v,y)) · AIS(v,y) · P_pref(v,y), with the IC form of AIS
    * (footnote 22) evaluated mean-field. Each arc's P_act is computed once,
    * before the item loop (it does not depend on y), and the zero-rate paths
    * of [[run]] apply.
    */
  def pi(inst: ProblemInstance, res: DiffusionResult, countMask: Option[Array[Boolean]] = None): Double = {
    requireUserMask(inst, countMask, "countMask")
    val useSim = inst.params.gamma != 0.0
    val usePref = inst.params.beta != 0.0
    val sumA = if (useSim) adoptionMass(res.a) else null
    val counted = countMask.orNull
    var acc = 0.0
    var v = 0
    while (v < inst.nUsers) {
      if (counted == null || counted(v)) {
        val av = res.a(v)
        val contrib = if (usePref) Dynamics.prefContrib(inst, res.w(v), av) else null
        val nbrs = inst.inNbr(v)
        val act = Array.tabulate(nbrs.length) { i =>
          Dynamics.act(inst, inst.inAct(v)(i), if (useSim) Dynamics.sim(res.a(nbrs(i)), av, sumA(nbrs(i)), sumA(v)) else 0.0)
        }
        var y = 0
        while (y < inst.nItems) {
          val remain = 1.0 - av(y)
          if (remain > 1e-12) {
            var not = 1.0
            var i = 0
            while (i < nbrs.length) {
              val au = res.a(nbrs(i))
              if (au(y) > 0.0) not *= (1.0 - au(y) * act(i))
              i += 1
            }
            val ais = 1.0 - not
            if (ais > 0.0)
              acc += remain * ais * Dynamics.pref(inst, inst.basePref(v)(y), if (usePref) contrib(y) else 0.0)
          }
          y += 1
        }
      }
      v += 1
    }
    acc
  }
}
