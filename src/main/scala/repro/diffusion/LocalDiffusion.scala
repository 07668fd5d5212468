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

/** Driver-local mean-field campaign simulator — the reference
  * implementation of the diffusion process of Sec. III with the dynamic
  * factors of Sec. V-A (formulas in [[repro.dynamics.Dynamics]]).
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
  * Exact fast paths (DESIGN.md Sec. 4). The simulator skips only work whose
  * result cannot change a bit of `a`, `w` or `steps`:
  *  - zero rates (`Params.frozen` and any rate set to 0): with γ = 0 the
  *    similarity is not computed (P_act = base + 0·sim = base); with β = 0
  *    the cross-elasticity is not computed (P_pref = base + 0·contrib); with
  *    η = 0 the normalized weighting is computed once per run and copied to
  *    each touched user (w0 + 0·e = w0 for every evidence e). `Params`
  *    requires the rates to be finite and non-negative, so 0·x is ±0 and
  *    adding it changes nothing;
  *  - sparse similarity: each user's adopted items are kept in ascending
  *    order and ⟨a_u, a_v⟩ is summed over the shorter list in that order
  *    ([[repro.dynamics.Dynamics.sparseSim]]); every skipped term is +0;
  *  - per-step state lives in reused primitive buffers. Each user's deltas
  *    within a step depend only on last step's state and its own row, so a
  *    receiver's deltas are applied as soon as they are computed; every sum
  *    and product keeps the order of the dense formulation;
  *  - forks: round t depends only on the state at its start and the seeds
  *    of rounds ≥ t, and that state depends only on the seeds of rounds < t
  *    and the mask. So a campaign S :+ c with c at round t, resumed
  *    ([[resume]]) from S's [[RoundState]] at round t, equals `run(S :+ c)`
  *    bit for bit. [[resume]] runs on the state's instance and mask and
  *    checks that the seeds of rounds < t are the state's. [[run]] is the
  *    resume from round 1; there is one step loop.
  */
object LocalDiffusion {

  /** Per-user (item, delta) lists of one step, in ascending item order. */
  private final class Deltas(n: Int, nI: Int) {
    val item = new Array[Array[Int]](n)
    val delta = new Array[Array[Double]](n)
    val len = new Array[Int](n)

    def add(v: Int, x: Int, d: Double): Unit = {
      if (item(v) == null) { item(v) = new Array[Int](nI); delta(v) = new Array[Double](nI) }
      item(v)(len(v)) = x
      delta(v)(len(v)) = d
      len(v) += 1
    }

    def clear(): Unit = java.util.Arrays.fill(len, 0)
  }

  /** The whole state of a campaign at the start of round `t`: adoptions
    * `a`, weightings `w`, per-user adoption mass `sumA`, the ascending
    * adopted-item lists and the steps run so far. At a round boundary the
    * step buffers are empty and the frontier is rebuilt from `a`, so
    * nothing else is needed to resume. The arrays are private copies;
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
      private[LocalDiffusion] val support: Array[Array[Int]],
      private[LocalDiffusion] val supportLen: Array[Int],
      private[LocalDiffusion] val steps: Int) {

    private[LocalDiffusion] def copy(): RoundState = new RoundState(
      t, inst, prefix, mask, a.map(_.clone()), w.map(_.clone()), sumA.clone(),
      if (support == null) null else support.map(r => if (r == null) null else r.clone()),
      supportLen.clone(), steps)
  }

  /** The state before round 1: nothing adopted, initial weightings. */
  def start(inst: ProblemInstance, mask: Option[Array[Boolean]] = None): RoundState = {
    requireUserMask(inst, mask, "mask")
    val w0 = Dynamics.initUserWeights(inst)
    new RoundState(
      1, inst, Set.empty, mask.map(_.clone()).orNull,
      Array.fill(inst.nUsers)(new Array[Double](inst.nItems)), Array.fill(inst.nUsers)(w0.clone()),
      new Array[Double](inst.nUsers), if (inst.params.gamma != 0.0) new Array[Array[Int]](inst.nUsers) else null,
      new Array[Int](inst.nUsers), 0)
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
    val frozenW: Array[Double] =
      if (p.eta != 0.0) null
      else { val fw = new Array[Double](inst.nMeta); Dynamics.updateUserWeights(inst, new Array[Double](nI), fw); fw }

    // ascending adopted-item lists, for the sparse similarity (null
    // without it)
    val support = st.support
    val supportLen = st.supportLen

    // applies the raw deltas of user v (zeroing `raw`), records them in
    // `out` and returns the largest one
    def applyRow(v: Int, raw: Array[Double], out: Deltas): Double = {
      val av = a(v)
      var maxD = 0.0
      var touched = false
      var x = 0
      while (x < nI) {
        val r = raw(x)
        raw(x) = 0.0
        if (r > 0.0) {
          val d = math.min(r, 1.0 - av(x))
          if (d > 0.0) {
            if (useSim && av(x) == 0.0) {
              if (support(v) == null) support(v) = new Array[Int](nI)
              val sv = support(v)
              var k = supportLen(v)
              while (k > 0 && sv(k - 1) > x) { sv(k) = sv(k - 1); k -= 1 }
              sv(k) = x
              supportLen(v) += 1
            }
            av(x) += d
            sumA(v) += d
            out.add(v, x, d)
            if (d > maxD) maxD = d
            touched = true
          }
        }
        x += 1
      }
      if (touched) {
        if (frozenW != null) System.arraycopy(frozenW, 0, w(v), 0, frozenW.length)
        else Dynamics.updateUserWeights(inst, av, w(v))
      }
      maxD
    }

    val seedsByT = seeds.groupBy(_.t)
    val raw = new Array[Double](nI)
    val notProm = new Array[Array[Double]](n)
    val receivers = new Array[Int](n)
    var last = new Deltas(n, nI)
    var next = new Deltas(n, nI)
    var totalSteps = st.steps
    val recorded = Vector.newBuilder[RoundState]

    var t = st.t
    while (t <= inst.T) {
      if (record && t > st.t)
        recorded += new RoundState(t, inst, seeds.iterator.filter(_.t < t).toSet, mk, a, w, sumA, support, supportLen, totalSteps).copy()
      // ζ_t = 0: seed adoptions
      next.clear()
      var seedMax = 0.0
      seedsByT.getOrElse(t, Nil).filter(s => active(s.user)).groupBy(_.user).toSeq.sortBy(_._1).foreach {
        case (v, vs) =>
          vs.foreach(s => raw(s.item) = math.max(raw(s.item), 1.0 - a(v)(s.item)))
          seedMax = math.max(seedMax, applyRow(v, raw, next))
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
          val av = a(v)
          var x = 0
          while (x < nI) { if (av(x) > 0.0) last.add(v, x, av(x)); x += 1 }
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
              val len = last.len(u)
              if (len > 0 && active(u)) {
                val similarity =
                  if (!useSim) 0.0
                  else if (supportLen(u) <= supportLen(v)) Dynamics.sparseSim(support(u), supportLen(u), a(u), a(v), sumA(u), sumA(v))
                  else Dynamics.sparseSim(support(v), supportLen(v), a(u), a(v), sumA(u), sumA(v))
                val actUV = Dynamics.act(inst, inst.inAct(v)(i), similarity)
                if (np == null) {
                  if (notProm(v) == null) notProm(v) = new Array[Double](nI)
                  np = notProm(v)
                  java.util.Arrays.fill(np, 1.0)
                  receivers(nRecv) = v
                  nRecv += 1
                }
                val xs = last.item(u)
                val ds = last.delta(u)
                var k = 0
                while (k < len) { np(xs(k)) *= (1.0 - ds(k) * actUV); k += 1 }
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
              // catalogs from exploding super-linearly under bundles)
              val base = q * pPref * p.extraScale
              if (base > 0.0) {
                var rowSum = 0.0
                var c = 0
                while (c < cMeta.length) {
                  val wm = wv(cMeta(c))
                  if (wm > 0.0) {
                    val ss = cNbrs(c).s
                    var j = cNbrs(c).start(x)
                    val end = cNbrs(c).start(x + 1)
                    while (j < end) { rowSum += wm * ss(j); j += 1 }
                  }
                  c += 1
                }
                val factor = if (rowSum > 1.0) 1.0 / rowSum else 1.0
                c = 0
                while (c < cMeta.length) {
                  val wm = wv(cMeta(c))
                  if (wm > 0.0) {
                    val ys = cNbrs(c).nbr
                    val ss = cNbrs(c).s
                    var j = cNbrs(c).start(x)
                    val end = cNbrs(c).start(x + 1)
                    while (j < end) {
                      val y = ys(j)
                      raw(y) += (1.0 - av(y)) * base * factor * wm * ss(j)
                      j += 1
                    }
                  }
                  c += 1
                }
              }
            }
            x += 1
          }
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
    var acc = 0.0
    var v = 0
    while (v < inst.nUsers) {
      if (countMask.forall(_(v))) {
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

  /** Future-adoption likelihood π (Eq. 7) of the end state:
    * Σ_v Σ_y (1−a(v,y)) · AIS(v,y) · P_pref(v,y), with the IC form of AIS
    * (footnote 22) evaluated mean-field. Each arc's P_act is computed once
    * (it does not depend on y), and the zero-rate paths of [[run]] apply.
    */
  def pi(inst: ProblemInstance, res: DiffusionResult, countMask: Option[Array[Boolean]] = None): Double = {
    requireUserMask(inst, countMask, "countMask")
    val useSim = inst.params.gamma != 0.0
    val usePref = inst.params.beta != 0.0
    val sumA = if (useSim) res.a.map(_.sum) else null
    var acc = 0.0
    var v = 0
    while (v < inst.nUsers) {
      if (countMask.forall(_(v))) {
        val av = res.a(v)
        val contrib = if (usePref) Dynamics.prefContrib(inst, res.w(v), av) else null
        val nbrs = inst.inNbr(v)
        val act = Array.fill(nbrs.length)(Double.NaN) // filled on first use
        var y = 0
        while (y < inst.nItems) {
          val remain = 1.0 - av(y)
          if (remain > 1e-12) {
            var not = 1.0
            var i = 0
            while (i < nbrs.length) {
              val au = res.a(nbrs(i))
              if (au(y) > 0.0) {
                if (act(i).isNaN) {
                  val similarity = if (useSim) Dynamics.sim(au, av, sumA(nbrs(i)), sumA(v)) else 0.0
                  act(i) = Dynamics.act(inst, inst.inAct(v)(i), similarity)
                }
                not *= (1.0 - au(y) * act(i))
              }
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
