package repro.core

/** Whether a meta-graph describes the complementary or the substitutable
  * relationship between items (paper Sec. III, sets {m^C} and {m^S}).
  */
sealed trait RelKind { def sign: Double }
object RelKind {
  /** Complementary: adopting x raises preference for y. */
  case object Complementary extends RelKind { val sign = 1.0 }
  /** Substitutable: adopting x lowers preference for y. */
  case object Substitutable extends RelKind { val sign = -1.0 }
}

/** A seed `(u, x, t)`: item `x` is promoted from user `u` starting at the
  * t-th promotion (1-based, t ∈ [1, T]).
  */
final case class Seed(user: Int, item: Int, t: Int) {
  require(t >= 1, s"promotion round must be >= 1, got $t")
  def nominee: Nominee = Nominee(user, item)
}

/** A nominee `(u, x)`: a candidate seed whose promotion round is not yet
  * decided (assigned later by TDSI).
  */
final case class Nominee(user: Int, item: Int)

/** Rates of the closed-form factor model (DESIGN.md Sec. 4).
  *
  * Setting `eta = beta = gamma = 0` freezes all dynamics, which is exactly
  * the "frozen-probability" spread function f used by TMI's MCP and by the
  * static baselines.
  */
final case class Params(
    /** Weighting evidence rate: how fast co-adoptions shift meta-graph weightings. */
    eta: Double = 2.0,
    /** Preference cross-elasticity: effect of adopted complements/substitutes. */
    beta: Double = 0.6,
    /** Influence-learning rate: effect of adoption-set similarity on P_act. */
    gamma: Double = 0.4,
    /** Scale of the extra-adoption probability P_ext. */
    extraScale: Double = 0.5,
    /** Weighted-cascade base influence: baseAct = min(actBase, actScale/indeg). */
    actScale: Double = 1.2,
    actBase: Double = 0.4,
    /** Max mean-field steps per promotion. */
    maxSteps: Int = 8,
    /** Stop a promotion's steps once the largest adoption delta is below this. */
    eps: Double = 1e-4) {
  require(maxSteps >= 1, "maxSteps must be >= 1")
  // the diffusion's zero-rate fast paths rely on 0 · rate-term being ±0
  Seq("eta" -> eta, "beta" -> beta, "gamma" -> gamma, "extraScale" -> extraScale).foreach { case (name, r) =>
    require(r >= 0.0 && r < Double.PositiveInfinity, s"$name must be finite and >= 0, got $r")
  }
  require(eps >= 0.0, s"eps must be >= 0, got $eps")

  /** The frozen variant: no perception/preference/influence updates. */
  def frozen: Params = copy(eta = 0.0, beta = 0.0, gamma = 0.0)
}

/** One meta-graph's positive relevance entries s(x,y) with x < y, as three
  * parallel arrays in row-major (x, then y) order.
  */
final class MetaPairs(val x: Array[Int], val y: Array[Int], val s: Array[Double]) extends Serializable {
  def length: Int = s.length
  def isEmpty: Boolean = s.isEmpty
  def nonEmpty: Boolean = s.nonEmpty
  def toSeq: Seq[(Int, Int, Double)] = s.indices.map(i => (x(i), y(i), s(i)))
}

/** One meta-graph's relevance as compressed rows: item x's neighbours y and
  * their s(x,y) are `nbr(j)`, `s(j)` for j in `start(x) until start(x + 1)`,
  * in [[MetaPairs]] order.
  */
final class MetaNbrs(val start: Array[Int], val nbr: Array[Int], val s: Array[Double]) extends Serializable {
  def apply(x: Int): Seq[(Int, Double)] = (start(x) until start(x + 1)).map(j => (nbr(j), s(j)))
}

/** A driver-local IMDPP instance: everything the diffusion engines and the
  * seed-selection algorithms consume.
  *
  * Users and items are dense 0-based ints. Meta-graph relevance matrices
  * `metaS(m)(x)(y) = s(x,y|m)` are symmetric with zero diagonal. `inNbr`
  * and `inAct` are aligned: `inAct(v)(i)` is the base influence strength of
  * `inNbr(v)(i)` on `v`. Construction rejects malformed input: costs must
  * be finite and positive, preferences in [0,1], influence strengths in
  * (0,1], relevance in [0,1] and the budget finite and non-negative.
  * Built from Spark DataFrames by [[repro.data.InstanceBuilder]]; small
  * enough for the driver by design (DESIGN.md Sec. 6).
  */
final case class ProblemInstance(
    nUsers: Int,
    nItems: Int,
    itemNames: Vector[String],
    importance: Array[Double],
    inNbr: Array[Array[Int]],
    inAct: Array[Array[Double]],
    outNbr: Array[Array[Int]],
    basePref: Array[Array[Double]],
    metaKinds: Vector[RelKind],
    metaS: Vector[Array[Array[Double]]],
    cost: Array[Array[Double]],
    budget: Double,
    T: Int,
    params: Params) {
  require(importance.length == nItems, "importance must have nItems entries")
  require(inNbr.length == nUsers && inAct.length == nUsers && outNbr.length == nUsers)
  require(basePref.length == nUsers && cost.length == nUsers)
  require(metaS.length == metaKinds.length, "one relevance matrix per meta-graph")
  require(T >= 1, "at least one promotion")
  require(budget >= 0.0 && budget < Double.PositiveInfinity, s"budget must be finite and >= 0, got $budget")
  require(cost.forall(r => r.length == nItems && r.forall(c => c > 0.0 && c < Double.PositiveInfinity)),
    "every cost must be finite and > 0")
  require(basePref.forall(r => r.length == nItems && r.forall(p => p >= 0.0 && p <= 1.0)),
    "every basePref must be in [0,1]")
  require(inNbr.indices.forall(v => inAct(v).length == inNbr(v).length && inAct(v).forall(p => p > 0.0 && p <= 1.0)),
    "inAct(v) must align with inNbr(v), with every value in (0,1]")
  metaS.indices.foreach { m =>
    val s = metaS(m)
    require(s.length == nItems && s.forall(_.length == nItems), s"metaS($m) must be nItems x nItems")
    for (x <- 0 until nItems; y <- 0 until nItems) {
      val sxy = s(x)(y)
      require(sxy >= 0.0 && sxy <= 1.0, s"metaS($m)($x)($y) = $sxy is outside [0,1]")
      require(sxy == s(y)(x), s"metaS($m) is not symmetric at ($x,$y)")
      require(x != y || sxy == 0.0, s"metaS($m) has a non-zero diagonal at $x")
    }
  }

  /** Indices of complementary meta-graphs. */
  val cMeta: Vector[Int] = metaKinds.zipWithIndex.collect { case (RelKind.Complementary, i) => i }

  /** Indices of substitutable meta-graphs. */
  val sMeta: Vector[Int] = metaKinds.zipWithIndex.collect { case (RelKind.Substitutable, i) => i }

  val nMeta: Int = metaKinds.length

  /** Sparse pair list per meta-graph: the entries (x, y, s) with x < y and
    * s > 0 in row-major order — the hot loops of both diffusion engines
    * iterate these instead of the dense matrices.
    */
  val metaPairs: Vector[MetaPairs] = metaS.map { m =>
    val xs = Array.newBuilder[Int]
    val ys = Array.newBuilder[Int]
    val ss = Array.newBuilder[Double]
    var x = 0
    while (x < nItems) {
      var y = x + 1
      while (y < nItems) {
        if (m(x)(y) > 0.0) { xs += x; ys += y; ss += m(x)(y) }
        y += 1
      }
      x += 1
    }
    new MetaPairs(xs.result(), ys.result(), ss.result())
  }

  /** Sparse neighbor lists per meta-graph: `metaNbrs(m)(x)` lists (y, s)
    * with s(x,y|m) > 0 — symmetric expansion of [[metaPairs]] used by the
    * extra-adoption inner loop.
    */
  lazy val metaNbrs: Vector[MetaNbrs] = metaPairs.map { pairs =>
    val start = new Array[Int](nItems + 1)
    var i = 0
    while (i < pairs.length) { start(pairs.x(i) + 1) += 1; start(pairs.y(i) + 1) += 1; i += 1 }
    var x = 0
    while (x < nItems) { start(x + 1) += start(x); x += 1 }
    val fill = start.clone()
    val nbr = new Array[Int](start(nItems))
    val s = new Array[Double](start(nItems))
    def put(x: Int, y: Int, sxy: Double): Unit = { nbr(fill(x)) = y; s(fill(x)) = sxy; fill(x) += 1 }
    i = 0
    while (i < pairs.length) { put(pairs.x(i), pairs.y(i), pairs.s(i)); put(pairs.y(i), pairs.x(i), pairs.s(i)); i += 1 }
    new MetaNbrs(start, nbr, s)
  }

  def totalCost(seeds: Iterable[Seed]): Double =
    seeds.iterator.map(s => cost(s.user)(s.item)).sum

  def withinBudget(seeds: Iterable[Seed]): Boolean = ProblemInstance.fits(totalCost(seeds), budget)

  def withParams(p: Params): ProblemInstance = copy(params = p)
  def withBudget(b: Double): ProblemInstance = copy(budget = b)
  def withT(t: Int): ProblemInstance = copy(T = t)

  def inDegree(v: Int): Int = inNbr(v).length
  def outDegree(u: Int): Int = outNbr(u).length
}

object ProblemInstance {

  /** Whether a cost fits in what is left of the budget, with slack for the
    * rounding of summed costs (the IMDPP budget constraint).
    */
  def fits(cost: Double, left: Double): Boolean = cost <= left + 1e-9

  /** Smallest marginal spread gain worth a pick in the greedy selections. */
  val MinGain: Double = 1e-9
}
