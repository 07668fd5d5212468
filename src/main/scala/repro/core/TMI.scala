package repro.core

import repro.baselines.{Celf, FrozenSpread}
import repro.dynamics.Dynamics
import repro.social.MIOA

/** A target market: a cluster of nominees plus the users they can reach
  * (via MIOA), with the subgraph diameter used as the item-impact
  * propagation horizon `d^τ` of DR.
  */
final case class TargetMarket(nominees: Vector[Nominee], users: Set[Int], diameter: Int) {
  def items: Set[Int] = nominees.iterator.map(_.item).toSet
  def mask(nUsers: Int): Array[Boolean] = {
    val m = new Array[Boolean](nUsers)
    users.foreach(m(_) = true)
    m
  }
}

/** Phase 1 of Dysim — Target Market Identification (Sec. IV-B.1):
  * nominee selection by marginal cost-performance ratio (MCP) on the
  * frozen spread f, clustering by social distance and average relevance,
  * market identification by influence reach (MIOA), and prioritization of
  * market groups by ascending Antagonistic Extent (AE).
  */
object TMI {

  final case class Config(
      /** MIOA path-probability threshold for market membership. */
      thetaMioa: Double = 0.05,
      /** θ: markets sharing at least this many users form a group G. */
      thetaCommon: Int = 2,
      /** Candidate pool cap (user-item pairs; see [[CandidatePool]]). */
      maxCandidates: Int = 400)

  /** Propagation horizon of the frozen spread f. */
  val FrozenHops: Int = 4
  /** λ: weight of (r̄C − r̄S) against social hop distance in clustering. */
  val Lambda: Double = 2.0
  /** Merge two nominees when hopDist − λ(r̄C − r̄S) ≤ this. */
  val ClusterThresh: Double = 2.0
  /** Cap on a market's diameter d^τ. */
  val MaxDiameter: Int = 4

  /** Average relevance matrices under uniform initial weightings (every
    * user starts identical, so the all-user average equals one user's).
    * Returns (r̄C, r̄S).
    */
  def initialAvgRel(inst: ProblemInstance): (Array[Array[Double]], Array[Array[Double]]) =
    avgRel(inst, Array(Dynamics.initUserWeights(inst)))

  /** Average relevance matrices over a set of users' weight vectors. */
  def avgRel(inst: ProblemInstance, ws: Array[Array[Double]]): (Array[Array[Double]], Array[Array[Double]]) = {
    val n = inst.nItems
    val rC = Array.fill(n, n)(0.0)
    val rS = Array.fill(n, n)(0.0)
    val k = math.max(1, ws.length)
    var x = 0
    while (x < n) {
      var y = x + 1
      while (y < n) {
        var c = 0.0
        var s = 0.0
        ws.foreach { w => c += Dynamics.rC(inst, w, x, y); s += Dynamics.rS(inst, w, x, y) }
        rC(x)(y) = c / k; rC(y)(x) = c / k
        rS(x)(y) = s / k; rS(y)(x) = s / k
        y += 1
      }
      x += 1
    }
    (rC, rS)
  }

  /** The candidate nominee universe (the paper's U = V × I, capped for
    * tractability via the shared proxy ranking — DESIGN.md Sec. 2).
    */
  def candidatePool(inst: ProblemInstance, cfg: Config): Vector[Nominee] =
    CandidatePool.pairs(inst, cfg.maxCandidates)

  /** selectNominees(U, b): CELF greedy by MCP = (f(N∪{n}) − f(N)) / c(n),
    * with the standard knapsack correction behind Theorem 2's (1 − 1/√e)
    * factor: the result is the better of the ratio-greedy set and the best
    * affordable singleton.
    */
  def selectNominees(inst: ProblemInstance, cfg: Config): Vector[Nominee] = {
    val pool = candidatePool(inst, cfg)
    val frozen = FrozenSpread.instance(inst, FrozenHops)
    def f(set: Iterable[Nominee]): Double = FrozenSpread.sigmaOn(frozen, set)
    // singleton gains computed once, shared by CELF's first round and the
    // knapsack correction below
    val singles: Map[Nominee, Double] = pool.iterator.map(n => n -> f(Seq(n))).toMap
    val greedy = Celf.select[Nominee](
      pool,
      n => inst.cost(n.user)(n.item),
      inst.budget,
      set => f(set),
      initGains = singles)
    // standard knapsack correction behind Theorem 2's (1 − 1/√e) factor
    val affordable = pool.filter(n => ProblemInstance.fits(inst.cost(n.user)(n.item), inst.budget))
    if (affordable.isEmpty) greedy
    else {
      val bestSingle = affordable.maxBy(n => (singles(n), -n.user, -n.item))
      val singleGain = singles(bestSingle)
      val greedyGain = if (greedy.isEmpty) 0.0 else f(greedy)
      if (singleGain > greedyGain && singleGain > ProblemInstance.MinGain) Vector(bestSingle) else greedy
    }
  }

  /** Undirected BFS hop distances from `src` (−1 = unreachable), capped. */
  def hopDistances(inst: ProblemInstance, src: Int, maxHops: Int): Array[Int] = {
    val dist = Array.fill(inst.nUsers)(-1)
    dist(src) = 0
    var frontier = List(src)
    var d = 0
    while (frontier.nonEmpty && d < maxHops) {
      d += 1
      val next = scala.collection.mutable.ListBuffer.empty[Int]
      frontier.foreach { u =>
        (inst.outNbr(u).iterator ++ inst.inNbr(u).iterator).foreach { v =>
          if (dist(v) < 0) { dist(v) = d; next += v }
        }
      }
      frontier = next.toList
    }
    dist
  }

  /** clusterNominees(N): single-linkage merge of nominees with
    * hopDist(u_i,u_j) − λ·(r̄C(x_i,x_j) − r̄S(x_i,x_j)) ≤ [[ClusterThresh]].
    * Larger complementary relevance encourages merging; substitutable
    * relevance discourages it (so substitutes land in different markets).
    * `cfg` is unused; the benchmark in `perfbench/` passes one.
    */
  def clusterNominees(inst: ProblemInstance, nominees: Vector[Nominee], cfg: Config): Vector[Vector[Nominee]] = {
    if (nominees.isEmpty) return Vector.empty
    val (rC, rS) = initialAvgRel(inst)
    val users = nominees.map(_.user).distinct
    val distMaps: Map[Int, Array[Int]] =
      users.map(u => u -> hopDistances(inst, u, maxHops = 6)).toMap
    val parent = Array.tabulate(nominees.length)(identity)
    def find(i: Int): Int = if (parent(i) == i) i else { parent(i) = find(parent(i)); parent(i) }
    def union(i: Int, j: Int): Unit = { parent(find(j)) = find(i) }
    for (i <- nominees.indices; j <- (i + 1) until nominees.length) {
      val ni = nominees(i); val nj = nominees(j)
      val hd = distMaps(ni.user)(nj.user) match {
        case -1 => Double.PositiveInfinity
        case d  => d.toDouble
      }
      val rel =
        if (ni.item == nj.item) rC(ni.item).max // same item: treat as fully compatible
        else rC(ni.item)(nj.item) - rS(ni.item)(nj.item)
      if (hd - Lambda * rel <= ClusterThresh) union(i, j)
    }
    nominees.indices.groupBy(find).values.map(idx => idx.map(nominees).toVector).toVector
      .sortBy(c => (-c.length, c.head.user, c.head.item))
  }

  /** Identify a market for each cluster: the users reachable from the
    * cluster's nominees with path probability ≥ thetaMioa (MIOA [22]), and
    * the BFS diameter of the reach (capped).
    */
  def identifyMarkets(inst: ProblemInstance, clusters: Vector[Vector[Nominee]], cfg: Config): Vector[TargetMarket] = {
    lazy val outAdj = MIOA.outAdjacency(inst.inNbr, inst.inAct)
    clusters.map { cluster =>
      val srcs = cluster.map(_.user).distinct
      val reach = MIOA.reachLocal(outAdj, srcs, cfg.thetaMioa)
      val users = reach.keySet ++ srcs
      val dia = srcs.iterator.map { s =>
        val d = hopDistances(inst, s, MaxDiameter)
        users.iterator.map(u => if (d(u) >= 0) d(u) else MaxDiameter).max
      }.min
      TargetMarket(cluster, users, math.max(1, math.min(MaxDiameter, dia)))
    }
  }

  /** Antagonistic Extent of τi within its group:
    * AE(τi) = Σ_{x ∈ τi, y ∈ τj, j ≠ i} r̄S(x,y).
    */
  def antagonisticExtent(market: TargetMarket, others: Seq[TargetMarket], rS: Array[Array[Double]]): Double = {
    var ae = 0.0
    for {
      other <- others
      x <- market.items
      y <- other.items
      if x != y
    } ae += rS(x)(y)
    ae
  }

  /** Group markets sharing ≥ θ common users (connected components) and
    * order each group by ascending AE (promote the least-antagonistic
    * market first). Groups themselves are ordered by total nominee count
    * (larger first) for determinism.
    */
  def groupAndPrioritize(inst: ProblemInstance, markets: Vector[TargetMarket], cfg: Config): Vector[Vector[TargetMarket]] = {
    if (markets.isEmpty) return Vector.empty
    val (_, rS) = initialAvgRel(inst)
    val parent = Array.tabulate(markets.length)(identity)
    def find(i: Int): Int = if (parent(i) == i) i else { parent(i) = find(parent(i)); parent(i) }
    for (i <- markets.indices; j <- (i + 1) until markets.length)
      if ((markets(i).users & markets(j).users).size >= cfg.thetaCommon) parent(find(j)) = find(i)
    markets.indices
      .groupBy(find)
      .values
      .map { idx =>
        val group = idx.map(markets).toVector
        group.sortBy { m =>
          (antagonisticExtent(m, group.filterNot(_ eq m), rS), -m.nominees.length)
        }
      }
      .toVector
      .sortBy(g => (-g.iterator.map(_.nominees.length).sum, g.head.nominees.head.user))
  }
}
