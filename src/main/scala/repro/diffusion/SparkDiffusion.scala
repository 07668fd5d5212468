package repro.diffusion

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{ProblemInstance, Seed}
import repro.dynamics.Dynamics

/** Spark DataFrame implementation of the mean-field campaign simulator —
  * the same semantics as [[LocalDiffusion]] (parity-tested), expressed as
  * an iterative Catalyst fixpoint over
  *
  *  - `adopt(user, item, a)`      — sparse expected adoptions,
  *  - `delta(user, item, d)`      — last step's applied deltas,
  *  - `weights(user, meta, w)`    — per-user meta-graph weightings,
  *
  * with static inputs `edges(src, dst, baseAct)`, `basePref(user, item,
  * bp)` and `pairs(meta, sign, isC, x, y, s)` built from the instance.
  *
  * Each step: dynamic P_act from edge similarity, promotion probabilities
  * via log-space products, preference via the cross-elasticity contribution
  * join, direct + item-association deltas, capped application, weighting
  * re-normalization for touched users.
  */
object SparkDiffusion {

  /** Result mirrors [[DiffusionResult]]: adoption and weight arrays are
    * collected back to the driver.
    */
  def run(spark: SparkSession, inst: ProblemInstance, seeds: Seq[Seed]): DiffusionResult = {
    import spark.implicits._
    seeds.foreach(s => require(s.t >= 1 && s.t <= inst.T, s"seed round out of range: $s"))
    val p = inst.params

    // ---- static inputs -------------------------------------------------
    val edges = {
      val rows = for {
        v <- 0 until inst.nUsers
        i <- inst.inNbr(v).indices
      } yield (inst.inNbr(v)(i), v, inst.inAct(v)(i))
      rows.toDF("src", "dst", "baseAct")
    }.cache()
    val basePref = (for {
      v <- 0 until inst.nUsers; x <- 0 until inst.nItems
    } yield (v, x, inst.basePref(v)(x))).toDF("user", "item", "bp").cache()
    val pairs = (for {
      m <- 0 until inst.nMeta
      (x, y, s) <- inst.metaPairs(m).toSeq
    } yield (m, inst.metaKinds(m).sign, inst.cMeta.contains(m), x, y, s))
      .toDF("meta", "sign", "isC", "x", "y", "s")
      .cache()
    val nC = math.max(1, inst.cMeta.size)
    val nS = math.max(1, inst.sMeta.size)
    val classSize = (0 until inst.nMeta)
      .map(m => (m, if (inst.cMeta.contains(m)) "C" else "S"))
      .toDF("meta", "cls")
      .cache()

    // ---- mutable state -------------------------------------------------
    var adopt = Seq.empty[(Int, Int, Double)].toDF("user", "item", "a")
    var weights = (for {
      v <- 0 until inst.nUsers; m <- 0 until inst.nMeta
    } yield (v, m, if (inst.cMeta.contains(m)) 1.0 / nC else 1.0 / nS)).toDF("user", "meta", "w")

    /** W ∝ w0 + η·evidence, normalized per class, only for `touched` users. */
    def updateWeights(newAdopt: DataFrame, touched: DataFrame): DataFrame = {
      if (p.eta == 0.0) return weights // frozen dynamics: weights stay uniform
      val aT = newAdopt.join(touched, "user")
      val ev = aT
        .as("ax")
        .join(pairs, col("ax.item") === col("x"))
        .join(aT.as("ay"), col("ay.user") === col("ax.user") && col("ay.item") === col("y"))
        .groupBy(col("ax.user").as("user"), col("meta"))
        .agg(sum(col("ax.a") * col("ay.a") * col("s")).as("e"))
      val raw = weights
        .join(touched, "user")
        .join(ev, Seq("user", "meta"), "left")
        .join(classSize, "meta")
        .select(col("user"), col("meta"), col("cls"),
          (lit(Dynamics.W0) + lit(p.eta) * coalesce(col("e"), lit(0.0))).as("rw"))
      val norm = raw.groupBy("user", "cls").agg(sum("rw").as("z"))
      val upd = raw
        .join(norm, Seq("user", "cls"))
        .select(col("user"), col("meta"), (col("rw") / col("z")).as("w"))
      weights.join(touched, Seq("user"), "left_anti").unionByName(upd)
    }

    /** Merge raw deltas into adopt (cap at 1); returns (newAdopt, applied, maxDelta). */
    def applyDeltas(raw: DataFrame): (DataFrame, DataFrame, Double) = {
      val merged = adopt
        .select(col("user"), col("item"), col("a"))
        .join(raw.select(col("user"), col("item"), col("d")), Seq("user", "item"), "full")
        .select(
          col("user"),
          col("item"),
          coalesce(col("a"), lit(0.0)).as("a0"),
          coalesce(col("d"), lit(0.0)).as("d0"))
        .select(
          col("user"),
          col("item"),
          col("a0"),
          greatest(lit(0.0), least(col("d0"), lit(1.0) - col("a0"))).as("applied"))
      val newAdopt = merged
        .select(col("user"), col("item"), (col("a0") + col("applied")).as("a"))
        .filter(col("a") > 0.0)
        .localCheckpoint(true)
      val applied = merged
        .filter(col("applied") > 0.0)
        .select(col("user"), col("item"), col("applied").as("d"))
        .localCheckpoint(true)
      val maxD = applied.agg(max("d")).collect()(0) match {
        case r if r.isNullAt(0) => 0.0
        case r                  => r.getDouble(0)
      }
      (newAdopt, applied, maxD)
    }

    /** Dynamic P_act on arcs whose source is in `srcs`. */
    def dynActEdges(srcs: DataFrame): DataFrame = {
      val live = edges.join(srcs, col("src") === col("user")).drop("user")
      if (p.gamma == 0.0)
        live.select(col("src"), col("dst"), least(lit(Dynamics.ActCap), col("baseAct")).as("act"))
      else {
        val sums = adopt.groupBy("user").agg(sum("a").as("sa"))
        val dot = live
          .join(adopt.as("au"), col("src") === col("au.user"), "left")
          .join(
            adopt.as("av"),
            col("dst") === col("av.user") && col("au.item") === col("av.item"),
            "left")
          .groupBy("src", "dst", "baseAct")
          .agg(coalesce(sum(col("au.a") * col("av.a")), lit(0.0)).as("dot"))
        dot
          .join(sums.as("su"), col("src") === col("su.user"), "left")
          .join(sums.as("sv"), col("dst") === col("sv.user"), "left")
          .select(
            col("src"),
            col("dst"),
            least(
              lit(Dynamics.ActCap),
              col("baseAct") + lit(p.gamma) * (col("dot") /
                (coalesce(col("su.sa"), lit(0.0)) + coalesce(col("sv.sa"), lit(0.0)) - col("dot") + lit(1e-9)))
            ).as("act"))
      }
    }

    /** Cross-elasticity contribution per (user in `users`, item): Σ_m sign·w·(S_m a)_y. */
    def prefContribFor(users: DataFrame): DataFrame = {
      if (p.beta == 0.0) return Seq.empty[(Int, Int, Double)].toDF("user", "item", "contrib")
      val aU = adopt.join(users, "user")
      val half1 = aU
        .join(pairs, col("item") === col("x"))
        .select(col("user"), col("meta"), col("sign"), col("y").as("tgt"), (col("a") * col("s")).as("v"))
      val half2 = aU
        .join(pairs, col("item") === col("y"))
        .select(col("user"), col("meta"), col("sign"), col("x").as("tgt"), (col("a") * col("s")).as("v"))
      half1
        .unionByName(half2)
        .join(weights, Seq("user", "meta"))
        .groupBy(col("user"), col("tgt").as("item"))
        .agg(sum(col("sign") * col("w") * col("v")).as("contrib"))
    }

    val seedsByT = seeds.groupBy(_.t)
    var totalSteps = 0
    var t = 1
    while (t <= inst.T) {
      // ζ_t = 0: seeds adopt deterministically
      val roundSeeds = seedsByT.getOrElse(t, Nil).map(s => (s.user, s.item)).distinct
      if (roundSeeds.nonEmpty) {
        val seedRaw = roundSeeds
          .toDF("user", "item")
          .join(adopt, Seq("user", "item"), "left")
          .select(col("user"), col("item"), (lit(1.0) - coalesce(col("a"), lit(0.0))).as("d"))
        val (na, applied, _) = applyDeltas(seedRaw)
        adopt = na
        weights = updateWeights(adopt, applied.select("user").distinct()).localCheckpoint(true)
      }
      // multi-round re-diffusion (as in the local engine): the round's
      // frontier is the full adoption mass, not just the seed deltas
      var delta: DataFrame =
        adopt.select(col("user"), col("item"), col("a").as("d")).localCheckpoint(true)

      var moving = !delta.isEmpty
      var step = 0
      while (moving && step < p.maxSteps) {
        step += 1
        totalSteps += 1
        val srcs = delta.select("user").distinct()
        val actE = dynActEdges(srcs)
        val msgs = delta
          .join(actE, col("user") === col("src"))
          .groupBy(col("dst").as("ruser"), col("item"))
          .agg((lit(1.0) - exp(sum(log(lit(1.0) - col("d") * col("act"))))).as("q"))
          .localCheckpoint(true)
        val receivers = msgs.select(col("ruser").as("user")).distinct()
        val contrib = prefContribFor(receivers)
        // dynamic preference for the promoted item at each message
        val prefQ = msgs
          .join(basePref, msgs("ruser") === basePref("user") && msgs("item") === basePref("item"))
          .drop(basePref("user"))
          .drop(basePref("item"))
          .join(contrib, col("ruser") === contrib("user") && msgs("item") === contrib("item"), "left")
          .drop(contrib("user"))
          .drop(contrib("item"))
          .select(
            col("ruser"),
            msgs("item").as("item"),
            col("q"),
            greatest(lit(0.0), least(lit(1.0), col("bp") + lit(p.beta) * coalesce(col("contrib"), lit(0.0))))
              .as("pref"))
          .localCheckpoint(true)
        val aNow = adopt // snapshot: all (1 - a) factors use step-start state
        val direct = prefQ
          .join(aNow, prefQ("ruser") === aNow("user") && prefQ("item") === aNow("item"), "left")
          .select(
            col("ruser").as("user"),
            prefQ("item").as("item"),
            ((lit(1.0) - coalesce(col("a"), lit(0.0))) * col("q") * col("pref")).as("d"))
        // item associations: per promoted x, push q·pref(x)·scale·factor·w·s
        // to complementary y, where factor = min(1, 1/Σ_y w·s) bounds the
        // total association mass of one promotion event (same as local)
        val cPairs = pairs.filter(col("isC")).withColumnRenamed("meta", "pm")
        val extHalf1 = prefQ.join(cPairs, prefQ("item") === col("x")).select(
          col("ruser"), col("pm"), prefQ("item").as("px"), col("y").as("tgt"),
          (col("q") * col("pref") * lit(p.extraScale) * col("s")).as("v"), col("s"))
        val extHalf2 = prefQ.join(cPairs, prefQ("item") === col("y")).select(
          col("ruser"), col("pm"), prefQ("item").as("px"), col("x").as("tgt"),
          (col("q") * col("pref") * lit(p.extraScale) * col("s")).as("v"), col("s"))
        val extWeighted = extHalf1
          .unionByName(extHalf2)
          .join(weights, col("ruser") === weights("user") && col("pm") === weights("meta"))
          .drop(weights("user"))
          .drop(weights("meta"))
          .select(col("ruser"), col("px"), col("tgt"), (col("v") * col("w")).as("wv"),
            (col("s") * col("w")).as("ws"))
        val rowFactor = extWeighted
          .groupBy("ruser", "px")
          .agg(least(lit(1.0), lit(1.0) / sum("ws")).as("factor"))
        val extra = extWeighted
          .join(rowFactor, Seq("ruser", "px"))
          .groupBy(col("ruser").as("user"), col("tgt").as("item"))
          .agg(sum(col("wv") * col("factor")).as("dval"))
          .join(aNow.as("an"), Seq("user", "item"), "left")
          .select(
            col("user"),
            col("item"),
            ((lit(1.0) - coalesce(col("a"), lit(0.0))) * col("dval")).as("d"))
        val raw = direct
          .unionByName(extra)
          .groupBy("user", "item")
          .agg(sum("d").as("d"))
        val (na, applied, maxD) = applyDeltas(raw)
        adopt = na
        weights = updateWeights(adopt, applied.select("user").distinct()).localCheckpoint(true)
        delta = applied
        moving = maxD > p.eps
      }
      t += 1
    }

    // collect back to driver arrays
    val a = Array.fill(inst.nUsers)(new Array[Double](inst.nItems))
    adopt.collect().foreach(r => a(r.getInt(0))(r.getInt(1)) = r.getDouble(2))
    val w = Array.fill(inst.nUsers)(new Array[Double](inst.nMeta))
    weights.collect().foreach(r => w(r.getInt(0))(r.getInt(1)) = r.getDouble(2))
    edges.unpersist(); basePref.unpersist(); pairs.unpersist(); classSize.unpersist()
    DiffusionResult(a, w, totalSteps)
  }

  /** Importance-aware influence σ via the Spark engine. */
  def sigma(spark: SparkSession, inst: ProblemInstance, seeds: Seq[Seed]): Double =
    LocalDiffusion.sigmaOf(inst, run(spark, inst, seeds))
}
