package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.io.{BufferedInputStream, BufferedOutputStream, ObjectInputStream, ObjectOutputStream}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession
import repro.baselines.FrozenSpread
import repro.core.{ProblemInstance, Seed, TMI}
import repro.data.{DatasetConfig, DatasetGen, InstanceBuilder}
import repro.diffusion.LocalDiffusion
import repro.kg.{KGGenerator, RelevanceEngine}
import repro.social.{MIOA, SocialGen}

/** The repo benchmark: builds a workload's batch of datasets on Spark, runs
  * its seed-selection algorithms on each (repeating the pass while
  * `--seconds` have not elapsed), checks every output and prints the
  * metrics declared in BENCHMARK.json as the last line of standard output.
  * Run it through `python3 perfbench/run.py`.
  *
  * Untraced (`--trace 0`): end-to-end metrics from two processes. The
  * first (`--phase setup`) starts Spark, builds the batch and writes it to
  * a file; the second (`--phase select`) never starts Spark, runs the
  * algorithms on the batch after an untimed warm-up and reports the mean
  * over the datasets of each one's selection CPU time in [[Calib]] units.
  * Traced (`--trace 1`): on the first datasets of the batch, one untraced
  * pass, one pass re-driven from the public functions with a span around
  * each call, and one more untraced pass; the traced pass yields the
  * per-layer metrics and must reproduce the untraced instances and seeds
  * exactly.
  */
object Main {

  final case class Workload(name: String, datasets: Vector[DatasetConfig], algos: Vector[Algo])

  /** `--seed` shifts the generators' seeds of a workload's `variant`-th
    * copy of a dataset; seed 0, variant 0 reproduces `DatasetGen`.
    */
  def perturb(c: DatasetConfig, seed: Long, variant: Int): DatasetConfig = {
    val d = (seed * 31L + variant) * 1000003L
    if (d == 0L) c
    else c.copy(socialSeed = c.socialSeed + d, prefSeed = c.prefSeed + d, kg = c.kg.copy(seed = c.kg.seed + d))
  }

  val T = 5

  /** Each workload solves a batch of small datasets per run and reports
    * the mean over them, because one dataset's selection time varies by a
    * fifth to a third between draws. Every dataset has its own social-graph
    * and preference draw from `--seed`. They share `KgDraws` catalogs
    * (knowledge-graph draws), which are the same for every seed: a catalog
    * moves the selection time of all its datasets together (by about 8% on
    * Dysim), so seed-drawn catalogs would move a whole run. A run makes
    * `KgDraws` full builds and assembles the other datasets from a build's
    * relevance matrices and their own social graph.
    */
  def batch(base: DatasetConfig, seed: Long, size: Int): Vector[DatasetConfig] =
    Vector.tabulate(size)(i => perturb(base, seed, i).copy(kg = perturb(base, 0L, i % KgDraws).kg))

  val KgDraws = 3

  def workload(name: String, seed: Long): Workload = name match {
    // TMI's CELF nomination takes most of the time, TDSI's masked re-simulations the next share
    case "dysim-amazon" =>
      Workload(name, batch(DatasetGen.amazonLite(3, T, scale = 0.0625), seed, 20), Vector(Algo.Dysim(200)))
    // no Dysim code: CR-Greedy's full dynamic campaigns, HAG's frozen CELF, PS's MIOA scans
    case "baselines-amazon" =>
      Workload(name, batch(DatasetGen.amazonLite(3, T, scale = 0.0625), seed, 16),
        Vector(Algo.BundleGrd(200), Algo.Hag(200, timeoutMs = 60000L), Algo.Ps(200)))
    case other => throw new IllegalArgumentException(s"unknown workload: $other")
  }

  /** Datasets an untraced run solves once, untimed, before the timed passes. */
  val WarmDatasets = 2

  /** Datasets the traced run covers (the batch's first ones). */
  val TracedDatasets = 2

  /** Kernel probe repetitions per seed group (after one warm-up call). */
  val ProbeReps = 3

  val EndToEnd: Vector[(String, String)] = Vector(
    "setup_s" -> "s", "select_cal" -> "cal", "sigma" -> "adoptions")

  val Layers: Vector[String] = Vector(
    "setup", "social", "kg", "data", "select", "dysim", "tmi", "dre", "tdsi",
    "bundlegrd", "hag", "ps", "crgreedy", "eval", "diffusion")

  val AlgoNames: Vector[String] = Vector("dysim", "bundlegrd", "hag", "ps")

  val PerLayer: Vector[(String, String)] = Vector(
    "setup.spark_session_s" -> "s", "social.generate_s" -> "s", "social.edges" -> "count",
    "kg.generate_s" -> "s", "kg.relevance_s" -> "s", "kg.relevance_max_s" -> "s", "kg.pairs" -> "count",
    "data.assemble_s" -> "s",
    "tmi.pool" -> "count", "tmi.nominate_s" -> "s", "tmi.nominees" -> "count", "tmi.cluster_s" -> "s",
    "tmi.markets_s" -> "s", "tmi.group_s" -> "s", "tmi.markets" -> "count", "tmi.market_users_max" -> "count",
    "dre.s" -> "s", "dre.picks" -> "count",
    "tdsi.s" -> "s", "tdsi.picks" -> "count", "tdsi.evals" -> "count", "tdsi.ms_per_eval" -> "ms",
    "bundlegrd.select_s" -> "s", "bundlegrd.pairs" -> "count", "hag.select_s" -> "s", "hag.pairs" -> "count",
    "ps.select_s" -> "s", "ps.pairs" -> "count", "social.mioa_s" -> "s",
    "crgreedy.schedule_s" -> "s", "crgreedy.evals" -> "count", "crgreedy.ms_per_eval" -> "ms",
    "diffusion.dynamic_ms" -> "ms", "diffusion.dynamic_steps" -> "count", "diffusion.dynamic_us_per_step" -> "us",
    "diffusion.masked_ms" -> "ms", "diffusion.frozen_ms" -> "ms", "diffusion.pi_ms" -> "ms", "diffusion.sigma_s" -> "s",
    "jvm.gc_s" -> "s", "jvm.heap_peak_mb" -> "MB", "trace.overhead_s" -> "s") ++
    AlgoNames.map(a => s"algo.${a}_s" -> "s") ++
    AlgoNames.map(a => s"algo.sigma_$a" -> "adoptions") ++
    Layers.map(l => s"self.${l}_s" -> "s")

  private def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def timed[A](f: => A): (A, Double) = { val t0 = System.nanoTime(); val r = f; (r, secs(t0)) }

  private val threadMx = ManagementFactory.getThreadMXBean

  /** CPU time of the calling thread. Selection runs on one thread, so this
    * is its wall time on an idle machine, without the share that other
    * processes on a busy machine take from it.
    */
  private def cpuTimed[A](f: => A): (A, Double) = {
    val t0 = threadMx.getCurrentThreadCpuTime
    val r = f
    (r, (threadMx.getCurrentThreadCpuTime - t0) / 1e9)
  }

  /** One algorithm run's output. */
  final case class Outcome(dataset: Int, algo: String, seeds: Vector[Seed], sigma: Double)

  /** Attempted/failed algorithm runs and the reasons for failures. */
  final class Verdict {
    var attempted = 0
    var failed = 0
    val problems = mutable.ArrayBuffer.empty[String]
    def fail(what: String): Unit = { problems += what; Console.err.println(s"CHECK FAILED: $what") }
  }

  /** Output check on one run: seeds within budget and rounds, σ finite,
    * non-negative and equal to a fresh evaluation.
    */
  def checkOutput(inst: ProblemInstance, seeds: Vector[Seed], sigma: Double, fresh: Double): Seq[String] = {
    val p = mutable.ArrayBuffer.empty[String]
    if (!inst.withinBudget(seeds)) p += f"cost ${inst.totalCost(seeds)}%.4f over budget ${inst.budget}"
    if (seeds.exists(s => s.t < 1 || s.t > inst.T)) p += s"round outside 1..${inst.T}"
    if (seeds.exists(s => s.user < 0 || s.user >= inst.nUsers || s.item < 0 || s.item >= inst.nItems))
      p += "seed outside the instance"
    if (seeds.distinct.size != seeds.size) p += "duplicate seed"
    if (!(sigma.isFinite && sigma >= 0.0)) p += s"sigma $sigma not finite and >= 0"
    if (sigma != fresh) p += s"sigma $sigma differs from a fresh evaluation $fresh"
    p.toSeq
  }

  /** Equality of the arrays two builds produced. */
  def sameInstance(a: ProblemInstance, b: ProblemInstance): Boolean = {
    def same(x: Array[_ <: AnyRef], y: Array[_ <: AnyRef]) =
      java.util.Arrays.deepEquals(x.asInstanceOf[Array[AnyRef]], y.asInstanceOf[Array[AnyRef]])
    a.nUsers == b.nUsers && a.nItems == b.nItems && a.itemNames == b.itemNames && a.metaKinds == b.metaKinds &&
    a.budget == b.budget && a.T == b.T && a.params == b.params &&
    java.util.Arrays.equals(a.importance, b.importance) &&
    same(a.inNbr, b.inNbr) && same(a.inAct, b.inAct) && same(a.outNbr, b.outNbr) &&
    same(a.basePref, b.basePref) && same(a.cost, b.cost) && same(a.metaS.toArray, b.metaS.toArray)
  }

  /** `InstanceBuilder.build` split into its public steps, one span each. */
  def splitBuild(spark: SparkSession, cfg: DatasetConfig, tr: Tracer, c: Counters): ProblemInstance = {
    val edgePairs = tr.span("social.generate")(socialEdges(spark, cfg))
    val kgEdges = tr.span("kg.generate")(KGGenerator.edges(spark, cfg.kg))
    val metaS = cfg.metaGraphs.map(m =>
      tr.span("kg.relevance")(RelevanceEngine.collectMatrix(RelevanceEngine.relevance(kgEdges, m), cfg.nItems)))
    c.add("social.edges", edgePairs.size)
    metaS.foreach(s => c.add("kg.pairs", s.iterator.zipWithIndex.map { case (row, x) => row.indices.count(y => y > x && row(y) > 0.0) }.sum))
    tr.span("data.assemble")(InstanceBuilder.fromParts(cfg, edgePairs, metaS))
  }

  /** Dataset indices grouped by knowledge-graph draw. */
  def byKg(datasets: Vector[DatasetConfig]): Vector[Vector[Int]] =
    datasets.indices.toVector.groupBy(i => datasets(i).kg).values.toVector.sortBy(_.head)

  def socialEdges(spark: SparkSession, cfg: DatasetConfig): Vector[(Int, Int)] =
    SocialGen.collectEdges(SocialGen.edges(spark, cfg.nUsers, cfg.nEdges, cfg.socialSeed))

  /** One pass over every (dataset, algorithm) of the workload, with the
    * selection CPU time per dataset and per algorithm. Given a [[Calib]],
    * its reference work runs before each algorithm run and after the last,
    * and `selectCal` holds per dataset the summed run times, each divided
    * by the mean of the two reference times around it.
    */
  final case class Pass(
      select: Vector[Double],
      selectCal: Vector[Double],
      byAlgo: Map[String, Double],
      outcomes: Vector[Option[Outcome]])

  def pass(
      wl: Workload,
      insts: Vector[ProblemInstance],
      v: Verdict,
      tr: Tracer = new Tracer(false),
      c: Counters = new Counters,
      cal: Option[Calib] = None): Pass = {
    val select = Array.fill(insts.size)(0.0)
    val byAlgo = mutable.Map.empty[String, Double].withDefaultValue(0.0)
    val runs = mutable.ArrayBuffer.empty[(Int, Double, Double)] // dataset, run time, reference time before
    val outcomes = tr.span("select") {
      for ((inst, d) <- insts.zipWithIndex; algo <- wl.algos) yield {
        val ds = s"${wl.datasets(d).name}#$d"
        v.attempted += 1
        val ref = cal.fold(0.0)(_.slice())
        val (out, s) = cpuTimed {
          try tr.span(algo.name)(if (tr.enabled) algo.traced(inst, tr, c) else algo.run(inst))
          catch { case NonFatal(e) => v.fail(s"${algo.name} on $ds: $e"); None }
        }
        select(d) += s
        byAlgo(algo.name) += s
        runs += ((d, s, ref))
        if (out.isEmpty) { v.failed += 1; v.fail(s"${algo.name} on $ds: no result (timeout or error)") }
        out.map(seeds => (d, algo.name, seeds))
      }
    }
    val selectCal = Array.fill(insts.size)(0.0)
    cal.foreach { k =>
      val refs = runs.map(_._3) :+ k.slice()
      runs.zipWithIndex.foreach { case ((d, s, _), i) => selectCal(d) += s / ((refs(i) + refs(i + 1)) / 2) }
    }
    val results = tr.span("eval") {
      outcomes.map(_.map { case (d, algo, seeds) =>
        Outcome(d, algo, seeds, tr.span("diffusion.sigma")(LocalDiffusion.sigma(insts(d), seeds)))
      })
    }
    Pass(select.toVector, selectCal.toVector, byAlgo.toMap, results)
  }

  /** Checks one pass's outcomes (see [[checkOutput]]) and, given a
    * reference pass over the same datasets, that seeds and σ repeat
    * exactly. Counts a failed run at most once.
    */
  def checkPass(
      p: Pass,
      insts: Vector[ProblemInstance],
      reference: Option[Pass],
      wl: Workload,
      v: Verdict): Unit = {
    p.outcomes.zipWithIndex.foreach { case (out, i) =>
      out.foreach { o =>
        val fresh = LocalDiffusion.sigma(insts(o.dataset), o.seeds)
        val problems = checkOutput(insts(o.dataset), o.seeds, o.sigma, fresh) ++
          reference.flatMap(_.outcomes.lift(i)).filter(_ != Some(o)).map(_ => "seeds or sigma differ across repeats")
        if (problems.nonEmpty) {
          v.failed += 1
          problems.foreach(q => v.fail(s"${o.algo} on ${wl.datasets(o.dataset).name}#${o.dataset}: $q"))
        }
      }
    }
  }

  def session(): SparkSession = {
    val threads = math.min(4, Runtime.getRuntime.availableProcessors())
    SparkSession.builder()
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", threads.toString)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", sys.props.getOrElse("perfbench.work", ".") + "/spark-local")
      .config("spark.sql.warehouse.dir", sys.props.getOrElse("perfbench.work", ".") + "/spark-warehouse")
      .getOrCreate()
  }

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    if (args.contains("--selftest")) { SelfTest.run(); return }
    if (args.contains("--list-metrics")) {
      EndToEnd.foreach { case (n, u) => println(s"end_to_end $n $u") }
      PerLayer.foreach { case (n, u) => println(s"per_layer $n $u") }
      return
    }
    val name = opts.getOrElse("workload", sys.error("--workload is required"))
    val seed = opts.getOrElse("seed", "0").toLong
    val seconds = opts.getOrElse("seconds", "10").toDouble
    val trace = opts.getOrElse("trace", "0") == "1"
    val phase = opts.getOrElse("phase", if (trace) "trace" else sys.error("--phase setup|select is required"))
    def instancesFile = opts.getOrElse("instances", sys.error("--instances is required"))
    val wl = workload(name, seed)
    val v = new Verdict
    val metrics =
      if (phase == "select") select(wl, seconds, v, instancesFile)
      else {
        val (spark, sessionS) = timed(session())
        try {
          printInfo(spark, wl, seed, opts.getOrElse("sha", "unknown"))
          if (phase == "trace") traced(spark, wl, sessionS, v, opts.get("trace-out"))
          else if (phase == "setup") setupPhase(spark, wl, sessionS, v, instancesFile)
          else sys.error(s"unknown phase: $phase")
        } finally spark.stop()
      }
    val correct = v.problems.isEmpty && v.failed == 0
    println(s"check: ${if (correct) "PASS" else "FAIL"} (${v.attempted} runs attempted, ${v.failed} failed)")
    val body = metrics.map { case (n, value, unit) =>
      require(value.isFinite, s"metric $n is $value")
      s""""$n": {"value": $value, "unit": "$unit"}"""
    }.mkString(", ")
    println(s"""{"correct": $correct, "attempted": ${v.attempted}, "failed": ${v.failed}, "metrics": {$body}}""")
  }

  private def printInfo(spark: SparkSession, wl: Workload, seed: Long, sha: String): Unit = {
    val info = Seq(
      "workload" -> s""""${wl.name}"""", "seed" -> seed.toString, "sha" -> s""""$sha"""",
      "nproc" -> Runtime.getRuntime.availableProcessors().toString,
      "spark_master" -> s""""${spark.sparkContext.master}"""",
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "xmx_mb" -> (Runtime.getRuntime.maxMemory() / (1 << 20)).toString,
      "datasets" -> wl.datasets.map(d =>
        s""""${d.name}:${d.nUsers}u/${d.nItems}i/b=${d.budget}/T=${d.T}/social=${d.socialSeed}/kg=${d.kg.seed}/pref=${d.prefSeed}"""")
        .mkString("[", ",", "]"))
    println("info " + info.map { case (k, v) => s""""$k":$v""" }.mkString("{", ",", "}"))
  }

  /** Builds the first dataset of each knowledge-graph draw with
    * `InstanceBuilder.build` and assembles the others from its relevance
    * matrices and their own social graph with `InstanceBuilder.fromParts`
    * (checked to reproduce the build). Returns the instances and each
    * build's time.
    */
  private def setup(spark: SparkSession, datasets: Vector[DatasetConfig], v: Verdict)
      : (Vector[ProblemInstance], Vector[Double]) = {
    val insts = new Array[ProblemInstance](datasets.size)
    val buildS = byKg(datasets).map { idx =>
      val cfg = datasets(idx.head)
      val (inst, s) = timed(InstanceBuilder.build(spark, cfg))
      if (!sameInstance(inst, InstanceBuilder.fromParts(cfg, socialEdges(spark, cfg), inst.metaS)))
        v.fail(s"InstanceBuilder.fromParts differs from InstanceBuilder.build on ${cfg.name}")
      insts(idx.head) = inst
      idx.tail.foreach(i => insts(i) = InstanceBuilder.fromParts(datasets(i), socialEdges(spark, datasets(i)), inst.metaS))
      s
    }
    (insts.toVector, buildS)
  }

  /** Untraced run, first process: builds the workload's instances on Spark
    * and writes them to `path` for [[select]].
    */
  def setupPhase(spark: SparkSession, wl: Workload, sessionS: Double, v: Verdict, path: String)
      : Seq[(String, Double, String)] = {
    val ((insts, buildS), allS) = timed(setup(spark, wl.datasets, v))
    val setupS = sessionS + Stats.median(buildS)
    val out = new ObjectOutputStream(new BufferedOutputStream(Files.newOutputStream(Paths.get(path))))
    try out.writeObject(insts) finally out.close()
    println(f"setup_s    = $setupS%.6f s (session $sessionS%.4f + median of ${buildS.size} builds: " +
      buildS.map(b => f"$b%.3f").mkString(", ") + f"; the other ${insts.size - buildS.size} datasets assembled in ${allS - buildS.sum}%.3f s)")
    Seq(("setup_s", setupS, "s"))
  }

  /** Untraced run, second process: solves the instances [[setupPhase]]
    * wrote, in a JVM that never ran Spark, so no compilation backlog from
    * the build competes with the timed selection.
    */
  def select(wl: Workload, seconds: Double, v: Verdict, path: String): Seq[(String, Double, String)] = {
    val t0 = System.nanoTime()
    val in = new ObjectInputStream(new BufferedInputStream(Files.newInputStream(Paths.get(path))))
    val insts = try in.readObject().asInstanceOf[Vector[ProblemInstance]] finally in.close()
    require(insts.size == wl.datasets.size, s"${insts.size} instances for ${wl.datasets.size} datasets")
    // untimed runs of the reference work and of each algorithm on the first
    // datasets, so that no timed run carries the JIT compiler's warm-up
    val cal = new Calib
    (1 to Calib.WarmSlices).foreach(_ => cal.slice())
    val warm = pass(wl, insts.take(WarmDatasets), v, cal = Some(cal))
    checkPass(warm, insts, None, wl, v)
    val passes = mutable.ArrayBuffer.empty[Pass]
    val start = System.nanoTime()
    while (passes.isEmpty || secs(start) < seconds) {
      val p = pass(wl, insts, v, cal = Some(cal))
      checkPass(p, insts, Some(passes.headOption.getOrElse(warm)), wl, v)
      passes += p
    }
    // per dataset: the median over passes; per run: the mean over datasets
    def perDataset(f: Pass => Vector[Double]) = insts.indices.toVector.map(d => Stats.median(passes.toSeq.map(p => f(p)(d))))
    val selectCal = perDataset(_.selectCal)
    val select = perDataset(_.select)
    val refs = cal.samples.drop(Calib.WarmSlices)
    def summary(xs: Seq[Double]): String = {
      val (q1, q2, q3) = Stats.quartiles(xs)
      val tail = Stats.tailPercentile(xs).fold("no percentile above the median has ten samples beyond it")(t =>
        f"p${t._1}%.1f ${t._2}%.4f")
      f"${xs.size} datasets x ${passes.size} passes: median $q2%.4f, Q1 $q1%.4f, Q3 $q3%.4f, $tail"
    }
    println(f"select CPU time per dataset (s), mean ${select.sum / select.size}%.4f; " +
      summary(select) + select.map(x => f"$x%.4f").mkString("; per dataset: ", " ", ""))
    val (r1, r2, r3) = Stats.quartiles(refs)
    println(f"reference work (s): ${refs.size} runs, median $r2%.4f, Q1 $r1%.4f, Q3 $r3%.4f")
    val sigma = insts.indices.map(d => passes.head.outcomes.flatten.filter(_.dataset == d).map(_.sigma).sum)
    val values = Seq(
      ("select_cal", selectCal.sum / selectCal.size,
        "mean over datasets; " + summary(selectCal) + selectCal.map(x => f"$x%.3f").mkString("; per dataset: ", " ", "")),
      ("sigma", sigma.sum / sigma.size, s"mean over ${sigma.size} datasets of the summed sigma of ${wl.algos.size} algorithm(s)"))
    val units = EndToEnd.toMap
    values.foreach { case (n, x, how) => println(f"$n%-10s = $x%.6f ${units(n)} ($how)") }
    println(f"select wall time ${secs(t0)}%.1f s")
    values.map { case (n, x, _) => (n, x, units(n)) }
  }

  def traced(spark: SparkSession, full: Workload, sessionS: Double, v: Verdict, traceOut: Option[String])
      : Seq[(String, Double, String)] = {
    val wl = full.copy(datasets = full.datasets.take(TracedDatasets))
    // A: untraced warm-up pass through the program's own entry points
    val (instsA, _) = setup(spark, wl.datasets, v)
    val passA = pass(wl, instsA, v)
    checkPass(passA, instsA, None, wl, v)
    // B: the traced pass
    val tr = new Tracer(true)
    val c = new Counters
    val instsB = new Array[ProblemInstance](wl.datasets.size)
    tr.span("setup")(byKg(wl.datasets).foreach { idx =>
      val inst = tr.span("data.build")(splitBuild(spark, wl.datasets(idx.head), tr, c))
      instsB(idx.head) = inst
      idx.tail.foreach { i =>
        val edges = tr.span("social.generate")(socialEdges(spark, wl.datasets(i)))
        c.add("social.edges", edges.size)
        instsB(i) = tr.span("data.assemble")(InstanceBuilder.fromParts(wl.datasets(i), edges, inst.metaS))
      }
    })
    val passB = pass(wl, instsB.toVector, v, tr, c)
    // C: untraced again, as warm as B
    val ((instsC, _), buildC) = timed(setup(spark, wl.datasets, v))
    val (passC, passCS) = timed(pass(wl, instsC, v))
    checkPass(passC, instsC, Some(passA), wl, v)
    if (!instsB.toVector.zip(instsA).forall { case (a, b) => sameInstance(a, b) })
      v.fail("split build differs from InstanceBuilder.build")
    passB.outcomes.zip(passA.outcomes).foreach { case (b, a) =>
      if (b != a) { v.failed += 1; v.fail(s"traced replica differs from the entry point: ${b.map(_.algo)} vs ${a.map(_.algo)}") }
    }
    val overhead = (tr.total("setup") + tr.total("select") + tr.total("eval")) - (buildC + passCS)

    // probes outside the traced pass
    val dysimCfgs = wl.algos.collect { case d: Algo.Dysim => d }
    instsA.foreach(inst => dysimCfgs.foreach(d => c.add("tmi.pool", TMI.candidatePool(inst, TMI.Config(maxCandidates = d.maxCandidates)).size)))
    val psAlgos = wl.algos.collect { case p: Algo.Ps => p }
    instsA.foreach(inst => psAlgos.foreach(p => tr.span("social.mioa")(p.mioaScan(inst))))
    val groups = passA.outcomes.flatten.map(o => (instsA(o.dataset), o.seeds))
    val probe = kernelProbes(groups)

    val gc = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ >= 0).sum / 1e3
    val heapPeak = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == MemoryType.HEAP).map(_.getPeakUsage.getUsed).sum / (1024.0 * 1024.0)
    val self = tr.selfTimes
    traceOut.foreach { path =>
      val selfJson = Layers.map(l => s""""$l": ${self.getOrElse(l, 0.0)}""").mkString("{", ", ", "}")
      Files.createDirectories(Paths.get(path).toAbsolutePath.getParent)
      Files.write(Paths.get(path), s"""{"workload": "${wl.name}", "self_s": $selfJson, "spans": ${tr.toJson}}""".getBytes(StandardCharsets.UTF_8))
    }
    val tracedTotal = tr.total("setup") + tr.total("select") + tr.total("eval")
    println(f"self time per layer in the traced pass ($tracedTotal%.3f s: setup ${tr.total("setup")}%.3f, " +
      f"select ${tr.total("select")}%.3f, eval ${tr.total("eval")}%.3f):")
    Layers.filter(self.contains).sortBy(l => -self(l)).foreach { l =>
      println(f"  $l%-10s ${self(l)}%9.4f s  ${100 * self(l) / tracedTotal}%5.1f%%")
    }

    val tdsiS = tr.total("tdsi")
    val crS = tr.total("crgreedy.schedule")
    val byAlgoC = passC.byAlgo
    val sigmaBy = passC.outcomes.flatten.groupMapReduce(_.algo)(_.sigma)(_ + _)
    val values: Map[String, Double] = Map(
      "setup.spark_session_s" -> sessionS,
      "social.generate_s" -> tr.total("social.generate"), "social.edges" -> c("social.edges"),
      "kg.generate_s" -> tr.total("kg.generate"), "kg.relevance_s" -> tr.total("kg.relevance"),
      "kg.relevance_max_s" -> tr.longest("kg.relevance"), "kg.pairs" -> c("kg.pairs"),
      "data.assemble_s" -> tr.total("data.assemble"),
      "tmi.pool" -> c("tmi.pool"), "tmi.nominate_s" -> tr.total("tmi.nominate"), "tmi.nominees" -> c("tmi.nominees"),
      "tmi.cluster_s" -> tr.total("tmi.cluster"), "tmi.markets_s" -> tr.total("tmi.markets"),
      "tmi.group_s" -> tr.total("tmi.group"), "tmi.markets" -> c("tmi.markets"),
      "tmi.market_users_max" -> c("tmi.market_users_max"),
      "dre.s" -> tr.total("dre"), "dre.picks" -> c("dre.picks"),
      "tdsi.s" -> tdsiS, "tdsi.picks" -> c("tdsi.picks"), "tdsi.evals" -> c("tdsi.evals"),
      "tdsi.ms_per_eval" -> (if (c("tdsi.evals") > 0) 1e3 * tdsiS / c("tdsi.evals") else 0.0),
      "bundlegrd.select_s" -> tr.total("bundlegrd.select"), "bundlegrd.pairs" -> c("bundlegrd.pairs"),
      "hag.select_s" -> tr.total("hag.select"), "hag.pairs" -> c("hag.pairs"),
      "ps.select_s" -> tr.total("ps.select"), "ps.pairs" -> c("ps.pairs"),
      "social.mioa_s" -> tr.total("social.mioa"),
      "crgreedy.schedule_s" -> crS, "crgreedy.evals" -> c("crgreedy.evals"),
      "crgreedy.ms_per_eval" -> (if (c("crgreedy.evals") > 0) 1e3 * crS / c("crgreedy.evals") else 0.0),
      "diffusion.sigma_s" -> tr.total("diffusion.sigma"),
      "jvm.gc_s" -> gc, "jvm.heap_peak_mb" -> heapPeak, "trace.overhead_s" -> overhead) ++
      probe ++
      AlgoNames.map(a => s"algo.${a}_s" -> byAlgoC.getOrElse(a, 0.0)) ++
      AlgoNames.map(a => s"algo.sigma_$a" -> sigmaBy.getOrElse(a, 0.0)) ++
      Layers.map(l => s"self.${l}_s" -> self.getOrElse(l, 0.0))
    PerLayer.map { case (n, u) => (n, values(n), u) }
  }

  /** Warm-JIT kernel timings on the workload's result seed groups, as the
    * mean over groups of each group's median per-call time.
    */
  def kernelProbes(groups: Seq[(ProblemInstance, Vector[Seed])]): Map[String, Double] = {
    val theta = TMI.Config().thetaMioa
    def perCall(f: => Unit): Double = {
      f
      Stats.median(Seq.fill(ProbeReps)(timed(f)._2 * 1e3))
    }
    val rows = groups.map { case (inst, seeds) =>
      val outAdj = MIOA.outAdjacency(inst.inNbr, inst.inAct)
      val users = seeds.map(_.user).distinct
      val mask = new Array[Boolean](inst.nUsers)
      (MIOA.reachLocal(outAdj, users, theta).keys ++ users).foreach(mask(_) = true)
      val res = LocalDiffusion.run(inst, seeds)
      val dyn = perCall(LocalDiffusion.run(inst, seeds))
      val masked = perCall(LocalDiffusion.run(inst, seeds, Some(mask)))
      val frozen = perCall(FrozenSpread.sigma(inst, seeds.map(_.nominee), 4))
      val pi = perCall(LocalDiffusion.pi(inst, res))
      (dyn, res.steps.toDouble, masked, frozen, pi)
    }
    if (rows.isEmpty) return Map(
      "diffusion.dynamic_ms" -> 0.0, "diffusion.dynamic_steps" -> 0.0, "diffusion.dynamic_us_per_step" -> 0.0,
      "diffusion.masked_ms" -> 0.0, "diffusion.frozen_ms" -> 0.0, "diffusion.pi_ms" -> 0.0)
    def mean(f: ((Double, Double, Double, Double, Double)) => Double) = rows.map(f).sum / rows.size
    val steps = rows.map(_._2).sum
    Map(
      "diffusion.dynamic_ms" -> mean(_._1),
      "diffusion.dynamic_steps" -> mean(_._2),
      "diffusion.dynamic_us_per_step" -> (if (steps > 0) 1e3 * rows.map(_._1).sum / steps else 0.0),
      "diffusion.masked_ms" -> mean(_._3),
      "diffusion.frozen_ms" -> mean(_._4),
      "diffusion.pi_ms" -> mean(_._5))
  }
}
