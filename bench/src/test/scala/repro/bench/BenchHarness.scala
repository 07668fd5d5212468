package repro.bench

import java.nio.file.{Files, Paths, StandardOpenOption}
import repro.core.{ProblemInstance, Seed, TMI, Dysim}
import repro.baselines.{BundleGRD, HAG, PS}
import repro.diffusion.LocalDiffusion

/** Shared machinery of the per-table benchmark suites: timing, table
  * formatting, result persistence (bench/results/<table>.txt), the
  * uniform algorithm runners and the σ/time sweep of Figs. 6(a-g).
  *
  * Every algorithm is '''evaluated''' by the same evaluator — the full
  * dynamic mean-field simulator ([[LocalDiffusion.sigma]]) — so the
  * comparison measures seed quality, never evaluator differences.
  */
object BenchHarness {

  final case class AlgoRun(name: String, sigma: Double, millis: Long, nSeeds: Int, timedOut: Boolean = false) {
    def sigmaCell(fmt: Double => String): String = if (timedOut) "timeout" else fmt(sigma)
    def msCell: String = if (timedOut) "timeout" else millis.toString
  }

  def timeMs[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1000000L)
  }

  /** Run one algorithm end to end (selection + timing + evaluation). */
  def runAlgo(name: String, inst: ProblemInstance)(select: ProblemInstance => Option[Vector[Seed]]): AlgoRun = {
    val (seedsOpt, ms) = timeMs(select(inst))
    seedsOpt match {
      case Some(seeds) => AlgoRun(name, LocalDiffusion.sigma(inst, seeds), ms, seeds.size)
      case None        => AlgoRun(name, 0.0, ms, 0, timedOut = true)
    }
  }

  /** Dysim alone (T-7a, T-7b and the first contender). */
  def dysim(inst: ProblemInstance, cfg: TMI.Config): AlgoRun = runAlgo("Dysim", inst)(i => Some(Dysim.run(i, cfg)))

  /** The standard four contenders of Figs. 5-6. */
  def contenders(inst: ProblemInstance, poolUsers: Int, hagTimeoutMs: Long = 120000L): Vector[AlgoRun] = Vector(
    dysim(inst, TMI.Config(maxCandidates = poolUsers)),
    runAlgo("BundleGRD", inst)(i => Some(BundleGRD.run(i, poolUsers))),
    runAlgo("HAG", inst)(i => HAG.run(i, poolUsers, hagTimeoutMs)),
    runAlgo("PS", inst)(i => Some(PS.run(i, poolUsers))))

  /** One row of a σ/time sweep: a dataset at one value of the swept parameter. */
  final case class Point(dataset: String, value: String, inst: ProblemInstance, hagTimeoutMs: Long)

  /** The σ table and the time table of Figs. 6(a-g): the four contenders
    * (pool of 200) run at every point, which is printed as a `[T6]` line
    * and its σ checked. Each table is a (file name, title) pair.
    */
  def sigmaTimeSweep(param: String, sigmaTable: (String, String), timeTable: (String, String))(
      points: Iterator[Point]): Unit = {
    val runs = points.map { p =>
      val rs = contenders(p.inst, poolUsers = 200, hagTimeoutMs = p.hagTimeoutMs)
      println(s"[T6] ${p.dataset} $param=${p.value}: " +
        rs.map(r => s"${r.name}=${r.sigmaCell(f1)}(${r.millis}ms)").mkString(" "))
      rs.foreach(r => assert(r.timedOut || (r.sigma.isFinite && r.sigma >= 0.0), s"${p.dataset} $param=${p.value} ${r.name}"))
      (Seq(p.dataset, p.value), rs)
    }.toVector
    val header = Seq("dataset", param, "Dysim", "BundleGRD", "HAG", "PS")
    report(sigmaTable._1, formatTable(sigmaTable._2, header, runs.map { case (k, rs) => k ++ rs.map(_.sigmaCell(f1)) }))
    report(timeTable._1, formatTable(timeTable._2, header, runs.map { case (k, rs) => k ++ rs.map(_.msCell) }))
  }

  /** Fixed-width table for stdout + the results file. */
  def formatTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) = r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    val sep = widths.map("-" * _).mkString("  ")
    (Seq(s"== $title ==", fmt(header), sep) ++ rows.map(fmt)).mkString("\n") + "\n"
  }

  /** Print and persist a table under bench/results/. */
  def report(fileName: String, text: String): Unit = {
    println(text)
    val dir = Paths.get(sys.props.getOrElse("bench.results.dir", "results"))
    Files.createDirectories(dir)
    Files.write(dir.resolve(fileName), text.getBytes("UTF-8"),
      StandardOpenOption.CREATE, StandardOpenOption.TRUNCATE_EXISTING)
  }

  def f1(d: Double): String = f"$d%.1f"
  def f2(d: Double): String = f"$d%.2f"
}
