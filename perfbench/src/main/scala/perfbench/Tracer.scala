package perfbench

import scala.collection.mutable

/** In-memory spans around the benchmark's calls into the program's public
  * functions. A span's layer is its name up to the first '.', so
  * `tmi.nominate` belongs to layer `tmi`. Disabled tracers record nothing
  * and add only a branch to each call.
  */
final class Tracer(val enabled: Boolean) {
  import Tracer.Span

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil

  def span[A](name: String)(f: => A): A =
    if (!enabled) f
    else {
      val s = Span(spans.length, name, open.headOption.getOrElse(-1), System.nanoTime(), 0L)
      spans += s
      open = s.id :: open
      try f
      finally { s.end = System.nanoTime(); open = open.tail }
    }

  def all: Seq[Span] = spans.toSeq

  /** Summed duration (s) of the spans with this name. */
  def total(name: String): Double = spans.iterator.filter(_.name == name).map(_.seconds).sum

  /** Longest single span (s) with this name. */
  def longest(name: String): Double = spans.iterator.filter(_.name == name).map(_.seconds).maxOption.getOrElse(0.0)

  /** Self time per layer (s): each span's duration minus the part of it
    * its children cover (children are nested and sequential, so that is the
    * sum of their durations), summed over the layer's spans.
    */
  def selfTimes: Map[String, Double] = {
    val childTime = mutable.Map.empty[Int, Long].withDefaultValue(0L)
    spans.foreach(s => if (s.parent >= 0) childTime(s.parent) += s.end - s.start)
    spans.groupBy(_.layer).map { case (layer, ss) =>
      layer -> ss.iterator.map(s => (s.end - s.start - childTime(s.id)) / 1e9).sum
    }
  }

  /** Spans as JSON lines (name, start/end in ns from the first span, parent). */
  def toJson: String = {
    val t0 = spans.headOption.map(_.start).getOrElse(0L)
    spans.iterator.map { s =>
      s"""{"id":${s.id},"name":"${s.name}","parent":${s.parent},"start_ns":${s.start - t0},"end_ns":${s.end - t0}}"""
    }.mkString("[\n", ",\n", "\n]")
  }
}

object Tracer {
  final case class Span(id: Int, name: String, parent: Int, start: Long, var end: Long) {
    def seconds: Double = (end - start) / 1e9
    def layer: String = name.takeWhile(_ != '.')
  }
}
