package repro.perfbench

import scala.collection.mutable

/** One timed call into a layer. `req` is the request the call serves: the
  * subgraph seed, or the pattern name. `parent` is the id of the enclosing
  * span, or -1.
  */
final case class Span(id: Long, parent: Long, name: String, req: String, startNs: Long, endNs: Long) {
  def ns: Long = endNs - startNs
}

/** Records spans and counters in memory. Each Spark task has its own
  * tracer, whose contents travel back with the task's result;
  * ids are unique across tracers because they carry the tracer's `origin`.
  * A tracer built with `enabled = false` records nothing and only runs the
  * wrapped code, so traced and untraced passes share one code path.
  */
final class Tracer(origin: Int, val enabled: Boolean) extends Serializable {
  val spans: mutable.ArrayBuffer[Span]        = mutable.ArrayBuffer.empty
  val counters: mutable.Map[String, Double]    = mutable.Map.empty.withDefaultValue(0.0)
  private var next                             = 0L
  private var open                             = List.empty[Long] // enclosing spans, innermost first
  var req: String                              = ""

  def span[A](name: String)(f: => A): A =
    if (!enabled) f
    else {
      val id = (origin.toLong << 32) | next
      next += 1
      val parent = open.headOption.getOrElse(-1L)
      open = id :: open
      val t0 = System.nanoTime()
      try f
      finally {
        val t1 = System.nanoTime()
        open = open.tail
        spans += Span(id, parent, name, req, t0, t1)
      }
    }

  def count(name: String, v: Double): Unit = if (enabled) counters(name) += v

  def absorb(spans: Iterable[Span], counters: collection.Map[String, Double]): Unit = if (enabled) {
    this.spans ++= spans
    counters.foreach { case (k, v) => this.counters(k) += v }
  }

  /** Summed duration (ms) and number of spans per span name. */
  def totals: Map[String, (Double, Int)] =
    spans.groupBy(_.name).view.mapValues(ss => (ss.map(_.ns).sum / 1e6, ss.size)).toMap
}
