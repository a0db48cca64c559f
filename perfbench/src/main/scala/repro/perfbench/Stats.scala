package repro.perfbench

/** Timing, order statistics and a minimal JSON writer. */
object Stats {

  def timeNs[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val r  = f
    (r, System.nanoTime() - t0)
  }

  /** Linear-interpolation quantile, `q` in [0, 1]. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    val s   = xs.sorted
    val pos = q * (s.size - 1)
    val lo  = pos.toInt
    val hi  = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** The highest of these percentiles with at least ten samples beyond it. */
  def supportedPercentile(n: Int): Option[Double] =
    Seq(99.9, 99.0, 95.0, 90.0).find(p => n * (1 - p / 100) >= 10)

  def json(v: Any): String = v match {
    case null                      => "null"
    case s: String                 => "\"" + s.flatMap {
        case '"'  => "\\\""
        case '\\' => "\\\\"
        case '\n' => "\\n"
        case c if c < ' ' => f"\\u${c.toInt}%04x"
        case c    => c.toString
      } + "\""
    case d: Double                 => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float                  => json(f.toDouble)
    case b: Boolean                => b.toString
    case n: Number                 => n.toString
    case m: collection.Map[_, _]   => m.map { case (k, x) => json(k.toString) + ": " + json(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_]           => xs.map(json).mkString("[", ", ", "]")
    case o                         => json(o.toString)
  }
}
