package repro.core

/** Greedy flow computation (Section 4.1, Definitions 4–5).
  *
  * All interactions are processed in a single pass in timestamp order; each
  * interaction `(t_i, q_i)` on edge `(v, u)` transfers `min(q_i, B_v)` from
  * `v`'s buffer to `u`'s. The source buffer is infinite; the greedy flow is
  * whatever the sink has buffered after the last interaction. Linear in the
  * number of interactions; the buffers are one `double[]` over the dense
  * vertex ids.
  *
  * Ties follow [[FlowGraph.sweep]]: a quantity arriving at `t` is usable only
  * after `t`, and same-time sends debit the sender in turn. On inputs with
  * distinct timestamps — the paper's implicit assumption — this is the
  * textbook greedy scan.
  */
object Greedy {

  /** Outcome of a greedy scan.
    *
    * @param flow total quantity buffered at the sink (Definition 5)
    */
  final class Result private[core] (val flow: Double, g: FlowGraph, buf: Array[Double], moved: Array[Double]) {

    /** The sink's arrivals as `ts` and `q` arrays, in time order. */
    private[core] def arrivals: (Array[Long], Array[Double]) = {
      val ps = g.byTime.filter(p => moved(p) > 0 && g.dst(g.edgeOf(p)) == g.t)
      (ps.map(g.ts(_)), ps.map(moved(_)))
    }

    /** The `(ts, q)` events with `q > 0` that increased the sink's buffer —
      * exactly the interaction set that Lemma 3 places on the reduced edge
      * when the sink of the scan is the last vertex of a chain.
      */
    def sinkArrivals: Vector[(Long, Double)] = arrivals match { case (ts, qs) => ts.toVector.zip(qs) }

    /** Final buffer of every non-source vertex. */
    def buffers: Map[Int, Double] = (0 until g.n).filter(_ != g.s).map(v => g.ids(v) -> buf(v)).toMap
  }

  /** Greedy scan of `g`: the moved quantity of every interaction and the
    * final buffers, from which the result derives the sink's arrivals.
    */
  def run(g: FlowGraph): Result = {
    val s      = g.s
    val edgeOf = g.edgeOf
    val buf    = new Array[Double](g.n)
    val moved  = new Array[Double](g.interactionCount)
    g.sweep { p =>
      val v = g.src(edgeOf(p))
      val q = math.min(g.qty(p), if (v == s) Double.PositiveInfinity else buf(v))
      if (q > 0) {
        if (v != s) buf(v) -= q
        moved(p) = q
      }
    } { p => if (moved(p) > 0) buf(g.dst(edgeOf(p))) += moved(p) }
    new Result(buf(g.t), g, buf, moved)
  }

  /** Just the flow value `f(G)`. */
  def flow(g: FlowGraph): Double = run(g).flow
}
