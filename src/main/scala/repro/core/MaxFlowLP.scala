package repro.core

import repro.lp.Simplex

/** Maximum flow computation as a linear program (Section 4.2.1).
  *
  * One variable `x_i` per interaction that does **not** originate from the
  * source (source-outgoing interactions are fixed at `x_i = q_i` — the
  * source's buffer is infinite so sending less can never help). Constraints:
  *
  *   (1)  0 <= x_i <= q_i                                     (column bounds)
  *   (2)  x_i <= Σ_{in before t_i} x_j − Σ_{out before t_i} x_j  per interaction
  *   (3)  maximize Σ_{dest_i = sink} x_i
  *
  * Incoming interactions from the source contribute their full `q_j` as a
  * constant on the right-hand side of (2). Direct source→sink interactions
  * contribute a constant to the objective. "Before" follows
  * [[FlowGraph.sweep]]: arrivals count only from earlier timestamps, and
  * earlier sends of the same timestamp count against the buffer too, so two
  * same-time sends cannot spend it twice.
  *
  * Like lpsolve, the paper's solver, [[repro.lp.Simplex]] takes (1) as
  * column bounds, so the LP has one row of (2) per variable; an infinite
  * `q_i` leaves `x_i` unbounded above.
  */
object MaxFlowLP {

  /** Max flow value plus the size of the LP actually solved: its variables
    * and its rows of (2), one per variable.
    */
  final case class Result(flow: Double, numVariables: Int, numConstraints: Int)

  def maxFlow(g: FlowGraph): Double = solve(g).flow

  def solve(g: FlowGraph): Result = {
    val source = g.s
    val sink   = g.t
    val edgeOf = g.edgeOf
    var n = 0
    for (e <- 0 until g.edgeCount) if (g.src(e) != source) n += g.start(e + 1) - g.start(e)

    // A vertex's buffer before the current timestamp group: the constant
    // inflow from the source plus the variables that arrived, minus the
    // variables of every send so far, same-time sends included. The
    // variables of each list are chained through `next*`, newest first.
    val fromSource = new Array[Double](g.n)
    val inHead     = Array.fill(g.n)(-1)
    val outHead    = Array.fill(g.n)(-1)
    val inNext     = new Array[Int](n)
    val outNext    = new Array[Int](n)

    val varOf  = new Array[Int](g.interactionCount) // variable of each position, -1 if sent by the source
    val c      = new Array[Double](n)
    val bound  = new Array[Double](n)
    var direct = 0.0 // source -> sink interactions: a constant objective term
    var vars   = 0
    val rows   = new Array[Array[Double]](n)
    val rhs    = new Array[Double](n)

    // Constraint (2) of each send, against its sender's buffer.
    g.sweep { p =>
      val v = g.src(edgeOf(p))
      val d = g.dst(edgeOf(p))
      if (v == source) {
        varOf(p) = -1
        if (d == sink) direct += g.qty(p)
      } else {
        val x = vars
        vars += 1
        varOf(p) = x
        if (d == sink) c(x) = 1.0
        bound(x) = g.qty(p)
        val row = new Array[Double](n)
        row(x) = 1.0
        var o = outHead(v)
        while (o >= 0) { row(o) += 1.0; o = outNext(o) }
        o = inHead(v)
        while (o >= 0) { row(o) -= 1.0; o = inNext(o) }
        rows(x) = row
        rhs(x) = fromSource(v)
        outNext(x) = outHead(v)
        outHead(v) = x
      }
    } { p =>
      val x = varOf(p)
      val d = g.dst(edgeOf(p))
      if (d != source) {
        if (x < 0) fromSource(d) += g.qty(p)
        else { inNext(x) = inHead(d); inHead(d) = x }
      }
    }

    if (n == 0) return Result(direct, 0, 0)

    val sol = Simplex.maximize(rows, rhs, c, bound)
    Result(sol.value + direct, n, n)
  }
}
