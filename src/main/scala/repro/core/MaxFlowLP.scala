package repro.core

import repro.lp.Simplex
import scala.collection.mutable

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

  /** A vertex's buffer before the current timestamp group: the constant
    * inflow from the source plus the variables that arrived, minus the
    * variables of every send so far, same-time sends included.
    */
  private final class Buffer {
    var fromSource = 0.0
    val in, out    = mutable.ArrayBuffer.empty[Int]
  }

  def solve(g: FlowGraph): Result = {
    val inters = g.interactions
    val source = g.source
    val n      = inters.count(_.src != source)

    val buffers = mutable.Map.empty[Int, Buffer]
    def buffer(v: Int) = buffers.getOrElseUpdate(v, new Buffer)

    val varOf  = new Array[Int](inters.length) // variable of each position, -1 if sent by the source
    val c      = new Array[Double](n)
    val bound  = new Array[Double](n)
    var direct = 0.0 // source -> sink interactions: a constant objective term
    var vars   = 0
    val rows   = mutable.ArrayBuffer.empty[Array[Double]]
    val rhs    = mutable.ArrayBuffer.empty[Double]

    // Constraint (2) of each send, against its sender's buffer.
    FlowGraph.sweep(inters) { k =>
      val i = inters(k)
      if (i.src == source) {
        varOf(k) = -1
        if (i.dst == g.sink) direct += i.qty
      } else {
        val x = vars
        vars += 1
        varOf(k) = x
        if (i.dst == g.sink) c(x) = 1.0
        bound(x) = i.qty
        val b   = buffer(i.src)
        val row = new Array[Double](n)
        row(x) = 1.0
        b.out.foreach(o => row(o) += 1.0)
        b.in.foreach(o => row(o) -= 1.0)
        rows += row
        rhs += b.fromSource
        b.out += x
      }
    } { k =>
      val i = inters(k)
      if (i.dst != source) {
        val b = buffer(i.dst)
        if (varOf(k) < 0) b.fromSource += i.qty else b.in += varOf(k)
      }
    }

    if (n == 0) return Result(direct, 0, 0)

    val sol = Simplex.maximize(rows.toArray, rhs.toArray, c, bound)
    Result(sol.value + direct, n, rows.length)
  }
}
