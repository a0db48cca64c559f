package repro.maxflow

import scala.collection.mutable

/** Dinic's blocking-flow maximum-flow algorithm on a static capacitated
  * directed graph with `Double` capacities.
  *
  * Substrate for the Akrida-et-al time-expanded reduction
  * ([[TimeExpanded]]); also the independent oracle against which the paper's
  * LP formulation is verified in the test suites. Capacities may be
  * `Double.PositiveInfinity` (used for holdover arcs — buffers are
  * unbounded in the paper's model).
  */
final class Dinic(n: Int) {
  private val Eps = 1e-9

  // Edge arrays: to(e), cap(e); reverse edge of e is e ^ 1.
  private val to   = mutable.ArrayBuffer.empty[Int]
  private val cap  = mutable.ArrayBuffer.empty[Double]
  private val head = Array.fill(n)(mutable.ArrayBuffer.empty[Int])

  /** Add a directed edge `u -> v` with capacity `c` (plus a 0-capacity
    * residual reverse edge). Returns the edge id for flow inspection.
    */
  def addEdge(u: Int, v: Int, c: Double): Int = {
    require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u,$v) out of range [0,$n)")
    require(c >= 0, s"negative capacity $c")
    val id = to.size
    to += v; cap += c; head(u) += id
    to += u; cap += 0.0; head(v) += id + 1
    id
  }

  /** Flow currently carried by edge `id` (cap of its reverse edge). */
  def flowOn(id: Int): Double = cap(id + 1)

  private val level = Array.fill(n)(-1)
  private val iter  = Array.fill(n)(0)

  private def bfs(s: Int, t: Int): Boolean = {
    java.util.Arrays.fill(level, -1)
    val q = mutable.Queue(s)
    level(s) = 0
    while (q.nonEmpty) {
      val u = q.dequeue()
      head(u).foreach { e =>
        if (cap(e) > Eps && level(to(e)) < 0) {
          level(to(e)) = level(u) + 1
          q.enqueue(to(e))
        }
      }
    }
    level(t) >= 0
  }

  /** Edges of the current DFS path, source first. */
  private val path = new Array[Int](n)

  /** Pushes flow along the first s-t path of the level graph that the `iter`
    * pointers lead to and returns it, or 0 when none is left. Iterative, since
    * a path can be as long as the sink's level: one node per version of a
    * vertex in a time-expanded graph.
    */
  private def dfs(s: Int, t: Int): Double = {
    var depth = 0
    var u     = s
    while (u != t) {
      if (iter(u) < head(u).size) {
        val e = head(u)(iter(u))
        if (cap(e) > Eps && level(to(e)) == level(u) + 1) {
          path(depth) = e; depth += 1; u = to(e)
        } else iter(u) += 1
      } else if (depth == 0) return 0.0
      else {
        // Dead end: retreat over the last edge and skip it at its tail.
        depth -= 1
        u = to(path(depth) ^ 1)
        iter(u) += 1
      }
    }
    var f = Double.PositiveInfinity
    var i = 0
    while (i < depth) { f = math.min(f, cap(path(i))); i += 1 }
    i = 0
    while (i < depth) { cap(path(i)) -= f; cap(path(i) ^ 1) += f; i += 1 }
    f
  }

  /** Maximum s-t flow. May legitimately return `PositiveInfinity` when an
    * all-infinite path exists (e.g. synthetic source chained to synthetic
    * sink), mirroring the unbounded-transfer semantics of Figure 4's
    * construction.
    */
  def maxFlow(s: Int, t: Int): Double = {
    require(s != t, "source == sink")
    var flow = 0.0
    while (bfs(s, t)) {
      java.util.Arrays.fill(iter, 0)
      var f = dfs(s, t)
      while (f > Eps) {
        flow += f
        if (f.isInfinity) return Double.PositiveInfinity
        f = dfs(s, t)
      }
    }
    flow
  }
}
