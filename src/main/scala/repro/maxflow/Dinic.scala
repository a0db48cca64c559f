package repro.maxflow

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

  // Arc arrays, grown by doubling: to(e), cap(e); the reverse arc of e is e ^ 1.
  private var to   = new Array[Int](16)
  private var cap  = new Array[Double](16)
  private var arcs = 0

  // Each node's arcs in insertion order, `adj` at `first(u) until first(u + 1)`:
  // a CSR built by `maxFlow` over the arcs added so far.
  private val first = new Array[Int](n + 1)
  private var adj   = Array.emptyIntArray

  /** Add a directed edge `u -> v` with capacity `c` (plus a 0-capacity
    * residual reverse edge). Returns the edge id for flow inspection.
    */
  def addEdge(u: Int, v: Int, c: Double): Int = {
    require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u,$v) out of range [0,$n)")
    require(c >= 0, s"negative capacity $c")
    if (arcs + 2 > to.length) {
      to = java.util.Arrays.copyOf(to, 2 * to.length)
      cap = java.util.Arrays.copyOf(cap, 2 * cap.length)
    }
    val id = arcs
    to(id) = v; cap(id) = c
    to(id + 1) = u; cap(id + 1) = 0.0
    arcs += 2
    id
  }

  /** Flow currently carried by edge `id` (cap of its reverse edge). */
  def flowOn(id: Int): Double = cap(id + 1)

  private def buildAdjacency(): Unit = {
    java.util.Arrays.fill(first, 0)
    for (e <- 0 until arcs) first(to(e ^ 1) + 1) += 1 // the tail of e is the head of its reverse
    for (u <- 0 until n) first(u + 1) += first(u)
    val next = java.util.Arrays.copyOf(first, n)
    adj = new Array[Int](arcs)
    for (e <- 0 until arcs) { adj(next(to(e ^ 1))) = e; next(to(e ^ 1)) += 1 }
  }

  private val level = Array.fill(n)(-1)
  private val iter  = new Array[Int](n)
  private val queue = new Array[Int](n)

  private def bfs(s: Int, t: Int): Boolean = {
    java.util.Arrays.fill(level, -1)
    level(s) = 0
    queue(0) = s
    var (head, tail) = (0, 1)
    while (head < tail) {
      val u = queue(head)
      head += 1
      var i = first(u)
      while (i < first(u + 1)) {
        val e = adj(i)
        if (cap(e) > Eps && level(to(e)) < 0) {
          level(to(e)) = level(u) + 1
          queue(tail) = to(e)
          tail += 1
        }
        i += 1
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
      if (iter(u) < first(u + 1)) {
        val e = adj(iter(u))
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
    if (adj.length != arcs) buildAdjacency()
    var flow = 0.0
    while (bfs(s, t)) {
      System.arraycopy(first, 0, iter, 0, n)
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
