package repro.core

/** Graph preprocessing (Section 4.2.3, Algorithm 1).
  *
  * A pass visits every vertex `v` other than the source and the sink:
  *
  *   - if `v` has no incoming edge left, it can receive nothing, and its
  *     outgoing edges are deleted;
  *   - otherwise every interaction on `v`'s outgoing edges whose timestamp is
  *     smaller than the minimum timestamp over `v`'s surviving incoming
  *     interactions is deleted — by that time `v` cannot have received
  *     anything, so the interaction can never carry flow. An edge left with
  *     no interactions is deleted.
  *
  * After each pass a reachability cleanup deletes every edge off all
  * source→…→sink paths; this covers the paper's upward cascade (a vertex
  * that can forward nothing) and proves zero flow when the sink becomes
  * unreachable. Pass and cleanup repeat until neither deletes anything.
  *
  * Every deletion only raises the minimum incoming timestamps, so the result
  * is the same in any vertex order. In topological order, as in the paper,
  * the first pass does nearly all the work; cycle-seed subgraphs (Section
  * 6.2) may contain directed cycles between intermediate vertices, and those
  * use sorted vertex order (DESIGN.md §2). When nothing is deleted, `g`
  * itself is returned, with the neighbour lists and orders it has computed.
  */
object Preprocess {

  final case class Result(
      graph: FlowGraph,
      removedInteractions: Int,
      removedEdges: Int,
      removedVertices: Int,
  ) {
    /** Preprocessing proved the flow is 0 (source or sink got disconnected). */
    def zeroFlow: Boolean = graph.isEmpty
  }

  def run(g: FlowGraph): Result = {
    // The only state, since Algorithm 1 deletes only prefixes of edges and
    // whole edges: each edge's first surviving position, and a mask of the
    // surviving edges, read through `g`'s own neighbour lists.
    val first   = java.util.Arrays.copyOf(g.start, g.edgeCount)
    val alive   = Array.fill(g.edgeCount)(true)
    val order   = Option(g.topo).getOrElse(Array.range(0, g.n))
    val out     = g.outStart
    val inStart = g.inStart
    val inEdge  = g.inEdge
    var deleted = false
    var changed = true
    while (changed) {
      changed = false
      for (v <- order) if (v != g.s && v != g.t) {
        // hasIn false: no incoming interaction is left, so every outgoing one goes.
        var hasIn = false
        var minTs = Long.MaxValue
        for (i <- inStart(v) until inStart(v + 1)) {
          val e = inEdge(i)
          if (alive(e) && first(e) < g.start(e + 1)) { hasIn = true; minTs = math.min(minTs, g.ts(first(e))) }
        }
        for (e <- out(v) until out(v + 1)) if (alive(e)) {
          val end = g.start(e + 1)
          var p   = first(e)
          if (!hasIn) p = end else while (p < end && g.ts(p) < minTs) p += 1
          if (p != first(e)) {
            changed = true
            first(e) = p
            if (p == end) alive(e) = false
          }
        }
      }
      if (cleanupReachability(g, alive)) changed = true
      deleted ||= changed
    }
    if (!deleted) return Result(g, 0, 0, 0)
    val b = new FlowGraph.Builder(g.source, g.sink, g.edgeCount, g.interactionCount)
    for (e <- 0 until g.edgeCount) if (alive(e)) b.add(g.ids(g.src(e)), g.ids(g.dst(e)), g.ts, g.qty, first(e), g.start(e + 1))
    val kept = b.result()
    Result(kept, g.interactionCount - kept.interactionCount, g.edgeCount - kept.edgeCount, g.vertexCount - kept.vertexCount)
  }

  /** Keep only edges on some source→…→sink path, or none if the sink is
    * unreachable (zero flow); returns true if anything was deleted.
    */
  private def cleanupReachability(g: FlowGraph, alive: Array[Boolean]): Boolean = {
    /** Vertices reachable from `from` over surviving edges, along out-edges or in-edges. */
    def closure(from: Int, forward: Boolean): Array[Boolean] = {
      val seen  = new Array[Boolean](g.n)
      val stack = new Array[Int](g.n)
      var top   = 1
      seen(from) = true
      stack(0) = from
      while (top > 0) {
        top -= 1
        val v = stack(top)
        val edges = if (forward) g.outStart else g.inStart
        for (i <- edges(v) until edges(v + 1)) {
          val e = if (forward) i else g.inEdge(i)
          val u = if (forward) g.dst(e) else g.src(e)
          if (alive(e) && !seen(u)) { seen(u) = true; stack(top) = u; top += 1 }
        }
      }
      seen
    }
    val fwd     = closure(g.s, forward = true)
    val bwd     = closure(g.t, forward = false)
    var changed = false
    for (e <- 0 until g.edgeCount) {
      val a = g.src(e)
      val b = g.dst(e)
      if (alive(e) && !(fwd(g.t) && fwd(a) && bwd(a) && fwd(b) && bwd(b))) { alive(e) = false; changed = true }
    }
    changed
  }
}
