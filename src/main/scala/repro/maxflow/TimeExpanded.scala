package repro.maxflow

import repro.core.FlowGraph

/** Maximum flow of a temporal interaction network via the time-expanded
  * static graph of Akrida et al. (the equivalence shown in Section 4.2.1).
  *
  * Construction:
  *   - the source and the sink stay single nodes `S`, `T`;
  *   - every other vertex `v` gets one node version `v@t` per distinct
  *     timestamp `t` at which some interaction **arrives** at `v`;
  *   - holdover arcs `v@t_k -> v@t_{k+1}` with infinite capacity model the
  *     unbounded buffer carrying quantity forward in time;
  *   - an interaction `(v, u, t, q)` becomes an arc of capacity `q` whose
  *     tail is `v`'s latest version **strictly before** `t` (constraint (2)
  *     allows only quantity received before `t_i` to be forwarded; if no such
  *     version exists the interaction can never carry flow and is dropped)
  *     and whose head is `u@t` (or `T` when `u` is the sink; tail is `S` when
  *     `v` is the source, which has infinite supply).
  *
  * One [[FlowGraph.sweep]] builds it: a group's arcs leave each vertex's
  * current version, and the group's arrivals become current in its commit
  * step. A version exists even when its arriving interaction is dropped.
  *
  * Nodes and arcs are both linear in the number of interactions; Dinic then
  * yields the exact maximum flow. This is the oracle used to validate the
  * paper's LP formulation in the test suites, and an exact solver in its own
  * right.
  */
object TimeExpanded {

  def maxFlow(g: FlowGraph): Double = {
    val edgeOf = g.edgeOf

    // Nodes: S, T, then at most one version per interaction.
    val S       = 0
    val T       = 1
    val dinic   = new Dinic(2 + g.interactionCount)
    var nodes   = 2
    val current = Array.fill(g.n)(-1) // vertex -> its latest version before this group
    val next    = Array.fill(g.n)(-1) // vertex -> its version at this group's timestamp

    g.sweep { p =>
      val v = g.src(edgeOf(p))
      val u = g.dst(edgeOf(p))
      val head =
        if (u == g.t) T
        else if (u == g.s) -1 // flow back into the infinite source is useless; drop
        else {
          if (next(u) < 0) { next(u) = nodes; nodes += 1 }
          next(u)
        }
      val tail =
        if (v == g.s) S
        else if (v == g.t) -1 // the sink does not forward; drop
        else current(v)
      if (tail >= 0 && head >= 0) dinic.addEdge(tail, head, g.qty(p))
    } { p =>
      val v = g.dst(edgeOf(p))
      if (next(v) >= 0) {
        if (current(v) >= 0) dinic.addEdge(current(v), next(v), Double.PositiveInfinity) // holdover
        current(v) = next(v)
        next(v) = -1
      }
    }

    dinic.maxFlow(S, T)
  }
}
