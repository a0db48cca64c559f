package repro.core

/** Lemma 1/2 solubility test (Section 4.2.2): the greedy algorithm computes
  * the exact maximum flow when the graph is a DAG in which every vertex other
  * than the source and the sink has exactly one outgoing edge (the sink has
  * none — reserving quantity at such vertices can never increase what
  * eventually reaches the sink).
  *
  * The degree scan reads the out-edge offsets, `O(V)`; the DAG check is the
  * graph's Kahn order, `O(V+E)`.
  */
object Solubility {

  /** True iff Lemma 2 guarantees greedy == max flow for `g`. */
  def solvableByGreedy(g: FlowGraph): Boolean = {
    if (g.isEmpty) return true // zero-flow graph: greedy trivially exact
    var v  = 0
    var ok = true
    while (ok && v < g.n) {
      ok = v == g.s || g.outDeg(v) == (if (v == g.t) 0 else 1)
      v += 1
    }
    ok && g.isDag
  }
}
