package repro.core

/** Lemma 1/2 solubility test (Section 4.2.2): the greedy algorithm computes
  * the exact maximum flow when the graph is a DAG in which every vertex other
  * than the source and the sink has exactly one outgoing edge (the sink has
  * none — reserving quantity at such vertices can never increase what
  * eventually reaches the sink).
  *
  * The degree scan is `O(V)`; the DAG check is a topological sort, `O(V+E)`.
  */
object Solubility {

  /** True iff Lemma 2 guarantees greedy == max flow for `g`. */
  def solvableByGreedy(g: FlowGraph): Boolean = {
    if (g.isEmpty) return true // zero-flow graph: greedy trivially exact
    val degreesOk = g.vertices.forall { v =>
      if (v == g.source) true
      else if (v == g.sink) g.outDegree(v) == 0
      else g.outDegree(v) == 1
    }
    degreesOk && g.isDag
  }
}
