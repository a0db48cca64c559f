package repro.core

import repro.SparkSpec
import repro.maxflow.TimeExpanded

/** Tests for Algorithm 2 — graph simplification (Section 4.2.4, Lemma 3),
  * including the Figure 5(a) and Figure 7 mechanics.
  */
class SimplifySpec extends SparkSpec {
  private val Tol = 1e-6

  test("Figure 5(a): a whole chain collapses to a single (s,t) edge") {
    val r = Simplify.run(TestGraphs.chain4)
    assert(r.graph.edges.keySet === Set((0, 3)))
    // The edge carries the arrivals into t under greedy: (6,3) and (8,2).
    assert(r.graph.edges((0, 3)) === Vector((6L, 3.0), (8L, 2.0)))
    assert(r.chainsReduced === 1)
  }

  test("simplification preserves the maximum flow on all fixtures") {
    for (g <- Seq(TestGraphs.fig3, TestGraphs.chain4, TestGraphs.lemma2Dag,
                  TestGraphs.fig1, TestGraphs.g1Preprocess, TestGraphs.g2Preprocess,
                  TestGraphs.fig7, TestGraphs.classC)) {
      val s = Simplify.run(g).graph
      assert(math.abs(TimeExpanded.maxFlow(g) - TimeExpanded.maxFlow(s)) < Tol, s"simplify changed flow on $g")
    }
  }

  test("Figure 7 mechanics: chain merges into an existing parallel edge, then reduces again") {
    val r = Simplify.run(TestGraphs.fig7)
    // Chain s->y->x->z merges into existing (s,z); then chain s->z->w
    // reduces to a single (s,w) edge: the final graph is one edge.
    assert(r.graph.edges.keySet === Set((0, 4)))
    assert(r.chainsReduced === 2)
    assert(math.abs(TimeExpanded.maxFlow(TestGraphs.fig7) -
      r.graph.edges((0, 4)).map(_._2).sum) < Tol)
  }

  test("LP variable count drops after simplification (Figure 7 narration)") {
    val before = MaxFlowLP.solve(TestGraphs.fig7).numVariables
    val after  = MaxFlowLP.solve(Simplify.run(TestGraphs.fig7).graph).numVariables
    assert(after < before)
  }

  test("merged parallel edges keep interactions sorted by timestamp") {
    val r = Simplify.run(TestGraphs.fig7)
    r.graph.edges.values.foreach { es =>
      assert(es === es.sortBy(_._1))
    }
  }

  test("graphs with no source chain are untouched") {
    val r = Simplify.run(TestGraphs.fig3)
    assert(r.graph.edges === TestGraphs.fig3.edges)
    assert(r.chainsReduced === 0)
  }

  test("no source chain: the input graph itself is returned") {
    val r = Simplify.run(TestGraphs.fig3)
    assert(r.graph eq TestGraphs.fig3)
    assert(r.removedInteractions === 0)
  }

  test("chain reduction stops at a vertex with in-degree > 1") {
    // s->a->b, s->b: chain s->a stops at b (b has in-degree 2).
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 1) -> Seq((1L, 5.0)),
      (1, 2) -> Seq((2L, 3.0)),
      (0, 2) -> Seq((3L, 4.0)),
    ))
    val r = Simplify.run(g)
    // Chain s->a->b collapses; its arrivals merge into existing (s,b).
    assert(r.graph.edges.keySet === Set((0, 2)))
    assert(r.graph.edges((0, 2)) === Vector((2L, 3.0), (3L, 4.0)))
  }

  test("a 2-cycle with the source is not treated as a chain") {
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 1) -> Seq((1L, 5.0)),
      (1, 0) -> Seq((2L, 2.0)),
      (0, 2) -> Seq((3L, 4.0)),
    ))
    val r = Simplify.run(g) // must not loop or produce (s,s) edges
    assert(math.abs(TimeExpanded.maxFlow(g) - TimeExpanded.maxFlow(r.graph)) < Tol)
  }

  test("chain whose greedy flow is zero removes the edge entirely") {
    val g = TestGraphs.fromEdges(0, 3, Map(
      (0, 1) -> Seq((5L, 4.0)),
      (1, 2) -> Seq((1L, 4.0)), // too early: nothing arrives at 2
      (2, 3) -> Seq((9L, 9.0)),
    ))
    val r = Simplify.run(g)
    assert(math.abs(TimeExpanded.maxFlow(r.graph)) < Tol)
  }

  test("simplify after preprocess (the PreSim composition) is still exact") {
    for (g <- Seq(TestGraphs.fig1, TestGraphs.classC, TestGraphs.g1Preprocess)) {
      val p = Preprocess.run(g)
      if (!p.zeroFlow) {
        val s = Simplify.run(p.graph).graph
        assert(math.abs(TimeExpanded.maxFlow(g) - TimeExpanded.maxFlow(s)) < Tol)
      }
    }
  }
}
