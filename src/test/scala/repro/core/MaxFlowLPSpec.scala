package repro.core

import repro.SparkSpec
import repro.maxflow.TimeExpanded

/** Tests for the LP formulation of maximum flow (Section 4.2.1), including
  * the paper's Table 3 example and the equivalence with the time-expanded
  * static max-flow.
  */
class MaxFlowLPSpec extends SparkSpec {
  private val Tol = 1e-6

  test("Table 3: LP max flow of the Figure 3 graph is 5") {
    assert(math.abs(MaxFlowLP.maxFlow(TestGraphs.fig3) - 5.0) < Tol)
  }

  test("LP variable count excludes source-outgoing interactions") {
    val r = MaxFlowLP.solve(TestGraphs.fig3)
    assert(r.numVariables === 3) // (y,z), (y,t), (z,t)
  }

  test("single edge from source: constant-only objective") {
    val g = TestGraphs.fromEdges(0, 1, Map((0, 1) -> Seq((1L, 5.0), (2L, 2.5))))
    val r = MaxFlowLP.solve(g)
    assert(r.numVariables === 0)
    assert(math.abs(r.flow - 7.5) < Tol)
  }

  test("two-hop relay bounded by arrival time") {
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 1) -> Seq((5L, 4.0)),
      (1, 2) -> Seq((1L, 4.0), (9L, 3.0)),
    ))
    assert(math.abs(MaxFlowLP.maxFlow(g) - 3.0) < Tol)
  }

  test("reservation beats greedy (the motivating example)") {
    val lp = MaxFlowLP.maxFlow(TestGraphs.fig3)
    val gr = Greedy.flow(TestGraphs.fig3)
    assert(math.abs(lp - 5.0) < Tol)
    assert(math.abs(gr - 1.0) < Tol)
  }

  test("chain: LP equals greedy (Lemma 1)") {
    assert(math.abs(MaxFlowLP.maxFlow(TestGraphs.chain4) - Greedy.flow(TestGraphs.chain4)) < Tol)
  }

  test("Lemma 2 DAG: LP equals greedy") {
    assert(math.abs(MaxFlowLP.maxFlow(TestGraphs.lemma2Dag) - Greedy.flow(TestGraphs.lemma2Dag)) < Tol)
  }

  test("LP equals time-expanded Dinic on all fixtures") {
    for (g <- Seq(TestGraphs.fig3, TestGraphs.chain4, TestGraphs.lemma2Dag,
                  TestGraphs.fig1, TestGraphs.g1Preprocess, TestGraphs.g2Preprocess,
                  TestGraphs.fig7, TestGraphs.classC)) {
      val lp = MaxFlowLP.maxFlow(g)
      val te = TimeExpanded.maxFlow(g)
      assert(math.abs(lp - te) < Tol, s"LP=$lp TE=$te on $g")
    }
  }

  test("same-timestamp relay forbidden in LP too") {
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 1) -> Seq((5L, 4.0)),
      (1, 2) -> Seq((5L, 4.0)),
    ))
    assert(math.abs(MaxFlowLP.maxFlow(g)) < Tol)
  }

  test("cyclic intermediate structure is solved (LP needs no topological order)") {
    val g = TestGraphs.fromEdges(0, 3, Map(
      (0, 1) -> Seq((1L, 6.0)),
      (1, 2) -> Seq((2L, 4.0)),
      (2, 1) -> Seq((3L, 4.0)),
      (1, 3) -> Seq((4L, 6.0)),
    ))
    assert(math.abs(MaxFlowLP.maxFlow(g) - 6.0) < Tol)
  }

  test("empty graph: zero flow") {
    assert(MaxFlowLP.maxFlow(FlowGraph(0, 1, Nil)) === 0.0)
  }

  test("direct source-sink interactions contribute as constants") {
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 2) -> Seq((1L, 2.0)),
      (0, 1) -> Seq((2L, 3.0)),
      (1, 2) -> Seq((3L, 3.0)),
    ))
    assert(math.abs(MaxFlowLP.maxFlow(g) - 5.0) < Tol)
  }

  test("quantity is split across future interactions optimally") {
    // s sends 10 to v at t=1; v can forward 6 at t=2 to a dead-end vertex w
    // or keep for the sink edge at t=3 with quantity 10.
    val g = TestGraphs.fromEdges(0, 3, Map(
      (0, 1) -> Seq((1L, 10.0)),
      (1, 2) -> Seq((2L, 6.0)),   // w = 2, no outgoing: wasted
      (1, 3) -> Seq((3L, 10.0)),
    ))
    assert(math.abs(MaxFlowLP.maxFlow(g) - 10.0) < Tol)
  }

  test("numConstraints counts buffer rows") {
    val r = MaxFlowLP.solve(TestGraphs.fig3)
    assert(r.numConstraints === 3) // bounds are columns, not rows
  }

  test("same-time sends share the sender's buffer") {
    // v holds 5 when it sends 5 to a and 5 to b at t=2, so at most 5 reaches
    // t; a row per send against the pre-group buffer alone would allow 10.
    val g = TestGraphs.fromEdges(0, 4, Map(
      (0, 1) -> Seq((1L, 5.0)),
      (1, 2) -> Seq((2L, 5.0)),
      (1, 3) -> Seq((2L, 5.0)),
      (2, 4) -> Seq((3L, 5.0)),
      (3, 4) -> Seq((3L, 5.0)),
    ))
    assert(math.abs(MaxFlowLP.maxFlow(g) - 5.0) < Tol)
    assert(math.abs(FlowPipeline.pre(g).flow - 5.0) < Tol)
  }

  test("a self-loop gives one buffer row") {
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 1) -> Seq((1L, 5.0)),
      (1, 1) -> Seq((2L, 3.0)),
      (1, 2) -> Seq((3L, 5.0)),
    ))
    val r = MaxFlowLP.solve(g)
    assert(r.numConstraints === 2)
    assert(math.abs(r.flow - 5.0) < Tol)
  }

  test("every buffer row infinite: the LP is its column bounds") {
    // an infinite synthetic source feeds v, so v's row is vacuous and the
    // LP has no binding row; x(v, t) stops at its bound 5.
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 1) -> Seq((1L, Double.PositiveInfinity)),
      (1, 2) -> Seq((2L, 5.0)),
    ))
    val r = MaxFlowLP.solve(g)
    assert(r.numVariables === 1 && r.numConstraints === 1)
    assert(math.abs(r.flow - 5.0) < Tol)
    assert(r.flow === TimeExpanded.maxFlow(g))
  }
}
