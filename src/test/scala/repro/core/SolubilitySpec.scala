package repro.core

import repro.SparkSpec

/** Tests for the Lemma 1/2 solubility check (Section 4.2.2). */
class SolubilitySpec extends SparkSpec {

  test("a chain is soluble (Lemma 1)") {
    assert(Solubility.solvableByGreedy(TestGraphs.chain4))
  }

  test("Lemma 2 DAG (multi-out only at source) is soluble") {
    assert(Solubility.solvableByGreedy(TestGraphs.lemma2Dag))
  }

  test("Figure 3 graph is not soluble (y has two outgoing edges)") {
    assert(!Solubility.solvableByGreedy(TestGraphs.fig3))
  }

  test("single edge is a soluble chain") {
    val g = TestGraphs.fromEdges(0, 1, Map((0, 1) -> Seq((1L, 1.0))))
    assert(Solubility.solvableByGreedy(g))
  }

  test("intermediate vertex with zero outgoing edges breaks the condition") {
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 1) -> Seq((1L, 1.0)),
      (0, 2) -> Seq((2L, 1.0)),
    ))
    // vertex 1 is a dead end (out-degree 0, not the sink)
    assert(!Solubility.solvableByGreedy(g))
  }

  test("cyclic graph is not soluble even with out-degrees 1") {
    // 1 <-> 2 cycle; every intermediate has out-degree exactly 1 but the
    // graph is not a DAG, so Lemma 2 does not apply.
    val g = TestGraphs.fromEdges(0, 3, Map(
      (0, 1) -> Seq((1L, 1.0)),
      (1, 2) -> Seq((2L, 1.0)),
      (2, 1) -> Seq((3L, 1.0)),
    ))
    assert(!Solubility.solvableByGreedy(g))
  }

  test("sink with an outgoing edge violates the condition") {
    val g2 = TestGraphs.fromEdges(0, 3, Map(
      (0, 1) -> Seq((1L, 1.0)),
      (1, 2) -> Seq((2L, 1.0)),
      (2, 3) -> Seq((3L, 1.0)),
      (3, 1) -> Seq((4L, 1.0)),
    ))
    assert(!Solubility.solvableByGreedy(g2))
  }

  test("empty graph is trivially soluble") {
    assert(Solubility.solvableByGreedy(FlowGraph(0, 1, Nil)))
  }

  test("greedy equals max flow on every soluble fixture") {
    for (g <- Seq(TestGraphs.chain4, TestGraphs.lemma2Dag)) {
      assert(math.abs(Greedy.flow(g) - MaxFlowLP.maxFlow(g)) < 1e-6)
    }
  }

  test("solubility check is purely structural (ignores quantities/timestamps)") {
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 1) -> Seq((100L, 1.0)),
      (1, 2) -> Seq((1L, 99.0)), // zero flow, still soluble
    ))
    assert(Solubility.solvableByGreedy(g))
    assert(Greedy.flow(g) === 0.0)
    assert(math.abs(MaxFlowLP.maxFlow(g)) < 1e-9)
  }

  test("fig1 fixture is not soluble (y has two outgoing edges)") {
    assert(!Solubility.solvableByGreedy(TestGraphs.fig1))
  }
}
