package repro.core

import repro.SparkSpec
import repro.core.FlowPipeline._

/** Tests for the Greedy / LP / Pre / PreSim method pipeline and the
  * class A/B/C taxonomy of Section 6.2.
  */
class FlowPipelineSpec extends SparkSpec {
  private val Tol = 1e-6

  test("class A: soluble as-is, Pre answers with greedy (no LP)") {
    val o = pre(TestGraphs.lemma2Dag)
    assert(o.cls === ClassA)
    assert(!o.usedLP)
    assert(math.abs(o.flow - 15.0) < Tol)
  }

  test("class B: soluble after preprocessing (Figure 6(c) fixture)") {
    val o = pre(TestGraphs.g2Preprocess)
    assert(o.cls === ClassB)
    assert(!o.usedLP)
    assert(math.abs(o.flow - 3.0) < Tol)
  }

  test("class C: LP still required (Figure 3 fixture)") {
    val o = pre(TestGraphs.fig3)
    assert(o.cls === ClassC)
    assert(o.usedLP)
    assert(math.abs(o.flow - 5.0) < Tol)
  }

  test("PreSim agrees with Pre and LP on every fixture") {
    for (g <- Seq(TestGraphs.fig3, TestGraphs.chain4, TestGraphs.lemma2Dag,
                  TestGraphs.fig1, TestGraphs.g1Preprocess, TestGraphs.g2Preprocess,
                  TestGraphs.fig7, TestGraphs.classC)) {
      val l = lp(g)
      assert(math.abs(pre(g).flow - l) < Tol, s"Pre != LP on $g")
      assert(math.abs(preSim(g).flow - l) < Tol, s"PreSim != LP on $g")
      assert(math.abs(dinic(g) - l) < Tol, s"Dinic != LP on $g")
    }
  }

  test("greedy never exceeds the maximum flow") {
    for (g <- Seq(TestGraphs.fig3, TestGraphs.chain4, TestGraphs.lemma2Dag,
                  TestGraphs.fig1, TestGraphs.classC)) {
      assert(greedy(g) <= lp(g) + Tol)
    }
  }

  test("zero-flow graph detected by preprocessing is class B without LP") {
    // Vertex 1 has out-degree 2 (not class A), but both outgoing interactions
    // precede its earliest arrival: preprocessing proves the flow is 0.
    val g = FlowGraph.fromEdges(0, 3, Map(
      (0, 1) -> Seq((5L, 4.0)),
      (1, 2) -> Seq((1L, 3.0)),
      (1, 3) -> Seq((2L, 6.0)),
      (2, 3) -> Seq((9L, 9.0)),
    ))
    val o = pre(g)
    assert(o.cls === ClassB)
    assert(o.flow === 0.0)
    assert(!o.usedLP)
  }

  test("PreSim on fig7 computes the exact flow without LP (class A: all out-degrees 1)") {
    val o = preSim(TestGraphs.fig7)
    assert(!o.usedLP)
    assert(math.abs(o.flow - 9.0) < Tol)
  }

  test("class C fixture still classifies C after its prunable interaction is removed") {
    assert(pre(TestGraphs.classC).cls === ClassC)
    assert(math.abs(preSim(TestGraphs.classC).flow - 5.0) < Tol)
  }
}
