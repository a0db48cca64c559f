package repro.maxflow

import repro.SparkSpec
import repro.core.{FlowGraph, TestGraphs}

/** Tests for the Akrida-et-al time-expanded max-flow reduction
  * (Section 4.2.1's equivalence).
  */
class TimeExpandedSpec extends SparkSpec {
  private val Tol = 1e-7

  test("Table 3: max flow of Figure 3 graph is 5") {
    assert(math.abs(TimeExpanded.maxFlow(TestGraphs.fig3) - 5.0) < Tol)
  }

  test("chain: max flow equals greedy flow (Lemma 1)") {
    assert(math.abs(TimeExpanded.maxFlow(TestGraphs.chain4) - 5.0) < Tol)
  }

  test("Lemma 2 DAG: max flow equals greedy flow") {
    assert(math.abs(TimeExpanded.maxFlow(TestGraphs.lemma2Dag) - 15.0) < Tol)
  }

  test("single edge: total quantity") {
    val g = TestGraphs.fromEdges(0, 1, Map((0, 1) -> Seq((1L, 5.0), (9L, 2.0))))
    assert(math.abs(TimeExpanded.maxFlow(g) - 7.0) < Tol)
  }

  test("timing matters: outgoing before any arrival carries nothing") {
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 1) -> Seq((5L, 4.0)),
      (1, 2) -> Seq((1L, 4.0)),
    ))
    assert(TimeExpanded.maxFlow(g) === 0.0)
  }

  test("same-timestamp relay is not allowed (strict before)") {
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 1) -> Seq((5L, 4.0)),
      (1, 2) -> Seq((5L, 4.0)),
    ))
    assert(TimeExpanded.maxFlow(g) === 0.0)
  }

  test("holdover: quantity waits arbitrarily long in a buffer") {
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 1) -> Seq((1L, 5.0)),
      (1, 2) -> Seq((100L, 3.0), (200L, 3.0)),
    ))
    assert(math.abs(TimeExpanded.maxFlow(g) - 5.0) < Tol)
  }

  test("flow reservation is possible (beats greedy on fig3 shape)") {
    // y can reserve 4 units for (4,4) to t, sending only 1 to z at (3,5).
    val f = TimeExpanded.maxFlow(TestGraphs.fig3)
    val greedy = repro.core.Greedy.flow(TestGraphs.fig3)
    assert(f > greedy)
  }

  test("interactions into the source are never useful") {
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 1) -> Seq((1L, 5.0)),
      (1, 0) -> Seq((2L, 5.0)), // back to source: wasted if used
      (1, 2) -> Seq((3L, 5.0)),
    ))
    assert(math.abs(TimeExpanded.maxFlow(g) - 5.0) < Tol)
  }

  test("empty graph") {
    assert(TimeExpanded.maxFlow(FlowGraph(0, 1, Nil)) === 0.0)
  }

  test("multiple interactions per edge use buffered remainder") {
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 1) -> Seq((1L, 10.0)),
      (1, 2) -> Seq((2L, 4.0), (3L, 4.0), (4L, 4.0)),
    ))
    assert(math.abs(TimeExpanded.maxFlow(g) - 10.0) < Tol)
  }

  test("cyclic subgraph between intermediates is handled") {
    // x and y exchange flow in both directions over time.
    val g = TestGraphs.fromEdges(0, 3, Map(
      (0, 1) -> Seq((1L, 6.0)),
      (1, 2) -> Seq((2L, 4.0)),
      (2, 1) -> Seq((3L, 4.0)),
      (1, 3) -> Seq((4L, 6.0)),
    ))
    // All 6 can reach the sink: keep everything at x until t=4.
    assert(math.abs(TimeExpanded.maxFlow(g) - 6.0) < Tol)
  }

  test("a deep version chain solves on a 1 MB thread stack") {
    // w never receives, so its interactions are dropped, but each one still
    // gives v a version: the only s-t path runs through 5001 versions of v.
    val g = TestGraphs.fromEdges(0, 3, Map(
      (0, 1) -> Seq((0L, 5.0)),
      (2, 1) -> (1 to 5000).map(t => (t.toLong, 1.0)),
      (1, 3) -> Seq((5001L, 10.0)),
    ))
    var result: Any = null
    val worker = new Thread(null, () => result = try TimeExpanded.maxFlow(g) catch { case e: Throwable => e },
      "deep-chain", 1L << 20)
    worker.start(); worker.join()
    result match {
      case f: Double => assert(math.abs(f - 5.0) < Tol)
      case other     => fail(s"solver failed: $other")
    }
  }

  test("max flow never below greedy on the class C fixture") {
    val f = TimeExpanded.maxFlow(TestGraphs.classC)
    assert(f >= repro.core.Greedy.flow(TestGraphs.classC) - Tol)
    assert(math.abs(f - 5.0) < Tol) // same optimum as fig3: extra (0,9) interaction is useless
  }
}
