package repro.core

import repro.SparkSpec

/** Unit tests for the greedy single-scan flow computation (Section 4.1),
  * including the paper's Table 2 trace.
  */
class GreedySpec extends SparkSpec {

  test("Table 2: greedy flow of the Figure 3 graph is 1") {
    assert(Greedy.flow(TestGraphs.fig3) === 1.0)
  }

  test("Table 2: final buffers match the trace") {
    val r = Greedy.run(TestGraphs.fig3)
    assert(r.buffers(1) === 0.0) // B_y
    assert(r.buffers(2) === 7.0) // B_z
    assert(r.buffers(3) === 1.0) // B_t
  }

  test("source buffer is infinite: every source-outgoing interaction transfers fully") {
    val g = TestGraphs.fromEdges(0, 1, Map((0, 1) -> Seq((1L, 5.0), (2L, 7.0), (9L, 1.5))))
    assert(Greedy.flow(g) === 13.5)
  }

  test("single edge: flow is the sum of interaction quantities") {
    val r = Greedy.run(TestGraphs.fromEdges(0, 1, Map((0, 1) -> Seq((3L, 2.0), (5L, 4.0)))))
    assert(r.flow === 6.0)
    assert(r.sinkArrivals === Vector((3L, 2.0), (5L, 4.0)))
  }

  test("an interaction before any inflow transfers nothing") {
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 1) -> Seq((5L, 4.0)),
      (1, 2) -> Seq((1L, 4.0)),
    ))
    assert(Greedy.flow(g) === 0.0)
  }

  test("transfer is capped by the buffered quantity") {
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 1) -> Seq((1L, 3.0)),
      (1, 2) -> Seq((5L, 10.0)),
    ))
    val r = Greedy.run(g)
    assert(r.flow === 3.0)
    assert(r.sinkArrivals === Vector((5L, 3.0)))
  }

  test("transfer is capped by the interaction quantity") {
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 1) -> Seq((1L, 30.0)),
      (1, 2) -> Seq((5L, 10.0)),
    ))
    assert(Greedy.flow(g) === 10.0)
  }

  test("chain graph: greedy accumulates through intermediate buffers") {
    // t=1: B_y=5; t=2: y→z moves 5; t=6: z→t moves 3; t=7: B_y=4;
    // t=8: z→t moves 2; t=9: y→z moves 4 (too late to reach t). Flow 5.
    assert(Greedy.flow(TestGraphs.chain4) === 5.0)
  }

  test("greedy drains the earlier buffer first (Figure 1 narration: (8,$5) leaves $1 at y)") {
    val r = Greedy.run(TestGraphs.fig1)
    // After (8,5) on (y,z), y keeps 1; (9,4) on (y,t) moves only 1;
    // (11,8) on (z,t) then moves min(8, B_z=8) = 8.
    assert(r.buffers(4) === 1.0 + 8.0)
  }

  test("same-timestamp arrival is not forwardable by a same-timestamp send (strict semantics)") {
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 1) -> Seq((5L, 4.0)),
      (1, 2) -> Seq((5L, 4.0)),
    ))
    assert(Greedy.flow(g) === 0.0)
  }

  test("two same-timestamp sends cannot double-spend the buffer") {
    val g = TestGraphs.fromEdges(0, 3, Map(
      (0, 1) -> Seq((1L, 5.0)),
      (1, 2) -> Seq((5L, 5.0)),
      (1, 3) -> Seq((5L, 5.0)),
    ))
    val r = Greedy.run(g)
    assert(r.buffers.getOrElse(2, 0.0) + r.buffers.getOrElse(3, 0.0) === 5.0)
  }

  test("empty graph has zero flow") {
    assert(Greedy.flow(FlowGraph(0, 1, Nil)) === 0.0)
  }

  test("sink arrivals report only positive transfers") {
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 1) -> Seq((4L, 2.0)),
      (1, 2) -> Seq((1L, 3.0), (6L, 1.0), (8L, 5.0)),
    ))
    val r = Greedy.run(g)
    assert(r.sinkArrivals === Vector((6L, 1.0), (8L, 1.0)))
    assert(r.flow === 2.0)
  }

  test("chain arrivals replayed as a single edge preserve the flow at any later stage") {
    // Lemma 3 mechanics: arrivals of chain prefix + last edge == whole chain.
    val e1 = Seq((1L, 5.0), (7L, 4.0))
    val e2 = Seq((2L, 9.0), (5L, 3.0), (9L, 6.0))
    val e3 = Seq((6L, 3.0), (8L, 4.0))
    val prefix = Greedy.run(TestGraphs.chain(Seq(e1, e2))).sinkArrivals
    val whole  = Greedy.run(TestGraphs.chain(Seq(e1, e2, e3)))
    val reduced = Greedy.run(TestGraphs.chain(Seq(prefix.toSeq, e3)))
    assert(reduced.flow === whole.flow)
    assert(reduced.sinkArrivals === whole.sinkArrivals)
  }

  test("greedy flow of lemma2 DAG") {
    // (1,5),(4,6) into y; (2,7) into z; y->w at t=5 sends min(8, 11)=8;
    // z->w: (3,2) sends 2, (6,5) sends 5; w->t at 7 sends min(20,15)=15.
    assert(Greedy.flow(TestGraphs.lemma2Dag) === 15.0)
  }

  test("buffered quantities do not expire") {
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 1) -> Seq((1L, 5.0)),
      (1, 2) -> Seq((1000000L, 5.0)),
    ))
    assert(Greedy.flow(g) === 5.0)
  }
}
