package repro.core

import repro.SparkSpec
import repro.maxflow.TimeExpanded

/** Tests for Algorithm 1 — preprocessing (Section 4.2.3), including the
  * Figure 6 worked examples.
  */
class PreprocessSpec extends SparkSpec {
  private val Tol = 1e-6

  test("Figure 6(a): exactly the narrated interactions are deleted") {
    val r = Preprocess.run(TestGraphs.g1Preprocess)
    assert(r.removedInteractions === 4) // (2,7), (1,2), (3,3), (4,2)
    assert(r.removedEdges === 0)
    assert(r.removedVertices === 0)
    val e = r.graph.edges
    assert(e((1, 2)) === Vector((9L, 3.0)))
    assert(e((1, 3)) === Vector((10L, 5.0)))
    assert(e((2, 4)) === Vector((11L, 2.0)))
    assert(e((3, 4)) === Vector((12L, 6.0)))
    assert(e((0, 1)) === Vector((5L, 4.0)))
  }

  test("Figure 6(c): cascade deletes x and y, leaving the chain s->z->t") {
    val r = Preprocess.run(TestGraphs.g2Preprocess)
    val g = r.graph
    assert(g.vertices === Set(0, 3, 4))
    assert(g.edges.keySet === Set((0, 3), (3, 4)))
    assert(g.edges((3, 4)) === Vector((10L, 5.0))) // (4,2) pruned
    assert(Solubility.solvableByGreedy(g))
    assert(Greedy.flow(g) === 3.0)
  }

  test("Figure 1(a): interaction (2,$3)-style early sends on (z,t) are pruned") {
    val r = Preprocess.run(TestGraphs.fig1)
    // (3,3) on (z,t) precedes every arrival into z (earliest is (5,5) on (x,z)).
    assert(!r.graph.edges((3, 4)).contains((3L, 3.0)))
    assert(r.graph.edges((3, 4)) === Vector((11L, 8.0)))
  }

  test("preprocessing preserves the maximum flow on all fixtures") {
    for (g <- Seq(TestGraphs.fig3, TestGraphs.chain4, TestGraphs.lemma2Dag,
                  TestGraphs.fig1, TestGraphs.g1Preprocess, TestGraphs.g2Preprocess,
                  TestGraphs.fig7, TestGraphs.classC)) {
      val before = TimeExpanded.maxFlow(g)
      val after  = Preprocess.run(g)
      val flowAfter = if (after.zeroFlow) 0.0 else TimeExpanded.maxFlow(after.graph)
      assert(math.abs(before - flowAfter) < Tol, s"preprocess changed flow on $g")
    }
  }

  test("preprocessing preserves the greedy flow value too") {
    // Pruned interactions never transferred anything, so greedy is unchanged.
    for (g <- Seq(TestGraphs.fig1, TestGraphs.g1Preprocess, TestGraphs.classC)) {
      val after = Preprocess.run(g)
      assert(math.abs(Greedy.flow(g) - Greedy.flow(after.graph)) < Tol)
    }
  }

  test("soluble graphs pass through with nothing removable") {
    val r = Preprocess.run(TestGraphs.chain4)
    assert(r.removedInteractions === 0)
    assert(r.graph.edges === TestGraphs.chain4.edges)
  }

  test("nothing to prune: the input graph itself is returned") {
    val r = Preprocess.run(TestGraphs.lemma2Dag)
    assert(r.graph eq TestGraphs.lemma2Dag)
    assert((r.removedInteractions, r.removedEdges, r.removedVertices) === ((0, 0, 0)))
  }

  test("sink losing all incoming edges proves zero flow") {
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 1) -> Seq((5L, 4.0)),
      (1, 2) -> Seq((1L, 4.0)), // earlier than any arrival into 1
    ))
    val r = Preprocess.run(g)
    assert(r.zeroFlow)
    assert(math.abs(TimeExpanded.maxFlow(g)) < Tol)
  }

  test("vertex with no incoming edges is removed with its outgoing edges") {
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 2) -> Seq((1L, 3.0)),
      (1, 2) -> Seq((2L, 4.0)), // vertex 1 has no incoming: removable
    ))
    val r = Preprocess.run(g)
    assert(r.graph.vertices === Set(0, 2))
    assert(r.graph.edges.keySet === Set((0, 2)))
    assert(math.abs(TimeExpanded.maxFlow(g) - TimeExpanded.maxFlow(r.graph)) < Tol)
  }

  test("upward cascade: dead-end vertex deletes its feeder chain") {
    val g = TestGraphs.fromEdges(0, 4, Map(
      (0, 1) -> Seq((1L, 3.0)),
      (1, 2) -> Seq((2L, 3.0)), // 2 leads only to dead-end 3
      (2, 3) -> Seq((0L, 5.0)), // pruned: 0 < 2 -> edge gone -> 3 unreachable
      (0, 4) -> Seq((5L, 7.0)),
    ))
    val r = Preprocess.run(g)
    assert(r.graph.edges.keySet === Set((0, 4)))
    assert(math.abs(TimeExpanded.maxFlow(r.graph) - 7.0) < Tol)
  }

  test("non-DAG fallback: fixpoint pruning on a cyclic subgraph") {
    val g = TestGraphs.fromEdges(0, 3, Map(
      (0, 1) -> Seq((5L, 6.0)),
      (1, 2) -> Seq((6L, 4.0)),
      (2, 1) -> Seq((1L, 4.0)), // before any arrival into 2: prunable
      (1, 3) -> Seq((7L, 6.0)),
    ))
    assert(!g.isDag)
    val r = Preprocess.run(g)
    // (2,1)'s only interaction is pruned; 2 then has no outgoing -> dropped
    // along with (1,2) by the reachability cleanup.
    assert(r.graph.edges.keySet === Set((0, 1), (1, 3)))
    assert(math.abs(TimeExpanded.maxFlow(g) - TimeExpanded.maxFlow(r.graph)) < Tol)
  }

  test("a vertex cut off inside a cycle no longer feeds the timestamp rule") {
    // Pruning (1,2)@1 leaves 2 without incoming edges, so (2,1) is deleted;
    // 1's earliest arrival is then (0,1)@5, after its only send to the sink.
    val g = TestGraphs.fromEdges(0, 3, Map(
      (0, 1) -> Seq((5L, 4.0)),
      (1, 2) -> Seq((1L, 1.0)),
      (2, 1) -> Seq((2L, 1.0)),
      (1, 3) -> Seq((3L, 4.0)),
    ))
    assert(!g.isDag)
    assert(Preprocess.run(g).zeroFlow)
    assert(math.abs(TimeExpanded.maxFlow(g)) < Tol)
  }

  test("a 2000-vertex dead-end chain is deleted on a 1 MB thread stack") {
    val n    = 2000
    val sink = n + 2
    val g = TestGraphs.fromEdges(0, sink, (0 until n).map(i => (i, i + 1) -> Seq(((10 + i).toLong, 1.0))).toMap ++ Map(
      (n, n + 1)    -> Seq(((10 + n).toLong, 1.0)),
      (n + 1, sink) -> Seq((1L, 1.0)), // before any arrival into n+1: pruned
      (0, sink)     -> Seq((5L, 2.0)),
    ))
    var result: Any = null
    val worker = new Thread(null, () => result = try Preprocess.run(g) catch { case e: Throwable => e },
      "deep-chain", 1L << 20)
    worker.start(); worker.join()
    result match {
      case r: Preprocess.Result => assert(r.graph.edges.keySet === Set((0, sink)))
      case other                => fail(s"preprocessing failed: $other")
    }
  }

  test("pruning does not remove interactions at exactly the minimum incoming timestamp") {
    // Algorithm 1 deletes strictly smaller timestamps only (t < mintime).
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 1) -> Seq((5L, 4.0)),
      (1, 2) -> Seq((5L, 4.0), (7L, 1.0)),
    ))
    val r = Preprocess.run(g)
    assert(r.graph.edges((1, 2)) === Vector((5L, 4.0), (7L, 1.0)))
  }

  test("counts are consistent") {
    val r = Preprocess.run(TestGraphs.g2Preprocess)
    assert(r.removedInteractions === TestGraphs.g2Preprocess.interactionCount - r.graph.interactionCount)
  }
}
