package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.SparkSpec

/** Tests for the FlowGraph model: construction, degrees, topological order,
  * synthetic endpoints (Figure 4), and the array form against a brute-force
  * reference.
  */
class FlowGraphSpec extends SparkSpec {

  test("apply groups and sorts interactions per edge") {
    val g = FlowGraph(0, 1, Seq(
      Interaction(0, 1, 5L, 2.0),
      Interaction(0, 1, 1L, 3.0),
    ))
    assert(g.edges((0, 1)) === Vector((1L, 3.0), (5L, 2.0)))
  }

  test("vertices include isolated source and sink") {
    val g = TestGraphs.fromEdges(7, 9, Map((1, 2) -> Vector((1L, 1.0))))
    assert(g.vertices === Set(1, 2, 7, 9))
  }

  test("degrees count distinct neighbours, not interactions") {
    val g = TestGraphs.fromEdges(0, 2, Map(
      (0, 1) -> Seq((1L, 1.0), (2L, 1.0), (3L, 1.0)),
      (1, 2) -> Seq((4L, 1.0)),
    ))
    assert(g.outDegree(0) === 1)
    assert(g.outDegree(1) === 1)
    assert(g.inDegree(2) === 1)
    assert(g.interactionCount === 4)
  }

  test("global interaction order is by timestamp") {
    val ts = TestGraphs.fig3.interactions.map(_.ts)
    assert(ts === ts.sorted)
  }

  test("topological order exists for DAGs and respects edges") {
    val order = TestGraphs.fig3.topologicalOrder.get
    val pos   = order.zipWithIndex.toMap
    TestGraphs.fig3.edges.keys.foreach { case (a, b) => assert(pos(a) < pos(b)) }
  }

  test("topological order is None for cyclic graphs") {
    val g = TestGraphs.fromEdges(0, 3, Map(
      (0, 1) -> Seq((1L, 1.0)),
      (1, 2) -> Seq((2L, 1.0)),
      (2, 1) -> Seq((3L, 1.0)),
    ))
    assert(g.topologicalOrder.isEmpty)
    assert(!g.isDag)
  }

  test("Figure 4: synthetic endpoints wire all sources and sinks") {
    val inters = Seq(
      Interaction(1, 2, 5L, 3.0),
      Interaction(3, 2, 6L, 4.0),
      Interaction(2, 4, 7L, 5.0),
      Interaction(2, 5, 8L, 6.0),
    )
    val g = FlowGraph.withSyntheticEndpoints(inters, sources = Seq(1, 3), sinks = Seq(4, 5),
      syntheticSource = -1, syntheticSink = -2)
    assert(g.source === -1 && g.sink === -2)
    assert(g.edges((-1, 1)).head._1 === Long.MinValue)
    assert(g.edges((4, -2)).head._1 === Long.MaxValue)
    assert(g.edges((-1, 3)).head._2.isPosInfinity)
    // Flow through the synthetic graph equals what reaches original sinks:
    // vertex 2 buffers 3+4=7, forwards 5 at t=7 and min(6,2)=2 at t=8.
    assert(Greedy.flow(g) === 7.0)
  }

  test("Figure 4: LP, Pre, PreSim and time-expanded Dinic agree on synthetic endpoints, greedy stays below") {
    def check(g: FlowGraph, greedy: Double, max: Double): Unit = {
      val flows = Seq("dinic" -> FlowPipeline.dinic(g), "lp" -> FlowPipeline.lp(g),
        "pre" -> FlowPipeline.pre(g).flow, "presim" -> FlowPipeline.preSim(g).flow)
      flows.foreach { case (m, f) => assert(math.abs(f - max) < 1e-9, s"$m: $f != $max") }
      assert(math.abs(FlowPipeline.greedy(g) - greedy) < 1e-9)
    }
    val fig4 = Seq(
      Interaction(1, 2, 5L, 3.0),
      Interaction(3, 2, 6L, 4.0),
      Interaction(2, 4, 7L, 5.0),
      Interaction(2, 5, 8L, 6.0),
    )
    check(FlowGraph.withSyntheticEndpoints(fig4, Seq(1, 3), Seq(4, 5), -1, -2), greedy = 7.0, max = 7.0)
    // Greedy moves all 5 units to 3, which forwards only 3 to sink 4, so
    // nothing is left for 2→5; holding 2 back at vertex 2 reaches 3 + 2.
    val twoSinks = Seq(
      Interaction(1, 2, 1L, 5.0),
      Interaction(2, 3, 2L, 5.0),
      Interaction(3, 4, 3L, 3.0),
      Interaction(2, 5, 4L, 5.0),
    )
    check(FlowGraph.withSyntheticEndpoints(twoSinks, Seq(1), Seq(4, 5), -1, -2), greedy = 3.0, max = 5.0)
  }

  test("equality is structural") {
    val a = TestGraphs.fromEdges(0, 1, Map((0, 1) -> Seq((1L, 2.0))))
    val b = TestGraphs.fromEdges(0, 1, Map((0, 1) -> Seq((1L, 2.0))))
    assert(a === b)
  }

  test("ties within a timestamp come by ascending (src, dst), then in edge order") {
    val g = TestGraphs.fromEdges(0, 3, Map(
      (1, 3) -> Seq((5L, 1.0), (5L, 2.0)),
      (0, 2) -> Seq((5L, 3.0)),
      (0, 1) -> Seq((1L, 4.0), (5L, 5.0)),
      (2, 3) -> Seq((4L, 6.0)),
    ))
    assert(g.interactions.map(i => (i.src, i.dst, i.qty)) ===
      Vector((0, 1, 4.0), (2, 3, 6.0), (0, 1, 5.0), (0, 2, 3.0), (1, 3, 1.0), (1, 3, 2.0)))
  }

  test("property: the array form matches a brute-force reference on its edge map") {
    val gens = Seq(TestGraphs.genDag(), TestGraphs.genMaybeCyclic(maxV = 12))
    var seed = Seed(0xA77A1L)
    for (gen <- gens ++ gens.map(TestGraphs.tied) ++ gens.map(TestGraphs.wide); _ <- 0 until 300) {
      val sample = gen(Gen.Parameters.default, seed).get
      seed = seed.next
      val em = sample.edges
      val g  = TestGraphs.fromEdges(sample.source, sample.sink, em)
      assert(g.edges === em)
      val vs = em.keySet.flatMap { case (a, b) => Set(a, b) } + g.source + g.sink
      assert(g.vertices === vs)
      for (v <- vs) {
        val out = em.keys.collect { case (`v`, b) => b }.toVector.sorted
        val in  = em.keys.collect { case (a, `v`) => a }.toVector.sorted
        assert(g.outNeighbors(v).toVector === out && g.outDegree(v) === out.size, s"out-list of $v in $em")
        assert(g.inNeighbors(v).toVector === in && g.inDegree(v) === in.size, s"in-list of $v in $em")
      }
      // A DAG iff no edge closes a path back to its tail.
      def reach(from: Int): Set[Int] = Iterator.iterate(Set(from))(r => r ++ em.keys.collect { case (a, b) if r(a) => b })
        .sliding(2).collectFirst { case Seq(a, b) if a == b => a }.get
      val dag = em.keys.forall { case (a, b) => !reach(b)(a) }
      g.topologicalOrder match {
        case Some(order) =>
          val pos = order.zipWithIndex.toMap
          assert(dag && order.sorted === vs.toVector.sorted && em.keys.forall { case (a, b) => pos(a) < pos(b) }, s"order $order of $em")
        case None => assert(!dag, s"no order for the DAG $em")
      }
      val timeSorted = em.toVector.sortBy(_._1).flatMap { case ((a, b), es) => es.map { case (t, q) => Interaction(a, b, t, q) } }
        .sortBy(_.ts)
      assert(g.interactions === timeSorted)
    }
  }
}
