package repro.patterns

import org.apache.spark.serializer.JavaSerializer
import repro.SparkSpec
import repro.core.{FlowGraph, FlowPipeline, Greedy, Interaction, TestGraphs}

/** Tests for the graph-browsing (GB) pattern enumeration baseline
  * (Section 5.1): structure, label/μ constraints, symmetry breaking, and
  * per-instance flows.
  */
class GraphBrowsingSpec extends SparkSpec {

  /** The Figure 2(a)-style network: u1→u2→u3→u1 cycle plus u4→u2. */
  private val fig2 = AdjacencyIndex.fromInteractions(Seq(
    Interaction(1, 2, 1L, 5.0),
    Interaction(2, 3, 3L, 4.0),
    Interaction(2, 3, 5L, 2.0),
    Interaction(3, 1, 7L, 6.0),
    Interaction(4, 2, 2L, 1.0),
  ))

  /** Two 2-cycles and one 3-cycle off vertex 1, plus chords for P4. */
  private val multiInteractions = Seq(
    Interaction(1, 2, 1L, 5.0), Interaction(2, 1, 2L, 4.0),
    Interaction(1, 3, 3L, 6.0), Interaction(3, 1, 4L, 5.0),
    Interaction(1, 4, 5L, 7.0), Interaction(4, 5, 6L, 6.0), Interaction(5, 1, 7L, 5.0),
    Interaction(1, 5, 8L, 2.0), Interaction(4, 1, 9L, 3.0),
  )
  private val multi = AdjacencyIndex.fromInteractions(multiInteractions)

  test("P3 finds the three rotations of the 3-hop cycle in fig2") {
    // Each rotation is a distinct instance: the source (hence the flow)
    // differs, exactly like the rows of the L3 table.
    var found = Set.empty[Seq[Int]]
    val n = GraphBrowsing.enumerate(fig2, Patterns.P3)(mu => found += mu.toSeq)
    assert(n === 3)
    assert(found === Set(Seq(1, 2, 3, 1), Seq(2, 3, 1, 2), Seq(3, 1, 2, 3)))
  }

  test("label equality forces the cycle to close at the start vertex") {
    // u4→u2→u3→u1 is a 3-hop path but u1 != u4, so it is not an instance.
    val n = GraphBrowsing.enumerate(fig2, Patterns.P3, startVertices = Some(Array(4)))(_ => ())
    assert(n === 0)
  }

  test("P1 chains in fig2") {
    var found = Set.empty[Seq[Int]]
    GraphBrowsing.enumerate(fig2, Patterns.P1)(mu => found += mu.toSeq)
    // All 2-hop paths with distinct vertices: 1→2→3, 2→3→1, 3→1→2, 4→2→3.
    assert(found === Set(Seq(1, 2, 3), Seq(2, 3, 1), Seq(3, 1, 2), Seq(4, 2, 3)))
  }

  test("distinct labels must map to distinct vertices") {
    // In a pure 2-cycle, the only 2-hop chain 1→2→1 violates distinctness.
    val two = AdjacencyIndex.fromInteractions(Seq(
      Interaction(1, 2, 1L, 1.0), Interaction(2, 1, 2L, 1.0)))
    assert(GraphBrowsing.enumerate(two, Patterns.P1)(_ => ()) === 0)
  }

  test("P2 counts unordered pairs of 2-cycles (symmetry broken)") {
    var found = Vector.empty[Seq[Int]]
    val n = GraphBrowsing.enumerate(multi, Patterns.P2)(mu => found :+= mu.toSeq)
    // Vertex 1 has 2-cycles via 2, 3, 4 and 5: C(4,2) = 6 unordered pairs.
    assert(n === 6)
    assert(found.forall(mu => mu(1) < mu(2))) // symmetry break mu(b) < mu(c)
  }

  test("maxInstances caps enumeration") {
    val n = GraphBrowsing.enumerate(multi, Patterns.P1, maxInstances = 2)(_ => ())
    assert(n === 2)
  }

  test("instanceGraph collects the mapped edges' interactions") {
    var g: Option[repro.core.FlowGraph] = None
    GraphBrowsing.enumerate(fig2, Patterns.P3) { mu =>
      if (mu(0) == 1) g = Some(GraphBrowsing.instanceGraph(fig2, Patterns.P3, mu))
    }
    val fg = g.get
    assert(fg.source === 0 && fg.sink === 3)
    assert(fg.edges((1, 2)) === Vector((3L, 4.0), (5L, 2.0)))
    assert(fg.interactionCount === 4)
  }

  test("flows of the fig2 cycle rotations") {
    // a=1: arrivals into u3 are (3,4),(5,1); (3,1) then forwards 5 at t=7.
    // a=2 and a=3: the time order kills the flow (0 each).
    val (n, total) = GraphBrowsing.enumerateWithFlow(fig2, Patterns.P3)
    assert(n === 3)
    assert(math.abs(total - 5.0) < 1e-9)
  }

  test("P4 instance in `multi` needs the chords and LP flow") {
    var found = Vector.empty[Seq[Int]]
    val n = GraphBrowsing.enumerate(multi, Patterns.P4)(mu => found :+= mu.toSeq)
    assert(n === 1)
    assert(found.head === Seq(1, 4, 5, 1)) // cycle 1→4→5→1 with chords 1→5, 4→1
  }

  test("P5 combines the 2-cycle and 3-cycle at vertex 1") {
    var found = Vector.empty[Seq[Int]]
    val n = GraphBrowsing.enumerate(multi, Patterns.P5)(mu => found :+= mu.toSeq)
    // 2-cycles via 2 or 3; 3-cycle 1→4→5→1: two P5 instances.
    assert(n === 2)
    assert(found.map(_(1)).toSet === Set(2, 3)) // e ∈ {2, 3}
  }

  test("relaxedCycles(2) aggregates per start vertex") {
    val rs = GraphBrowsing.relaxedCycles(multi, 2)
    val m  = rs.map(r => r._1 -> r).toMap
    assert(m(1)._2 === 4) // 2-cycles via 2, 3, 4 and 5
    // flows: via 2 -> 4; via 3 -> 5; via 4 -> 3; via 5 -> 0 (wrong time order).
    assert(math.abs(m(1)._3 - 12.0) < 1e-9)
  }

  test("relaxedCycles(3) aggregates 3-hop cycles") {
    val rs = GraphBrowsing.relaxedCycles(multi, 3)
    val m  = rs.map(r => r._1 -> r).toMap
    assert(m(1)._2 === 1)
    assert(math.abs(m(1)._3 - 5.0) < 1e-9) // 7 -> 6 -> 5 bottleneck by time order
  }

  test("relaxedChains2 groups parallel 2-hop chains by (a, c)") {
    val rs = GraphBrowsing.relaxedChains2(multi)
    val m  = rs.map(r => r._1 -> r).toMap
    // chains from 1 to 5: 1→4→5 only (1→5 direct is 1 hop).
    assert(m((1, 5))._2 === 1)
    assert(math.abs(m((1, 5))._3 - 6.0) < 1e-9)
  }

  test("relaxed cycle flows equal PreSim on the assembled union graph") {
    val rs = GraphBrowsing.relaxedCycles(multi, 2)
    val at1 = rs.find(_._1 == 1).get
    val union = repro.core.TestGraphs.fromEdges(0, 9, Map(
      (0, 2) -> multi.interactions(1, 2), (2, 9) -> multi.interactions(2, 1),
      (0, 3) -> multi.interactions(1, 3), (3, 9) -> multi.interactions(3, 1),
      (0, 4) -> multi.interactions(1, 4), (4, 9) -> multi.interactions(4, 1),
      (0, 5) -> multi.interactions(1, 5), (5, 9) -> multi.interactions(5, 1),
    ))
    assert(math.abs(FlowPipeline.preSim(union).flow - at1._3) < 1e-9)
  }

  test("relaxed patterns ignore self-loops: GB == PB on multi plus loops 1→1 and 2→2") {
    val s = spark
    import s.implicits._
    val inters = multiInteractions ++ Seq(Interaction(1, 1, 3L, 8.0), Interaction(2, 2, 1L, 9.0))
    val adj    = AdjacencyIndex.fromInteractions(inters)
    val net    = inters.toDF()
    def agree(name: String, gb: Seq[(Any, Int, Double)], pb: (Long, Double)): Unit = {
      assert(gb.size.toLong === pb._1, s"$name instance counts differ")
      assert(math.abs(gb.map(_._3).sum / gb.size - pb._2) < 1e-6 * math.max(1.0, pb._2), s"$name avg flows differ")
    }
    agree("RP1", GraphBrowsing.relaxedChains2(adj), PatternEnum.rp1(PathTables.c2(net)))
    agree("RP2", GraphBrowsing.relaxedCycles(adj, 2), PatternEnum.rp2(PathTables.l2(net)))
    agree("RP3", GraphBrowsing.relaxedCycles(adj, 3), PatternEnum.rp3(PathTables.l3(net)))
    // The loops add no branch: multi's values at vertex 1 are unchanged.
    val rp2At1 = GraphBrowsing.relaxedCycles(adj, 2).find(_._1 == 1).get
    assert(rp2At1._2 === 4)
    assert(math.abs(rp2At1._3 - 12.0) < 1e-9)
    val rp3At1 = GraphBrowsing.relaxedCycles(adj, 3).find(_._1 == 1).get
    assert(rp3At1._2 === 1)
    assert(math.abs(rp3At1._3 - 5.0) < 1e-9)
  }

  /** Every assignment of `p`'s vertices to `0 until n` that a brute-force
    * check accepts: every pattern edge is present, equal labels map to equal
    * vertices and distinct labels to distinct ones, and symmetry pairs are
    * ascending. A vertex without predecessors ranges over `start`.
    */
  private def bruteForce(edges: Set[(Int, Int)], n: Int, p: Pattern, start: Seq[Int]): Seq[Seq[Int]] = {
    val domains = (0 until p.numVertices).map(v => if (p.predecessors(v).isEmpty) start else 0 until n)
    domains.foldLeft(Seq(Seq.empty[Int]))((acc, d) => for (mu <- acc; v <- d) yield mu :+ v).filter { mu =>
      p.edges.forall { case (u, w) => edges((mu(u), mu(w))) } &&
      mu.indices.forall(q => mu.indices.forall(r => (p.labels(q) == p.labels(r)) == (mu(q) == mu(r)))) &&
      p.symmetry.forall { case (q, r) => mu(q) < mu(r) }
    }
  }

  test("property: enumerate returns exactly the brute-force assignments (P1–P6, Cycle2)") {
    val rnd = new scala.util.Random(11)
    var loops, twoCycles = 0
    for (_ <- 0 until 150) {
      val n     = 1 + rnd.nextInt(6)
      val edges = (for (a <- 0 until n; b <- 0 until n if rnd.nextDouble() < 0.4) yield (a, b)).toSet
      loops += edges.count { case (a, b) => a == b }
      twoCycles += edges.count { case (a, b) => a < b && edges((b, a)) }
      val adj   = AdjacencyIndex.fromInteractions(edges.toSeq.map { case (a, b) => Interaction(a, b, 1L, 1.0) })
      val start = (0 until n).filter(_ => rnd.nextBoolean())
      for (p <- Patterns.rigid :+ Patterns.Cycle2; sv <- Seq(None, Some(start.toArray))) {
        val got = Vector.newBuilder[Seq[Int]]
        val cnt = GraphBrowsing.enumerate(adj, p, startVertices = sv)(mu => got += mu.toSeq)
        val want = bruteForce(edges, n, p, sv.fold(0 until n: Seq[Int])(_.toSeq))
        val ord  = Ordering.Implicits.seqOrdering[Seq, Int]
        // Unsorted: `start` is ascending, so enumerate must already yield the lexicographic order.
        assert(got.result() === want.sorted(ord), s"${p.name} start=${sv.map(_.toSeq)} edges=$edges")
        assert(cnt === want.size.toLong)
      }
    }
    assert(loops > 0 && twoCycles > 0, "the samples must contain self-loops and 2-cycles")
  }

  /** Random networks on `0 until n`: multi-interaction edges and self-loops,
    * distinct quantities (so a run's order shows), and in every other network
    * timestamps divided by 3, so interactions of one edge tie.
    */
  private def randomNetworks(seed: Int, count: Int, maxN: Int): Seq[(Int, Seq[Interaction])] = {
    val rnd = new scala.util.Random(seed)
    (0 until count).map { k =>
      val n     = 1 + rnd.nextInt(maxN)
      val pairs = for (a <- 0 until n; b <- 0 until n if rnd.nextDouble() < 0.45; _ <- 0 to rnd.nextInt(3)) yield (a, b)
      val ts    = rnd.shuffle((0 until pairs.size).toVector)
      (n, rnd.shuffle(pairs).zip(ts).zipWithIndex.map { case (((a, b), t), q) =>
        Interaction(a, b, if (k % 2 == 0) t / 3L else t.toLong, q + 1.0)
      })
    }
  }

  /** The index as plain collections: vertices, every out-list and every run of `0 to n`. */
  private def contents(adj: AdjacencyIndex, n: Int) =
    (adj.vertices.toSeq, (0 to n).map(adj.out(_).map(adj.dst)),
     for (a <- 0 to n; b <- 0 to n) yield adj.interactions(a, b))

  test("property: the index holds each vertex's out-list and each edge's stable time-sorted run") {
    val ser = new JavaSerializer(spark.sparkContext.getConf).newInstance()
    var loops, ties, absent = 0
    for ((n, inters) <- randomNetworks(seed = 5, count = 200, maxN = 6)) {
      val adj = AdjacencyIndex.fromInteractions(inters)
      assert(adj.vertices.toSeq === inters.flatMap(i => Seq(i.src, i.dst)).distinct.sorted)
      for (v <- 0 to n) {
        val out = adj.out(v).map(adj.dst)
        assert(out === inters.filter(_.src == v).map(_.dst).distinct.sorted, s"out-list of $v in $inters")
      }
      for (a <- 0 to n; b <- 0 to n) {
        val run = inters.filter(i => i.src == a && i.dst == b)
        assert(adj.interactions(a, b) === run.sortBy(_.ts).map(i => (i.ts, i.qty)), s"run $a → $b in $inters")
        if (run.isEmpty) absent += 1
        if (a == b && run.nonEmpty) loops += 1
        if (run.map(_.ts).distinct.size < run.size) ties += 1
      }
      for (k <- 1 to 4)
        assert(adj.slices(k).map(_.toSeq) === (0 until k).map(i => adj.vertices.indices.filter(_ % k == i).map(adj.vertices)))
      assert(contents(ser.deserialize[AdjacencyIndex](ser.serialize(adj)), n) === contents(adj, n))
    }
    assert(loops > 0 && ties > 0 && absent > 0, "the samples must contain self-loops, tied runs and absent pairs")
  }

  test("property: instance graphs are the mapped edges' interactions relabelled, chains scan as TestGraphs chains") {
    val seen = collection.mutable.Map.empty[String, Int].withDefaultValue(0)
    for ((_, inters) <- randomNetworks(seed = 8, count = 120, maxN = 7)) {
      val adj = AdjacencyIndex.fromInteractions(inters)
      def run(a: Int, b: Int) = inters.filter(i => i.src == a && i.dst == b)
      for (p <- Patterns.rigid :+ Patterns.Cycle2) GraphBrowsing.enumerate(adj, p) { mu =>
        seen(p.name) += 1
        val g = GraphBrowsing.instanceGraph(adj, p, mu)
        assert(g === FlowGraph(p.source, p.sink, p.edges.flatMap { case (u, w) => run(mu(u), mu(w)).map(_.copy(src = u, dst = w)) }),
          s"${p.name} at ${mu.toSeq}")
        if (Seq(Patterns.Cycle2, Patterns.P3, Patterns.P1).contains(p)) {
          val (got, want) = (Greedy.run(g), Greedy.run(TestGraphs.chain(p.edges.map { case (u, w) => run(mu(u), mu(w)).map(i => (i.ts, i.qty)) })))
          assert(got.flow === want.flow && got.sinkArrivals === want.sinkArrivals, s"${p.name} at ${mu.toSeq}")
        }
      }
    }
    assert((Patterns.rigid :+ Patterns.Cycle2).forall(p => seen(p.name) > 0), s"every pattern needs instances: $seen")
  }
}
