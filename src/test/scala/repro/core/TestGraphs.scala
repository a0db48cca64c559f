package repro.core

import org.scalacheck.Gen

/** Shared fixtures: the paper's worked examples plus random-graph generators
  * used by the cross-method property tests.
  */
object TestGraphs {

  /** Build from an explicit edge map (sequences are re-sorted defensively). */
  def fromEdges(source: Int, sink: Int, edges: Map[(Int, Int), Seq[(Long, Double)]]): FlowGraph =
    FlowGraph(source, sink, edges.toSeq.flatMap { case ((a, b), es) => es.map { case (t, q) => Interaction(a, b, t, q) } })

  /** The chain `0 → 1 → … → k` whose edge `(i, i + 1)` carries `runs(i)`: the
    * graph whose greedy scan is a path's Lemma 3 reduction.
    */
  def chain(runs: Seq[Seq[(Long, Double)]]): FlowGraph =
    fromEdges(0, runs.size, runs.zipWithIndex.map { case (r, i) => (i, i + 1) -> r }.toMap)

  /** Figure 3 / Tables 2–3: s=0, y=1, z=2, t=3. Greedy flow 1, max flow 5. */
  val fig3: FlowGraph = fromEdges(0, 3, Map(
    (0, 1) -> Seq((1L, 5.0)),
    (0, 2) -> Seq((2L, 3.0)),
    (1, 2) -> Seq((3L, 5.0)),
    (1, 3) -> Seq((4L, 4.0)),
    (2, 3) -> Seq((5L, 1.0)),
  ))

  /** A chain s→y→z→t (Lemma 1 territory): greedy == max. */
  val chain4: FlowGraph = fromEdges(0, 3, Map(
    (0, 1) -> Seq((1L, 5.0), (7L, 4.0)),
    (1, 2) -> Seq((2L, 9.0), (5L, 3.0), (9L, 6.0)),
    (2, 3) -> Seq((6L, 3.0), (8L, 4.0)),
  ))

  /** Lemma 2 graph: source has several outgoing edges, every other non-sink
    * vertex exactly one — soluble by greedy.
    */
  val lemma2Dag: FlowGraph = fromEdges(0, 4, Map(
    (0, 1) -> Seq((1L, 5.0), (4L, 6.0)),
    (0, 2) -> Seq((2L, 7.0)),
    (1, 3) -> Seq((5L, 8.0)),
    (2, 3) -> Seq((3L, 2.0), (6L, 5.0)),
    (3, 4) -> Seq((7L, 20.0)),
  ))

  /** Figure 6(a)-style preprocessing example G1 (reconstructed so that the
    * narrated deletions are exactly: (2,7) on (x,y), (1,2) on (x,z),
    * (3,3) on (y,t), (4,2) on (z,t); no edges or vertices deleted).
    * Vertices: s=0, x=1, y=2, z=3, t=4.
    */
  val g1Preprocess: FlowGraph = fromEdges(0, 4, Map(
    (0, 1) -> Seq((5L, 4.0)),
    (1, 2) -> Seq((2L, 7.0), (9L, 3.0)),
    (1, 3) -> Seq((1L, 2.0), (10L, 5.0)),
    (2, 4) -> Seq((3L, 3.0), (11L, 2.0)),
    (3, 4) -> Seq((4L, 2.0), (12L, 6.0)),
  ))

  /** Figure 6(c)-style example G2: all of x's outgoing interactions precede
    * its earliest arrival, so pruning cascades into deleting x and y
    * entirely; the result is the chain s→z→t. The extra (x,z) edge makes the
    * *original* graph non-soluble (x has out-degree 2), i.e. class B.
    * Vertices: s=0, x=1, y=2, z=3, t=4.
    */
  val g2Preprocess: FlowGraph = fromEdges(0, 4, Map(
    (0, 1) -> Seq((5L, 1.0), (8L, 2.0)),
    (1, 2) -> Seq((3L, 4.0)),
    (1, 3) -> Seq((2L, 9.0)),
    (2, 4) -> Seq((9L, 1.0)),
    (0, 3) -> Seq((6L, 3.0)),
    (3, 4) -> Seq((4L, 2.0), (10L, 5.0)),
  ))

  /** Figure 1(a)-style toy network (z→t completed with a late interaction so
    * flow can reach t through z). s=0, x=1, y=2, z=3, t=4.
    */
  val fig1: FlowGraph = fromEdges(0, 4, Map(
    (0, 1) -> Seq((1L, 3.0)),   // (s,x)
    (0, 2) -> Seq((2L, 6.0)),   // (s,y)
    (1, 3) -> Seq((5L, 5.0)),   // (x,z)
    (2, 3) -> Seq((8L, 5.0)),   // (y,z)
    (2, 4) -> Seq((9L, 4.0)),   // (y,t)
    (3, 4) -> Seq((3L, 3.0), (11L, 8.0)), // (z,t); (3,$3) is prunable
  ))

  /** Simplification playground: two chains off the source plus a direct
    * parallel edge that must be merged (Figure 7's mechanics).
    * s=0, y=1, x=2, z=3, w=4(sink).
    * Chain s→y→x→z reduces onto existing edge (s,z); then chain s→z→w.
    */
  val fig7: FlowGraph = fromEdges(0, 4, Map(
    (0, 1) -> Seq((1L, 2.0), (5L, 1.0)),
    (1, 2) -> Seq((2L, 4.0), (6L, 2.0)),
    (2, 3) -> Seq((3L, 2.0), (7L, 1.0)),
    (0, 3) -> Seq((2L, 5.0), (11L, 2.0)),
    (3, 4) -> Seq((4L, 3.0), (12L, 6.0)),
  ))

  /** Not soluble by greedy even after preprocessing (class C): the Fig. 3
    * diamond with an extra useless early interaction to also exercise
    * pruning.
    */
  val classC: FlowGraph = fromEdges(0, 3, Map(
    (0, 1) -> Seq((1L, 5.0)),
    (0, 2) -> Seq((2L, 3.0)),
    (1, 2) -> Seq((3L, 5.0)),
    (1, 3) -> Seq((4L, 4.0)),
    (2, 3) -> Seq((0L, 9.0), (5L, 1.0)), // (0,9) prunable, rest is fig3
  ))

  // ---- random generators ----------------------------------------------

  /** Random layered DAG with `k+1` vertices (0=source, k=sink), distinct
    * timestamps, integer quantities. Every vertex lies on some s→t path
    * only by construction odds — tests must not assume connectivity.
    */
  def genDag(maxV: Int = 7, maxInterPerEdge: Int = 3): Gen[FlowGraph] =
    for {
      k     <- Gen.choose(1, maxV - 1)
      // candidate forward edges u < v
      pairs = (for { u <- 0 until k; v <- u + 1 to k } yield (u, v)).toList
      chosen <- Gen.sequence[List[Option[(Int, Int)]], Option[(Int, Int)]](
        pairs.map(p => Gen.oneOf(true, false, true).map(b => if (b) Some(p) else None)))
      edges = chosen.flatten
      counts <- Gen.sequence[List[Int], Int](edges.map(_ => Gen.choose(1, maxInterPerEdge)))
      total  = counts.sum
      qs     <- Gen.listOfN(total, Gen.choose(1, 9))
      perm   <- Gen.const(scala.util.Random.javaRandomToRandom(new java.util.Random(total * 31 + k)).shuffle((1 to total).toList))
    } yield {
      var idx = 0
      val inters = edges.zip(counts).flatMap { case ((u, v), c) =>
        (0 until c).map { _ =>
          val i = Interaction(u, v, perm(idx).toLong, qs(idx).toDouble)
          idx += 1
          i
        }
      }
      FlowGraph(0, k, inters)
    }

  /** Random graph that may contain cycles among intermediates (like the
    * extracted cycle subgraphs); source 0 has no incoming, sink k no
    * outgoing.
    */
  def genMaybeCyclic(maxV: Int = 6, maxInterPerEdge: Int = 3): Gen[FlowGraph] =
    for {
      k <- Gen.choose(2, maxV - 1)
      pairs = (for {
        u <- 0 until k; v <- 1 to k
        if u != v && !(u == 0 && v == 0) && v != 0 && u != k
      } yield (u, v)).toList
      chosen <- Gen.sequence[List[Option[(Int, Int)]], Option[(Int, Int)]](
        pairs.map(p => Gen.choose(0, 3).map(b => if (b == 0) Some(p) else None)))
      edges = chosen.flatten
      counts <- Gen.sequence[List[Int], Int](edges.map(_ => Gen.choose(1, maxInterPerEdge)))
      total  = counts.sum
      qs     <- Gen.listOfN(total, Gen.choose(1, 9))
    } yield {
      val perm = scala.util.Random.javaRandomToRandom(new java.util.Random(total * 17 + k)).shuffle((1 to total).toList)
      var idx = 0
      val inters = edges.zip(counts).flatMap { case ((u, v), c) =>
        (0 until c).map { _ =>
          val i = Interaction(u, v, perm(idx).toLong, qs(idx).toDouble)
          idx += 1
          i
        }
      }
      FlowGraph(0, k, inters)
    }

  /** `gen` with every timestamp divided by 3, so most timestamps are shared
    * by a few interactions: the ties the generators above never produce.
    */
  def tied(gen: Gen[FlowGraph]): Gen[FlowGraph] =
    gen.map(g => FlowGraph(g.source, g.sink, g.interactions.map(i => i.copy(ts = i.ts / 3))))

  /** `gen` with every quantity scaled by `10^u`, `u` uniform in [-2, 6], so
    * one graph mixes quantities from about 1e-2 to 1e7 against the solvers'
    * absolute `Eps`.
    */
  def wide(gen: Gen[FlowGraph]): Gen[FlowGraph] =
    for {
      g  <- gen
      us <- Gen.listOfN(g.interactionCount, Gen.choose(-2.0, 6.0))
    } yield FlowGraph(g.source, g.sink, g.interactions.zip(us).map { case (i, u) => i.copy(qty = i.qty * math.pow(10, u)) })
}
