package repro.patterns

import repro.core.{FlowGraph, FlowPipeline, Greedy, Interaction}
import scala.collection.mutable

/** In-memory adjacency view of an interaction network, the structure the
  * paper's graph-browsing baseline navigates ("main-memory representations
  * … adjacency lists", Section 6.3).
  */
final class AdjacencyIndex(edges: Map[(Int, Int), Vector[(Long, Double)]]) extends Serializable {
  private val out = FlowGraph.neighbours(edges.keys)
  private val in  = FlowGraph.neighbours(edges.keys.view.map(_.swap))
  val vertices: Array[Int] = (out.keySet ++ in.keySet).toArray.sorted

  def outOf(v: Int): Array[Int]              = out.getOrElse(v, Array.empty)
  def inOf(v: Int): Array[Int]               = in.getOrElse(v, Array.empty)
  def interactions(a: Int, b: Int): Vector[(Long, Double)] = edges.getOrElse((a, b), Vector.empty)
}

object AdjacencyIndex {
  def fromInteractions(inters: Seq[Interaction]): AdjacencyIndex =
    new AdjacencyIndex(FlowGraph.groupEdges(inters))
}

/** Graph browsing (Section 5.1): enumerate pattern instances by mapping the
  * pattern's vertices in topological order with backtracking, verifying the
  * structural and label (μ) constraints at each expansion, then compute each
  * instance's maximum flow with the Section 4 machinery (PreSim — for
  * greedy-soluble instances this degenerates to the incremental greedy
  * computation the paper describes).
  */
object GraphBrowsing {

  /** Enumerate all instances of `pattern`, invoking `onInstance` with the
    * vertex assignment (pattern vertex -> graph vertex). Returns the number
    * of instances visited (stops early at `maxInstances` if positive, like
    * the paper's starred P4/P6 runs).
    */
  def enumerate(
      adj: AdjacencyIndex,
      pattern: Pattern,
      maxInstances: Long = -1L,
      startVertices: Option[Array[Int]] = None,
  )(onInstance: Array[Int] => Unit): Long = {
    val k       = pattern.numVertices
    val mu      = Array.fill(k)(-1)
    var found   = 0L
    val preds   = Array.tabulate(k)(pattern.predecessors)
    val sameAs  = Array.tabulate(k) { p => // earliest earlier vertex with equal label, or -1
      (0 until p).find(q => pattern.labels(q) == pattern.labels(p)).getOrElse(-1)
    }
    val symPred = Array.tabulate(k) { p => // q with (q, p) in symmetry, q < p
      pattern.symmetry.collect { case (q, `p`) if q < p => q }
    }

    def candidates(p: Int): Array[Int] =
      if (sameAs(p) >= 0) Array(mu(sameAs(p))) // forced by label equality
      else if (preds(p).isEmpty) startVertices.getOrElse(adj.vertices)
      else {
        // intersect out-neighbour lists of mapped predecessors
        val lists = preds(p).map(u => adj.outOf(mu(u)))
        var base  = lists.minBy(_.length)
        lists.foreach { l => if (l ne base) base = base.filter(v => java.util.Arrays.binarySearch(l, v) >= 0) }
        base
      }

    def ok(p: Int, v: Int): Boolean = {
      // structural: every pattern edge (u, p), u mapped, must exist in G
      val structural = preds(p).forall(u => java.util.Arrays.binarySearch(adj.outOf(mu(u)), v) >= 0)
      // label: distinct labels => distinct vertices; equal labels => equal vertex
      val labelOk = (0 until p).forall { q =>
        if (pattern.labels(q) == pattern.labels(p)) mu(q) == v else mu(q) != v
      }
      val symOk = symPred(p).forall(q => mu(q) < v)
      structural && labelOk && symOk
    }

    def rec(p: Int): Boolean = { // returns false to stop (cap reached)
      if (p == k) {
        found += 1
        onInstance(mu.clone())
        maxInstances <= 0 || found < maxInstances
      } else {
        val cs = candidates(p)
        var i  = 0
        var go  = true
        while (go && i < cs.length) {
          val v = cs(i)
          if (ok(p, v)) {
            mu(p) = v
            go = rec(p + 1)
            mu(p) = -1
          }
          i += 1
        }
        go
      }
    }

    rec(0)
    found
  }

  /** The instance's flow graph over pattern-vertex ids (source and sink stay
    * separate nodes even when their labels coincide — the cycle split).
    */
  def instanceGraph(adj: AdjacencyIndex, pattern: Pattern, mu: Array[Int]): FlowGraph = {
    val edges = pattern.edges.map { case (u, w) =>
      (u, w) -> adj.interactions(mu(u), mu(w))
    }.toMap
    FlowGraph.fromEdges(pattern.source, pattern.sink, edges)
  }

  /** Enumerate instances and their maximum flows; returns (count, total flow). */
  def enumerateWithFlow(
      adj: AdjacencyIndex,
      pattern: Pattern,
      maxInstances: Long = -1L,
      startVertices: Option[Array[Int]] = None,
  ): (Long, Double) = {
    var total = 0.0
    val n = enumerate(adj, pattern, maxInstances, startVertices) { mu =>
      total += FlowPipeline.preSim(instanceGraph(adj, pattern, mu)).flow
    }
    (n, total)
  }

  /** Non-rigid patterns (Section 5.3): all parallel `hops`-hop cycles at each
    * start vertex `a` form one instance per `a`; its flow is the sum of the
    * branch flows (each branch is a source chain — Lemma 3). Returns one
    * `(a, branchCount, flow)` row per instance.
    */
  def relaxedCycles(adj: AdjacencyIndex, hops: Int, startVertices: Option[Array[Int]] = None): Seq[(Int, Int, Double)] = {
    require(hops == 2 || hops == 3, "only 2- and 3-hop relaxed cycles are defined")
    val starts = startVertices.getOrElse(adj.vertices)
    starts.iterator.flatMap { a =>
      var branches = 0
      var flow     = 0.0
      adj.outOf(a).foreach { b =>
        if (b != a) {
          if (hops == 2) {
            if (java.util.Arrays.binarySearch(adj.outOf(b), a) >= 0) {
              branches += 1
              flow += Greedy.chain(Seq(adj.interactions(a, b), adj.interactions(b, a))).flow
            }
          } else {
            adj.outOf(b).foreach { c =>
              if (c != a && c != b && java.util.Arrays.binarySearch(adj.outOf(c), a) >= 0) {
                branches += 1
                flow += Greedy.chain(Seq(adj.interactions(a, b), adj.interactions(b, c), adj.interactions(c, a))).flow
              }
            }
          }
        }
      }
      if (branches > 0) Some((a, branches, flow)) else None
    }.toVector
  }

  /** Non-rigid parallel 2-hop chains `a→*→c` (RP1): one instance per
    * `(a, c)` pair, flow = sum of chain flows.
    */
  def relaxedChains2(adj: AdjacencyIndex, startVertices: Option[Array[Int]] = None): Seq[((Int, Int), Int, Double)] = {
    val starts = startVertices.getOrElse(adj.vertices)
    val acc    = mutable.Map.empty[(Int, Int), (Int, Double)]
    starts.foreach { a =>
      adj.outOf(a).foreach { b =>
        if (b != a) adj.outOf(b).foreach { c =>
          if (c != a && c != b) {
            val f    = Greedy.chain(Seq(adj.interactions(a, b), adj.interactions(b, c))).flow
            val prev = acc.getOrElse((a, c), (0, 0.0))
            acc((a, c)) = (prev._1 + 1, prev._2 + f)
          }
        }
      }
    }
    acc.iterator.map { case (k, (n, f)) => (k, n, f) }.toVector
  }
}
