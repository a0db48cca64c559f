package repro.core

import scala.collection.mutable

/** Graph preprocessing (Section 4.2.3, Algorithm 1).
  *
  * A pass visits every vertex `v` other than the source and the sink:
  *
  *   - if `v` has no incoming edge left, it can receive nothing, and its
  *     outgoing edges are deleted;
  *   - otherwise every interaction on `v`'s outgoing edges whose timestamp is
  *     smaller than the minimum timestamp over `v`'s surviving incoming
  *     interactions is deleted — by that time `v` cannot have received
  *     anything, so the interaction can never carry flow. An edge left with
  *     no interactions is deleted.
  *
  * After each pass a reachability cleanup deletes every edge off all
  * source→…→sink paths; this covers the paper's upward cascade (a vertex
  * that can forward nothing) and proves zero flow when the sink becomes
  * unreachable. Pass and cleanup repeat until neither deletes anything.
  *
  * Every deletion only raises the minimum incoming timestamps, so the result
  * is the same in any vertex order. In topological order, as in the paper,
  * the first pass does nearly all the work; cycle-seed subgraphs (Section
  * 6.2) may contain directed cycles between intermediate vertices, and those
  * use sorted vertex order (DESIGN.md §2).
  */
object Preprocess {

  final case class Result(
      graph: FlowGraph,
      removedInteractions: Int,
      removedEdges: Int,
      removedVertices: Int,
  ) {
    /** Preprocessing proved the flow is 0 (source or sink got disconnected). */
    def zeroFlow: Boolean = graph.isEmpty
  }

  def run(g: FlowGraph): Result = {
    // The only state: the surviving interactions of each surviving edge, read
    // through `g`'s own neighbour lists (preprocessing only deletes).
    val live  = mutable.Map.from(g.edges)
    val order = g.topologicalOrder.getOrElse(g.vertices.toVector.sorted)
    var changed = true
    while (changed) {
      changed = false
      order.foreach { v =>
        if (v != g.source && v != g.sink) {
          // None: no incoming edge is left, so every outgoing one goes.
          val minTs = g.inNeighbors(v).iterator.flatMap(w => live.get((w, v)))
            .flatMap(_.headOption).map(_._1).minOption
          g.outNeighbors(v).foreach { u =>
            live.get((v, u)).foreach { es =>
              val kept = minTs.fold(Vector.empty[(Long, Double)])(m => es.dropWhile(_._1 < m))
              if (kept.size != es.size) {
                changed = true
                if (kept.isEmpty) live.remove((v, u)) else live((v, u)) = kept
              }
            }
          }
        }
      }
      if (cleanupReachability(g, live)) changed = true
    }
    val out = new FlowGraph(g.source, g.sink, live.toMap)
    Result(out, g.interactionCount - out.interactionCount, g.edgeCount - out.edgeCount,
      g.vertexCount - out.vertexCount)
  }

  /** Keep only edges on some source→…→sink path, or none if the sink is
    * unreachable (zero flow); returns true if anything was deleted.
    */
  private def cleanupReachability(g: FlowGraph, live: mutable.Map[(Int, Int), Vector[(Long, Double)]]): Boolean = {
    def closure(start: Int, step: Int => Iterator[Int]): mutable.Set[Int] = {
      val seen  = mutable.Set(start)
      val stack = mutable.Stack(start)
      while (stack.nonEmpty) step(stack.pop()).foreach(u => if (seen.add(u)) stack.push(u))
      seen
    }
    val fwd = closure(g.source, v => g.outNeighbors(v).iterator.filter(u => live.contains((v, u))))
    val bwd = closure(g.sink, v => g.inNeighbors(v).iterator.filter(w => live.contains((w, v))))
    val before = live.size
    if (!fwd(g.sink)) live.clear()
    else live.filterInPlace { case ((a, b), _) => fwd(a) && bwd(a) && fwd(b) && bwd(b) }
    live.size != before
  }
}
