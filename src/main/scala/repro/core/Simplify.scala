package repro.core

import scala.collection.mutable

/** Graph simplification (Section 4.2.4, Algorithm 2, Lemma 3).
  *
  * Any chain `s -> v1 -> … -> vk` hanging off the source — every `vi`, `i<k`,
  * with in-degree and out-degree exactly 1 — can be replaced by a single edge
  * `(s, vk)` whose interactions are the arrivals into `vk` produced by
  * running the greedy algorithm on the chain (reserving quantity at the
  * source or at chain-interior vertices can never increase the flow reaching
  * the sink, so greedy is exact there). If an edge `(s, vk)` already exists,
  * the interaction sets are merged.
  *
  * One edge map and a worklist of chain starts, seeded with the source's
  * out-neighbours. A reduction deletes only edges out of `s` and out of the
  * chain's interior vertices and adds only `(s, vk)`, so every vertex it
  * keeps, `s` aside, keeps `g`'s out-list, and only `vk`'s in-degree
  * changes. Merging may make `vk` a chain start (Figure 7's example), so `vk`
  * goes back on the worklist. When no chain exists, `g` itself is returned.
  *
  * Each removed edge is processed once by a greedy scan, so the whole
  * procedure is linear in the number of interactions.
  */
object Simplify {

  final case class Result(graph: FlowGraph, chainsReduced: Int, removedInteractions: Int)

  def run(g: FlowGraph): Result = {
    val s     = g.source
    var edges = g.edges // persistent: a reduction shares every edge it keeps
    val inDeg = mutable.LongMap.withDefault[Int](_ => 0)
    g.edges.keysIterator.foreach { case (_, d) => inDeg(d) += 1 }
    // Interior: one in- and one out-neighbour, no self-loop, no edge back to
    // `s`. A walk along interior vertices cannot revisit one (each has a
    // single in-neighbour, and the chain start's is `s`).
    def interior(v: Int): Boolean =
      v != s && v != g.sink && inDeg(v) == 1 && g.outDegree(v) == 1 && {
        val u = g.outNeighbors(v).head
        u != v && u != s
      }
    val work    = mutable.Queue.from(g.outNeighbors(s))
    var count   = 0
    var removed = 0
    while (work.nonEmpty) {
      val v1 = work.dequeue()
      if (edges.contains((s, v1)) && interior(v1)) {
        val path = mutable.ArrayBuffer((s, v1))
        var v    = v1
        while (interior(v)) { path += ((v, g.outNeighbors(v).head)); v = path.last._2 }
        val seqs     = path.toSeq.map(edges)
        val arrivals = Greedy.chain(seqs).sinkArrivals
        edges --= path
        // The merged `(s, vk)` is kept even when it carries nothing, so `vk`
        // still counts `s` as an in-neighbour; empty edges go at the end.
        edges.get((s, v)) match {
          case Some(es) => edges += (s, v) -> (es ++ arrivals).sortBy(_._1); inDeg(v) -= 1
          case None     => edges += (s, v) -> arrivals
        }
        work += v
        count += 1
        removed += seqs.map(_.size).sum - arrivals.size
      }
    }
    if (count == 0) Result(g, 0, 0)
    else Result(new FlowGraph(s, g.sink, edges.filter(_._2.nonEmpty)), count, removed)
  }
}
