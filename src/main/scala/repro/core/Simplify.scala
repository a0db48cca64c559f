package repro.core

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
  * Simplification runs in rounds over immutable graphs: a round reduces every
  * maximal source chain of its graph at once and builds the next graph.
  * Interior vertices have in-degree 1, so one round's chains are
  * vertex-disjoint apart from shared ends. Merging may surface new chains
  * (Figure 7's example), so rounds repeat until one finds no chain.
  *
  * Each removed edge is processed once by a greedy scan, so the whole
  * procedure is linear in the number of interactions.
  */
object Simplify {

  final case class Result(graph: FlowGraph, chainsReduced: Int, removedInteractions: Int)

  def run(g: FlowGraph): Result = {
    var cur    = g
    var chains = sourceChains(cur)
    var count  = 0
    while (chains.nonEmpty) {
      cur = reduce(cur, chains)
      count += chains.size
      chains = sourceChains(cur)
    }
    Result(new FlowGraph(g.source, g.sink, cur.edges.filter(_._2.nonEmpty)), count,
      g.interactionCount - cur.interactionCount)
  }

  /** Every maximal chain `v1 … vk` off the source. `v1 … v(k-1)` are interior
    * vertices: neither source nor sink, one in- and one out-neighbour, no
    * self-loop and no edge back to the source; `v1`'s in-neighbour is the
    * source. A walk along interior vertices cannot revisit one (each has a
    * single in-neighbour, and `v1`'s is the source), so it ends at `vk`.
    */
  private def sourceChains(g: FlowGraph): Vector[Vector[Int]] = {
    def interior(v: Int): Boolean =
      v != g.source && v != g.sink && g.inDegree(v) == 1 && g.outDegree(v) == 1 && {
        val u = g.outNeighbors(v).head
        u != v && u != g.source
      }
    g.outNeighbors(g.source).toVector
      .filter(v1 => interior(v1) && g.inNeighbors(v1).head == g.source)
      .map { v1 =>
        val chain = Vector.newBuilder[Int]
        var v     = v1
        while (interior(v)) { chain += v; v = g.outNeighbors(v).head }
        (chain += v).result()
      }
  }

  /** Replace each chain by the Greedy arrivals into its end (Lemma 3),
    * merged into the `(s, vk)` edge. That edge is kept even when it carries
    * nothing, so `vk` still counts the source as an in-neighbour and a later
    * round can reduce through it, as a one-chain-at-a-time loop would; `run`
    * drops empty edges at the end.
    */
  private def reduce(g: FlowGraph, chains: Vector[Vector[Int]]): FlowGraph = {
    val paths    = chains.map(c => (g.source +: c).sliding(2).map(w => (w(0), w(1))).toVector)
    val arrivals = paths.map(p => p.last._2 -> Greedy.chain(p.map(g.edges)).sinkArrivals)
    val merged = arrivals.groupMapReduce(_._1)(_._2)(_ ++ _).iterator.map { case (vk, as) =>
      (g.source, vk) -> (g.edges.getOrElse((g.source, vk), Vector.empty) ++ as).sortBy(_._1)
    }
    new FlowGraph(g.source, g.sink, g.edges -- paths.flatten ++ merged)
  }
}
