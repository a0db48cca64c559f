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
  * A worklist of chain starts, seeded with the source's out-neighbours, over
  * `g`'s arrays. A reduction deletes only edges out of `s` and out of the
  * chain's interior vertices and adds only `(s, vk)`, so every vertex it
  * keeps, `s` aside, keeps `g`'s out-list, and only `vk`'s in-degree
  * changes: the state is a mask of the deleted edges, the in-degrees, and
  * the current sequence of each edge out of `s`. Merging may make `vk` a
  * chain start (Figure 7's example), so `vk` goes back on the worklist. When
  * no chain exists, `g` itself is returned.
  *
  * Each removed edge is processed once by a greedy scan, so the whole
  * procedure is linear in the number of interactions.
  */
object Simplify {

  final case class Result(graph: FlowGraph, chainsReduced: Int, removedInteractions: Int)

  def run(g: FlowGraph): Result = {
    val s     = g.s
    val out   = g.outStart
    val inDeg = Array.tabulate(g.n)(g.inDeg)
    val gone  = new Array[Boolean](g.edgeCount)
    // `(s, v)` exists while `hasS(v)`. Its sequence is `g`'s edge `sEdge(v)`
    // until `own(v)` copies it into `sTs(v)`/`sQty(v)`, which reductions rewrite.
    val hasS  = new Array[Boolean](g.n)
    val sEdge = new Array[Int](g.n)
    val sTs   = new Array[Array[Long]](g.n)
    val sQty  = new Array[Array[Double]](g.n)
    def own(v: Int): Unit = if (sTs(v) == null) {
      val e = sEdge(v)
      sTs(v) = java.util.Arrays.copyOfRange(g.ts, g.start(e), g.start(e + 1))
      sQty(v) = java.util.Arrays.copyOfRange(g.qty, g.start(e), g.start(e + 1))
    }
    // Each reduction deletes an interior vertex for good, so fewer than `n`
    // vertices re-enter the worklist.
    val work = new Array[Int](2 * g.n)
    var (head, tail) = (0, 0)
    for (e <- out(s) until out(s + 1)) { hasS(g.dst(e)) = true; sEdge(g.dst(e)) = e; work(tail) = g.dst(e); tail += 1 }
    // Interior: one in- and one out-neighbour, no self-loop, no edge back to
    // `s`. A walk along interior vertices cannot revisit one (each has a
    // single in-neighbour, and the chain start's is `s`).
    def interior(v: Int): Boolean =
      v != s && v != g.t && inDeg(v) == 1 && g.outDeg(v) == 1 && { val u = g.dst(out(v)); u != v && u != s }
    val path    = new Array[Int](g.n) // the chain's edges after `(s, v1)`
    var count   = 0
    var removed = 0
    while (head < tail) {
      val v1 = work(head)
      head += 1
      if (hasS(v1) && interior(v1)) {
        own(v1)
        var (k, v, size) = (0, v1, sTs(v1).length)
        while (interior(v)) { path(k) = out(v); size += g.start(out(v) + 1) - g.start(out(v)); v = g.dst(out(v)); k += 1 }
        // The chain as a graph over vertices 0 (s) .. k + 1 (vk).
        val c = new FlowGraph.Builder(0, k + 1, k + 1, size)
        c.add(0, 1, sTs(v1), sQty(v1), 0, sTs(v1).length)
        for (i <- 0 until k) c.add(i + 1, i + 2, g.ts, g.qty, g.start(path(i)), g.start(path(i) + 1))
        val (arrTs, arrQty) = Greedy.run(c.result()).arrivals
        for (i <- 0 until k) gone(path(i)) = true
        hasS(v1) = false
        // The merged `(s, vk)` is kept even when it carries nothing, so `vk`
        // still counts `s` as an in-neighbour; empty edges go at the end.
        if (!hasS(v)) { hasS(v) = true; sTs(v) = arrTs; sQty(v) = arrQty }
        else {
          own(v)
          val (mTs, mQty) = merge(sTs(v), sQty(v), arrTs, arrQty)
          sTs(v) = mTs
          sQty(v) = mQty
          inDeg(v) -= 1
        }
        work(tail) = v
        tail += 1
        count += 1
        removed += size - arrTs.length
      }
    }
    if (count == 0) return Result(g, 0, 0)
    // `s`'s out-edges are one block of the ascending edge order; its edges
    // now, by ascending `v`, take the block's place.
    val b = new FlowGraph.Builder(g.source, g.sink, g.edgeCount, g.interactionCount)
    def keep(e: Int): Unit =
      if (!gone(e) && g.start(e) < g.start(e + 1)) b.add(g.ids(g.src(e)), g.ids(g.dst(e)), g.ts, g.qty, g.start(e), g.start(e + 1))
    for (e <- 0 until out(s)) keep(e)
    for (v <- 0 until g.n) if (hasS(v)) {
      if (sTs(v) == null) keep(sEdge(v))
      else if (sTs(v).nonEmpty) b.add(g.source, g.ids(v), sTs(v), sQty(v), 0, sTs(v).length)
    }
    for (e <- out(s + 1) until g.edgeCount) keep(e)
    Result(b.result(), count, removed)
  }

  /** The stable merge of two time-sorted sequences, `a`'s first on ties. */
  private def merge(aTs: Array[Long], aQty: Array[Double], bTs: Array[Long], bQty: Array[Double]): (Array[Long], Array[Double]) = {
    val ts  = new Array[Long](aTs.length + bTs.length)
    val qty = new Array[Double](ts.length)
    var (i, j) = (0, 0)
    while (i + j < ts.length) {
      if (j == bTs.length || i < aTs.length && aTs(i) <= bTs(j)) { ts(i + j) = aTs(i); qty(i + j) = aQty(i); i += 1 }
      else { ts(i + j) = bTs(j); qty(i + j) = bQty(j); j += 1 }
    }
    (ts, qty)
  }
}
