package repro.core

import scala.collection.immutable.ArraySeq

/** One transfer event: quantity `qty` moves from `src` to `dst` at time `ts`.
  *
  * This is the row type shared by the in-memory algorithms and the Spark
  * Dataset pipelines (it has a product encoder).
  */
final case class Interaction(src: Int, dst: Int, ts: Long, qty: Double)

/** A temporal interaction (sub-)network with a designated source and sink
  * (Section 3/4 of the paper), in the one array form every solver reads.
  *
  *  - Vertices have dense ids `0 until n`: a vertex's dense id is the position
  *    of its original id in the ascending `ids`, which holds every edge end,
  *    the source and the sink. Dense order is id order.
  *  - Edge `e` runs from `src(e)` to `dst(e)` (dense ids). Edges are distinct
  *    and ascending by `(src, dst)`, so the out-edges of `v` are
  *    `outStart(v) until outStart(v + 1)`, by ascending `dst`. Its interaction
  *    sequence `e_S` is positions `start(e) until start(e + 1)` of `ts`/`qty`,
  *    sorted by timestamp (ties keep construction order — the paper assumes
  *    distinct timestamps; see DESIGN.md §3 for the tie semantics we enforce).
  *  - In-lists, the time order and the topological order are computed on
  *    first use.
  *
  * The constructor takes original ids and wraps `start`, `ts` and `qty`
  * without copying; nothing reads or writes them afterwards except through
  * this graph. `edges`, `interactions`, `vertices`, the neighbour lists and
  * `topologicalOrder` are views in original ids, derived on demand for
  * callers outside the solvers.
  *
  * The source is assumed to hold an infinite buffer; the flow of the graph is
  * whatever ends up buffered at the sink (Definitions 4–5).
  */
final class FlowGraph(
    val source: Int,
    val sink: Int,
    srcIds: Array[Int],
    dstIds: Array[Int],
    val start: Array[Int],
    val ts: Array[Long],
    val qty: Array[Double],
) {

  private def this(source: Int, sink: Int, keys: Array[(Int, Int)], runs: (Array[Int], Array[Long], Array[Double])) =
    this(source, sink, keys.map(_._1), keys.map(_._2), runs._1, runs._2, runs._3)

  private def this(source: Int, sink: Int, keys: Array[(Int, Int)], edges: Map[(Int, Int), Vector[(Long, Double)]]) =
    this(source, sink, keys, FlowGraph.concat(keys.toSeq.map(edges)))

  /** Input adapter: an edge map `(src, dst) → e_S`, each sequence sorted by timestamp. */
  def this(source: Int, sink: Int, edges: Map[(Int, Int), Vector[(Long, Double)]]) =
    this(source, sink, edges.keys.toArray.sorted, edges)

  val edgeCount: Int = srcIds.length
  require(dstIds.length == edgeCount && start.length == edgeCount + 1 && start(0) == 0 &&
    start(edgeCount) == ts.length && qty.length == ts.length, "malformed edge arrays")

  /** Original vertex ids, ascending: dense id `v` is `ids(v)`. */
  val ids: Array[Int] = {
    val a = java.util.Arrays.copyOf(srcIds, 2 * edgeCount + 2)
    System.arraycopy(dstIds, 0, a, edgeCount, edgeCount)
    a(2 * edgeCount) = source
    a(2 * edgeCount + 1) = sink
    java.util.Arrays.sort(a)
    var k = 1
    var i = 1
    while (i < a.length) { if (a(i) != a(k - 1)) { a(k) = a(i); k += 1 }; i += 1 }
    java.util.Arrays.copyOf(a, k)
  }

  val n: Int = ids.length

  /** Dense id of the original id `v`, negative if `v` is no vertex. */
  def id(v: Int): Int = java.util.Arrays.binarySearch(ids, v)

  val src: Array[Int] = dense(srcIds)
  val dst: Array[Int] = dense(dstIds)
  val s: Int          = id(source)
  val t: Int          = id(sink)

  private def dense(vs: Array[Int]): Array[Int] = {
    val d = new Array[Int](vs.length)
    var e = 0
    while (e < vs.length) { d(e) = id(vs(e)); e += 1 }
    d
  }

  {
    var e = 0
    while (e < edgeCount) {
      require(e == 0 || src(e - 1) < src(e) || src(e - 1) == src(e) && dst(e - 1) < dst(e),
        s"edges must be distinct and ascending by (src, dst) at edge $e")
      var p = start(e) + 1
      while (p < start(e + 1)) { require(ts(p - 1) <= ts(p), s"edge $e's interactions are not sorted by time"); p += 1 }
      e += 1
    }
  }

  /** Out-edges of dense `v`: `outStart(v) until outStart(v + 1)`. */
  lazy val outStart: Array[Int] = FlowGraph.offsets(src, n)

  /** In-edges of dense `v`: `inEdge` at `inStart(v) until inStart(v + 1)`, by ascending `src`. */
  lazy val inStart: Array[Int] = FlowGraph.offsets(dst, n)

  lazy val inEdge: Array[Int] = {
    val next = java.util.Arrays.copyOf(inStart, n)
    val in   = new Array[Int](edgeCount)
    var e    = 0
    while (e < edgeCount) { in(next(dst(e))) = e; next(dst(e)) += 1; e += 1 }
    in
  }

  def outDeg(v: Int): Int = outStart(v + 1) - outStart(v)
  def inDeg(v: Int): Int  = inStart(v + 1) - inStart(v)

  /** The edge of every position of `ts`/`qty`. */
  lazy val edgeOf: Array[Int] = {
    val of = new Array[Int](ts.length)
    var e  = 0
    while (e < edgeCount) { java.util.Arrays.fill(of, start(e), start(e + 1), e); e += 1 }
    of
  }

  /** Every position of `ts`/`qty` in time order: a k-way merge of the edges'
    * sorted runs. Within a timestamp group, positions come by ascending
    * `(src, dst)`, then in their edge's order (DESIGN.md §3).
    */
  lazy val byTime: Array[Int] = FlowGraph.merge(start, ts)

  /** Kahn's topological order of the dense vertices, or null if the graph has
    * a directed cycle: the vertices without in-edges seed the queue in id
    * order, and each vertex releases its out-neighbours by ascending id.
    * Preprocessing (Algorithm 1) and the Lemma 2 check both need it.
    */
  lazy val topo: Array[Int] = {
    val indeg = new Array[Int](n)
    var e     = 0
    while (e < edgeCount) { indeg(dst(e)) += 1; e += 1 }
    val queue = new Array[Int](n)
    var tail  = 0
    var v     = 0
    while (v < n) { if (indeg(v) == 0) { queue(tail) = v; tail += 1 }; v += 1 }
    val out  = outStart
    var head = 0
    while (head < tail) {
      val u = queue(head)
      head += 1
      var e = out(u)
      while (e < out(u + 1)) {
        indeg(dst(e)) -= 1
        if (indeg(dst(e)) == 0) { queue(tail) = dst(e); tail += 1 }
        e += 1
      }
    }
    if (tail == n) queue else null
  }

  def isDag: Boolean = topo != null

  /** Walks the interactions in time order one timestamp group at a time:
    * `send(p)` runs for every position `p` of a group, in order, before
    * `commit(p)` runs for any of them. This is the one home of the tie rule of
    * constraint (2), "usable only if received strictly before `t_i`": callers
    * debit a sender in `send`, so same-time sends share its buffer, and credit
    * a receiver in `commit`, so an arrival is usable only after its group
    * (DESIGN.md §3).
    */
  def sweep(send: Int => Unit)(commit: Int => Unit): Unit = {
    val order = byTime
    var lo    = 0
    while (lo < order.length) {
      val at = ts(order(lo))
      var hi = lo
      while (hi < order.length && ts(order(hi)) == at) { send(order(hi)); hi += 1 }
      while (lo < hi) { commit(order(lo)); lo += 1 }
    }
  }

  def interactionCount: Int = ts.length

  def vertexCount: Int = n

  def isEmpty: Boolean = edgeCount == 0

  // ---- views in original ids, for callers outside the solvers ----

  /** All vertices incident to an edge, plus source and sink. */
  def vertices: Set[Int] = ids.toSet

  /** The edge map `(src, dst) → e_S`. */
  def edges: Map[(Int, Int), Vector[(Long, Double)]] =
    (0 until edgeCount).map { e =>
      (ids(src(e)), ids(dst(e))) -> Vector.range(start(e), start(e + 1)).map(p => (ts(p), qty(p)))
    }.toMap

  /** All interactions in time order (see [[byTime]]). */
  def interactions: IndexedSeq[Interaction] =
    ArraySeq.unsafeWrapArray(byTime.map { p =>
      Interaction(ids(src(edgeOf(p))), ids(dst(edgeOf(p))), ts(p), qty(p))
    })

  /** Distinct out-neighbours of `v`, ascending. */
  def outNeighbors(v: Int): Array[Int] = {
    val d = id(v)
    if (d < 0) Array.emptyIntArray else Array.range(outStart(d), outStart(d + 1)).map(e => ids(dst(e)))
  }

  /** Distinct in-neighbours of `v`, ascending. */
  def inNeighbors(v: Int): Array[Int] = {
    val d = id(v)
    if (d < 0) Array.emptyIntArray else Array.range(inStart(d), inStart(d + 1)).map(i => ids(src(inEdge(i))))
  }

  def outDegree(v: Int): Int = outNeighbors(v).length
  def inDegree(v: Int): Int  = inNeighbors(v).length

  /** [[topo]] in original ids, or None if the graph has a directed cycle. */
  def topologicalOrder: Option[Vector[Int]] = Option(topo).map(_.toVector.map(ids))

  override def toString: String =
    s"FlowGraph(source=$source, sink=$sink, V=$vertexCount, E=$edgeCount, I=$interactionCount)"

  override def equals(o: Any): Boolean = o match {
    case g: FlowGraph =>
      g.source == source && g.sink == sink && java.util.Arrays.equals(g.ids, ids) &&
      java.util.Arrays.equals(g.src, src) && java.util.Arrays.equals(g.dst, dst) &&
      java.util.Arrays.equals(g.start, start) && java.util.Arrays.equals(g.ts, ts) &&
      qty.indices.forall(p => g.qty(p) == qty(p))
    case _ => false
  }
  override def hashCode(): Int =
    (source, sink, java.util.Arrays.hashCode(src), java.util.Arrays.hashCode(dst), java.util.Arrays.hashCode(ts)).hashCode()
}

object FlowGraph {

  /** Group interactions into per-edge sequences `(src, dst) → e_S`, sorted by
    * timestamp (stable on ties): once per network for its `AdjacencyIndex`,
    * whose sequences the subgraphs and pattern instances cut from it keep.
    */
  def groupEdges(inters: Seq[Interaction]): Map[(Int, Int), Vector[(Long, Double)]] =
    inters.groupBy(i => (i.src, i.dst)).view
      .mapValues(is => is.map(i => (i.ts, i.qty)).sortBy(_._1).toVector)
      .toMap

  /** Neighbour lists, ascending, of distinct `(from, to)` pairs: pass the edge
    * keys for out-lists, the swapped keys for in-lists.
    */
  def neighbours(pairs: Iterable[(Int, Int)]): Map[Int, Array[Int]] =
    pairs.groupMap(_._1)(_._2).view.mapValues(_.toArray.sorted).toMap

  /** The `start`, `ts` and `qty` arrays of `runs` laid end to end. */
  def concat(runs: Seq[Seq[(Long, Double)]]): (Array[Int], Array[Long], Array[Double]) = {
    val start = new Array[Int](runs.size + 1)
    var e     = 0
    runs.foreach { r => start(e + 1) = start(e) + r.size; e += 1 }
    val ts  = new Array[Long](start(e))
    val qty = new Array[Double](start(e))
    var p   = 0
    runs.foreach(_.foreach { case (t, q) => ts(p) = t; qty(p) = q; p += 1 })
    (start, ts, qty)
  }

  /** The graph of edges `srcIds(e) → dstIds(e)`, ascending by `(src, dst)`,
    * with interaction sequences `runs(e)`, each sorted by timestamp.
    */
  def fromRuns(source: Int, sink: Int, srcIds: Array[Int], dstIds: Array[Int], runs: Seq[Seq[(Long, Double)]]): FlowGraph = {
    val (start, ts, qty) = concat(runs)
    new FlowGraph(source, sink, srcIds, dstIds, start, ts, qty)
  }

  /** Build from a flat interaction list; per-edge sequences are sorted by
    * timestamp (stable on ties).
    */
  def apply(source: Int, sink: Int, inters: Seq[Interaction]): FlowGraph = {
    val is    = inters.sortBy(i => (i.src, i.dst, i.ts)).toArray
    val first = is.indices.filter(k => k == 0 || is(k).src != is(k - 1).src || is(k).dst != is(k - 1).dst).toArray
    new FlowGraph(source, sink, first.map(is(_).src), first.map(is(_).dst), first :+ is.length, is.map(_.ts), is.map(_.qty))
  }

  /** Collects edges, added in ascending `(src, dst)` order, each with a slice
    * of some run, into one graph: the output of Algorithms 1 and 2.
    */
  private[core] final class Builder(source: Int, sink: Int, maxEdges: Int, maxInteractions: Int) {
    private val srcIds = new Array[Int](maxEdges)
    private val dstIds = new Array[Int](maxEdges)
    private val start  = new Array[Int](maxEdges + 1)
    private val ts     = new Array[Long](maxInteractions)
    private val qty    = new Array[Double](maxInteractions)
    private var e      = 0

    def add(src: Int, dst: Int, runTs: Array[Long], runQty: Array[Double], from: Int, until: Int): Unit = {
      srcIds(e) = src
      dstIds(e) = dst
      System.arraycopy(runTs, from, ts, start(e), until - from)
      System.arraycopy(runQty, from, qty, start(e), until - from)
      start(e + 1) = start(e) + until - from
      e += 1
    }

    def result(): FlowGraph = {
      import java.util.Arrays.copyOf
      new FlowGraph(source, sink, copyOf(srcIds, e), copyOf(dstIds, e), copyOf(start, e + 1),
        copyOf(ts, start(e)), copyOf(qty, start(e)))
    }
  }

  /** CSR offsets of `n` lists from each element's list id. */
  private def offsets(of: Array[Int], n: Int): Array[Int] = {
    val off = new Array[Int](n + 1)
    var i   = 0
    while (i < of.length) { off(of(i) + 1) += 1; i += 1 }
    i = 0
    while (i < n) { off(i + 1) += off(i); i += 1 }
    off
  }

  /** Positions of the sorted runs `start(e) until start(e + 1)` of `ts` in
    * time order, ties by run: a binary heap of runs keyed by `(ts at the
    * run's next position, run)`.
    */
  private def merge(start: Array[Int], ts: Array[Long]): Array[Int] = {
    val runs = start.length - 1
    val next = java.util.Arrays.copyOf(start, runs)
    val heap = new Array[Int](runs)
    var size = 0
    def less(a: Int, b: Int): Boolean = ts(next(a)) < ts(next(b)) || ts(next(a)) == ts(next(b)) && a < b
    def siftDown(): Unit = {
      var i    = 0
      var done = false
      while (!done) {
        var c = 2 * i + 1
        if (c + 1 < size && less(heap(c + 1), heap(c))) c += 1
        if (c < size && less(heap(c), heap(i))) { val x = heap(i); heap(i) = heap(c); heap(c) = x; i = c }
        else done = true
      }
    }
    var e = 0
    while (e < runs) {
      if (start(e) < start(e + 1)) {
        var i = size
        heap(i) = e
        size += 1
        while (i > 0 && less(heap(i), heap((i - 1) / 2))) {
          val x = heap(i); heap(i) = heap((i - 1) / 2); heap((i - 1) / 2) = x; i = (i - 1) / 2
        }
      }
      e += 1
    }
    val order = new Array[Int](ts.length)
    var k     = 0
    while (size > 0) {
      val r = heap(0)
      order(k) = next(r)
      k += 1
      next(r) += 1
      if (next(r) == start(r + 1)) { size -= 1; heap(0) = heap(size) }
      siftDown()
    }
    order
  }

  /** Figure 4: connect multiple sources/sinks to one synthetic source/sink.
    *
    * Each synthetic source edge gets a single interaction with the smallest
    * possible timestamp and infinite quantity; each synthetic sink edge one
    * with the largest possible timestamp and infinite quantity.
    */
  def withSyntheticEndpoints(
      inters: Seq[Interaction],
      sources: Seq[Int],
      sinks: Seq[Int],
      syntheticSource: Int,
      syntheticSink: Int,
  ): FlowGraph = {
    require(sources.nonEmpty && sinks.nonEmpty, "need at least one source and one sink")
    val srcEdges = sources.map(s => Interaction(syntheticSource, s, Long.MinValue, Double.PositiveInfinity))
    val snkEdges = sinks.map(t => Interaction(t, syntheticSink, Long.MaxValue, Double.PositiveInfinity))
    apply(syntheticSource, syntheticSink, srcEdges ++ inters ++ snkEdges)
  }
}
