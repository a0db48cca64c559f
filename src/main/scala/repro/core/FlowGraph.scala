package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** One transfer event: quantity `qty` moves from `src` to `dst` at time `ts`.
  *
  * This is the row type shared by the in-memory algorithms and the Spark
  * Dataset pipelines (it has a product encoder).
  */
final case class Interaction(src: Int, dst: Int, ts: Long, qty: Double)

/** A temporal interaction (sub-)network with a designated source and sink
  * (Section 3/4 of the paper).
  *
  * Edges map `(src, dst)` to the edge's interaction sequence `e_S`, kept
  * sorted by timestamp (ties keep construction order — the paper assumes
  * distinct timestamps; see DESIGN.md §3 for the tie semantics we enforce).
  *
  * The source is assumed to hold an infinite buffer; the flow of the graph is
  * whatever ends up buffered at the sink (Definitions 4–5).
  */
final class FlowGraph(
    val source: Int,
    val sink: Int,
    val edges: Map[(Int, Int), Vector[(Long, Double)]],
) {

  /** All vertices incident to an edge, plus source and sink. */
  lazy val vertices: Set[Int] =
    edges.keysIterator.flatMap { case (a, b) => Iterator(a, b) }.toSet + source + sink

  private lazy val out = FlowGraph.neighbours(edges.keys)
  private lazy val in  = FlowGraph.neighbours(edges.keys.view.map(_.swap))

  /** Distinct out-neighbours of `v`, ascending. */
  def outNeighbors(v: Int): Array[Int] = out.getOrElse(v, Array.emptyIntArray)

  /** Distinct in-neighbours of `v`, ascending. */
  def inNeighbors(v: Int): Array[Int] = in.getOrElse(v, Array.emptyIntArray)

  def outDegree(v: Int): Int = outNeighbors(v).length
  def inDegree(v: Int): Int  = inNeighbors(v).length

  def interactionCount: Int = edges.valuesIterator.map(_.size).sum

  def edgeCount: Int = edges.size

  def vertexCount: Int = vertices.size

  /** All interactions globally ordered by timestamp (stable within ties), in
    * an array: the solvers' sweeps index it.
    */
  lazy val interactions: IndexedSeq[Interaction] =
    FlowGraph.timeOrdered(edges.iterator.flatMap { case ((s, d), es) =>
      es.iterator.map { case (t, q) => Interaction(s, d, t, q) }
    })

  def isEmpty: Boolean = edges.isEmpty

  /** Kahn topological order over all vertices, or None if the graph has a
    * directed cycle. Used by preprocessing (Algorithm 1) and the Lemma 2
    * solubility check, both of which only apply to DAGs.
    */
  lazy val topologicalOrder: Option[Vector[Int]] = {
    val indeg = mutable.Map.empty[Int, Int].withDefaultValue(0)
    vertices.foreach(v => indeg(v) = 0)
    edges.keysIterator.foreach { case (_, d) => indeg(d) += 1 }
    val queue = mutable.Queue.empty[Int]
    vertices.toVector.sorted.foreach(v => if (indeg(v) == 0) queue.enqueue(v))
    val order = Vector.newBuilder[Int]
    var seen  = 0
    while (queue.nonEmpty) {
      val v = queue.dequeue()
      order += v
      seen += 1
      outNeighbors(v).foreach { u =>
        indeg(u) -= 1
        if (indeg(u) == 0) queue.enqueue(u)
      }
    }
    if (seen == vertexCount) Some(order.result()) else None
  }

  def isDag: Boolean = topologicalOrder.isDefined

  override def toString: String =
    s"FlowGraph(source=$source, sink=$sink, V=$vertexCount, E=$edgeCount, I=$interactionCount)"

  override def equals(o: Any): Boolean = o match {
    case g: FlowGraph => g.source == source && g.sink == sink && g.edges == edges
    case _            => false
  }
  override def hashCode(): Int = (source, sink, edges).hashCode()
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

  /** The interactions sorted by timestamp, stable on ties, in an array. */
  def timeOrdered(inters: IterableOnce[Interaction]): IndexedSeq[Interaction] =
    ArraySeq.unsafeWrapArray(inters.iterator.toArray.sortBy(_.ts))

  /** Walks time-ordered interactions one timestamp group at a time: `send(k)`
    * runs for every position `k` of a group, in order, before `commit(k)` runs
    * for any of them. This is the one home of the tie rule of constraint (2),
    * "usable only if received strictly before `t_i`": callers debit a sender
    * in `send`, so same-time sends share its buffer, and credit a receiver in
    * `commit`, so an arrival is usable only after its group (DESIGN.md §3).
    */
  def sweep(inters: IndexedSeq[Interaction])(send: Int => Unit)(commit: Int => Unit): Unit = {
    var lo = 0
    while (lo < inters.length) {
      val ts = inters(lo).ts
      var hi = lo
      while (hi < inters.length && inters(hi).ts == ts) { send(hi); hi += 1 }
      while (lo < hi) { commit(lo); lo += 1 }
    }
  }

  /** Build from a flat interaction list; per-edge sequences are sorted by
    * timestamp (stable on ties).
    */
  def apply(source: Int, sink: Int, inters: Seq[Interaction]): FlowGraph =
    new FlowGraph(source, sink, groupEdges(inters))

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
