package repro.core

import scala.collection.mutable

/** Greedy flow computation (Section 4.1, Definitions 4–5).
  *
  * All interactions are processed in a single pass in timestamp order; each
  * interaction `(t_i, q_i)` on edge `(v, u)` transfers `min(q_i, B_v)` from
  * `v`'s buffer to `u`'s. The source buffer is infinite; the greedy flow is
  * whatever the sink has buffered after the last interaction. Linear in the
  * number of interactions.
  *
  * Ties follow [[FlowGraph.sweep]]: a quantity arriving at `t` is usable only
  * after `t`, and same-time sends debit the sender in turn. On inputs with
  * distinct timestamps — the paper's implicit assumption — this is the
  * textbook greedy scan.
  */
object Greedy {

  /** Outcome of a greedy scan.
    *
    * @param flow          total quantity buffered at the sink (Definition 5)
    * @param sinkArrivals  the `(ts, q)` events with `q > 0` that increased the
    *                      sink's buffer — exactly the interaction set that
    *                      Lemma 3 places on the reduced edge when the sink of
    *                      the scan is the last vertex of a chain
    * @param buffers       final buffer of every non-source vertex
    */
  final case class Result(
      flow: Double,
      sinkArrivals: Vector[(Long, Double)],
      buffers: Map[Int, Double],
  )

  /** Run the greedy scan over a time-ordered interaction sequence. */
  def run(inters: IndexedSeq[Interaction], source: Int, sink: Int): Result = {
    val buf      = mutable.Map.empty[Int, Double].withDefaultValue(0.0)
    val moved    = new Array[Double](inters.length)
    val arrivals = Vector.newBuilder[(Long, Double)]
    FlowGraph.sweep(inters) { k =>
      val i = inters(k)
      val q = math.min(i.qty, if (i.src == source) Double.PositiveInfinity else buf(i.src))
      if (q > 0) {
        if (i.src != source) buf(i.src) -= q
        moved(k) = q
        if (i.dst == sink) arrivals += ((i.ts, q))
      }
    } { k => if (moved(k) > 0) buf(inters(k).dst) += moved(k) }
    Result(buf(sink), arrivals.result(), buf.toMap)
  }

  /** Greedy flow of a graph: scan its interactions in time order. */
  def run(g: FlowGraph): Result = run(g.interactions, g.source, g.sink)

  /** Just the flow value `f(G)`. */
  def flow(g: FlowGraph): Double = run(g).flow

  /** Greedy scan of a chain given as consecutive edge interaction sequences
    * `edgeSeqs(0) = (s, v1)_S, edgeSeqs(1) = (v1, v2)_S, …`. Returns the
    * arrivals into the chain's last vertex and their total — the Lemma 3
    * reduction used by simplification and by the precomputed path tables.
    */
  def chain(edgeSeqs: Seq[Seq[(Long, Double)]]): Result = {
    val k = edgeSeqs.size
    require(k >= 1, "chain needs at least one edge")
    // Vertices are numbered 0 (source) .. k (chain end / scan sink).
    val inters = edgeSeqs.iterator.zipWithIndex.flatMap { case (es, i) =>
      es.iterator.map { case (t, q) => Interaction(i, i + 1, t, q) }
    }
    run(FlowGraph.timeOrdered(inters), source = 0, sink = k)
  }
}
