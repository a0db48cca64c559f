package repro.data

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset, Encoders}
import org.apache.spark.sql.functions._
import repro.core.FlowGraph
import repro.patterns.{AdjacencyIndex, GraphBrowsing, Patterns}
import scala.collection.mutable
import scala.reflect.ClassTag

/** Section 6.2's subgraph extraction protocol.
  *
  * "We identified seed vertices in the networks from which there are paths
  * (up to three hops) that pass through other vertices and then return to the
  * origin. For each seed vertex, we merged all edges along these paths to
  * form a single subgraph." — i.e. for every seed `a`, the union of the arcs
  * of all 2-hop cycles `a→b→a` and 3-hop cycles `a→b→c→a`.
  *
  * Each seed is browsed on its own, like GB (Section 5.1): the network is
  * collected into one broadcast [[AdjacencyIndex]], and every Spark task roots
  * [[GraphBrowsing.enumerate]] at each seed of its slice. The seed's subgraph
  * is its distinct cycle arcs, the seed split into a source (its outgoing arcs)
  * and a sink (its incoming ones) — Section 3 allows source == sink, and this
  * is the standard reduction.
  * Subgraphs with more than `maxInteractions` interactions are discarded,
  * like the paper's 10K cap (our LP substrate is a dense simplex, so the
  * default cap is lower; DESIGN.md §3).
  */
object SubgraphExtractor {

  /** Vertex ids of the split seed inside every extracted subgraph. */
  val SourceId: Int = -1
  val SinkId: Int   = -2

  /** One interaction of one extracted subgraph, seed split already applied. */
  final case class TaggedInteraction(seed: Int, src: Int, dst: Int, ts: Long, qty: Double)

  /** A collected subgraph, small by the cap, in [[FlowGraph]]'s array form:
    * the seed-split arcs `src(e) → dst(e)`, ascending by `(src, dst)`, and arc
    * `e`'s interactions at `start(e) until start(e + 1)` of `ts`/`qty`, sorted
    * by timestamp. Spark encodes it as arrays of primitives.
    */
  final case class Subgraph(seed: Int, src: Array[Int], dst: Array[Int], start: Array[Int], ts: Array[Long], qty: Array[Double]) {
    /** The flow graph, wrapping these arrays. */
    def toFlowGraph: FlowGraph = new FlowGraph(SourceId, SinkId, src, dst, start, ts, qty)

    /** The edge map view `(src, dst) → e_S`. */
    def edges: Map[(Int, Int), Vector[(Long, Double)]] = toFlowGraph.edges
  }

  /** `f(adj, seed, arcs)` for every seed on a ≤3-hop cycle of `net`, where
    * `arcs` are the seed's distinct cycle arcs `(src, dst)` in the order GB's
    * enumeration rooted at the seed finds them: its 2-hop cycles (`Cycle2`),
    * then its 3-hop ones (`P3`). `adj` is [[GraphBrowsing.browse]]'s broadcast
    * adjacency index of `net`.
    */
  private def browse[T: ClassTag](net: DataFrame)(
      f: (AdjacencyIndex, Int, Iterable[(Int, Int)]) => IterableOnce[T]): RDD[T] =
    GraphBrowsing.browse(net) { (adj, seed) =>
      val arcs = mutable.LinkedHashSet.empty[(Int, Int)]
      for (p <- Seq(Patterns.Cycle2, Patterns.P3))
        GraphBrowsing.enumerate(adj, p, startVertices = Some(Array(seed))) { mu =>
          p.edges.foreach { case (u, w) => arcs += ((mu(u), mu(w))) }
        }
      if (arcs.isEmpty) Iterator.empty else f(adj, seed, arcs)
    }

  /** Arcs `(seed, src, dst)` of every ≤3-hop cycle through `seed`, distinct. */
  def cycleArcs(net: DataFrame): DataFrame = {
    import net.sparkSession.implicits._
    browse(net)((_, seed, arcs) => arcs.iterator.map { case (s, d) => (seed, s, d) }).toDF("seed", "src", "dst")
  }

  /** [[extract]]'s subgraphs, one row per interaction. */
  def taggedInteractions(net: DataFrame, maxInteractions: Int): Dataset[TaggedInteraction] =
    extract(net, maxInteractions).flatMap(sg => for (e <- sg.src.indices.iterator; p <- sg.start(e) until sg.start(e + 1))
      yield TaggedInteraction(sg.seed, sg.src(e), sg.dst(e), sg.ts(p), sg.qty(p)))(Encoders.product[TaggedInteraction])

  /** Per-seed subgraphs, ready for the flow algorithms: each distinct cycle
    * arc keeps the adjacency index's time-sorted interaction sequence. A seed
    * past `maxInteractions` is dropped before its subgraph is built.
    */
  def extract(net: DataFrame, maxInteractions: Int): Dataset[Subgraph] = {
    import net.sparkSession.implicits._
    browse(net) { (adj, seed, arcs) =>
      val split = arcs.toArray.map { case (s, d) => ((if (s == seed) SourceId else s, if (d == seed) SinkId else d), adj.edge(s, d)) }
        .sortBy(_._1)
      val edges = split.map(_._2)
      Option.when(edges.iterator.map(adj.runLength(_).toLong).sum <= maxInteractions) {
        adj.copyRuns(edges)(Subgraph(seed, split.map(_._1._1), split.map(_._1._2), _, _, _))
      }
    }.toDS()
  }

  /** Table 5 row: #subgraphs and average #vertices/#edges/#interactions.
    * Vertices/edges are counted on the original (unsplit) subgraph, like the
    * paper's Figure 10 rendering.
    */
  def stats(subgraphs: Dataset[Subgraph]): (Long, Double, Double, Double) = {
    val spark = subgraphs.sparkSession
    import spark.implicits._
    val perSeed = subgraphs.map { sg =>
      def unsplit(v: Int) = if (v == SourceId || v == SinkId) Int.MinValue else v
      val verts = (sg.src.iterator ++ sg.dst.iterator).map(unsplit).toSet.size
      (verts, sg.src.length, sg.ts.length)
    }.toDF("v", "e", "i")
    val row = perSeed.agg(
      count(lit(1)), avg(col("v")), avg(col("e")), avg(col("i"))
    ).head()
    (row.getLong(0), row.getDouble(1), row.getDouble(2), row.getDouble(3))
  }
}
