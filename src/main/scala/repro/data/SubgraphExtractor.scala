package repro.data

import org.apache.spark.sql.{DataFrame, Dataset, Encoders}
import org.apache.spark.sql.functions._
import repro.core.{FlowGraph, Interaction}
import repro.data.CyclePaths.TsQty
import scala.collection.mutable

/** Section 6.2's subgraph extraction protocol, as Spark dataflow.
  *
  * "We identified seed vertices in the networks from which there are paths
  * (up to three hops) that pass through other vertices and then return to the
  * origin. For each seed vertex, we merged all edges along these paths to
  * form a single subgraph." — i.e. for every seed `a`, the union of the arcs
  * of all 2-hop cycles `a→b→a` and 3-hop cycles `a→b→c→a`.
  *
  * It runs over the network's cached per-edge table [[CyclePaths.edges]]:
  * cycles are enumerated on its `(src, dst)` ids alone (self-join sizes stay
  * bounded by structural degrees), the arcs are joined to the table once,
  * and one regroup by seed assembles each subgraph, with the seed split into
  * a source (its outgoing interactions) and a sink (its incoming ones) —
  * Section 3 allows source == sink, and this is the standard reduction. Subgraphs with more than `maxInteractions` interactions are
  * discarded, like the paper's 10K cap (our LP substrate is a dense simplex,
  * so the default cap is lower; DESIGN.md §3).
  */
object SubgraphExtractor {

  /** Vertex ids of the split seed inside every extracted subgraph. */
  val SourceId: Int = -1
  val SinkId: Int   = -2

  /** One interaction of one extracted subgraph, seed split already applied. */
  final case class TaggedInteraction(seed: Int, src: Int, dst: Int, ts: Long, qty: Double)

  /** A fully collected subgraph (small by construction — the cap bounds it). */
  final case class Subgraph(seed: Int, inters: Seq[Interaction]) {
    def toFlowGraph: FlowGraph = FlowGraph(SourceId, SinkId, inters)
  }

  /** Arcs `(seed, src, dst)` of the ≤3-hop cycles through `seed` over the ids
    * of `e`, one row per cycle edge `e1..ek`, seeded at `e1.src`.
    */
  private def arcs(e: DataFrame): DataFrame = {
    def cycleEdges(cycles: DataFrame, k: Int): DataFrame =
      cycles.select(col("e1.src") as "seed", explode(array((1 to k).map { i =>
        struct(col(s"e$i.src") as "src", col(s"e$i.dst") as "dst")
      }: _*)) as "arc")
    val ids = e.select("src", "dst")
    cycleEdges(CyclePaths.cycles2(ids), 2).union(cycleEdges(CyclePaths.cycles3(ids), 3))
      .select(col("seed"), col("arc.src") as "src", col("arc.dst") as "dst")
  }

  /** Arcs `(seed, src, dst)` of every ≤3-hop cycle through `seed`, distinct. */
  def cycleArcs(net: DataFrame): DataFrame = arcs(CyclePaths.edges(net)).distinct()

  /** [[extract]]'s subgraphs, one row per interaction. */
  def taggedInteractions(net: DataFrame, maxInteractions: Int): Dataset[TaggedInteraction] =
    extract(net, maxInteractions).flatMap(sg => sg.inters.map(i =>
      TaggedInteraction(sg.seed, i.src, i.dst, i.ts, i.qty)))(Encoders.product[TaggedInteraction])

  /** Per-seed subgraphs, ready for the flow algorithms: the cycle arcs joined
    * to the edge table and regrouped by seed, each distinct arc adding its
    * edge's interactions. A seed past `maxInteractions` is dropped, and the
    * rest of its group drained without storing anything.
    */
  def extract(net: DataFrame, maxInteractions: Int): Dataset[Subgraph] = {
    val spark = net.sparkSession
    import spark.implicits._
    val e = CyclePaths.edges(net)
    arcs(e).join(e, Seq("src", "dst")).select("seed", "src", "dst", "es").as[(Int, Int, Int, Seq[TsQty])]
      .groupByKey(_._1).flatMapGroups { (seed, rows) =>
        val seen   = mutable.HashSet.empty[(Int, Int)]
        val inters = Vector.newBuilder[Interaction]
        var n      = 0L
        rows.foreach { case (_, src, dst, es) =>
          if (n <= maxInteractions && seen.add((src, dst))) {
            n += es.size
            val (s, d) = (if (src == seed) SourceId else src, if (dst == seed) SinkId else dst)
            if (n <= maxInteractions) es.foreach(x => inters += Interaction(s, d, x.ts, x.qty))
          }
        }
        if (n <= maxInteractions) Iterator.single(Subgraph(seed, inters.result().sortBy(_.ts))) else Iterator.empty
      }
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
      val verts = sg.inters.flatMap(i => Seq(unsplit(i.src), unsplit(i.dst))).toSet.size
      val edges = sg.inters.map(i => (unsplit(i.src), unsplit(i.dst))).toSet.size
      (verts, edges, sg.inters.size)
    }.toDF("v", "e", "i")
    val row = perSeed.agg(
      count(lit(1)), avg(col("v")), avg(col("e")), avg(col("i"))
    ).head()
    (row.getLong(0), row.getDouble(1), row.getDouble(2), row.getDouble(3))
  }
}
