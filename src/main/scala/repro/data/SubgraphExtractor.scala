package repro.data

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{FlowGraph, Interaction}

/** Section 6.2's subgraph extraction protocol, as Spark dataflow.
  *
  * "We identified seed vertices in the networks from which there are paths
  * (up to three hops) that pass through other vertices and then return to the
  * origin. For each seed vertex, we merged all edges along these paths to
  * form a single subgraph." — i.e. for every seed `a`, the union of the arcs
  * of all 2-hop cycles `a→b→a` and 3-hop cycles `a→b→c→a`.
  *
  * Cycle enumeration joins run on the **distinct-edge** projection (the
  * interaction multiplicity is irrelevant to the structure), which keeps the
  * self-join sizes bounded by structural degrees. Interactions are attached
  * afterwards by a join back to the network. The seed is split into a source
  * (its outgoing interactions) and a sink (its incoming ones) — Section 3
  * allows source == sink, and this is the standard reduction. Subgraphs with
  * more than `maxInteractions` interactions are discarded, like the paper's
  * 10K cap (our LP substrate is a dense simplex, so the default cap is
  * lower; DESIGN.md §3).
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

  /** Distinct structural edges `(src, dst)` of the network. */
  def distinctEdges(net: DataFrame): DataFrame =
    net.select(col("src"), col("dst")).distinct()

  /** Arcs `(seed, src, dst)` of every ≤3-hop cycle through `seed`, distinct:
    * the edges `e1..ek` of each [[CyclePaths]] cycle, seeded at `e1.src`.
    */
  def cycleArcs(net: DataFrame): DataFrame = {
    val e = distinctEdges(net).cache()
    def arcs(cycles: DataFrame, k: Int): DataFrame =
      cycles.select(col("e1.src") as "seed", explode(array((1 to k).map { i =>
        struct(col(s"e$i.src") as "src", col(s"e$i.dst") as "dst")
      }: _*)) as "arc")
    arcs(CyclePaths.cycles2(e), 2).union(arcs(CyclePaths.cycles3(e), 3))
      .select(col("seed"), col("arc.src") as "src", col("arc.dst") as "dst")
      .distinct()
  }

  /** Tagged interactions of every kept subgraph: cycle arcs joined back to
    * the interaction table, seed split into [[SourceId]]/[[SinkId]], seeds
    * above the interaction cap discarded.
    */
  def taggedInteractions(net: DataFrame, maxInteractions: Int): Dataset[TaggedInteraction] = {
    val spark = net.sparkSession
    import spark.implicits._
    val arcs = cycleArcs(net)
    val tagged = arcs
      .join(net, Seq("src", "dst"))
      .select(col("seed"), col("src"), col("dst"), col("ts"), col("qty"))
    val kept = tagged.groupBy("seed").count().where(col("count") <= maxInteractions).select("seed")
    tagged
      .join(kept, "seed")
      .select(
        col("seed").cast("int"),
        when(col("src") === col("seed"), lit(SourceId)).otherwise(col("src")).cast("int") as "src",
        when(col("dst") === col("seed"), lit(SinkId)).otherwise(col("dst")).cast("int") as "dst",
        col("ts").cast("long"),
        col("qty").cast("double"),
      )
      .as[TaggedInteraction]
  }

  /** Collected per-seed subgraphs, ready for the flow algorithms. */
  def extract(net: DataFrame, maxInteractions: Int): Dataset[Subgraph] = {
    val spark = net.sparkSession
    import spark.implicits._
    taggedInteractions(net, maxInteractions)
      .groupByKey(_.seed)
      .mapGroups { (seed, rows) =>
        val inters = rows.map(r => Interaction(r.src, r.dst, r.ts, r.qty)).toVector.sortBy(_.ts)
        Subgraph(seed, inters)
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
