package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Synthetic temporal interaction networks standing in for the paper's three
  * real datasets (Bitcoin, CTU-13, Prosper Loans), which are not available
  * offline. See DESIGN.md §3 for the substitution argument.
  *
  * Each network is a DataFrame with columns
  * `src:int, dst:int, ts:long, qty:double`, deterministic in `(spec, sf)`:
  *
  *  - endpoints follow a bucketed Pareto (zipf-like) distribution: a
  *    heavy-tailed draw picks a *bucket* of `bucketSize` vertices and the
  *    vertex is uniform within it. This preserves hub structure (hence the
  *    skew of per-seed subgraph sizes and cycle counts) while bounding the
  *    single-vertex degree so that cycle-enumeration joins stay tractable at
  *    laptop scale;
  *  - timestamps are the row index — globally unique and uniform over the
  *    history, which is all the flow semantics depends on (DESIGN.md §3);
  *  - quantities are log-normal with the mean calibrated to the paper's
  *    "avg flow" column of Table 4 (34.4 B, 19.2 KB, $76).
  */
object NetworkGen {

  /** Generator parameters for one dataset family, at scale factor 1 matching
    * the paper's Table 4 row.
    */
  final case class NetSpec(
      name: String,
      nodesAtSf1: Long,
      interactionsAtSf1: Long,
      /** Pareto tail parameter for the bucket draw (smaller = more skewed). */
      alpha: Double,
      /** Vertices per bucket; caps the degree of any single hub vertex. */
      bucketSize: Int,
      /** Target mean interaction quantity (Table 4 "avg flow"). */
      qtyMean: Double,
      /** Log-normal sigma for quantities. */
      qtySigma: Double,
      seed: Long,
      /** When > 0, each sender talks to a small hashed partner set of this
        * size instead of a free zipf destination — reproduces CTU-13's very
        * sparse edge set (~1.15 distinct edges per node: hosts talk to few
        * fixed peers). 0 = unconstrained zipf destinations. */
      partnersPerNode: Int = 0,
      /** Probability that an interaction runs opposite to its drawn pair
        * direction — models request/response traffic, which is what creates
        * 2-hop cycles in CTU-13. */
      bidirectionalProb: Double = 0.0,
      /** With this probability a partner-constrained sender talks to a free
        * zipf destination instead (cross-partner traffic) — the source of
        * the rare 3-hop cycles behind CTU-13's few class-B/C subgraphs. */
      freeDestProb: Double = 0.0,
  ) {
    def nodes(sf: Double): Int        = math.max(8L, (nodesAtSf1 * sf).toLong).toInt
    def interactions(sf: Double): Long = math.max(16L, (interactionsAtSf1 * sf).toLong)
  }

  /** Bitcoin-like: 12M nodes / 45.5M interactions / avg 34.4 at sf=1. */
  val bitcoinLike: NetSpec =
    NetSpec("bitcoin", 12_000_000L, 45_500_000L, alpha = 1.35, bucketSize = 24, qtyMean = 34.4, qtySigma = 1.4, seed = 11)

  /** CTU-13-like: 607K nodes / 2.8M interactions / avg 19.2K at sf=1.
    * Sparse edge set (~1.15 edges per node): each host exchanges repeated
    * traffic with a couple of fixed peers, partly bidirectionally
    * (request/response), which is where its few 2-hop cycles come from.
    */
  val ctuLike: NetSpec =
    NetSpec("ctu13", 607_000L, 2_800_000L, alpha = 1.6, bucketSize = 12, qtyMean = 19_200.0, qtySigma = 1.2, seed = 23,
      partnersPerNode = 2, bidirectionalProb = 0.35, freeDestProb = 0.08)

  /** Prosper-like: 88K nodes / 3.04M interactions / avg $76 at sf=1 — dense
    * (≈34 distinct edges per node), which drives its large per-seed
    * subgraphs in the paper.
    */
  val prosperLike: NetSpec =
    NetSpec("prosper", 88_000L, 3_040_000L, alpha = 1.45, bucketSize = 16, qtyMean = 76.0, qtySigma = 1.3, seed = 37)

  val all: Seq[NetSpec] = Seq(bitcoinLike, ctuLike, prosperLike)

  def byName(name: String): NetSpec =
    all.find(_.name == name).getOrElse(sys.error(s"unknown dataset '$name'; know: ${all.map(_.name)}"))

  /** Generate the interaction DataFrame for `spec` at scale factor `sf`. */
  def generate(spark: SparkSession, spec: NetSpec, sf: Double): DataFrame = {
    import spark.implicits._
    val n        = spec.nodes(sf)
    val rows     = spec.interactions(sf)
    val nBuckets = math.max(1, n / spec.bucketSize)
    val s        = spec.seed

    // Bucketed Pareto endpoint: bucket = ceil(u^(-1/(alpha-1))) clipped to
    // nBuckets, vertex uniform within the bucket.
    def endpoint(seedOff: Long) = {
      val u      = rand(s + seedOff)
      val bucket = least(lit(nBuckets.toDouble),
        ceil(pow(greatest(u, lit(1e-12)), lit(-1.0 / (spec.alpha - 1.0))))).cast("int")
      ((bucket - 1) * spec.bucketSize + (rand(s + seedOff + 1) * spec.bucketSize).cast("int") + 1)
    }

    val mu = math.log(spec.qtyMean) - spec.qtySigma * spec.qtySigma / 2.0

    // Stage 1: every seeded random draw appears exactly once, as its own
    // column. Referencing one nondeterministic expression from several
    // downstream expressions (or inside `when` branches that short-circuit)
    // desynchronises its per-row stream — all combining below is
    // deterministic over these materialised columns.
    val draws = spark.range(rows).select(
      $"id" as "ts",
      endpoint(0) as "s0",
      endpoint(2) as "z0",
      (rand(s + 8) * math.max(spec.partnersPerNode, 1)).cast("int") as "pidx",
      rand(s + 9) as "flipu",
      rand(s + 10) as "freeu",
      greatest(lit(0.01), round(exp(randn(s + 4) * spec.qtySigma + mu), 2)) as "qty",
    )

    // Stage 2 (deterministic): pair draw — free zipf destination, or a
    // hashed fixed partner of the sender (sparse-edge regime); optionally
    // flip direction per interaction (request/response traffic).
    val partner = ((col("s0").cast("long") * 131L + col("pidx").cast("long") * 7919L) % n + 1).cast("int")
    val dDraw =
      if (spec.partnersPerNode > 0) {
        if (spec.freeDestProb > 0.0) when(col("freeu") < spec.freeDestProb, col("z0")).otherwise(partner)
        else partner
      } else col("z0")
    val (sCol, dCol) =
      if (spec.bidirectionalProb > 0.0) {
        val f = col("flipu") < spec.bidirectionalProb
        (when(f, dDraw).otherwise(col("s0")), when(f, col("s0")).otherwise(dDraw))
      } else (col("s0"), dDraw)

    val raw = draws.select(
      sCol as "src0",
      dCol as "dst0",
      col("ts"),
      col("qty"),
    )
    // Clip endpoints into [1, n] (bucket arithmetic can overshoot the last
    // partial bucket) and remap self-loops deterministically.
    raw
      .withColumn("src", least(lit(n), greatest(lit(1), $"src0")).cast("int"))
      .withColumn("dst1", least(lit(n), greatest(lit(1), $"dst0")).cast("int"))
      .withColumn("dst", when($"dst1" === $"src", ($"dst1" % n + 1).cast("int")).otherwise($"dst1"))
      .select($"src", $"dst", $"ts".cast("long"), $"qty".cast("double"))
  }

  /** Table 4 row for a generated network: nodes, edges, interactions, avg
    * quantity (named like the paper's columns).
    */
  def stats(df: DataFrame): DataFrame = {
    df.agg(
      countDistinct(struct(col("src"), col("dst"))) as "edges",
      count(lit(1)) as "interactions",
      round(avg(col("qty")), 2) as "avg_flow",
    ).crossJoin(
      df.select(explode(array(col("src"), col("dst"))) as "v").agg(countDistinct(col("v")) as "nodes")
    ).select(col("nodes"), col("edges"), col("interactions"), col("avg_flow"))
  }
}
