package repro.data

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel

/** The network's ≤3-hop paths through pairwise-distinct vertices, as
  * self-joins of an edge DataFrame with `src`/`dst` columns — the one
  * definition behind Section 5.2's L2/L3/C2 path tables and P4.
  *
  * Every result is the join itself: the k-th edge of a path stays aliased
  * `ek` (`e1.src` is the path's first vertex), so the caller selects
  * whichever payload its edge DataFrame carries. A self-loop `a→a` never
  * takes part: the paper's paths "pass through other vertices".
  */
object CyclePaths {

  /** One interaction of an edge: the element type of [[edges]]' `es`. */
  final case class TsQty(ts: Long, qty: Double)

  /** The network's one per-edge table `(src, dst, es)`: `es` is the edge's
    * timestamp-sorted `array<struct<ts,qty>>`, `size(es)` its interaction count.
    * The table caches itself on first use, so every reader of one network
    * (the path tables, P4) shares one aggregation; [[release]] frees it.
    */
  def edges(net: DataFrame): DataFrame = {
    val e = net.groupBy(col("src"), col("dst"))
      .agg(sort_array(collect_list(struct(col("ts"), col("qty")))) as "es")
    if (e.storageLevel == StorageLevel.NONE) e.cache() else e
  }

  /** Frees the edge table that [[edges]] cached for `net`. */
  def release(net: DataFrame): Unit = edges(net).unpersist()

  /** 2-hop cycles `a→b→a`, `a≠b`. */
  def cycles2(e: DataFrame): DataFrame =
    e.as("e1")
      .join(e.as("e2"), col("e1.dst") === col("e2.src") && col("e2.dst") === col("e1.src"))
      .where(col("e1.src") =!= col("e1.dst"))

  /** 3-hop cycles `a→b→c→a`, `a,b,c` pairwise distinct. */
  def cycles3(e: DataFrame): DataFrame =
    e.as("e1")
      .join(e.as("e2"), col("e1.dst") === col("e2.src") && col("e2.dst") =!= col("e1.src"))
      .join(e.as("e3"), col("e2.dst") === col("e3.src") && col("e3.dst") === col("e1.src"))
      .where(col("e1.src") =!= col("e1.dst") && col("e2.dst") =!= col("e1.dst"))

  /** 2-hop chains `a→b→c`, `a,b,c` pairwise distinct. */
  def chains2(e: DataFrame): DataFrame =
    e.as("e1")
      .join(e.as("e2"), col("e1.dst") === col("e2.src")
        && col("e2.dst") =!= col("e1.src") && col("e2.dst") =!= col("e1.dst"))
      .where(col("e1.src") =!= col("e1.dst"))
}
