package repro.data

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel

/** The network's per-edge table, the input of PB's P4 join (Section 5.2):
  * one row per edge with all of its interactions.
  */
object CyclePaths {

  /** One interaction of an edge: the element type of [[edges]]' `es`. */
  final case class TsQty(ts: Long, qty: Double)

  /** The network's one per-edge table `(src, dst, es)`: `es` is the edge's
    * timestamp-sorted `array<struct<ts,qty>>`, `size(es)` its interaction count.
    * The table caches itself on first use, so every scan of one network (P4's
    * five edge aliases, repeated P4 queries) shares one aggregation; [[release]]
    * frees it.
    */
  def edges(net: DataFrame): DataFrame = {
    val e = net.groupBy(col("src"), col("dst"))
      .agg(sort_array(collect_list(struct(col("ts"), col("qty")))) as "es")
    if (e.storageLevel == StorageLevel.NONE) e.cache() else e
  }

  /** Frees the edge table that [[edges]] cached for `net`. */
  def release(net: DataFrame): Unit = edges(net).unpersist()
}
