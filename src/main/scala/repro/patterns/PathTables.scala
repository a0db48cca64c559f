package repro.patterns

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.expressions.UserDefinedFunction
import org.apache.spark.sql.functions._
import repro.core.Greedy
import repro.data.CyclePaths
import repro.data.CyclePaths.TsQty

/** Path precomputation (Section 5.2): tables of small path instances with
  * the interaction sequence that enters the buffer of the path's end vertex
  * under the greedy algorithm — i.e. the Lemma 3 reduction of each path to a
  * single edge, stored as data.
  *
  * Like the paper we materialise, per network:
  *   - `L2` — 2-hop cycles `a→b→a`;
  *   - `L3` — 3-hop cycles `a→b→c→a`;
  *   - `C2` — 2-hop chains `a→b→c` (only affordable for the dense-but-small
  *     Prosper-like network, as in Section 6.3).
  *
  * Each row carries `flow` (total arriving quantity) and `arrivals` (the
  * reduced edge's interaction sequence), so flows of patterns whose paths are
  * independent are sums/merges of table rows with no further flow
  * computation. All tables are DataFrames produced by Catalyst joins over
  * the per-edge table `CyclePaths.edges`.
  */
object PathTables {

  final case class ChainOut(flow: Double, arrivals: Seq[TsQty])

  private def rowsToSeq(rows: Seq[Row]): Seq[(Long, Double)] =
    rows.map(r => (r.getLong(0), r.getDouble(1)))

  private def chainResult(seqs: Seq[Seq[(Long, Double)]]): ChainOut = {
    val res = Greedy.chain(seqs)
    ChainOut(res.flow, res.sinkArrivals.map { case (t, q) => TsQty(t, q) })
  }

  /** Greedy chain reduction over two consecutive edges' interactions. */
  val chain2: UserDefinedFunction =
    udf((e1: Seq[Row], e2: Seq[Row]) => chainResult(Seq(rowsToSeq(e1), rowsToSeq(e2))))

  /** Greedy chain reduction over three consecutive edges' interactions. */
  val chain3: UserDefinedFunction =
    udf((e1: Seq[Row], e2: Seq[Row], e3: Seq[Row]) =>
      chainResult(Seq(rowsToSeq(e1), rowsToSeq(e2), rowsToSeq(e3))))

  /** 2-hop cycle table: `(a, b, flow, arrivals)`. */
  def l2(net: DataFrame): DataFrame =
    CyclePaths.cycles2(CyclePaths.edges(net))
      .select(col("e1.src") as "a", col("e1.dst") as "b", chain2(col("e1.es"), col("e2.es")) as "r")
      .select(col("a"), col("b"), col("r.flow") as "flow", col("r.arrivals") as "arrivals")

  /** 3-hop cycle table: `(a, b, c, flow, arrivals)`, `a,b,c` distinct. */
  def l3(net: DataFrame): DataFrame =
    CyclePaths.cycles3(CyclePaths.edges(net))
      .select(col("e1.src") as "a", col("e1.dst") as "b", col("e2.dst") as "c",
        chain3(col("e1.es"), col("e2.es"), col("e3.es")) as "r")
      .select(col("a"), col("b"), col("c"), col("r.flow") as "flow", col("r.arrivals") as "arrivals")

  /** 2-hop chain table: `(a, b, c, flow, arrivals)`, `a,b,c` distinct. */
  def c2(net: DataFrame): DataFrame =
    CyclePaths.chains2(CyclePaths.edges(net))
      .select(col("e1.src") as "a", col("e1.dst") as "b", col("e2.dst") as "c",
        chain2(col("e1.es"), col("e2.es")) as "r")
      .select(col("a"), col("b"), col("c"), col("r.flow") as "flow", col("r.arrivals") as "arrivals")
}
