package repro.patterns

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import repro.core.{FlowGraph, FlowPipeline, Greedy, Interaction}
import scala.collection.mutable
import scala.reflect.ClassTag

/** In-memory adjacency view of an interaction network, the structure the
  * paper's graph-browsing baseline navigates ("main-memory representations
  * … adjacency lists", Section 6.3), in [[FlowGraph]]'s edge layout without a
  * source and sink:
  *
  *  - `vertices` are the edge ends' original ids, ascending;
  *  - the out-edges of `vertices(i)` are `outStart(i) until outStart(i + 1)`,
  *    and edge `e` runs to the original id `dst(e)`: edges are ascending by
  *    `(src, dst)`;
  *  - edge `e`'s interactions are positions `start(e) until start(e + 1)` of
  *    `ts`/`qty`, sorted by timestamp, ties in input order.
  *
  * A pattern instance or subgraph is a list of edge numbers whose runs
  * [[copyRuns]] lays end to end.
  */
final class AdjacencyIndex private (
    val vertices: Array[Int],
    outStart: Array[Int],
    val dst: Array[Int],
    start: Array[Int],
    ts: Array[Long],
    qty: Array[Double],
) extends Serializable {

  /** The edges out of the original id `v`, by ascending `dst`; empty if `v` is no vertex. */
  def out(v: Int): Range = {
    val i = java.util.Arrays.binarySearch(vertices, v)
    if (i < 0) 0 until 0 else outStart(i) until outStart(i + 1)
  }

  /** The edge `a → b`, negative if there is none. */
  def edge(a: Int, b: Int): Int = { val r = out(a); java.util.Arrays.binarySearch(dst, r.start, r.end, b) }

  /** The number of interactions on edge `e`. */
  def runLength(e: Int): Int = start(e + 1) - start(e)

  /** The runs of `edges` laid end to end: `make(start, ts, qty)` with run `i`
    * at `start(i) until start(i + 1)`, a [[FlowGraph]]'s last three arrays.
    */
  def copyRuns[A](edges: Array[Int])(make: (Array[Int], Array[Long], Array[Double]) => A): A = {
    val at = new Array[Int](edges.length + 1)
    var i  = 0
    while (i < edges.length) { at(i + 1) = at(i) + runLength(edges(i)); i += 1 }
    val t = new Array[Long](at(i))
    val q = new Array[Double](at(i))
    i = 0
    while (i < edges.length) {
      System.arraycopy(ts, start(edges(i)), t, at(i), at(i + 1) - at(i))
      System.arraycopy(qty, start(edges(i)), q, at(i), at(i + 1) - at(i))
      i += 1
    }
    make(at, t, q)
  }

  /** The interactions `a → b`, in run order: a view for tests. */
  def interactions(a: Int, b: Int): Vector[(Long, Double)] = {
    val e = edge(a, b)
    if (e < 0) Vector.empty else Vector.range(start(e), start(e + 1)).map(p => (ts(p), qty(p)))
  }

  /** `n` round-robin slices of [[vertices]], spreading hubs across the tasks that browse them. */
  def slices(n: Int): Seq[Array[Int]] = (0 until n).map(i => (i until vertices.length by n).map(vertices(_)).toArray)
}

object AdjacencyIndex {
  def fromInteractions(inters: Seq[Interaction]): AdjacencyIndex =
    FlowGraph.grouped(inters) { (srcIds, dstIds, start, ts, qty) =>
      val ends = (srcIds ++ dstIds).distinct.sorted
      new AdjacencyIndex(ends, FlowGraph.offsets(srcIds.map(java.util.Arrays.binarySearch(ends, _)), ends.length),
        dstIds, start, ts, qty)
    }

  /** The interactions of the network `net` (`src, dst, ts, qty`), collected to the driver. */
  def fromNetwork(net: DataFrame): AdjacencyIndex = {
    import net.sparkSession.implicits._
    fromInteractions(net.select($"src", $"dst", $"ts", $"qty").as[Interaction].collect().toSeq)
  }
}

/** Graph browsing (Section 5.1): enumerate pattern instances by mapping the
  * pattern's vertices in topological order with backtracking, extending a
  * partial match only through vertices that satisfy the pattern's edges and
  * label (μ) constraints, then compute each instance's maximum flow with the
  * Section 4 machinery (PreSim — for greedy-soluble instances this
  * degenerates to the incremental greedy computation the paper describes).
  */
object GraphBrowsing {

  /** `perSeed(adj, v)` for every vertex `v` of the network `net`, on Spark:
    * `net` is collected into one broadcast adjacency index `adj`, and each
    * task browses one round-robin slice of its vertices, two slices per core.
    * The broadcast is not destroyed here: the result recomputes from it while
    * it lives, and Spark's `ContextCleaner` frees it once the result is dropped.
    */
  def browse[T: ClassTag](net: DataFrame)(perSeed: (AdjacencyIndex, Int) => IterableOnce[T]): RDD[T] = {
    val sc     = net.sparkSession.sparkContext
    val adj    = AdjacencyIndex.fromNetwork(net)
    val adjB   = sc.broadcast(adj)
    val slices = adj.slices(2 * sc.defaultParallelism)
    sc.parallelize(slices, slices.size).flatMap(_.iterator.flatMap(perSeed(adjB.value, _)))
  }

  /** Enumerate all instances of `pattern`, invoking `onInstance` with the
    * vertex assignment (pattern vertex -> graph vertex). Returns the number
    * of instances visited (stops early at `maxInstances` if positive, like
    * the paper's starred P4/P6 runs). Every candidate list is ascending when
    * `startVertices` is, so the assignments come in lexicographically
    * ascending order; a capped P4 relies on it.
    */
  def enumerate(
      adj: AdjacencyIndex,
      pattern: Pattern,
      maxInstances: Long = -1L,
      startVertices: Option[Array[Int]] = None,
  )(onInstance: Array[Int] => Unit): Long = {
    val k      = pattern.numVertices
    val mu     = Array.fill(k)(-1)
    var found  = 0L
    val preds  = Array.tabulate(k)(pattern.predecessors(_).toArray)
    val starts = startVertices.getOrElse(adj.vertices)
    // A vertex whose label an earlier one carries is forced to that vertex's
    // image (`forcedBy`), which already differs from every other label's and
    // needs only its edges checked. Any other vertex takes the start vertices,
    // its one predecessor's out-range of `adj.dst`, or the intersection of its
    // predecessors' out-ranges, which satisfy its edges, so `visit` only
    // checks that the candidate is new.
    val forcedBy = Array.tabulate(k) { p =>
      (0 until p).find(q => pattern.labels(q) == pattern.labels(p)).getOrElse(-1)
    }
    val symPred = Array.tabulate(k) { p => // q with (q, p) in symmetry, q < p
      pattern.symmetry.collect { case (q, `p`) if q < p => q }
    }

    def isNew(p: Int, v: Int): Boolean = { var q = 0; while (q < p && mu(q) != v) q += 1; q == p }

    // Each of these returns false to stop (cap reached). Level `p` reads only `mu(0 until p)`.
    def visit(p: Int, v: Int): Boolean =
      if ((forcedBy(p) >= 0 || isNew(p, v)) && symPred(p).forall(q => mu(q) < v)) { mu(p) = v; rec(p + 1) }
      else true

    def visitAll(p: Int, cs: Array[Int], from: Int, until: Int): Boolean = {
      var i  = from
      var go = true
      while (go && i < until) { go = visit(p, cs(i)); i += 1 }
      go
    }

    def rec(p: Int): Boolean =
      if (p == k) {
        found += 1
        onInstance(mu.clone())
        maxInstances <= 0 || found < maxInstances
      } else if (forcedBy(p) >= 0) {
        val v = mu(forcedBy(p))
        if (preds(p).forall(u => adj.edge(mu(u), v) >= 0)) visit(p, v) else true
      } else if (preds(p).isEmpty) visitAll(p, starts, 0, starts.length)
      else if (preds(p).length == 1) {
        val r = adj.out(mu(preds(p)(0)))
        visitAll(p, adj.dst, r.start, r.end)
      } else {
        val us   = preds(p).map(mu(_)).sortBy(adj.out(_).length) // the shortest out-range, filtered by the rest
        val kept = adj.out(us(0)).map(adj.dst).filter(v => us.tail.forall(adj.edge(_, v) >= 0)).toArray
        visitAll(p, kept, 0, kept.length)
      }

    rec(0)
    found
  }

  /** The flow graph of the instance `mu` over pattern-vertex ids: pattern edge
    * `(u, w)` carries the run of the network edge `mu(u) → mu(w)`. Source and
    * sink stay separate nodes even when their labels coincide (the cycle split).
    */
  def instanceGraph(adj: AdjacencyIndex, pattern: Pattern, mu: Array[Int]): FlowGraph =
    adj.copyRuns(pattern.edges.map { case (u, w) => adj.edge(mu(u), mu(w)) }.toArray)(
      new FlowGraph(pattern.source, pattern.sink, pattern.edgeSrc, pattern.edgeDst, _, _, _))

  /** Enumerate instances and their maximum flows; returns (count, total flow). */
  def enumerateWithFlow(
      adj: AdjacencyIndex,
      pattern: Pattern,
      maxInstances: Long = -1L,
      startVertices: Option[Array[Int]] = None,
  ): (Long, Double) = {
    var total = 0.0
    val n = enumerate(adj, pattern, maxInstances, startVertices) { mu =>
      total += FlowPipeline.preSim(instanceGraph(adj, pattern, mu)).flow
    }
    (n, total)
  }

  /** Every instance `mu` of the chain pattern `chain` (a path `0 → 1 → … → k`)
    * with its Lemma 3 reduction: the greedy scan of the instance graph, whose
    * `sinkArrivals` are the reduced edge's interactions.
    */
  def reducedChains(adj: AdjacencyIndex, chain: Pattern, startVertices: Option[Array[Int]])(
      onInstance: (Array[Int], Greedy.Result) => Unit): Unit =
    enumerate(adj, chain, startVertices = startVertices) { mu =>
      onInstance(mu, Greedy.run(instanceGraph(adj, chain, mu)))
    }

  /** Non-rigid patterns (Section 5.3): the instances of the chain pattern
    * `chain` that share a `key` form one instance; its flow is the sum of
    * the branch flows (each branch is a source chain — Lemma 3). Returns one
    * `(key, branchCount, flow)` row per key, in order of first appearance.
    */
  private def relaxed[K](adj: AdjacencyIndex, chain: Pattern, key: Array[Int] => K,
                         startVertices: Option[Array[Int]]): Seq[(K, Int, Double)] = {
    val acc = mutable.LinkedHashMap.empty[K, (Int, Double)]
    reducedChains(adj, chain, startVertices) { (mu, r) =>
      val k         = key(mu)
      val (n, flow) = acc.getOrElse(k, (0, 0.0))
      acc(k) = (n + 1, flow + r.flow)
    }
    acc.iterator.map { case (k, (n, f)) => (k, n, f) }.toVector
  }

  /** RP2/RP3: one `(a, branchCount, flow)` row per `a` on a `hops`-hop cycle. */
  def relaxedCycles(adj: AdjacencyIndex, hops: Int, startVertices: Option[Array[Int]] = None): Seq[(Int, Int, Double)] = {
    require(hops == 2 || hops == 3, "only 2- and 3-hop relaxed cycles are defined")
    relaxed(adj, if (hops == 2) Patterns.Cycle2 else Patterns.P3, _(0), startVertices)
  }

  /** RP1: parallel 2-hop chains `a→*→c`, one instance per `(a, c)` pair. */
  def relaxedChains2(adj: AdjacencyIndex, startVertices: Option[Array[Int]] = None): Seq[((Int, Int), Int, Double)] =
    relaxed(adj, Patterns.P1, mu => (mu(0), mu(2)), startVertices)
}
