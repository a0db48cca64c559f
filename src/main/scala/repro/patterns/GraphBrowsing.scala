package repro.patterns

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import repro.core.{FlowGraph, FlowPipeline, Greedy, Interaction}
import scala.collection.mutable
import scala.reflect.ClassTag

/** In-memory adjacency view of an interaction network, the structure the
  * paper's graph-browsing baseline navigates ("main-memory representations
  * … adjacency lists", Section 6.3).
  */
final class AdjacencyIndex(edges: Map[(Int, Int), Vector[(Long, Double)]]) extends Serializable {
  private val out = FlowGraph.neighbours(edges.keys)
  val vertices: Array[Int] = edges.keysIterator.flatMap { case (a, b) => Iterator(a, b) }.toArray.distinct.sorted

  def outOf(v: Int): Array[Int]              = out.getOrElse(v, Array.empty)
  def interactions(a: Int, b: Int): Vector[(Long, Double)] = edges.getOrElse((a, b), Vector.empty)

  /** `n` round-robin slices of [[vertices]], spreading hubs across the tasks that browse them. */
  def slices(n: Int): Seq[Array[Int]] = (0 until n).map(i => (i until vertices.length by n).map(vertices(_)).toArray)
}

object AdjacencyIndex {
  def fromInteractions(inters: Seq[Interaction]): AdjacencyIndex =
    new AdjacencyIndex(FlowGraph.groupEdges(inters))

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
    val k       = pattern.numVertices
    val mu      = Array.fill(k)(-1)
    var found   = 0L
    val preds   = Array.tabulate(k)(pattern.predecessors)
    // A vertex whose label an earlier one carries is forced to that vertex's
    // image (`forcedBy`), which already differs from every other label's and
    // needs only its edges checked. Any other vertex takes the start vertices
    // or the intersection of its predecessors' out-lists, which satisfy its
    // edges, so `ok` only checks that the candidate is new.
    val forcedBy = Array.tabulate(k) { p =>
      (0 until p).find(q => pattern.labels(q) == pattern.labels(p)).getOrElse(-1)
    }
    val symPred = Array.tabulate(k) { p => // q with (q, p) in symmetry, q < p
      pattern.symmetry.collect { case (q, `p`) if q < p => q }
    }

    def candidates(p: Int): Array[Int] =
      if (forcedBy(p) >= 0) {
        val v = mu(forcedBy(p))
        if (preds(p).forall(u => java.util.Arrays.binarySearch(adj.outOf(mu(u)), v) >= 0)) Array(v)
        else Array.emptyIntArray
      } else if (preds(p).isEmpty) startVertices.getOrElse(adj.vertices)
      else preds(p).map(u => adj.outOf(mu(u))).sortBy(_.length) // the shortest list, filtered by the rest
        .reduceLeft((base, l) => base.filter(v => java.util.Arrays.binarySearch(l, v) >= 0))

    def isNew(p: Int, v: Int): Boolean = { var q = 0; while (q < p && mu(q) != v) q += 1; q == p }

    def ok(p: Int, v: Int): Boolean =
      (forcedBy(p) >= 0 || isNew(p, v)) && symPred(p).forall(q => mu(q) < v)

    def rec(p: Int): Boolean = { // returns false to stop (cap reached)
      if (p == k) {
        found += 1
        onInstance(mu.clone())
        maxInstances <= 0 || found < maxInstances
      } else {
        val cs = candidates(p)
        var i  = 0
        var go  = true
        while (go && i < cs.length) {
          val v = cs(i)
          if (ok(p, v)) {
            mu(p) = v
            go = rec(p + 1)
            mu(p) = -1
          }
          i += 1
        }
        go
      }
    }

    rec(0)
    found
  }

  /** Each pattern edge's interactions under the assignment `mu`, in `pattern.edges` order. */
  private def edgeInteractions(adj: AdjacencyIndex, pattern: Pattern, mu: Array[Int]): Vector[Vector[(Long, Double)]] =
    pattern.edges.map { case (u, w) => adj.interactions(mu(u), mu(w)) }

  /** The flow graph of the instance `mu` (see [[Pattern.flowGraph]]). */
  def instanceGraph(adj: AdjacencyIndex, pattern: Pattern, mu: Array[Int]): FlowGraph =
    pattern.flowGraph(edgeInteractions(adj, pattern, mu))

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

  /** Every instance `mu` of the chain pattern `chain` (a path, its edges in
    * order) with its Lemma 3 reduction: the greedy scan of the instance's
    * edges, whose `sinkArrivals` are the reduced edge's interactions.
    */
  def reducedChains(adj: AdjacencyIndex, chain: Pattern, startVertices: Option[Array[Int]])(
      onInstance: (Array[Int], Greedy.Result) => Unit): Unit =
    enumerate(adj, chain, startVertices = startVertices) { mu =>
      onInstance(mu, Greedy.chain(edgeInteractions(adj, chain, mu)))
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
