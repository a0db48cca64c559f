package repro.lp

/** Dense bounded-variable primal simplex for LPs of the form
  *
  *   maximize    c·x
  *   subject to  A x <= b,   0 <= x <= u,   with b >= 0.
  *
  * Substrate replacing the paper's `lpsolve` dependency (unavailable
  * offline). The non-negative right-hand side makes the all-slack basis
  * feasible, so no phase-1 is needed — which is exactly the shape of the
  * paper's max-flow LP (Section 4.2.1): buffer constraints have non-negative
  * source-inflow right-hand sides, and `0 <= x_i <= q_i` are column bounds.
  *
  * Upper bounds are handled by Dantzig's upper-bounding technique: a column
  * at its upper bound is complemented (`x' = u − x`), so the tableau has one
  * row per constraint of `A` and "negative reduced cost = improving" holds
  * in every column. The ratio test also stops at the entering column's own
  * bound (a bound flip, no pivot) and at a basic variable's upper bound.
  *
  * Pivoting uses Dantzig's rule with a switch to Bland's rule after a fixed
  * number of iterations to guarantee termination under degeneracy.
  */
object Simplex {

  /** Optimal value and a maximizing assignment. */
  final case class Solution(value: Double, x: Array[Double])

  final case class SimplexException(msg: String) extends RuntimeException(msg)

  private val Eps = 1e-9

  /** Solve max c·x s.t. Ax <= b, 0 <= x <= upper. Requires b >= 0 and
    * upper >= 0 (checked); an infinite `upper(j)` leaves column `j` unbounded
    * above.
    *
    * Rows of `A` with an infinite right-hand side are vacuous and skipped.
    */
  def maximize(a: Array[Array[Double]], b: Array[Double], c: Array[Double], upper: Array[Double]): Solution = {
    require(a.length == b.length, s"rows mismatch: A=${a.length} b=${b.length}")
    require(upper.length == c.length, s"bounds mismatch: upper=${upper.length} c=${c.length}")
    upper.indices.foreach(j => require(upper(j) >= 0.0, s"upper($j)=${upper(j)} must be non-negative"))
    val keep = b.indices.filter(i => !b(i).isInfinity).toArray
    keep.foreach(i => require(b(i) >= -Eps, s"b($i)=${b(i)} must be non-negative"))
    val m = keep.length
    val n = c.length
    if (m == 0) {
      // No binding rows: every improving column sits at its upper bound.
      val x = Array.tabulate(n)(j => if (c(j) > Eps) upper(j) else 0.0)
      if (x.exists(_.isInfinity)) throw SimplexException("unbounded: no constraints but positive cost")
      return Solution(c.indices.map(j => c(j) * x(j)).sum, x)
    }

    val cols = n + m + 1
    // tableau rows 0..m-1 = constraints [A | I | b]; row m = objective [-c | 0 | 0]
    val t = Array.ofDim[Double](m + 1, cols)
    var r = 0
    while (r < m) {
      val src = a(keep(r))
      require(src.length == n, s"A row ${keep(r)} has ${src.length} cols, expected $n")
      System.arraycopy(src, 0, t(r), 0, n)
      t(r)(n + r) = 1.0
      t(r)(cols - 1) = math.max(0.0, b(keep(r)))
      r += 1
    }
    var j = 0
    while (j < n) { t(m)(j) = -c(j); j += 1 }

    val basis = Array.tabulate(m)(i => n + i)
    // Slacks are unbounded above, so only structural columns ever flip;
    // `flipped(j)` = column j holds u_j − x_j.
    val ub      = Array.tabulate(cols - 1)(j => if (j < n) upper(j) else Double.PositiveInfinity)
    val flipped = new Array[Boolean](n)

    /** Complement nonbasic column `j` (substitute `u_j − y_j` for `y_j`). */
    def flip(j: Int): Unit = {
      val u = ub(j)
      var i = 0
      while (i <= m) {
        val row = t(i)
        row(cols - 1) -= row(j) * u
        row(j) = -row(j)
        i += 1
      }
      flipped(j) = !flipped(j)
    }

    val maxIter     = 200 * (n + m) + 2000
    val blandAfter  = 20 * (n + m) + 500
    var iter        = 0
    var done        = false
    while (!done) {
      iter += 1
      if (iter > maxIter) throw SimplexException(s"iteration limit $maxIter exceeded (n=$n m=$m)")
      val bland = iter > blandAfter
      // entering column: most negative objective coefficient (Dantzig) or
      // first negative (Bland).
      var enter = -1
      var best  = -Eps
      var col   = 0
      while (col < cols - 1 && (enter < 0 || !bland)) {
        val v = t(m)(col)
        if (v < best) {
          enter = col
          if (bland) best = Double.NegativeInfinity // take first
          else best = v
          if (bland) col = cols // break
        }
        col += 1
      }
      if (enter < 0) done = true
      else {
        // ratio test: the entering column's own bound, then each basic
        // variable falling to 0 (t(i)(enter) > 0) or rising to its upper
        // bound (t(i)(enter) < 0). A row must beat the bound by Eps; Bland
        // ties between rows are broken by smallest basis index.
        var leave   = -1
        var toUpper = false
        var ratio   = ub(enter)
        var i       = 0
        while (i < m) {
          val aij = t(i)(enter)
          val rt =
            if (aij > Eps) t(i)(cols - 1) / aij
            else if (aij < -Eps) (ub(basis(i)) - t(i)(cols - 1)) / -aij
            else Double.PositiveInfinity
          if (rt < ratio - Eps || (leave >= 0 && rt < ratio + Eps && basis(i) < basis(leave))) {
            ratio = rt
            leave = i
            toUpper = aij < 0
          }
          i += 1
        }
        if (ratio.isInfinity)
          throw SimplexException("unbounded LP — flow LPs are bounded, formulation bug")
        if (leave < 0) flip(enter)
        else {
          val out = basis(leave)
          pivot(t, leave, enter)
          basis(leave) = enter
          if (toUpper) flip(out)
        }
      }
    }

    val x = Array.fill(n)(0.0)
    var i = 0
    while (i < m) {
      if (basis(i) < n) x(basis(i)) = t(i)(cols - 1)
      i += 1
    }
    j = 0
    while (j < n) { if (flipped(j)) x(j) = ub(j) - x(j); j += 1 }
    Solution(t(m)(cols - 1), x)
  }

  private def pivot(t: Array[Array[Double]], pr: Int, pc: Int): Unit = {
    val rows = t.length
    val cols = t(0).length
    val pv   = t(pr)(pc)
    var j    = 0
    val prow = t(pr)
    while (j < cols) { prow(j) /= pv; j += 1 }
    var i = 0
    while (i < rows) {
      if (i != pr) {
        val f = t(i)(pc)
        if (f != 0.0) {
          val row = t(i)
          var k   = 0
          while (k < cols) { row(k) -= f * prow(k); k += 1 }
          row(pc) = 0.0 // kill round-off in the pivot column
        }
      }
      i += 1
    }
  }
}
