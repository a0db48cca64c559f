package repro.lp

import repro.SparkSpec

/** Unit tests for the dense simplex substrate (the lpsolve replacement). */
class SimplexSpec extends SparkSpec {
  private val Tol = 1e-7

  private val Inf = Double.PositiveInfinity

  /** The LP with every column unbounded above. */
  private def solve(a: Array[Array[Double]], b: Array[Double], c: Array[Double]) =
    Simplex.maximize(a, b, c, Array.fill(c.length)(Inf))

  private def feasible(a: Array[Array[Double]], b: Array[Double], u: Array[Double], x: Array[Double]): Boolean =
    x.indices.forall(j => x(j) >= -Tol && x(j) <= u(j) + Tol) &&
      a.indices.forall(i => a(i).indices.map(j => a(i)(j) * x(j)).sum <= b(i) + Tol)

  test("1-var: max x s.t. x <= 4") {
    val s = solve(Array(Array(1.0)), Array(4.0), Array(1.0))
    assert(math.abs(s.value - 4.0) < Tol)
    assert(math.abs(s.x(0) - 4.0) < Tol)
  }

  test("1-var: negative cost stays at zero") {
    val s = solve(Array(Array(1.0)), Array(4.0), Array(-1.0))
    assert(math.abs(s.value) < Tol)
  }

  test("classic 2-var LP") {
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> opt 36 at (2,6)
    val a = Array(Array(1.0, 0.0), Array(0.0, 2.0), Array(3.0, 2.0))
    val s = solve(a, Array(4.0, 12.0, 18.0), Array(3.0, 5.0))
    assert(math.abs(s.value - 36.0) < Tol)
    assert(math.abs(s.x(0) - 2.0) < Tol)
    assert(math.abs(s.x(1) - 6.0) < Tol)
  }

  test("2-var with redundant constraint") {
    // max x + y s.t. x + y <= 5, x <= 10 -> 5
    val s = solve(Array(Array(1.0, 1.0), Array(1.0, 0.0)), Array(5.0, 10.0), Array(1.0, 1.0))
    assert(math.abs(s.value - 5.0) < Tol)
  }

  test("degenerate LP terminates (Beale's cycling example)") {
    // Beale's classic instance that cycles under naive Dantzig pivoting;
    // optimum 1/20 at x = (1/25, 0, 1, 0).
    val a = Array(
      Array(0.25, -60.0, -0.04, 9.0),
      Array(0.5, -90.0, -0.02, 3.0),
      Array(0.0, 0.0, 1.0, 0.0),
    )
    val b = Array(0.0, 0.0, 1.0)
    val c = Array(0.75, -150.0, 0.02, -6.0)
    val s = solve(a, b, c)
    assert(math.abs(s.value - 0.05) < 1e-6)
  }

  test("unbounded LP raises") {
    intercept[Simplex.SimplexException] {
      solve(Array(Array(-1.0)), Array(1.0), Array(1.0))
    }
  }

  test("no binding constraints with zero cost returns zero") {
    val s = solve(Array(Array(1.0)), Array(Double.PositiveInfinity), Array(0.0))
    assert(s.value === 0.0)
  }

  test("infinite right-hand sides are vacuous") {
    val a = Array(Array(1.0), Array(1.0))
    val s = solve(a, Array(Double.PositiveInfinity, 3.0), Array(1.0))
    assert(math.abs(s.value - 3.0) < Tol)
  }

  test("zero b row forces variable combination to zero") {
    // max x + y s.t. x - y <= 0, y <= 2  -> x = y = 2, value 4
    val s = solve(Array(Array(1.0, -1.0), Array(0.0, 1.0)), Array(0.0, 2.0), Array(1.0, 1.0))
    assert(math.abs(s.value - 4.0) < Tol)
  }

  test("flow-shaped LP: diamond") {
    // Variables: x1 = y->z, x2 = y->t, x3 = z->t (fig3 without the source rows)
    // max x2 + x3
    // x1 <= 5 (inflow to y from s), x2 <= 5 - x1, x3 <= 3 + x1
    // bounds x1 <= 5, x2 <= 4, x3 <= 1
    val a = Array(
      Array(1.0, 0.0, 0.0),
      Array(1.0, 1.0, 0.0),
      Array(-1.0, 0.0, 1.0),
      Array(1.0, 0.0, 0.0),
      Array(0.0, 1.0, 0.0),
      Array(0.0, 0.0, 1.0),
    )
    val b = Array(5.0, 5.0, 3.0, 5.0, 4.0, 1.0)
    val s = solve(a, b, Array(0.0, 1.0, 1.0))
    assert(math.abs(s.value - 5.0) < Tol) // x2=4 (x1=1 reserved), x3=1
  }

  test("many-variable diagonal LP") {
    val n = 40
    val a = Array.tabulate(n, n)((i, j) => if (i == j) 1.0 else 0.0)
    val b = Array.tabulate(n)(i => (i + 1).toDouble)
    val s = solve(a, b, Array.fill(n)(1.0))
    assert(math.abs(s.value - n * (n + 1) / 2.0) < 1e-6)
  }

  test("solution vector satisfies all constraints") {
    val a = Array(Array(2.0, 1.0), Array(1.0, 3.0))
    val b = Array(8.0, 9.0)
    val s = solve(a, b, Array(1.0, 1.0))
    a.indices.foreach { i =>
      val lhs = a(i).zip(s.x).map { case (x, y) => x * y }.sum
      assert(lhs <= b(i) + 1e-7)
    }
    assert(s.x.forall(_ >= -1e-9))
    // opt at intersection: x=3, y=2, value 5
    assert(math.abs(s.value - 5.0) < Tol)
  }

  test("negative b rejected") {
    intercept[IllegalArgumentException] {
      solve(Array(Array(1.0)), Array(-1.0), Array(1.0))
    }
  }

  test("bounded: a column in no row stops at its bound (a flip, no pivot)") {
    // max x + y s.t. y <= 3, x <= 2 as a column bound -> 5
    val s = Simplex.maximize(Array(Array(0.0, 1.0)), Array(3.0), Array(1.0, 1.0), Array(2.0, Inf))
    assert(math.abs(s.value - 5.0) < Tol)
    assert(math.abs(s.x(0) - 2.0) < Tol && math.abs(s.x(1) - 3.0) < Tol)
  }

  test("bounded: a basic variable leaves at its upper bound") {
    // x enters first and becomes basic in row 1 at 1; y then raises it to
    // its bound 2. Optimum x = 2, y = 3, value 5.
    val a = Array(Array(1.0, -1.0), Array(0.0, 1.0))
    val u = Array(2.0, Inf)
    val s = Simplex.maximize(a, Array(1.0, 3.0), Array(1.0, 1.0), u)
    assert(math.abs(s.value - 5.0) < Tol)
    assert(math.abs(s.x(0) - 2.0) < Tol && math.abs(s.x(1) - 3.0) < Tol)
    assert(feasible(a, Array(1.0, 3.0), u, s.x))
  }

  test("bounded: mixed finite and infinite bounds") {
    // the classic 2-var LP (opt 36 at (2, 6)) with x <= 1, then with y <= 5
    val a = Array(Array(1.0, 0.0), Array(0.0, 2.0), Array(3.0, 2.0))
    val b = Array(4.0, 12.0, 18.0)
    val c = Array(3.0, 5.0)
    val s1 = Simplex.maximize(a, b, c, Array(1.0, Inf))
    assert(math.abs(s1.value - 33.0) < Tol) // x = 1, y = 6
    assert(math.abs(s1.x(0) - 1.0) < Tol && math.abs(s1.x(1) - 6.0) < Tol)
    val s2 = Simplex.maximize(a, b, c, Array(Inf, 5.0))
    assert(math.abs(s2.value - 33.0) < Tol) // x = 8/3, y = 5
    assert(math.abs(s2.x(0) - 8.0 / 3) < Tol && math.abs(s2.x(1) - 5.0) < Tol)
  }

  test("bounded: no binding rows gives c·u over the improving columns") {
    val rows = Array(Array(1.0, 1.0, 1.0))
    val s = Simplex.maximize(rows, Array(Inf), Array(2.0, -1.0, 3.0), Array(1.0, 5.0, 2.0))
    assert(s.value === 8.0)
    assert(s.x.toSeq === Seq(1.0, 0.0, 2.0))
  }

  test("bounded: no binding rows and an unbounded improving column raises") {
    intercept[Simplex.SimplexException] {
      Simplex.maximize(Array(Array(1.0, 1.0)), Array(Inf), Array(1.0, 1.0), Array(1.0, Inf))
    }
  }

  test("bounded: Beale's cycling example with bounds terminates") {
    val a = Array(Array(0.25, -60.0, -0.04, 9.0), Array(0.5, -90.0, -0.02, 3.0))
    val c = Array(0.75, -150.0, 0.02, -6.0)
    // its row x3 <= 1 as a column bound
    val s1 = Simplex.maximize(a, Array(0.0, 0.0), c, Array(Inf, Inf, 1.0, Inf))
    assert(math.abs(s1.value - 0.05) < 1e-6)
    // the row kept, and every column bounded by 1
    val s2 = Simplex.maximize(a :+ Array(0.0, 0.0, 1.0, 0.0), Array(0.0, 0.0, 1.0), c, Array.fill(4)(1.0))
    assert(math.abs(s2.value - 0.05) < 1e-6)
  }

  test("bounded: random LPs are feasible and match their bound-row form") {
    val rnd = new scala.util.Random(7)
    (1 to 200).foreach { k =>
      val n = 1 + rnd.nextInt(6)
      val m = 1 + rnd.nextInt(6)
      // the last row, sum x <= 10, keeps columns without a bound finite
      val a = Array.fill(m)(Array.fill(n)(rnd.nextInt(7) - 2.0)) :+ Array.fill(n)(1.0)
      val b = Array.fill(m)(rnd.nextInt(6).toDouble) :+ 10.0
      val c = Array.fill(n)(rnd.nextInt(7) - 2.0)
      val u = Array.fill(n)(if (rnd.nextBoolean()) Inf else rnd.nextInt(4).toDouble)
      val s = Simplex.maximize(a, b, c, u)
      assert(feasible(a, b, u, s.x), s"LP #$k: x=${s.x.toSeq}")
      assert(math.abs(c.indices.map(j => c(j) * s.x(j)).sum - s.value) < Tol, s"LP #$k")
      val fin   = u.indices.filter(j => !u(j).isInfinity)
      val dense = solve(a ++ fin.map(j => Array.tabulate(n)(i => if (i == j) 1.0 else 0.0)), b ++ fin.map(u), c)
      assert(math.abs(s.value - dense.value) < Tol, s"LP #$k: bounded ${s.value} rows ${dense.value}")
    }
  }
}
