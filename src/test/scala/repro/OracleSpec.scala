package repro

/** The DuckDB oracle harness itself must catch real result differences, not
  * just run. Its positive path is exercised by every suite that checks a
  * DataFrame against DuckDB.
  */
class OracleSpec extends SparkSpec {

  test("the oracle rejects wrong results") {
    val s = spark
    import s.implicits._
    val df = Seq(("a", 1L)).toDF("k", "n")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df, "SELECT 'a' AS k, 2 AS n")
    }
  }

  test("the oracle rejects mismatched column sets") {
    val s = spark
    import s.implicits._
    val df = Seq(("a", 1L)).toDF("k", "wrong")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df, "SELECT 'a' AS k, 1 AS n")
    }
  }
}
