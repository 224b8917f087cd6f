package repro.spark

import repro.SparkSpec
import repro.core.Diablo
import repro.local.LocalBackend
import repro.local.LocalBackend.{ArrayD, ScalarD}
import repro.programs.Benchmarks
import repro.spark.SparkBackend._

/** End-to-end: every benchmark program, translated by DIABLO and executed
  * on the Spark DataFrame backend, must agree with the sequential local
  * backend (the reference interpreter).
  */
class SparkBackendSmokeSpec extends SparkSpec {

  def assertSameValue(name: String, a: Any, b: Any): Unit = (a, b) match {
    case (x: Double, y: Double) =>
      assert(math.abs(x - y) <= 1e-6 * (1.0 + math.abs(x)), name)
    case (x, y) => assert(x == y, name)
  }

  def assertAgree(pName: String, scale: Int): Unit = {
    val p = Benchmarks.byName(pName)
    val code = Diablo.compile(p.source, p.sigs)
    val data = p.data(scale, 42)
    val localSt = LocalBackend.run(code, data)
    val sparkSt = SparkBackend.run(code, fromLocal(spark, data), spark)
    for (o <- p.outputs) (localSt(o), sparkSt(o)) match {
      case (ScalarD(a), SScalar(b)) => assertSameValue(s"$pName.$o", a, b)
      case (ArrayD(m, ka), SArr(df, ka2)) =>
        assert(ka == ka2, s"$pName.$o arity")
        val got = df.map(dfToArray(_, ka2).m).getOrElse(Map.empty)
        assert(got.keySet == m.keySet,
          s"$pName.$o keys: missing=${(m.keySet -- got.keySet).take(3)} " +
          s"extra=${(got.keySet -- m.keySet).take(3)}")
        for (k <- m.keySet) assertSameValue(s"$pName.$o[$k]", m(k), got(k))
      case other => fail(s"$pName.$o kind mismatch: $other")
    }
  }

  test("Sum on Spark")            { assertAgree("Sum", 50) }
  test("Count on Spark")          { assertAgree("Count", 50) }
  test("Average on Spark")        { assertAgree("Average", 50) }
  test("Conditional Count on Spark") { assertAgree("Conditional Count", 50) }
  test("Conditional Sum on Spark")   { assertAgree("Conditional Sum", 50) }
  test("Equal on Spark")          { assertAgree("Equal", 30) }
  test("Equal Frequency on Spark"){ assertAgree("Equal Frequency", 30) }
  test("String Match on Spark")   { assertAgree("String Match", 2000) }
  test("Word Count on Spark")     { assertAgree("Word Count", 100) }
  test("Histogram on Spark")      { assertAgree("Histogram", 60) }
  test("Linear Regression on Spark") { assertAgree("Linear Regression", 80) }
  test("Group-By on Spark")       { assertAgree("Group-By", 80) }
  test("Matrix Addition on Spark"){ assertAgree("Matrix Addition", 6) }
  test("Matrix Multiplication on Spark") { assertAgree("Matrix Multiplication", 5) }
  test("PageRank on Spark")       { assertAgree("PageRank", 30) }
  test("KMeans on Spark")         { assertAgree("KMeans", 60) }
  test("PCA on Spark")            { assertAgree("PCA", 20) }
  test("Matrix Factorization on Spark") { assertAgree("Matrix Factorization", 8) }
}
