package repro.spark

import repro.SparkSpec
import repro.core.Diablo
import repro.core.Translate._
import repro.local.LocalBackend
import repro.local.LocalBackend.{ArrayD, Data, ScalarD}
import repro.spark.SparkBackend._
import repro.spark.SparkTestUtil._

/** Spark-side coverage of every incremental-update monoid, including the
  * ones no benchmark program uses (`*=`) and array-destination min/max.
  */
class SparkMonoidSpec extends SparkSpec {

  private def vec(vs: (Long, Any)*): ArrayD =
    ArrayD(vs.map { case (k, v) => List[Any](k) -> v }.toMap, 1)

  private def run(src: String, sigs: Map[String, Sig], data: Map[String, Data]) =
    SparkBackend.run(Diablo.compile(src, sigs), fromLocal(spark, data), spark)

  test("*= product aggregation on Spark") {
    val st = run("var p: double = 1.0; for v in V do p *= v;",
      Map("V" -> ArraySig(1)), Map("V" -> vec(0L -> 2.0, 1L -> 3.0, 2L -> 4.0)))
    assert(outScalar(st, "p") == 24.0)
  }

  test("long *= keeps the long type on both backends") {
    val src = "var p: long = 1; for v in V do p *= v;"
    val sigs = Map("V" -> ArraySig(1))
    val data = Map[String, Data]("V" -> vec(0L -> 2L, 1L -> 3L))
    val local = LocalBackend.run(Diablo.compile(src, sigs), data)("p")
    // `==` on Any equates 6L with 6.0, so the type is checked separately
    for (v <- List(local.asInstanceOf[ScalarD].v, outScalar(run(src, sigs, data), "p")))
      assert(v.isInstanceOf[Long] && v == 6L, s"got $v")
  }

  test("every monoid over an empty input agrees with local seq") {
    val cases = List(
      ("long", "0", "+=", "v.N"), ("double", "1.0", "*=", "v.A"),
      ("bool", "true", "&&=", "v.A > 0.0"), ("bool", "false", "||=", "v.A > 0.0"),
      ("double", "1.0e30", "min=", "v.A"), ("long", "-5", "max=", "v.N"))
    val sigs = Map("V" -> ArraySig(1))
    val data = Map[String, Data]("V" -> ArrayD(Map.empty, 1))
    for ((tpe, init, op, e) <- cases) {
      val src = s"var s: $tpe = $init; var A: vector[$tpe] = vector(); " +
        s"for v in V do { s $op $e; A[v.N] $op $e; };"
      val local = LocalBackend.run(Diablo.compile(src, sigs), data)
      val sp = run(src, sigs, data)
      val (l, r) = (local("s").asInstanceOf[ScalarD].v, outScalar(sp, "s"))
      assert(l == r && l.getClass == r.getClass, s"$op: local $l, Spark $r")
      assert(local("A") == ArrayD(Map.empty, 1) && sp("A") == SArr(None, 1), op)
    }
  }

  test("a constant-key update over no rows leaves the array unchanged, for every monoid") {
    // rule 16 turns A[0] into group by () plus a let: Spark's global
    // aggregate must not make a group out of no rows
    val cases = List(("long", "+=", "1"), ("double", "*=", "v"),
      ("bool", "&&=", "v > 0.0"), ("bool", "||=", "v > 0.0"),
      ("double", "min=", "v"), ("long", "max=", "2"))
    val sigs = Map("V" -> ArraySig(1))
    val data = Map[String, Data]("V" -> vec(0L -> 1.0, 1L -> 2.0))
    for ((tpe, op, e) <- cases; bound <- List("100.0", "1.5")) {
      val src = s"var A: vector[$tpe] = vector(); for v in V do if (v > $bound) A[0] $op $e;"
      val local = LocalBackend.run(Diablo.compile(src, sigs), data)("A").asInstanceOf[ArrayD].m
      val sp = dfToArray(outDF(run(src, sigs, data), "A"), 1).m
      assert(sp == local, s"$op over v > $bound")
      for ((k, v) <- local) assert(sp(k).getClass == v.getClass, s"$op: ${sp(k)} vs $v")
      assert(local.isEmpty == (bound == "100.0"), s"$op over v > $bound: $local")
    }
  }

  test("scalar min=/max= on Spark") {
    val st = run(
      "var lo: double = 1.0e30; var hi: double = -1.0e30; " +
      "for v in V do { lo min= v; hi max= v; };",
      Map("V" -> ArraySig(1)), Map("V" -> vec(0L -> 5.0, 1L -> -2.0, 2L -> 9.0)))
    assert(outScalar(st, "lo") == -2.0)
    assert(outScalar(st, "hi") == 9.0)
  }

  test("array-destination min= with grouping on Spark") {
    // per-key minimum over (K, A) records
    val recs = List(
      (1L, 5.0), (1L, 2.0), (2L, 7.0), (2L, 9.0), (1L, 8.0)
    ).zipWithIndex.map { case ((k, a), i) =>
      List[Any](i.toLong) ->
        (repro.local.LocalBackend.Rec(Vector("K" -> k, "A" -> a)): Any)
    }.toMap
    val st = run(
      "var M: map[long,double] = map(); for v in V do M[v.K] min= v.A;",
      Map("V" -> ArraySig(1)), Map("V" -> ArrayD(recs, 1)))
    val m = dfToArray(outDF(st, "M"), 1).m
    assert(m == Map(List(1L) -> 2.0, List(2L) -> 7.0))
  }

  test("array-destination &&= / ||= on Spark") {
    val st = run(
      "var A: map[long,bool] = map(); var O: map[long,bool] = map(); " +
      "for v in V do { A[v.K] &&= v.A > 0.0; O[v.K] ||= v.A > 6.0; };",
      Map("V" -> ArraySig(1)),
      Map("V" -> ArrayD(List(
        (1L, 5.0), (1L, -2.0), (2L, 7.0)
      ).zipWithIndex.map { case ((k, a), i) =>
        List[Any](i.toLong) ->
          (repro.local.LocalBackend.Rec(Vector("K" -> k, "A" -> a)): Any)
      }.toMap, 1)))
    assert(dfToArray(outDF(st, "A"), 1).m ==
      Map(List(1L) -> false, List(2L) -> true))
    assert(dfToArray(outDF(st, "O"), 1).m ==
      Map(List(1L) -> false, List(2L) -> true))
  }

  test("min= over tuples is argmin on Spark (struct ordering)") {
    val st = run(
      "var m: (double,long) = (1.0e30, 0); for i = 0, n-1 do m min= (V[i], i);",
      Map("V" -> ArraySig(1), "n" -> ScalarSig),
      Map("V" -> vec(0L -> 5.0, 1L -> 2.0, 2L -> 8.0), "n" -> ScalarD(3L)))
    val rec = outScalar(st, "m").asInstanceOf[repro.local.LocalBackend.Rec]
    assert(rec.fields == Vector("_1" -> 2.0, "_2" -> 1L))
  }
}
