package repro.spark

import repro.SparkSpec
import repro.core.Diablo
import repro.core.Translate._
import repro.local.LocalBackend
import repro.local.LocalBackend.{ArrayD, Data, Rec, ScalarD}
import repro.programs.Benchmarks
import repro.spark.SparkBackend._
import repro.spark.SparkTestUtil._

/** Fused scalar aggregates (`Optimize.fuseAggregates`) give the same values
  * and types on local seq, local par and Spark, also when the filter passes
  * no rows and every target must stay unchanged.
  */
class SparkFusionSpec extends SparkSpec {

  private def fusedTargets(code: List[TStmt]): List[String] =
    code.collect { case TAssign(ns, _, false) if ns.size > 1 => ns }.flatten

  /** Doubles within 1e-9 relative (summation order differs), everything
    * else exactly and with the same class.
    */
  private def same(a: Any, b: Any): Boolean = (a, b) match {
    case (null, null)           => true
    case (x: Double, y: Double) => math.abs(x - y) <= 1e-9 * (1.0 + math.abs(x))
    case (Rec(xs), Rec(ys)) =>
      xs.map(_._1) == ys.map(_._1) &&
        xs.zip(ys).forall { case ((_, x), (_, y)) => same(x, y) }
    case _ => a == b && a != null && b != null && a.getClass == b.getClass
  }

  /** Runs `code` on the three backends; returns the local seq values of
    * `outs` after checking the other two against them.
    */
  private def agree(code: List[TStmt], data: Map[String, Data], outs: List[String])
      : Map[String, Any] = {
    val seq = LocalBackend.run(code, data)
    val par = LocalBackend.run(code, data, par = true)
    val sp = SparkBackend.run(code, fromLocal(spark, data), spark)
    outs.map { o =>
      val v = seq(o).asInstanceOf[ScalarD].v
      for ((name, w) <- List("par" -> par(o).asInstanceOf[ScalarD].v, "Spark" -> outScalar(sp, o)))
        assert(same(v, w), s"$o: seq $v, $name $w")
      o -> v
    }.toMap
  }

  test("Average, Linear Regression and String Match agree after fusion") {
    for ((p, fused) <- List(
        Benchmarks.average -> List("sum", "cnt"),
        Benchmarks.linearRegression -> List("sum_x", "sum_y", "xx_bar", "yy_bar", "xy_bar"),
        Benchmarks.stringMatch -> List("f1", "f2", "f3"))) {
      val code = Diablo.compile(p.source, p.sigs)
      assert(fusedTargets(code) == fused, p.name)
      agree(code, p.data(60, 5), p.outputs ++ fused)
    }
  }

  private val mixed = Diablo.compile(
    """var n: long = 0;
      |var p: double = 1.0;
      |var lo: double = 1.0e30;
      |var ok: bool = true;
      |for v in V do if (v.A > t) { n += v.N; p *= v.A; lo min= v.A; ok &&= v.N < 3; };
      |""".stripMargin, Map("V" -> ArraySig(1), "t" -> ScalarSig))
  private val recs = ArrayD(List((1L, 1.5), (2L, 2.0), (3L, -0.5), (4L, 3.0))
    .zipWithIndex.map { case ((n, a), i) =>
      List[Any](i.toLong) -> (Rec(Vector("N" -> n, "A" -> a)): Any) }.toMap, 1)

  test("a mixed fused group keeps each monoid's value and type") {
    assert(fusedTargets(mixed) == List("n", "p", "lo", "ok"))
    val out = agree(mixed, Map("V" -> recs, "t" -> ScalarD(0.0)), List("n", "p", "lo", "ok"))
    assert(out == Map("n" -> 7L, "p" -> 9.0, "lo" -> 1.5, "ok" -> false))
  }

  test("a fused group whose filter passes no rows leaves every target unchanged") {
    val out = agree(mixed, Map("V" -> recs, "t" -> ScalarD(1.0e9)), List("n", "p", "lo", "ok"))
    assert(out == Map("n" -> 0L, "p" -> 1.0, "lo" -> 1.0e30, "ok" -> true))
  }
}
