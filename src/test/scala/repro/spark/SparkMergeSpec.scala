package repro.spark

import repro.SparkSpec
import repro.core.Diablo
import repro.core.Translate._
import repro.local.LocalBackend
import repro.local.LocalBackend.{ArrayD, Data, Rec}
import repro.spark.SparkBackend._
import repro.spark.SparkTestUtil._

/** `⊕=` into an initialized array, where Spark runs the old-value lookup of
  * rule (15a) and the `◁` merge as one full-outer join: keys without a new
  * group keep their old value, new keys are added, and values and types
  * match the local backend.
  */
class SparkMergeSpec extends SparkSpec {

  private val sigs = Map[String, Sig]("V" -> ArraySig(1), "W" -> ArraySig(1))

  private def recs(kas: (Long, Any)*): ArrayD =
    ArrayD(kas.zipWithIndex.map { case ((k, a), i) =>
      List[Any](i.toLong) -> (Rec(Vector("K" -> k, "A" -> a)): Any) }.toMap, 1)

  private def vec(kvs: (Long, Any)*): ArrayD =
    ArrayD(kvs.map { case (k, v) => List[Any](k) -> v }.toMap, 1)

  /** Runs `src` on local seq and Spark; returns W from both. */
  private def bothW(src: String, data: Map[String, Data]) = {
    val code = Diablo.compile(src, sigs)
    val local = LocalBackend.run(code, data)("W").asInstanceOf[ArrayD].m
    val sp = dfToArray(outDF(SparkBackend.run(code, fromLocal(spark, data), spark), "W"), 1).m
    assert(sp == local)
    // `==` on Any equates 6L with 6.0, so the types are checked separately
    for ((k, v) <- local)
      assert(sp(k).getClass == v.getClass, s"W$k: ${sp(k)} vs $v")
    local
  }

  // old keys 0, 1, 3; new groups 1, 2, 5
  private val old = vec(0L -> 10L, 1L -> 20L, 3L -> 40L)
  private val upd = recs(1L -> 1L, 2L -> 2L, 1L -> 3L, 5L -> 4L)

  test("+= keeps old keys without a group and adds new keys") {
    val w = bothW("for v in V do W[v.K] += v.A;", Map("V" -> upd, "W" -> old))
    assert(w == Map(List(0L) -> 10L, List(1L) -> 24L, List(2L) -> 2L,
      List(3L) -> 40L, List(5L) -> 4L))
  }

  test("min= with a null default merges like +=") {
    val w = bothW("for v in V do W[v.K] min= v.A;", Map(
      "V" -> recs(1L -> 5.0, 1L -> 30.0, 2L -> 7.0, 3L -> 50.0),
      "W" -> vec(0L -> 1.0, 1L -> 20.0, 3L -> 40.0)))
    assert(w == Map(List(0L) -> 1.0, List(1L) -> 5.0, List(2L) -> 7.0,
      List(3L) -> 40.0))
  }

  test("+= under while merges into the previous iteration's array") {
    val w = bothW(
      """var k: long = 0;
        |while (k < 3) {
        |  k += 1;
        |  for v in V do W[v.K] += v.A;
        |};
        |""".stripMargin, Map("V" -> upd, "W" -> old))
    assert(w == Map(List(0L) -> 10L, List(1L) -> 32L, List(2L) -> 6L,
      List(3L) -> 40L, List(5L) -> 12L))
  }
}
