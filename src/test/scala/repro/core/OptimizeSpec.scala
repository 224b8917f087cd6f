package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Comprehension._
import repro.core.Translate._
import repro.local.LocalBackend
import repro.local.LocalBackend.{ArrayD, ScalarD}
import repro.programs.Benchmarks

/** Same-key generator merging: two reads of one array entry become one
  * generator, and reads of different entries stay apart. Aggregation
  * fusion: adjacent scalar global aggregates over identical qualifiers
  * become one assignment, and nothing else does.
  */
class OptimizeSpec extends AnyFunSuite {

  private def arrGens(c: Comp): List[String] =
    c.quals.collect { case Gen(_, CArr(a)) => a }

  /** The array generators of each assignment to `name`, in order. */
  private def gensOf(code: List[TStmt], name: String): List[List[String]] =
    code.collect { case TAssign(List(`name`), c, _) => arrGens(c) }

  private val vecVW = Map("V" -> ArraySig(1), "W" -> ArraySig(1), "n" -> ScalarSig)

  test("KMeans' near reads P and C once each, C2 reads CN once") {
    val p = Benchmarks.kMeans
    val code = Diablo.compile(p.source, p.sigs)
    assert(gensOf(code, "near").last == List("P", "C"))
    assert(gensOf(code, "C2") == List(List("SX", "CN", "SY")))
  }

  test("a merged read renames the dropped generator's value") {
    val List(TAssign(List("s"), c, false)) = Diablo.compile(
      "var s: double = 0.0; for i = 0, n-1 do s += V[i] * V[i];", vecVW).tail: @unchecked
    assert(arrGens(c) == List("V"))
    val CCombine(MSum, _, CReduce(MSum, CBin("*", a, b))) = c.head: @unchecked
    assert(a == b)
    // no predicate is left restating the binding of i
    assert(!c.quals.exists { case QPred(CBin("==", CVar(_), CVar(_))) => true; case _ => false })
    val st = LocalBackend.run(List(TAssign(List("s"), c, false)), Map(
      "s" -> ScalarD(0.0), "n" -> ScalarD(3L),
      "V" -> ArrayD(Map(List(0L) -> 1.0, List(1L) -> 2.0, List(2L) -> 3.0), 1)))
    assert(st("s") == ScalarD(14.0))
  }

  test("a transposed read M[i,j] + M[j,i] is not merged") {
    val code = Diablo.compile(
      "var T: matrix[double] = matrix(); " +
      "for i = 0, n-1 do for j = 0, n-1 do T[i,j] := M[i,j] + M[j,i];",
      Map("M" -> ArraySig(2), "n" -> ScalarSig))
    assert(gensOf(code, "T") == List(List("M", "M")))
  }

  test("a shifted read V[i] + V[i+1] is not merged") {
    val code = Diablo.compile(
      "var S: vector[double] = vector(); for i = 0, n-2 do S[i] := V[i] + V[i+1];",
      vecVW)
    assert(gensOf(code, "S") == List(List("V", "V")))
  }

  test("equal keys on different arrays are not merged") {
    val code = Diablo.compile(
      "var S: vector[double] = vector(); for i = 0, n-1 do S[i] := V[i] + W[i];",
      vecVW)
    assert(gensOf(code, "S") == List(List("V", "W")))
  }

  test("all Table-1 programs compile and every lookup plans") {
    for (p <- Benchmarks.table1; t @ TAssign(_, _, _) <- Diablo.compile(p.source, p.sigs))
      Plan.of(t)
  }

  // ------------------------------------------------- aggregation fusion

  /** The targets of each scalar global aggregate (`group by ()` last), in
    * order, inside while bodies too.
    */
  private def globalAggs(code: List[TStmt]): List[List[String]] = code.flatMap {
    case TAssign(ns, c, false) if c.quals.lastOption.contains(QGroup(Nil, Nil)) => List(ns)
    case TWhileS(_, b) => globalAggs(b)
    case _             => Nil
  }
  private def compiled(p: Benchmarks.ProgramSpec) = Diablo.compile(p.source, p.sigs)

  test("Linear Regression fuses into two aggregates, String Match and Average into one") {
    assert(globalAggs(compiled(Benchmarks.linearRegression)) ==
      List(List("sum_x", "sum_y"), List("xx_bar", "yy_bar", "xy_bar")))
    assert(globalAggs(compiled(Benchmarks.stringMatch)) == List(List("f1", "f2", "f3")))
    assert(globalAggs(compiled(Benchmarks.average)) == List(List("sum", "cnt")))
    val fused = compiled(Benchmarks.average).collect { case t @ TAssign(List(_, _), _, _) => t }
    assert(Translate.showStmt(fused.head).startsWith("(sum, cnt) := { ("))
  }

  test("fusion runs inside while bodies") {
    val code = Diablo.compile(
      "var k: long = 0; var s: double = 0.0; var c: long = 0; " +
      "while (k < 3) { k += 1; for v in V do { s += v; c += 1; }; };", vecVW)
    assert(globalAggs(code) == List(List("k"), List("s", "c")))
  }

  test("accumulators under different qualifiers are not fused") {
    val code = Diablo.compile(
      "var s: double = 0.0; var t: double = 0.0; " +
      "for v in V do { s += v; if (v > 0.0) t += v; };", vecVW)
    assert(globalAggs(code) == List(List("s"), List("t")))
  }

  test("array targets are not fused") {
    val code = compiled(Benchmarks.histogram)
    assert(code.collect { case TAssign(ns, _, true) => ns } ==
      List(List("R"), List("G"), List("B")))
  }

  private val gen = Gen(PTup(List(PVar("i"), PVar("v"))), CArr("V"))
  private def acc(s: String, arg: CExpr) =
    TAssign(List(s), Comp(CCombine(MSum, CState(s), CReduce(MSum, arg)),
      List(gen, QGroup(Nil, Nil))), false)
  private val data = Map("a" -> ScalarD(1.0), "b" -> ScalarD(0.0), "x" -> ScalarD(0.0),
    "V" -> ArrayD(Map(List(0L) -> 2.0, List(1L) -> 3.0), 1))

  test("a member that reads an earlier member's target is not fused") {
    val a = acc("a", CVar("v"))
    val b = acc("b", CBin("*", CVar("v"), CState("a")))
    assert(Optimize.fuseAggregates(List(a, b)) == List(a, b))
    assert(Optimize.fuseAggregates(List(a, a)) == List(a, a))
    // reading a later member's target sees the same old value either way
    val List(f @ TAssign(List("b", "a"), _, false)) = Optimize.fuseAggregates(List(b, a)): @unchecked
    val st = LocalBackend.run(List(f), data)
    assert(st == LocalBackend.run(List(b, a), data))
    assert(st("a") == ScalarD(6.0) && st("b") == ScalarD(5.0))
  }

  test("a driver-only assignment breaks a run") {
    val (a, b) = (acc("a", CVar("v")), acc("b", CLit(1.0)))
    val x = TAssign(List("x"), Comp(CLit(1.0), Nil), false)
    assert(Optimize.fuseAggregates(List(a, x, b)) == List(a, x, b))
    val List(TAssign(List("a", "b"), Comp(CTup(List(ha, hb)), quals), false), `x`) =
      Optimize.fuseAggregates(List(a, b, x)): @unchecked
    assert((ha, hb, quals) == (a.comp.head, b.comp.head, a.comp.quals))
  }
}
