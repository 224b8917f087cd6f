package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Comprehension._
import repro.core.Translate._
import repro.local.LocalBackend
import repro.local.LocalBackend.{ArrayD, ScalarD}
import repro.programs.Benchmarks

/** Same-key generator merging: two reads of one array entry become one
  * generator, and reads of different entries stay apart.
  */
class OptimizeSpec extends AnyFunSuite {

  private def arrGens(c: Comp): List[String] =
    c.quals.collect { case Gen(_, CArr(a)) => a }

  /** The array generators of each assignment to `name`, in order. */
  private def gensOf(code: List[TStmt], name: String): List[List[String]] =
    code.collect { case TAssign(`name`, c, _) => arrGens(c) }

  private val vecVW = Map("V" -> ArraySig(1), "W" -> ArraySig(1), "n" -> ScalarSig)

  test("KMeans' near reads P and C once each, C2 reads CN once") {
    val p = Benchmarks.kMeans
    val code = Diablo.compile(p.source, p.sigs)
    assert(gensOf(code, "near").last == List("P", "C"))
    assert(gensOf(code, "C2") == List(List("SX", "CN", "SY")))
  }

  test("a merged read renames the dropped generator's value") {
    val List(TAssign("s", c, false)) = Diablo.compile(
      "var s: double = 0.0; for i = 0, n-1 do s += V[i] * V[i];", vecVW).tail: @unchecked
    assert(arrGens(c) == List("V"))
    val CCombine(MSum, _, CReduce(MSum, CBin("*", a, b))) = c.head: @unchecked
    assert(a == b)
    // no predicate is left restating the binding of i
    assert(!c.quals.exists { case QPred(CBin("==", CVar(_), CVar(_))) => true; case _ => false })
    val st = LocalBackend.run(List(TAssign("s", c, false)), Map(
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
    for (p <- Benchmarks.table1; TAssign(n, c, a) <- Diablo.compile(p.source, p.sigs))
      Plan.of(c, Option.when(a)(n))
  }
}
