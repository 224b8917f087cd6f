package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Comprehension._
import repro.core.Plan._
import repro.core.Translate._
import repro.programs.Benchmarks

/** The shared comprehension plan: which predicates key a scan, join it or
  * filter it, and where the group-by's aggregate goes.
  */
class PlanSpec extends AnyFunSuite {

  private def plans(name: String): List[(String, Plan)] = {
    val p = Benchmarks.byName(name)
    Diablo.compile(p.source, p.sigs).collect {
      case t @ TAssign(ns, _, _) => ns.mkString(",") -> Plan.of(t)
    }
  }
  private def scans(p: Plan): List[Scan] = p.ops.collect { case s: Scan => s }

  test("Matrix Multiplication's second scan is keyed by the first") {
    val Some((_, p)) = plans("Matrix Multiplication").find(_._2.ops.exists(_.isInstanceOf[Aggregate]))
    val List(m, n) = scans(p)
    assert((m.arr, n.arr) == ("M", "N"))
    assert(m.keys.isEmpty)
    assert(n.keys == List(0 -> CVar("k")))
    assert(n.conds == List(CBin("==", CVar(n.idxVars.head), CVar("k"))))
    assert(n.residual.isEmpty)
  }

  test("KMeans' points x centroids scan has no key: a cross join") {
    val (_, p) = plans("KMeans").filter(_._1 == "near").last
    val List(points, centroids) = scans(p)
    assert((points.arr, centroids.arr) == ("P", "C"))
    assert(centroids.keys.isEmpty && centroids.conds.isEmpty)
    assert(p.lookup.exists(_.arr == "near"))
  }

  test("a lookup must read the target at the head's keys, last") {
    val quals = List[Qual](
      Gen(PTup(List(PVar("i"), PVar("a"))), CArr("A")),
      QGroup(List("k"), List(CVar("i"))),
      QLookup("w", "V", List("k"), DZero))
    val head = CTup(List(CVar("k"), CCombine(MSum, CVar("w"), CReduce(MSum, CVar("a")))))
    assert(Plan.of(Comp(head, quals), Some("V")).lookup.nonEmpty)
    val bad = List(
      Comp(head, quals) -> Some("U"),                              // another array
      Comp(CTup(List(CVar("i"), head.es.last)), quals) -> Some("V"), // other keys
      Comp(head, quals :+ QPred(CLit(true))) -> Some("V"),         // not last
      Comp(head.es.last, quals) -> None)                           // not an array
    for ((c, target) <- bad) {
      val e = intercept[IllegalArgumentException](Plan.of(c, target))
      assert(e.getMessage.contains("lookup V[k]"))
    }
  }

  test("a group by () program yields Aggregate(Nil, ...)") {
    val code = Diablo.compile("var s: double = 0.0; for v in V do s += v;",
      Map("V" -> ArraySig(1)))
    val p = Plan.of(code.collect { case TAssign(List("s"), c, _) => c }.last)
    val Some(Aggregate(Nil, Nil, List((r, MSum, CVar(_))))) =
      p.ops.collectFirst { case a: Aggregate => a }
    assert(p.head == List(CCombine(MSum, CState("s"), CVar(r))))
    assert(!p.driverOnly)
  }

  test("a predicate is consumed by the generator that binds its last variable") {
    val p = Plan.of(Comp(CTup(List(CVar("i"), CVar("b"))), List(
      Gen(PTup(List(PVar("i"), PVar("a"))), CArr("A")),
      Gen(PTup(List(PVar("j"), PVar("b"))), CArr("B")),
      QPred(CBin("==", CVar("j"), CVar("i"))),
      QPred(CBin(">", CVar("a"), CLit(0L))))), Some("X"))
    assert(p.ops == List(
      Scan("A", List("i"), "a", Nil, List(CBin(">", CVar("a"), CLit(0L)))),
      Scan("B", List("j"), "b", List(0 -> CVar("i")),
        List(CBin("==", CVar("j"), CVar("i"))))))
    assert(p.keyArity == 1)
  }

  test("a fused scalar assignment has one column per target; a tuple value stays one") {
    val code = Diablo.compile(
      "var m: (double,long) = (1.0e30, 0); var s: double = 0.0; " +
      "for v in V do { m min= (v, 1); s += v; };", Map("V" -> ArraySig(1)))
    val Some(t) = code.collectFirst { case t @ TAssign(List("m", "s"), _, false) => t }
    val p = Plan.of(t)
    val Some(Aggregate(Nil, Nil, List((rm, MMin, CTup(_)), (rs, MSum, CVar(_))))) =
      p.ops.collectFirst { case a: Aggregate => a }
    assert(p.head == List(CCombine(MMin, CState("m"), CVar(rm)),
      CCombine(MSum, CState("s"), CVar(rs))))
    val e = intercept[IllegalArgumentException](Plan.of(t.copy(targets = List("m", "s", "x"))))
    assert(e.getMessage.contains("2 head columns for 3 targets"))
  }

  test("a generator-free comprehension is driver-only") {
    val p = Plan.of(Comp(CBin("<", CState("x"), CLit(3L)), Nil))
    assert(p.ops.isEmpty && p.driverOnly)
    assert(Plan.of(Comp(CTup(List(CLit(1.0), CLit(0L))), Nil)).head.length == 1)
  }
}
