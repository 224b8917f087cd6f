package perfbench

import repro.local.LocalBackend.Rec
import scala.collection.mutable

/** Output checking. Program outputs are compared in a canonical form: output
  * name → scalar value, or the array's entries (key list → value). Doubles
  * agree within 1e-6 relative (the tolerance of HandWrittenSpec); every other
  * value must be equal and of the same type (a Long never equals a Double).
  */
object Check {

  type Outputs = Map[String, Any]

  val RelTol = 1e-6

  /** First difference between `exp` and `got`, if any. */
  def diff(exp: Any, got: Any, path: String = ""): Option[String] = (exp, got) match {
    case (null, null) => None
    case (a: Double, b: Double) =>
      if (math.abs(a - b) <= RelTol * (1.0 + math.abs(a))) None
      else Some(s"$path: expected $a, got $b")
    case (a: collection.Map[_, _], b: collection.Map[_, _]) =>
      val am = a.asInstanceOf[collection.Map[Any, Any]]
      val bm = b.asInstanceOf[collection.Map[Any, Any]]
      if (am.keySet != bm.keySet) {
        val missing = (am.keySet -- bm.keySet).take(3)
        val extra = (bm.keySet -- am.keySet).take(3)
        Some(s"$path: ${am.size} vs ${bm.size} entries; missing ${missing.mkString(",")}" +
          s"; unexpected ${extra.mkString(",")}")
      } else if (am.keySet.map(typedKey) != bm.keySet.map(typedKey))
        Some(s"$path: key types differ")
      else am.iterator.map { case (k, v) => diff(v, bm(k), s"$path[$k]") }
        .collectFirst { case Some(d) => d }
    case (Rec(fa), Rec(fb)) =>
      if (fa.map(_._1) != fb.map(_._1)) Some(s"$path: fields ${fa.map(_._1)} vs ${fb.map(_._1)}")
      else fa.zip(fb).iterator.map { case ((n, x), (_, y)) => diff(x, y, s"$path.$n") }
        .collectFirst { case Some(d) => d }
    case (a, b) if a != null && b != null && a.getClass == b.getClass && a == b => None
    case (a, b) =>
      def typed(x: Any) = if (x == null) "null" else s"$x: ${x.getClass.getSimpleName}"
      Some(s"$path: expected ${typed(a)}, got ${typed(b)}")
  }

  /** A key with the classes of its components (boxed numbers of different
    * types compare equal under `==`).
    */
  private def typedKey(k: Any): (Any, Any) = k match {
    case xs: Iterable[_] => (k, xs.map(x => if (x == null) null else x.getClass).toList)
    case x               => (k, if (x == null) null else x.getClass)
  }

  def diffOutputs(exp: Outputs, got: Outputs): Option[String] =
    if (exp.keySet != got.keySet) Some(s"outputs ${exp.keySet} vs ${got.keySet}")
    else exp.keys.toList.sorted.iterator.map(o => diff(exp(o), got(o), o))
      .collectFirst { case Some(d) => d }

  /** Output entries (scalars count as one). */
  def rows(o: Outputs): Long = o.values.map {
    case m: collection.Map[_, _] => m.size.toLong
    case _                        => 1L
  }.sum
}

/** Tally of checked executions: each (program, backend) run and each checker
  * verdict is one attempt; a throw or a disagreement is one failure.
  */
final class Tally {
  var attempted = 0L
  var failed = 0L
  /** First failure per (what, how); how many times it occurred. */
  val failures = mutable.LinkedHashMap.empty[String, (String, Long)]

  def ok(): Unit = attempted += 1

  def fail(what: String, why: String): Unit = {
    attempted += 1
    failed += 1
    val (first, n) = failures.getOrElse(what, (why, 0L))
    failures(what) = (first, n + 1)
  }

  def expect(what: String, difference: Option[String]): Unit =
    difference match {
      case None    => ok()
      case Some(d) => fail(what, d)
    }

  /** Run `body`; a throw is recorded as a failure of `what`. */
  def guard[A](what: String)(body: => A): Option[A] =
    try Some(body)
    catch {
      case e: Exception =>
        fail(what, s"threw ${e.getClass.getSimpleName}: ${String.valueOf(e.getMessage).take(300)}")
        None
    }
}
