package repro.core

import Comprehension._
import Translate.TAssign

/** The operator plan of an optimized comprehension, shared by the local and
  * Spark backends: both interpret `ops` left to right and then evaluate the
  * `head` columns.
  *
  * A generator consumes every later pre-group predicate that mentions one of
  * its variables and whose variables are all bound by then, in source order
  * (`conds`). Among a scan's conds, `idx == e` with `e` bound before the scan
  * fixes that index position (`keys`): a hash lookup locally, an equi-join on
  * Spark. Predicates no generator consumes stay `Filter`s in place. A
  * group-by becomes an `Aggregate` over the reductions extracted from the
  * head; the post-group operators and the reduction-free head follow it.
  * The head of an array assignment is flattened to its key and value
  * columns, that of a k-target scalar assignment (k > 1) to one column per
  * target; any other head is one column, so a tuple-valued scalar such as
  * `m min= (V[i], i)` stays one column.
  *
  * A `Lookup` is the old-value read of rule (15a): it reads the
  * assignment's target at the head's key columns and is the last operator.
  * `Plan.of` checks this shape, because the Spark backend compiles such a
  * lookup as the `◁` merge itself.
  */
final case class Plan(ops: List[Plan.Op], head: List[CExpr]) {

  /** No generator and no lookup: the comprehension is evaluated on the
    * driver.
    */
  def driverOnly: Boolean = !ops.exists {
    case _: Plan.Range | _: Plan.Scan | _: Plan.Lookup => true
    case _                                             => false
  }

  /** Key arity of an array this comprehension creates: the head is
    * (k1, ..., kn, v).
    */
  def keyArity: Int = head.length - 1

  /** The old-value lookup of the target, if the plan has one. */
  def lookup: Option[Plan.Lookup] = ops.lastOption.collect { case l: Plan.Lookup => l }
}

object Plan {

  sealed trait Op
  /** v ← range(lo, hi). */
  final case class Range(v: String, lo: CExpr, hi: CExpr,
                         conds: List[CExpr]) extends Op
  /** (idxVars, valVar) ← arr; `keys` are (index position, value), sorted by
    * position.
    */
  final case class Scan(arr: String, idxVars: List[String], valVar: String,
                        keys: List[(Int, CExpr)], conds: List[CExpr]) extends Op {
    /** The conds a keyed lookup does not already enforce. */
    lazy val residual: List[CExpr] = conds.filterNot(c => keys.exists {
      case (p, e) => c == CBin("==", CVar(idxVars(p)), e) ||
                     c == CBin("==", e, CVar(idxVars(p)))
    })
  }
  final case class Let(v: String, e: CExpr) extends Op
  final case class Filter(e: CExpr) extends Op
  /** v ← 𝒟⟦arr⟧(keyVars), the monoid identity when absent. */
  final case class Lookup(v: String, arr: String, keyVars: List[String],
                          default: Default) extends Op
  /** group by (kvars) : (keys); binds each reduction's variable to ⊕/arg
    * over its group.
    */
  final case class Aggregate(kvars: List[String], keys: List[CExpr],
                             reductions: List[(String, Monoid, CExpr)]) extends Op

  /** Plan an assignment's comprehension. */
  def of(t: TAssign): Plan =
    of(t.comp, Option.when(t.isArray)(t.targets.head), t.targets.size)

  /** Plan a comprehension; `target` is the array an array assignment
    * writes, `width` the number of scalar targets.
    */
  def of(c: Comp, target: Option[String] = None, width: Int = 1): Plan = {
    val p = build(c, target.isDefined, width)
    p.ops.collect { case l: Lookup => l }.foreach { l =>
      require((l eq p.ops.last) && target.contains(l.arr) &&
          p.head.init == l.keyVars.map(CVar),
        s"lookup ${l.arr}[${l.keyVars.mkString(",")}] must be the last operator " +
        s"and read the assignment's target ${target.getOrElse("(none)")} at the " +
        s"head's key columns (${p.head.init.map(show).mkString(",")})")
    }
    p
  }

  private def build(c: Comp, isArray: Boolean, width: Int): Plan = {
    def cols(head: CExpr) =
      if (isArray) headColumns(head)
      else if (width == 1) List(head)
      else {
        val cs = headColumns(head)
        require(cs.length == width, s"${cs.length} head columns for $width targets")
        cs
      }
    splitAtGroup(c.quals) match {
      case None => Plan(ops(c.quals, Set.empty), cols(c.head))
      case Some((pre, QGroup(kvars, keys), post)) =>
        var n = 0
        val (head, reds) = extractReduces(c.head, () => { n += 1; s"_r$n" })
        require(post.collect { case QPred(e) => e; case QLet(_, e) => e }
          .forall(extractReduces(_, () => "")._2.isEmpty),
          "reductions in post-group qualifiers are not generated")
        val postBound = (kvars ++ reds.map(_._1)).toSet
        Plan(ops(pre, Set.empty) ::: Aggregate(kvars, keys, reds) :: ops(post, postBound),
          cols(head))
    }
  }

  /** Plan group-free qualifiers, with `bound0` bound on entry. */
  private def ops(quals: List[Qual], bound0: Set[String]): List[Op] = {
    val consumed = scala.collection.mutable.Set.empty[Int]
    var bound = bound0

    /** Bind a generator's `vars` at `at` and consume its predicates. */
    def conds(at: Int, vars: List[String]): List[CExpr] = {
      bound ++= vars
      quals.zipWithIndex.drop(at + 1).collect {
        case (QPred(e), j) if !consumed(j) && freeVars(e).subsetOf(bound) &&
            vars.exists(freeVars(e)) =>
          consumed += j; e
      }
    }

    quals.iterator.zipWithIndex.filterNot(q => consumed(q._2)).map {
      case (Gen(PVar(v), CRange(lo, hi)), i) => Range(v, lo, hi, conds(i, List(v)))
      case (Gen(p: PTup, CArr(a)), i) =>
        val before = bound
        val (idxVars, valVar) = (p.vars.init, p.vars.last)
        val cs = conds(i, p.vars)
        Scan(a, idxVars, valVar, keysOf(cs, idxVars, before), cs)
      case (Gen(p, src), _) =>
        throw new IllegalArgumentException(s"bad generator ${show(Gen(p, src))}")
      case (QLet(PVar(v), e), _) => bound += v; Let(v, e)
      case (QLet(p, _), _) =>
        throw new IllegalArgumentException(s"unsupported let pattern ${show(p)}")
      case (QPred(e), _) => Filter(e)
      case (QLookup(v, a, ks, d), _) => bound += v; Lookup(v, a, ks, d)
      case (_: QGroup, _) =>
        throw new IllegalArgumentException("multiple group-bys in one comprehension")
    }.toList
  }

  /** Index positions fixed by `idx == e` conds with `e` bound before the
    * scan; the first cond per position wins.
    */
  private def keysOf(conds: List[CExpr], idxVars: List[String],
                     before: Set[String]): List[(Int, CExpr)] =
    conds.foldLeft(List.empty[(Int, CExpr)]) {
      case (ks, CBin("==", l, r)) =>
        def key(x: CExpr, e: CExpr) = x match {
          case CVar(n) if idxVars.contains(n) && freeVars(e).subsetOf(before) &&
              !ks.exists(_._1 == idxVars.indexOf(n)) => Some(idxVars.indexOf(n) -> e)
          case _ => None
        }
        ks ++ key(l, r).orElse(key(r, l))
      case (ks, _) => ks
    }.sortBy(_._1)
}
