package repro.core

import Comprehension._
import Translate._

/** Comprehension optimizations (paper §3.6 and §4):
  *
  *  - *Range elimination* (§3.6): a join between `i ← range(lo,hi)` and an
  *    array traversal with condition `I = i` becomes a traversal with an
  *    `inRange` filter, avoiding the join against the index range.
  *  - *Same-key generator merging*: two pre-group generators over the same
  *    array whose index variables are pairwise equal read the same entry,
  *    because an array holds one value per key (the argument rule 17 makes
  *    for group keys); the later one is dropped and its variables renamed to
  *    the earlier one's. Each array read `A[e]` gets its own generator under
  *    rule (11c), so KMeans' distance term reads `P[i]` and `C[j]` four
  *    times each; after merging it is one points × centroids join.
  *  - *Rule 16*: a group-by with a constant key forms one group; it is
  *    replaced by a global aggregation (empty-key group-by) plus
  *    let-bindings for the key variables.
  *  - *Rule 17*: a group-by whose key is unique (covers the index variables
  *    of all generators, so every group is a singleton) is removed; each
  *    reduction ⊕/e degenerates to e.
  *  - A final *reorder* pass moves predicates and let-bindings to the
  *    earliest point where their variables are bound, so backends can
  *    evaluate qualifiers strictly left-to-right.
  *  - *Aggregation fusion*, over statements after the per-comprehension
  *    rules: adjacent scalar global aggregates over identical qualifiers
  *    become one assignment with one head column per target
  *    (`fuseAggregates`).
  */
object Optimize {

  def optimize(ts: List[TStmt]): List[TStmt] = fuseAggregates(optimizeComps(ts))

  private def optimizeComps(ts: List[TStmt]): List[TStmt] = ts.map {
    case TAssign(ns, c, a) => TAssign(ns, optimizeComp(c), a)
    case TWhileS(c, b)     => TWhileS(optimizeComp(c), optimizeComps(b))
    case other             => other
  }

  def optimizeComp(c: Comp): Comp = {
    var cur = c
    cur = eliminateRanges(cur)
    cur = mergeSameKeyGens(cur)
    cur = constantKeyGroup(cur)
    cur = uniqueKeyGroup(cur)
    cur = Comp(cur.head, reorder(cur.quals))
    cur
  }

  // --------------------------------------------------- aggregation fusion

  /** Fuse each run of adjacent one-target scalar assignments whose
    * comprehensions end in `group by ()` over identical qualifiers, where
    * no member reads (`CState`) or rewrites the target of an earlier
    * member, into one assignment `(s1, ..., sk) := { (h1, ..., hk) | quals }`.
    * Rule (15h) and Theorem 3.1 split one loop body into one comprehension
    * per accumulator; fusing them back is sound because every member then
    * reads only state from before the run, whichever order runs it, and a
    * backend computes all the reductions in one pass. Applied inside while
    * bodies too.
    */
  def fuseAggregates(ts: List[TStmt]): List[TStmt] = {
    val out = scala.collection.mutable.ListBuffer.empty[TStmt]
    var run = List.empty[TAssign] // reversed
    def flush(): Unit = {
      run.reverse match {
        case Nil     => ()
        case List(t) => out += t
        case members =>
          out += TAssign(members.flatMap(_.targets),
            Comp(CTup(members.map(_.comp.head)), members.head.comp.quals), isArray = false)
      }
      run = Nil
    }
    ts.foreach {
      case t @ TAssign(List(n), c, false) if c.quals.lastOption.contains(QGroup(Nil, Nil)) =>
        val earlier = run.flatMap(_.targets).toSet
        if (!run.headOption.exists(_.comp.quals == c.quals) ||
            (stateReads(c) + n).exists(earlier)) flush()
        run = t :: run
      case TWhileS(c, b) => flush(); out += TWhileS(c, fuseAggregates(b))
      case other         => flush(); out += other
    }
    flush()
    out.toList
  }

  /** The scalar state variables a comprehension reads. */
  private def stateReads(c: Comp): Set[String] = {
    val seen = scala.collection.mutable.Set.empty[String]
    val exprs = c.head :: c.quals.flatMap {
      case Gen(_, src)   => List(src)
      case QLet(_, e)    => List(e)
      case QPred(e)      => List(e)
      case QGroup(_, ks) => ks
      case _: QLookup    => Nil
    }
    exprs.foreach(mapExpr(_) { case CState(n) => seen += n; None; case _ => None })
    seen.toSet
  }

  // ------------------------------------------------- §3.6 range elimination

  /** Find `i ← range(lo,hi)` plus a later array generator with a predicate
    * `I == i` (I an index variable of that generator); drop the range and the
    * predicate, bind `i` from the traversal, and filter with inRange.
    * Applied to a fixpoint so nested loops eliminate all their ranges.
    */
  private def eliminateRanges(c: Comp): Comp = {
    // one elimination step: (rangeIdx, predIdx, genIdx, loopVar, lo, hi, indexVar)
    def step(quals: List[Qual]): Option[List[Qual]] = {
      val cand = (for {
        (Gen(PVar(i), CRange(lo, hi)), ri) <- quals.zipWithIndex.iterator
        if freeVars(lo).isEmpty && freeVars(hi).isEmpty
        (Gen(p: PTup, CArr(_)), gi) <- quals.zipWithIndex.iterator
        idxVars = p.vars.dropRight(1).toSet
        (QPred(CBin("==", CVar(a), CVar(b))), pi) <- quals.zipWithIndex.iterator
        iv <- if (idxVars(a) && b == i) Some(a)
              else if (idxVars(b) && a == i) Some(b)
              else None
      } yield (ri, pi, gi, i, lo, hi, iv)).nextOption()
      cand.map { case (ri, pi, gi, i, lo, hi, iv) =>
        val without = quals.indices.filter(ix => ix != ri && ix != pi).map(quals)
        val genPos  = gi - (if (ri < gi) 1 else 0) - (if (pi < gi) 1 else 0)
        val inserted = List[Qual](
          QLet(PVar(i), CVar(iv)),
          QPred(CBin("<=", lo, CVar(i))),
          QPred(CBin("<=", CVar(i), hi)))
        (without.take(genPos + 1) ++ inserted ++ without.drop(genPos + 1)).toList
      }
    }
    var quals = c.quals
    var next  = step(quals)
    while (next.isDefined) { quals = next.get; next = step(quals) }
    Comp(c.head, quals)
  }

  // ------------------------------------------- same-key generator merging

  /** Merge two pre-group generators over the same array whose index
    * variables are pairwise in one equality class: drop the later one,
    * rename its variables to the earlier one's, and drop the predicates the
    * renaming makes trivial (`a == a`), repeated, or implied by a
    * `let a = b`. Applied to a fixpoint.
    */
  private def mergeSameKeyGens(c: Comp): Comp = {
    val pre = c.quals.takeWhile(!_.isInstanceOf[QGroup])
    val uf = equalities(pre)
    val gens = pre.zipWithIndex.collect { case (Gen(p: PTup, CArr(a)), i) => (a, p.vars, i) }
    val merge = (for {
      (a, early, i) <- gens.iterator
      (b, late, j)  <- gens.iterator
      if a == b && i < j &&
        early.init.zip(late.init).forall { case (x, y) => uf.find(x) == uf.find(y) }
    } yield (j, late.zip(early).toMap)).nextOption()
    merge match {
      case None => c
      case Some((j, ren)) =>
        val rename = (e: CExpr) => mapExpr(e) {
          case CVar(v) => Some(CVar(ren.getOrElse(v, v)))
          case _       => None
        }
        val quals = c.quals.patch(j, Nil, 1).map {
          case Gen(p, src)    => Gen(p, rename(src))
          case QLet(p, e)     => QLet(p, rename(e))
          case QPred(e)       => QPred(rename(e))
          case QGroup(kv, ks) => QGroup(kv, ks.map(rename))
          case l: QLookup     => l
        }
        val lets = quals.collect { case QLet(PVar(a), CVar(b)) => Set(a, b) }.toSet
        val seen = scala.collection.mutable.Set.empty[Set[CExpr]]
        val kept = quals.filter {
          case QPred(CBin("==", CVar(a), CVar(b))) if a == b || lets(Set(a, b)) => false
          case QPred(CBin("==", l, r)) => seen.add(Set(l, r))
          case _                       => true
        }
        mergeSameKeyGens(Comp(rename(c.head), kept))
    }
  }

  /** Equivalence classes of variables linked by `a == b` and `let a = b`. */
  private def equalities(quals: List[Qual]): UnionFind = {
    val uf = new UnionFind
    quals.foreach {
      case QPred(CBin("==", CVar(a), CVar(b))) => uf.union(a, b)
      case QLet(PVar(a), CVar(b))              => uf.union(a, b)
      case _                                   => ()
    }
    uf
  }

  // ------------------------------------------------------------- rule 16

  /** Group-by with a constant key (no free variables): a single group.
    * Becomes a unit group-by plus let-bindings for the key variables.
    */
  private def constantKeyGroup(c: Comp): Comp =
    splitAtGroup(c.quals) match {
      case Some((pre, QGroup(kvars, keys), post))
          if kvars.nonEmpty && keys.forall(k => freeVars(k).isEmpty) =>
        val lets = kvars.zip(keys).map { case (v, k) => QLet(PVar(v), k) }
        Comp(c.head, pre ::: (QGroup(Nil, Nil) :: lets) ::: post)
      case _ => c
    }

  // ------------------------------------------------------------- rule 17

  /** Group-by over a unique key: every generator's index variables are
    * (transitively, via equality predicates and let-bindings) determined by
    * the key variables, so each group is a singleton. The group-by is
    * removed and every reduction ⊕/e degenerates to e.
    */
  private def uniqueKeyGroup(c: Comp): Comp =
    splitAtGroup(c.quals) match {
      case Some((pre, QGroup(kvars, keys), post)) if kvars.nonEmpty =>
        val uf = equalities(pre)
        val keyVars: Set[String] =
          keys.collect { case CVar(v) => uf.find(v) }.toSet
        val allKeysAreVars = keys.forall(_.isInstanceOf[CVar])
        def determined(v: String) = keyVars.contains(uf.find(v))
        val unique = allKeysAreVars && pre.forall {
          case Gen(PVar(v), CRange(_, _)) => determined(v)
          case Gen(p: PTup, CArr(_))      => p.vars.dropRight(1).forall(determined)
          case _                          => true
        }
        if (!unique) c
        else {
          val lets = kvars.zip(keys).map { case (v, k) => QLet(PVar(v), k) }
          val dropReduce = (e: CExpr) => mapExpr(e) {
            case CReduce(_, b) => Some(b)
            case _             => None
          }
          val post2 = post.map {
            case QLet(p, e) => QLet(p, dropReduce(e))
            case QPred(e)   => QPred(dropReduce(e))
            case other      => other
          }
          Comp(dropReduce(c.head), pre ::: lets ::: post2)
        }
      case _ => c
    }

  /** Bottom-up rewrite: f returns Some(replacement) to substitute a node
    * (children of replaced nodes are not revisited).
    */
  private def mapExpr(e: CExpr)(f: CExpr => Option[CExpr]): CExpr =
    f(e).getOrElse(e match {
      case CBin(op, l, r)    => CBin(op, mapExpr(l)(f), mapExpr(r)(f))
      case CUn(op, b)        => CUn(op, mapExpr(b)(f))
      case CField(b, fl)     => CField(mapExpr(b)(f), fl)
      case CTup(es)          => CTup(es.map(mapExpr(_)(f)))
      case CCall(g, as)      => CCall(g, as.map(mapExpr(_)(f)))
      case CIf(c, t, fe)     => CIf(mapExpr(c)(f), mapExpr(t)(f), mapExpr(fe)(f))
      case CReduce(m, b)     => CReduce(m, mapExpr(b)(f))
      case CCombine(m, l, r) => CCombine(m, mapExpr(l)(f), mapExpr(r)(f))
      case CRange(l, h)      => CRange(mapExpr(l)(f), mapExpr(h)(f))
      case other             => other
    })

  private final class UnionFind {
    private val parent = scala.collection.mutable.Map.empty[String, String]
    def find(x: String): String = {
      val p = parent.getOrElse(x, x)
      if (p == x) x else { val r = find(p); parent(x) = r; r }
    }
    def union(a: String, b: String): Unit = {
      val (ra, rb) = (find(a), find(b))
      if (ra != rb) parent(ra) = rb
    }
  }

  // ------------------------------------------------------------- reorder

  /** Move predicates and let-bindings to the earliest position where their
    * free variables are bound; binding qualifiers (generators, group-bys,
    * lookups) keep their relative order. Backends can then evaluate
    * qualifiers strictly left-to-right.
    */
  def reorder(quals: List[Qual]): List[Qual] = {
    val floating = scala.collection.mutable.ArrayBuffer.empty[Qual]
    val out      = scala.collection.mutable.ArrayBuffer.empty[Qual]
    var bound    = Set.empty[String]

    def ready(q: Qual): Boolean = q match {
      case QPred(e)    => freeVars(e).subsetOf(bound)
      case QLet(_, e)  => freeVars(e).subsetOf(bound)
      case _           => true
    }
    def flush(): Unit = {
      var progress = true
      while (progress) {
        progress = false
        val i = floating.indexWhere(ready)
        if (i >= 0) {
          val q = floating.remove(i)
          out += q
          bound ++= boundVars(q)
          progress = true
        }
      }
    }

    for (q <- quals) q match {
      case _: QPred | _: QLet =>
        if (ready(q)) { out += q; bound ++= boundVars(q) }
        else floating += q
      case binding =>
        out += binding
        bound ++= boundVars(binding)
        flush()
    }
    flush()
    require(floating.isEmpty,
      s"unbound qualifiers: ${floating.map(Comprehension.show).mkString("; ")}")
    out.toList
  }
}
