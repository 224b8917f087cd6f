package perfbench

import repro.core.{Analysis, Diablo, Optimize, Parser, Translate}
import repro.core.Comprehension._
import repro.core.Translate.{TAssign, TInit, TStmt, TWhileS}
import repro.local.LocalBackend
import repro.local.LocalBackend.Data
import scala.collection.immutable.ListMap
import scala.collection.mutable
import Check.Outputs

/** The JVM without Spark: the local backends and the compiler. */
final class CorePart(o: Main.Opts, wl: Workload) extends Part(o, wl) {

  /** The compile phase: warm-up time (the JIT takes seconds to settle on
    * the compiler's code), then measuring time (untraced) or passes over
    * the compile set (traced, which bounds the span count). Local rounds: a
    * fixed time, as local executions cost little next to Spark's.
    */
  private val CompileWarmupNs = 2000000000L
  private val CompileMeasureNs = 1000000000L
  private val LocalNs = 1500000000L
  private val TracedCompilePasses = 50

  private val data: Map[String, Map[String, Data]] = generate()
  private val code: Map[String, List[TStmt]] = compileAll()

  private def execute(p: Prog, par: Boolean, traced: Boolean): Unit =
    checked(p, if (par) "par" else "seq", traced) {
      if (!traced) localOutputs(LocalBackend.run(code(p.key), data(p.key), par), p.spec.outputs)
      else tracedLocal(p, par)
    }

  /** Thread the state through the program one top-level statement at a
    * time, one span per statement.
    */
  private def tracedLocal(p: Prog, par: Boolean): Outputs = {
    var st = data(p.key)
    val perStmt = mutable.ArrayBuffer.empty[Double]
    tracer.span("backend", if (par) "par" else "seq") {
      code(p.key).foreach { s =>
        tracer.span("stmt", show(s)) { st = LocalBackend.run(List(s), st, par) }
        perStmt += tracer.last.ms
      }
    }
    recordStmts(p.key, if (par) "par" else "seq", perStmt)
    localOutputs(st, p.spec.outputs)
  }

  // ------------------------------------------------------------ compile

  private val compileUs = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
  private val phaseUs = mutable.Map.empty[(String, String), mutable.ArrayBuffer[Double]]
  private val coreCounts = mutable.LinkedHashMap.empty[String, ListMap[String, Long]]

  private def comps(ts: List[TStmt]): List[Comp] = ts.flatMap {
    case TAssign(_, c, _) => List(c)
    case TWhileS(c, b)    => c :: comps(b)
    case _: TInit         => Nil
  }
  private def stmtCount(ts: List[TStmt]): Long = ts.map {
    case TWhileS(_, b) => 1 + stmtCount(b)
    case _             => 1L
  }.sum
  private def quals(ts: List[TStmt]): List[Qual] = comps(ts).flatMap(_.quals)

  /** Counts the optimizer's work on one program. */
  private def counts(translated: List[TStmt], optimized: List[TStmt]): ListMap[String, Long] = {
    def ranges(ts: List[TStmt]) = quals(ts).count { case Gen(_, _: CRange) => true; case _ => false }
    def groups(ts: List[TStmt]) = quals(ts).count { case QGroup(kv, _) => kv.nonEmpty; case _ => false }
    val out = quals(optimized)
    ListMap(
      "core.tstmts" -> stmtCount(translated),
      "core.quals_out" -> out.size.toLong,
      "core.arr_gens_out" -> out.count { case Gen(_, _: CArr) => true; case _ => false }.toLong,
      "core.lookups_out" -> out.count(_.isInstanceOf[QLookup]).toLong,
      "core.ranges_removed" -> (ranges(translated) - ranges(optimized)).toLong,
      "core.groups_removed" -> (groups(translated) - groups(optimized)).toLong)
  }

  /** `reps` passes over the compile set calling Diablo.compile, each
    * followed, when traced, by a pass calling the four phases one by one.
    */
  private def compileRound(reps: Int): Unit =
    for (_ <- 0 until reps) {
      wl.compileSet.foreach(compileOnce)
      if (o.trace) wl.compileSet.foreach(compilePhases)
    }

  /** One Diablo.compile call, timed, with its verdict checked. */
  private def compileOnce(c: CompileCase): Unit = {
    val t0 = System.nanoTime
    val verdict = tally.guard(s"${c.key}/compile") {
      try { Diablo.compile(c.source, c.sigs); true }
      catch { case _: Diablo.RestrictionError => false }
    }
    val us = (System.nanoTime - t0) / 1e3
    verdict.foreach { v =>
      tally.expect(s"${c.key}/compile verdict",
        if (v == c.accept) None else Some(s"accepted=$v, expected ${c.accept}"))
      compileUs.getOrElseUpdate(c.key, mutable.ArrayBuffer.empty) += us
    }
  }

  /** The four phases of Diablo.compile called one by one, each in a span. */
  private def compilePhases(c: CompileCase): Unit =
    tally.guard(s"${c.key}/compile phases") {
      tracer.span("compile", c.key) {
        def phase[A](name: String)(body: => A): A = {
          val r = tracer.span("phase", name)(body)
          phaseUs.getOrElseUpdate((c.key, name), mutable.ArrayBuffer.empty) += tracer.last.ms * 1e3
          r
        }
        val ast = phase("parse")(Parser.parse(c.source))
        // the check phase ends as Diablo.compile does: a reject raises
        val accepted = phase("check") {
          val errs = Analysis.check(ast)
          try { if (errs.nonEmpty) throw Diablo.RestrictionError(errs); true }
          catch { case _: Diablo.RestrictionError => false }
        }
        if (accepted) {
          val t = phase("translate")(Translate.translate(ast, c.sigs))
          val n = counts(t, phase("optimize")(Optimize.optimize(t)))
          coreCounts.get(c.key) match {
            case None     => coreCounts(c.key) = n
            case Some(n0) => tally.expect(s"${c.key}/core counts repeat",
              if (n0 == n) None else Some(s"first $n0, now $n"))
          }
        }
      }
    }

  private def timeBox(ns: Long)(body: => Unit): Unit = {
    val t0 = System.nanoTime
    while (System.nanoTime - t0 < ns) body
  }

  def run(): Unit = {
    readRef()
    // The compiler goes first, so that the local backend, which uses the
    // same library code differently, does not shape how the JIT compiles it.
    timeBox(CompileWarmupNs)(compileRound(10))
    compileUs.clear(); phaseUs.clear(); tracer.spans.clear()
    def root[A](body: => A): A =
      tracer.span("workload", wl.name, Map("seed" -> o.seed, "part" -> "core"))(body)
    root {
      if (o.trace) compileRound(TracedCompilePasses)
      else timeBox(CompileMeasureNs)(compileRound(10))
    }
    val compileSpans = tracer.spans.toList

    // local warm-up: each execution once, untraced first (the traced run
    // checks its statement split against it)
    for (p <- progs; par <- List(false, true)) {
      execute(p, par, traced = false)
      if (o.trace) execute(p, par, traced = true)
    }
    times.clear(); tracer.spans.clear()
    val n = root {
      rounds(LocalNs) { p =>
        execute(p, par = false, o.trace)
        execute(p, par = true, o.trace)
      }
    }
    tracer.spans.prependAll(compileSpans)

    val caseUs = wl.compileSet.map(c => c.key -> median(compileUs.getOrElse(c.key, Nil).toSeq))
    val endToEnd = ListMap(
      "local_seq_ms" -> (geomean(keys.map(med(_, "seq"))), "ms"),
      "local_par_ms" -> (geomean(keys.map(med(_, "par"))), "ms"),
      "compile_us" -> (geomean(caseUs.map(_._2)), "us"))
    val perProgram = mutable.LinkedHashMap.empty[String, (Double, String)]
    val perLayer = mutable.LinkedHashMap.empty[String, (Double, String)]
    for (k <- keys) perProgram ++= List(
      s"local.$k.seq_ms" -> (med(k, "seq"), "ms"),
      s"local.$k.par_ms" -> (med(k, "par"), "ms"))
    if (o.trace) {
      val phases = List("parse", "check", "translate", "optimize")
      def phaseSum(ph: String) = wl.compileSet
        .map(c => median(phaseUs.getOrElse((c.key, ph), Nil).toSeq)).filterNot(_.isNaN).sum
      phases.foreach(ph => perLayer(s"core.${ph}_us") = (phaseSum(ph), "us"))
      perLayer("core.compile_us") = endToEnd("compile_us")
      // the phases called one by one must add up to Diablo.compile
      val compileSum = caseUs.map(_._2).sum
      val phaseTotal = phases.map(phaseSum).sum
      tally.expect("compile phases sum to Diablo.compile",
        if (math.abs(phaseTotal - compileSum) <= Part.CompileBound * compileSum) None
        else Some(f"phases $phaseTotal%.1f us vs Diablo.compile $compileSum%.1f us"))
      for (name <- coreCounts.values.head.keys)
        perLayer(name) = (coreCounts.values.map(_(name)).sum.toDouble, "count")
      perLayer ++= List(
        "local.seq_ms" -> (geomean(keys.map(med(_, "seq"))), "ms"),
        "local.par_ms" -> (geomean(keys.map(med(_, "par"))), "ms"),
        "local.rows_out" -> (keys.map(k => rowsOut.getOrElse((k, "seq"), 0L)).sum.toDouble, "count"))
    }
    finish(endToEnd, perLayer, perProgram, ListMap(
      "local_rounds" -> n,
      "compile_us" -> ListMap(caseUs.map { case (k, us) =>
        k -> ListMap("median" -> us, "samples" -> compileUs.get(k).map(_.size).getOrElse(0)) }: _*),
      "core_counts" -> coreCounts))
  }
}
