package perfbench

import java.io.{FileInputStream, FileOutputStream, ObjectInputStream, ObjectOutputStream}
import java.nio.file.{Files, Path, Paths}
import repro.core.Diablo
import repro.core.Translate
import repro.core.Translate.TStmt
import repro.local.LocalBackend.{ArrayD, Data, ScalarD}
import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.util.Using
import Check.Outputs

/** The benchmark's two JVMs; perfbench/run.py starts them one after the
  * other and merges their result files. See perfbench/README.md.
  *
  *  - part `spark` sets up Spark and times DIABLO on Spark and the
  *    hand-written programs; it writes the hand-written outputs, which are
  *    the reference for both parts;
  *  - part `core` starts no Spark and times the local backends and
  *    Diablo.compile, so that Spark's use of shared library code does not
  *    shape how the JIT compiles them.
  *
  * usage: Main --part spark|core --workload agg|join --seed N --seconds S
  *             --trace 0|1 --work DIR --spawn-ns EPOCH_NS
  */
object Main {

  final case class Opts(part: String, workload: String, seed: Long, seconds: Int,
                        trace: Boolean, work: String, spawnNs: Long) {
    def runId: String = s"$workload-seed$seed-trace${if (trace) 1 else 0}"
    def outDir: Path = Paths.get(work, "perfbench")
    def refFile: Path = outDir.resolve(s"$runId.ref.bin")
  }

  private def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("part"), need("workload"), need("seed").toLong, need("seconds").toInt,
      need("trace") == "1", need("work"), need("spawn-ns").toLong)
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val wl = Workloads.byName(o.workload).getOrElse {
      System.err.println(s"unknown workload ${o.workload}; known: ${Workloads.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    Files.createDirectories(o.outDir)
    o.part match {
      case "spark" => new SparkPart(o, wl).run()
      case "core"  => new CorePart(o, wl).run()
      case other   => System.err.println(s"unknown part $other"); sys.exit(2)
    }
    sys.exit(0)
  }
}

/** What both parts share: checked executions, samples, statistics, and the
  * part's result and span files.
  */
abstract class Part(val o: Main.Opts, val wl: Workload) {

  protected val tally = new Tally
  protected val tracer = new Tracer
  protected def progs: List[Prog] = wl.progs
  protected def keys: List[String] = progs.map(_.key)

  /** Time samples in ms per (program, backend). */
  protected val times = mutable.Map.empty[(String, String), mutable.ArrayBuffer[Double]]
  protected def sample(key: (String, String), v: Double): Unit =
    times.getOrElseUpdate(key, mutable.ArrayBuffer.empty) += v

  /** Traced times of each statement per (program, backend, statement index). */
  protected val stmtTimes = mutable.Map.empty[(String, String, Int), mutable.ArrayBuffer[Double]]
  protected def recordStmts(key: String, b: String, perStmt: collection.Seq[Double]): Unit = {
    sample((key, b), perStmt.sum)
    perStmt.zipWithIndex.foreach { case (ms, i) =>
      stmtTimes.getOrElseUpdate((key, b, i), mutable.ArrayBuffer.empty) += ms }
  }

  protected val rowsOut = mutable.Map.empty[(String, String), Long]

  protected def msSince(t0: Long): Double = (System.nanoTime - t0) / 1e6

  protected def median(xs: collection.Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }
  protected def geomean(xs: Iterable[Double]): Double =
    if (xs.isEmpty) Double.NaN else math.exp(xs.map(math.log).sum / xs.size)
  protected def med(key: String, b: String): Double = median(times.getOrElse((key, b), Nil).toSeq)
  protected def topStmt(code: Map[String, List[TStmt]], k: String, b: String): Double =
    code(k).indices.map(i => median(stmtTimes.getOrElse((k, b, i), Nil).toSeq)).max

  protected def generate(): Map[String, Map[String, Data]] =
    progs.map(p => p.key -> p.spec.data(p.scale, o.seed)).toMap
  protected def compileAll(): Map[String, List[TStmt]] =
    progs.map(p => p.key -> Diablo.compile(p.spec.source, p.spec.sigs)).toMap

  protected def localOutputs(st: Map[String, Data], outs: List[String]): Outputs =
    outs.map(n => n -> (st(n) match {
      case ScalarD(v)   => v
      case ArrayD(m, _) => m
    })).toMap

  // ---------------------------------------------------------- references

  /** Hand-written outputs: the reference every execution is checked against. */
  protected var ref = Map.empty[String, Outputs]

  protected def writeRef(): Unit =
    Using.resource(new ObjectOutputStream(new FileOutputStream(o.refFile.toFile)))(_.writeObject(ref))

  protected def readRef(): Unit =
    if (Files.exists(o.refFile))
      ref = Using.resource(new ObjectInputStream(new FileInputStream(o.refFile.toFile)))(
        _.readObject().asInstanceOf[Map[String, Outputs]])

  /** Whole-program outputs per (program, backend) of the last untraced
    * execution; the traced, statement-at-a-time execution must match them.
    */
  private val whole = mutable.Map.empty[(String, String), Outputs]

  /** Run one execution of `p` on backend `b`, check its outputs, and record
    * its time (untraced; traced executions record their own).
    */
  protected def checked(p: Prog, b: String, traced: Boolean)(body: => Outputs): Unit = {
    val what = s"${p.key}/$b${if (traced) "/traced" else ""}"
    val t0 = System.nanoTime
    val got = tally.guard(what)(body)
    val ms = msSince(t0)
    got.foreach { out =>
      tally.expect(s"$what vs hand-written", ref.get(p.key) match {
        case Some(r) => Check.diffOutputs(r, out)
        case None    => Some("no reference (hand-written run failed)")
      })
      if (!traced) whole((p.key, b)) = out
      else if (b != "hand")
        tally.expect(s"$what vs whole-program run", whole.get((p.key, b)) match {
          case Some(w) => Check.diffOutputs(w, out)
          case None    => Some("no whole-program run")
        })
      rowsOut((p.key, b)) = Check.rows(out)
      if (!traced) sample((p.key, b), ms)
    }
  }

  /** Rounds over the programs while less than `ns` have passed; one program
    * span per program when traced. Returns the number of rounds.
    */
  protected def rounds(ns: Long)(perProgram: Prog => Unit): Int = {
    val start = System.nanoTime
    var n = 0
    while (System.nanoTime - start < ns) {
      for (p <- progs)
        if (o.trace) tracer.span("program", p.key)(perProgram(p)) else perProgram(p)
      n += 1
    }
    n
  }

  // -------------------------------------------------------------- output

  type Metrics = collection.Map[String, (Double, String)]

  private def asJson(m: Metrics) = m.map { case (n, (v, u)) => n -> ListMap("value" -> v, "unit" -> u) }

  /** Write this part's results (and spans) and print them readably. */
  protected def finish(endToEnd: Metrics, perLayer: Metrics, perProgram: Metrics,
                       extra: ListMap[String, Any]): Unit = {
    val part = o.part
    val results = ListMap(
      "part" -> part, "workload" -> wl.name, "seed" -> o.seed, "seconds" -> o.seconds,
      "trace" -> o.trace, "attempted" -> tally.attempted, "failed" -> tally.failed,
      "failures" -> tally.failures.map { case (w, (why, n)) => ListMap("what" -> w, "first" -> why, "count" -> n) },
      "end_to_end" -> asJson(endToEnd), "per_layer" -> asJson(perLayer),
      "per_program" -> asJson(perProgram),
      "samples_ms" -> ListMap(times.toSeq.sortBy(_._1).map { case ((k, b), xs) => s"$k/$b" -> xs }: _*)) ++ extra
    Files.writeString(o.outDir.resolve(s"${o.runId}.$part.json"), Json.write(results))
    if (o.trace)
      Files.writeString(o.outDir.resolve(s"${o.runId}.$part.spans.json"), Json.write(tracer.toJson(part)))
    println(s"perfbench $part workload=${wl.name} seed=${o.seed} trace=${o.trace} " +
      s"attempted=${tally.attempted} failed=${tally.failed}")
    for ((w, (why, n)) <- tally.failures) println(s"FAILED $w (x$n): $why")
    for ((n, (v, u)) <- perProgram ++ (if (o.trace) perLayer else endToEnd))
      println(f"  $n%-28s $v%14.4f $u")
  }

  def show(s: TStmt): String = Translate.showStmt(s)
}

object Part {
  /** How far the traced compile phases may add up from Diablo.compile. */
  val CompileBound = 0.2
}
