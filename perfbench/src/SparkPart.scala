package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import org.apache.spark.sql.SparkSession
import repro.core.Translate.TStmt
import repro.local.LocalBackend.{ArrayD, Data, ScalarD}
import repro.spark.SparkBackend
import repro.spark.SparkBackend.{SArr, SScalar, SValue}
import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import Check.Outputs

/** The state one set-up produces: a SparkSession, generated and converted
  * inputs, and compiled programs.
  */
final class Env(val spark: SparkSession, val counters: Option[SparkCounters],
                val code: Map[String, List[TStmt]],
                val inputs: Map[String, Map[String, SValue]],
                val datagenMs: Double, val inputMs: Double)

/** The Spark JVM: DIABLO on Spark and the hand-written programs. */
final class SparkPart(o: Main.Opts, wl: Workload) extends Part(o, wl) {

  /** Set-ups per run; setup_s is their median. The traced run does not
    * report setup_s and sets up once.
    */
  private val SetupReps = if (o.trace) 1 else 3

  private val cores = Runtime.getRuntime.availableProcessors
  val sparkConf: ListMap[String, String] = ListMap(
    "spark.master" -> s"local[$cores]",
    "spark.sql.shuffle.partitions" -> "8",
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
    "spark.driver.memory" -> sys.props.getOrElse("perfbench.driverHeap", "unknown"),
    "spark.ui.enabled" -> "false",
    "spark.ui.showConsoleProgress" -> "false",
    "spark.driver.host" -> "127.0.0.1",
    "spark.local.dir" -> s"${o.work}/spark-local",
    "spark.sql.warehouse.dir" -> s"${o.work}/spark-warehouse",
  )

  private def startSpark(): SparkSession = {
    val b = SparkSession.builder.appName(s"perfbench-${wl.name}")
    sparkConf.foreach { case (k, v) => if (k == "spark.master") b.master(v) else b.config(k, v) }
    val s = b.getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def stopSpark(env: Env): Unit = {
    env.counters.foreach(_.stop())
    env.spark.catalog.clearCache()
    env.spark.stop()
    SparkSession.clearActiveSession()
    SparkSession.clearDefaultSession()
  }

  private def setup(): Env = {
    val spark = startSpark()
    val counters = if (o.trace) Some(new SparkCounters(spark)) else None
    var t0 = System.nanoTime
    val data = generate()
    val datagenMs = msSince(t0)
    val code = compileAll()
    t0 = System.nanoTime
    val inputs = data.map { case (k, d) => k -> d.map {
      case (n, ScalarD(v)) => n -> (SScalar(v): SValue)
      case (n, a: ArrayD) =>
        val df = SparkBackend.arrayToDF(spark, a).cache()
        df.count()
        n -> (SArr(Some(df), a.keyArity): SValue)
    }}
    new Env(spark, counters, code, inputs, datagenMs, msSince(t0))
  }

  private def sparkOutputs(st: Map[String, SValue], outs: List[String]): Outputs =
    outs.map(n => n -> (st(n) match {
      case SScalar(v)         => v
      case SArr(Some(df), ka) => SparkBackend.dfToArray(df, ka).m
      case SArr(None, _)      => Map.empty[List[Any], Any]
    })).toMap

  /** One checked execution on "spark" or "hand". */
  private def execute(env: Env, p: Prog, b: String, traced: Boolean): Unit = {
    if (traced) env.counters.get.take() // drop counts of earlier, untraced work
    checked(p, b, traced)((b, traced) match {
      case ("spark", false) =>
        sparkOutputs(SparkBackend.run(env.code(p.key), env.inputs(p.key), env.spark), p.spec.outputs)
      case ("spark", true) => tracedSpark(env, p)
      case (_, false)      => p.hand(env.inputs(p.key))
      case (_, true)       =>
        val r = tracer.span("backend", b)(p.hand(env.inputs(p.key)))
        sample((p.key, b), tracer.last.ms)
        tracer.annotateLast(env.counters.get.take().attrs)
        r
    })
  }

  /** Per-statement counts of the first traced execution per program, and of
    * the latest.
    */
  private val firstCounts = mutable.Map.empty[String, List[Counts]]
  private val stmtCounts = mutable.Map.empty[String, List[Counts]]

  /** Thread the state through the program one top-level statement at a
    * time, one span per statement; Spark work is eager per statement
    * (arrays are checkpointed, scalars collected).
    */
  private def tracedSpark(env: Env, p: Prog): Outputs = {
    var st = env.inputs(p.key)
    val counters = env.counters.get
    val perStmt = mutable.ArrayBuffer.empty[Double]
    val counts = mutable.ArrayBuffer.empty[Counts]
    def counted(): Unit = {
      perStmt += tracer.last.ms
      counts += counters.take()
      tracer.annotateLast(counts.last.attrs)
    }
    val out = tracer.span("backend", "spark") {
      env.code(p.key).foreach { s =>
        tracer.span("stmt", show(s)) { st = SparkBackend.run(List(s), st, env.spark) }
        counted()
      }
      val r = tracer.span("collect", "outputs")(sparkOutputs(st, p.spec.outputs))
      counted()
      r
    }
    val cs = counts.toList
    firstCounts.get(p.key) match {
      case None     => firstCounts(p.key) = cs
      case Some(f0) => tally.expect(s"${p.key}/spark counters repeat",
        if (f0 == cs) None else Some(s"first ${f0.map(_.attrs)}, now ${cs.map(_.attrs)}"))
    }
    stmtCounts(p.key) = cs
    recordStmts(p.key, "spark", perStmt)
    out
  }

  private def epochNs(): Long = {
    val i = java.time.Instant.now()
    i.getEpochSecond * 1000000000L + i.getNano
  }

  def run(): Unit = {
    // set-up, SetupReps times; the first is timed from process start
    val setupS, datagenMs, inputMs = mutable.ArrayBuffer.empty[Double]
    var env: Env = null
    for (i <- 0 until SetupReps) {
      if (env != null) stopSpark(env)
      val t0 = System.nanoTime
      env = setup()
      setupS += (if (i == 0) (epochNs() - o.spawnNs) / 1e9 else (System.nanoTime - t0) / 1e9)
      datagenMs += env.datagenMs
      inputMs += env.inputMs
    }

    // warm-up: the references (which warm up "hand"), then each execution once
    val w0 = System.nanoTime
    ref = progs.flatMap(p =>
      tally.guard(s"${p.key}/hand")(p.hand(env.inputs(p.key))).map(p.key -> _)).toMap
    writeRef()
    for (p <- progs) {
      execute(env, p, "spark", traced = false)
      if (o.trace) { execute(env, p, "spark", traced = true); execute(env, p, "hand", traced = true) }
    }
    val warmupS = (System.nanoTime - w0) / 1e9
    times.clear(); stmtTimes.clear(); tracer.spans.clear()

    // the timed region
    val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)
    heapPools.foreach(_.resetPeakUsage())
    val gc0 = gcBeans.map(_.getCollectionTime).sum
    val t0 = System.nanoTime
    val n = tracer.span("workload", wl.name, Map("seed" -> o.seed, "part" -> "spark")) {
      rounds(o.seconds * 1000000000L) { p =>
        execute(env, p, "spark", o.trace)
        execute(env, p, "hand", o.trace)
      }
    }
    val timedS = (System.nanoTime - t0) / 1e9
    val gcMs = (gcBeans.map(_.getCollectionTime).sum - gc0).toDouble
    val heapPeakMb = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
    stopSpark(env)

    val endToEnd = ListMap(
      "spark_ms" -> (geomean(keys.map(med(_, "spark"))), "ms"),
      "spark_vs_hand" -> (geomean(keys.map(k => med(k, "spark") / med(k, "hand"))), "ratio"),
      "setup_s" -> (median(setupS), "s"))
    val perProgram = mutable.LinkedHashMap.empty[String, (Double, String)]
    val perLayer = mutable.LinkedHashMap.empty[String, (Double, String)]
    for (k <- keys) perProgram ++= List(
      s"spark.$k.ms" -> (med(k, "spark"), "ms"),
      s"hand.$k.ms" -> (med(k, "hand"), "ms"))
    if (o.trace) {
      for (k <- keys) {
        val cs = stmtCounts(k).foldLeft(Counts.zero)(_ + _)
        perProgram ++= List(
          s"spark.$k.top_stmt_ms" -> (topStmt(env.code, k, "spark"), "ms"),
          s"spark.$k.joins" -> (cs.joins.size.toDouble, "count"),
          s"spark.$k.exchanges" -> (cs.exchanges.toDouble, "count"),
          s"spark.$k.shuffle_mb" -> (cs.shuffleBytes / 1048576.0, "MB"),
          s"spark.$k.jobs" -> (cs.jobs.toDouble, "count"))
      }
      def total(metric: String) = keys.map(k => perProgram(s"spark.$k.$metric")._1).sum
      perLayer ++= List(
        "spark.ms" -> (geomean(keys.map(med(_, "spark"))), "ms"),
        "spark.top_stmt_ms" -> (geomean(keys.map(topStmt(env.code, _, "spark"))), "ms"),
        "spark.joins" -> (total("joins"), "count"),
        "spark.exchanges" -> (total("exchanges"), "count"),
        "spark.shuffle_mb" -> (total("shuffle_mb"), "MB"),
        "spark.jobs" -> (total("jobs"), "count"),
        "spark.input_ms" -> (median(inputMs), "ms"),
        "spark.rows_out" -> (keys.map(k => rowsOut.getOrElse((k, "spark"), 0L)).sum.toDouble, "count"),
        "hand.ms" -> (geomean(keys.map(med(_, "hand"))), "ms"),
        "programs.datagen_ms" -> (median(datagenMs), "ms"),
        "jvm.gc_ms" -> (gcMs, "ms"),
        "jvm.heap_peak_mb" -> (heapPeakMb, "MB"))
    }
    finish(endToEnd, perLayer, perProgram, ListMap(
      "host" -> ListMap("cores" -> cores, "java" -> sys.props("java.version"),
        "os" -> s"${sys.props("os.name")} ${sys.props("os.arch")}"),
      "spark" -> sparkConf,
      "scales" -> ListMap(progs.map(p => p.key -> p.scale): _*),
      "setup_s" -> setupS, "warmup_s" -> warmupS, "rounds" -> n, "timed_s" -> timedS,
      "spark_statements" -> ListMap(keys.filter(stmtCounts.contains).map { k =>
        k -> env.code(k).zipWithIndex.map { case (s, i) => ListMap(
          "stmt" -> show(s),
          "median_ms" -> median(stmtTimes.getOrElse((k, "spark", i), Nil).toSeq)) ++
          stmtCounts(k)(i).attrs } }: _*)))
  }
}
