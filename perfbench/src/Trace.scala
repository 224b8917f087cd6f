package perfbench

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.exchange.ShuffleExchangeLike
import org.apache.spark.sql.util.QueryExecutionListener
import scala.collection.mutable

/** A span: one timed call into a layer. `parent` is -1 for a root. */
final case class Span(id: Int, parent: Int, kind: String, name: String,
                      startNs: Long, endNs: Long, attrs: Map[String, Any]) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** In-memory span recorder; spans nest by call order and are written out
  * once, when the run ends.
  */
final class Tracer {
  val spans = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var next = 0

  /** Time `body` as a span nested in the innermost open span. */
  def span[A](kind: String, name: String, attrs: Map[String, Any] = Map.empty)(body: => A): A = {
    val id = next
    next += 1
    val parent = stack.headOption.getOrElse(-1)
    stack = id :: stack
    val t0 = System.nanoTime
    try {
      val r = body
      spans += Span(id, parent, kind, name, t0, System.nanoTime, attrs)
      r
    } finally stack = stack.tail
  }

  /** The span that ended last (a span is recorded when it ends). */
  def last: Span = spans.last

  /** Add attributes to the span that ended last. */
  def annotateLast(more: Map[String, Any]): Unit =
    spans(spans.length - 1) = last.copy(attrs = last.attrs ++ more)

  def toJson(runId: String): Map[String, Any] = Map(
    "trace_id" -> runId,
    "spans" -> spans.map { s =>
      collection.immutable.ListMap("id" -> s.id, "parent" -> s.parent, "kind" -> s.kind,
        "name" -> s.name, "start_ns" -> s.startNs, "end_ns" -> s.endNs, "attrs" -> s.attrs)
    })
}

/** Spark work done by one span, read from Spark's listener events. */
final case class Counts(jobs: Long, joins: List[String], exchanges: Long, shuffleBytes: Long) {
  def +(o: Counts) = Counts(jobs + o.jobs, joins ++ o.joins, exchanges + o.exchanges,
    shuffleBytes + o.shuffleBytes)
  def attrs: Map[String, Any] = Map("jobs" -> jobs, "joins" -> joins.size,
    "join_kinds" -> joins, "exchanges" -> exchanges, "shuffle_bytes" -> shuffleBytes)
}
object Counts { val zero = Counts(0, Nil, 0, 0) }

/** Counts jobs and shuffle bytes written (SparkListener), and join operators
  * and shuffle exchanges in each executed physical plan
  * (QueryExecutionListener). Registered only in the traced run.
  *
  * Listener events arrive asynchronously. `take()` therefore runs a marker
  * job and waits until its end event is seen: both listeners sit on Spark's
  * shared event queue, which delivers in posting order, so every event of
  * the work before the marker has been counted by then.
  */
final class SparkCounters(spark: SparkSession) extends SparkListener with QueryExecutionListener {
  private val MarkerKey = "perfbench.marker"
  private var cur = Counts.zero
  private val markerJobs = mutable.Map.empty[Int, Long]
  private val markerStages = mutable.Set.empty[Int]
  @volatile private var markerSeen = -1L
  private var markers = 0L

  spark.sparkContext.addSparkListener(this)
  spark.listenerManager.register(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(MarkerKey))) match {
      case Some(m) => markerJobs(e.jobId) = m.toLong; markerStages ++= e.stageIds
      case None    => cur = cur.copy(jobs = cur.jobs + 1)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    markerJobs.remove(e.jobId).foreach(m => markerSeen = m)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (!markerStages(e.stageId) && e.taskMetrics != null)
      cur = cur.copy(shuffleBytes = cur.shuffleBytes + e.taskMetrics.shuffleWriteMetrics.bytesWritten)
  }

  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = synchronized {
    val nodes = SparkCounters.planNodes(qe.executedPlan)
    val joins = nodes.map(_.getClass.getSimpleName)
      .filter(n => n.endsWith("JoinExec") || n == "CartesianProductExec")
    val exchanges = nodes.count(_.isInstanceOf[ShuffleExchangeLike])
    cur = cur.copy(joins = cur.joins ++ joins, exchanges = cur.exchanges + exchanges)
  }

  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()

  /** Counts since the previous `take()`. */
  def take(): Counts = {
    markers += 1
    val sc = spark.sparkContext
    sc.setLocalProperty(MarkerKey, markers.toString)
    try sc.parallelize(Seq(0), 1).count()
    finally sc.setLocalProperty(MarkerKey, null)
    val deadline = System.nanoTime + 30_000_000_000L
    while (markerSeen < markers) {
      if (System.nanoTime > deadline)
        throw new IllegalStateException("Spark listener events did not arrive in 30 s")
      Thread.sleep(1)
    }
    synchronized { val c = cur; cur = Counts.zero; c }
  }

  def stop(): Unit = {
    spark.listenerManager.unregister(this)
    spark.sparkContext.removeSparkListener(this)
  }
}

object SparkCounters {
  /** Nodes of an executed plan, looking through adaptive-execution
    * wrappers into the final plan.
    */
  def planNodes(p: SparkPlan): Seq[SparkPlan] = p match {
    case a: AdaptiveSparkPlanExec => planNodes(a.executedPlan)
    case s: QueryStageExec        => planNodes(s.plan)
    case other => other +: (other.children ++ other.subqueries).flatMap(planNodes)
  }
}
