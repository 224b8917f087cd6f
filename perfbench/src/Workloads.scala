package perfbench

import org.apache.spark.sql.DataFrame
import repro.core.Translate.Sig
import repro.handwritten.HandWritten
import repro.local.LocalBackend.Rec
import repro.programs.Benchmarks
import repro.programs.Benchmarks.ProgramSpec
import repro.spark.SparkBackend
import repro.spark.SparkBackend.{SArr, SScalar, SValue}
import Check.Outputs

/** One executed program: its source spec, the scale shared by its four
  * executions (local seq, local par, DIABLO Spark, hand-written Spark), and
  * the hand-written counterpart, which returns canonical outputs under the
  * DIABLO program's output names. Its result is the reference.
  */
final case class Prog(key: String, spec: ProgramSpec, scale: Int,
                      hand: Map[String, SValue] => Outputs)

/** One input of the compile set: a program that must be accepted, or a
  * reject example that must raise `RestrictionError`.
  */
final case class CompileCase(key: String, source: String, sigs: Map[String, Sig],
                             accept: Boolean)

final case class Workload(name: String, progs: List[Prog], compileSet: List[CompileCase])

object Workloads {

  private def df(st: Map[String, SValue], n: String): DataFrame = st(n) match {
    case SArr(Some(d), _) => d
    case other            => throw new IllegalArgumentException(s"$n is not an input array: $other")
  }
  private def scalar(st: Map[String, SValue], n: String): Any = st(n) match {
    case SScalar(v) => v
    case other      => throw new IllegalArgumentException(s"$n is not a scalar: $other")
  }
  private def entries(d: DataFrame, keyArity: Int): Map[List[Any], Any] =
    SparkBackend.dfToArray(d, keyArity).m

  /** Scales: Harness.figure3Scales cut so that each execution takes tens to
    * hundreds of milliseconds on Spark, which leaves room for repeated
    * samples in one run. KMeans and Matrix Factorization keep the cross
    * join and the dense intermediates that make their DIABLO/hand gaps.
    */
  val agg: List[Prog] = List(
    Prog("cond_sum", Benchmarks.conditionalSum, 20000,
      st => Map("sum" -> HandWritten.conditionalSum(df(st, "V")))),
    Prog("equal", Benchmarks.equal, 10000,
      st => Map("eq" -> HandWritten.equal(df(st, "W"), scalar(st, "w0").asInstanceOf[String]))),
    Prog("string_match", Benchmarks.stringMatch, 10000, { st =>
      val (f1, f2, f3) = HandWritten.stringMatch(df(st, "W"))
      Map("f1" -> f1, "f2" -> f2, "f3" -> f3)
    }),
    Prog("word_count", Benchmarks.wordCount, 10000,
      st => Map("C" -> entries(HandWritten.wordCount(df(st, "W")), 1))),
    Prog("histogram", Benchmarks.histogram, 7500, { st =>
      val p = df(st, "P")
      Map("R" -> entries(HandWritten.histogram(p, "red"), 1),
          "G" -> entries(HandWritten.histogram(p, "green"), 1),
          "B" -> entries(HandWritten.histogram(p, "blue"), 1))
    }),
    Prog("lin_reg", Benchmarks.linearRegression, 10000, { st =>
      val (slope, intercept) = HandWritten.linearRegression(df(st, "P"))
      Map("slope" -> slope, "intercept" -> intercept)
    }),
    Prog("group_by", Benchmarks.groupBy, 10000,
      st => Map("C" -> entries(HandWritten.groupBy(df(st, "V")), 1))),
  )

  val join: List[Prog] = List(
    Prog("mat_add", Benchmarks.matrixAddition, 60,
      st => Map("R" -> entries(HandWritten.matrixAddition(df(st, "M"), df(st, "N")), 2))),
    Prog("mat_mul", Benchmarks.matrixMultiplication, 25,
      st => Map("R" -> entries(HandWritten.matrixMultiplication(df(st, "M"), df(st, "N")), 2))),
    Prog("pagerank", Benchmarks.pageRank, 1000, st => Map("P2" -> entries(
      HandWritten.pageRank(df(st, "E"), df(st, "P"), scalar(st, "n").asInstanceOf[Long]), 1))),
    Prog("kmeans", Benchmarks.kMeans, 250, { st =>
      val centroids = df(st, "C").collect().map { r =>
        val s = r.getStruct(1)
        (r.getLong(0), (s.getDouble(0), s.getDouble(1)))
      }
      val c2 = HandWritten.kMeans(df(st, "P"), centroids).map { case (k, (x, y)) =>
        List[Any](k) -> (Rec(Vector("_1" -> x, "_2" -> y)): Any)
      }
      Map("C2" -> c2)
    }),
    Prog("mat_fact", Benchmarks.matrixFactorization, 20, { st =>
      val (p2, q2) = HandWritten.matrixFactorization(df(st, "R"), df(st, "P"), df(st, "Q"))
      Map("P2" -> entries(p2, 2), "Q2" -> entries(q2, 2))
    }),
  )

  /** The paper's §3.2 reject examples (the same sources as AnalysisSpec). */
  val rejects: List[CompileCase] = List(
    "reject_stencil" -> "for i = 1, 8 do V[i] := (V[i-1] + V[i+1])/2;",
    "reject_scalar_temp" -> "for i = 0, 9 do { n := V[i]; W[i] := f(n); };",
    "reject_mf_scalar" ->
      """for i = 0, n-1 do
        |  for j = 0, m-1 do {
        |    pq := 0.0;
        |    for k = 0, l-1 do
        |      pq += P[i,k]*Q[k,j];
        |    error := R[i,j] - pq;
        |    for k = 0, l-1 do {
        |      P2[i,k] += a*(2.0*error*Q[k,j] - b*P[i,k]);
        |      Q2[k,j] += a*(2.0*error*P[i,k] - b*Q[k,j]);
        |    };
        |  };
        |""".stripMargin,
    "reject_extra_index" ->
      """for i = 0, 9 do {
        |  for j = 0, 9 do {
        |    V[i] += 1;
        |    M[i,j] := V[i];
        |  };
        |};
        |""".stripMargin,
  ).map { case (k, src) => CompileCase(k, src, Map.empty, accept = false) }

  private def accepted(key: String, p: ProgramSpec) = CompileCase(key, p.source, p.sigs, accept = true)

  /** Each workload compiles its own programs, plus the Table-1 programs it
    * does not execute (so the two workloads together cover all 16), plus
    * every reject example.
    */
  private def compileSet(progs: List[Prog], extra: List[(String, ProgramSpec)]) =
    progs.map(p => accepted(p.key, p.spec)) ++ extra.map((accepted _).tupled) ++ rejects

  val all: List[Workload] = List(
    Workload("agg", agg, compileSet(agg, List(
      "average" -> Benchmarks.average, "cond_count" -> Benchmarks.conditionalCount,
      "count" -> Benchmarks.count, "equal_freq" -> Benchmarks.equalFrequency,
      "sum" -> Benchmarks.sum))),
    Workload("join", join, compileSet(join, List("pca" -> Benchmarks.pca))),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
