package repro.spark

import org.apache.spark.sql.{Column, DataFrame, Encoder, Encoders, Row, SparkSession}
import org.apache.spark.sql.expressions.Aggregator
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.Comprehension._
import repro.core.Plan
import repro.core.Plan._
import repro.core.Translate._
import repro.local.LocalBackend
import repro.local.LocalBackend.{ArrayD, Data, Rec, ScalarD}

/** Spark backend: compiles the comprehension plans (`core.Plan`) of DIABLO
  * target code to DataFrame (Catalyst) operations.
  *
  *  - an array is a DataFrame with columns `k1..kn, v` (`v` may be a struct);
  *  - a generator becomes a scan; its conds that link it to bound variables
  *    become equi-join conditions (a cross join when none exist — e.g.
  *    KMeans' points × centroids);
  *  - a group-by becomes `groupBy(keys).agg(...)` with one aggregate per
  *    extracted reduction (an empty key gives a global aggregate — the
  *    backend form of rule 16 — which yields no row over no input rows);
  *  - the array merge `◁` is a full-outer join with the old array, keys
  *    `coalesce(new, old)`; when the plan reads the target's old values
  *    (the lookup of rule (15a), keyed by the head's keys), that same join
  *    is the lookup: the old value, or the monoid identity, feeds the head,
  *    and a key with no new row keeps its old value;
  *  - scalars live on the driver, each target of a (fused) scalar
  *    assignment set from one column of its one result row; while-loops
  *    run on the driver.
  *
  * Array assignments are materialized eagerly (`localCheckpoint`) so
  * iterative programs do not accumulate lineage.
  */
object SparkBackend {

  sealed trait SValue
  final case class SScalar(v: Any) extends SValue
  /** df has columns k1..kn, v; None until the first assignment. */
  final case class SArr(df: Option[DataFrame], keyArity: Int) extends SValue

  // ------------------------------------------------------- value bridging

  def sparkType(v: Any): DataType = v match {
    case _: Long    => LongType
    case _: Int     => LongType
    case _: Double  => DoubleType
    case _: Boolean => BooleanType
    case _: String  => StringType
    case Rec(fs)    => StructType(fs.map { case (n, fv) => StructField(n, sparkType(fv)) }.toArray)
    case other      => throw new IllegalArgumentException(s"unsupported value $other")
  }

  def toSparkValue(v: Any): Any = v match {
    case Rec(fs) => Row.fromSeq(fs.map { case (_, x) => toSparkValue(x) })
    case i: Int  => i.toLong
    case other   => other
  }

  def fromSparkValue(v: Any, dt: DataType): Any = (v, dt) match {
    case (null, _) => null
    case (r: Row, st: StructType) =>
      Rec(st.fields.toVector.zipWithIndex.map { case (f, i) =>
        (f.name, fromSparkValue(r.get(i), f.dataType)) })
    case (i: Int, _)   => i.toLong
    case (f: Float, _) => f.toDouble
    case (other, _)    => other
  }

  /** Local array → DataFrame with columns k1..kn, v. */
  def arrayToDF(spark: SparkSession, a: ArrayD): DataFrame = {
    require(a.m.nonEmpty, "cannot infer a schema for an empty array")
    val (k0, v0) = a.m.head
    val fields = k0.zipWithIndex.map { case (kv, i) =>
      StructField(s"k${i + 1}", sparkType(kv)) } :+ StructField("v", sparkType(v0))
    val rows = a.m.iterator.map { case (k, v) =>
      Row.fromSeq(k.map(toSparkValue) :+ toSparkValue(v)) }.toSeq
    spark.createDataFrame(
      spark.sparkContext.parallelize(rows), StructType(fields.toArray))
  }

  /** DataFrame with columns k1..kn, v → local array. */
  def dfToArray(df: DataFrame, keyArity: Int): ArrayD = {
    val schema = df.schema
    val entries = df.collect().map { r =>
      val key = (0 until keyArity).toList.map(i =>
        fromSparkValue(r.get(i), schema(i).dataType))
      key -> fromSparkValue(r.get(keyArity), schema(keyArity).dataType)
    }
    ArrayD(entries.toMap, keyArity)
  }

  // --------------------------------------------------------- compilation

  /** `*=` as a constant-memory aggregate that keeps the element type:
    * nulls are skipped and an empty group gives one.
    */
  private final class Product[T >: Null](one: T, times: (T, T) => T, enc: Encoder[T])
      extends Aggregator[T, T, T] {
    def zero: T = one
    def reduce(b: T, a: T): T = if (a == null) b else times(b, a)
    def merge(x: T, y: T): T = times(x, y)
    def finish(r: T): T = r
    def bufferEncoder: Encoder[T] = enc
    def outputEncoder: Encoder[T] = enc
  }
  private lazy val longProduct = udaf(new Product[java.lang.Long](
    1L, (a, b) => a * b, Encoders.LONG), Encoders.LONG)
  private lazy val doubleProduct = udaf(new Product[java.lang.Double](
    1.0, (a, b) => a * b, Encoders.DOUBLE), Encoders.DOUBLE)

  private final class Compiler(spark: SparkSession,
                               state: collection.Map[String, SValue]) {
    private var n = 0
    private def fresh(): String = { n += 1; s"_c$n" }

    private def scalarVal(name: String): Any = state(name) match {
      case SScalar(v) => v
      case _ => throw new IllegalArgumentException(s"$name is not a scalar")
    }
    private def arr(name: String): SArr = state(name) match {
      case a: SArr => a
      case _ => throw new IllegalArgumentException(s"$name is not an array")
    }

    /** Literal for a driver value; record values become struct literals. */
    private def litOf(v: Any): Column = v match {
      case Rec(fs) => struct(fs.map { case (n, x) => litOf(x).as(n) }: _*)
      case other   => lit(other)
    }

    def col_(e: CExpr, env: Map[String, String]): Column = e match {
      case CVar(v)   => col(env(v))
      case CLit(v)   => lit(v)
      case CState(v) => litOf(scalarVal(v))
      case CBin(op, l, r) =>
        val (a, b) = (col_(l, env), col_(r, env))
        op match {
          case "+" => a + b;   case "-" => a - b; case "*" => a * b
          case "/" => a / b;   case "%" => a % b
          case "==" => a === b; case "!=" => a =!= b
          case "<" => a < b;   case "<=" => a <= b
          case ">" => a > b;   case ">=" => a >= b
          case "&&" => a && b; case "||" => a || b
        }
      case CUn("-", b)  => -col_(b, env)
      case CUn("!", b)  => !col_(b, env)
      case CField(b, f) => col_(b, env).getField(f)
      case CTup(es) =>
        struct(es.zipWithIndex.map { case (x, i) =>
          col_(x, env).as("_" + (i + 1)) }: _*)
      case CCall(f, args) =>
        val cs = args.map(col_(_, env))
        f match {
          case "sqrt" => sqrt(cs.head)
          case "abs"  => abs(cs.head)
          case "pow"  => pow(cs(0), cs(1))
          case "exp"  => exp(cs.head)
          case "log"  => log(cs.head)
          case "min"  => least(cs(0), cs(1))
          case "max"  => greatest(cs(0), cs(1))
          case other  => throw new IllegalArgumentException(s"unknown function $other")
        }
      case CIf(c, t, f) => when(col_(c, env), col_(t, env)).otherwise(col_(f, env))
      case CCombine(m, l, r) =>
        val (a, b) = (col_(l, env), col_(r, env))
        m match {
          case MSum  => a + b
          case MProd => a * b
          case MAnd  => a && b
          case MOr   => a || b
          case MMin  => least(a, b)   // least/greatest skip nulls
          case MMax  => greatest(a, b)
        }
      case other =>
        throw new IllegalArgumentException(s"not a column expression: ${show(other)}")
    }

    private def aggOf(m: Monoid, c: Column, dt: DataType): Column = m match {
      case MSum  => coalesce(sum(c), lit(0))
      case MProd => dt match {
        case LongType => longProduct(c)
        case _        => doubleProduct(c.cast(DoubleType)).cast(dt)
      }
      case MAnd  => coalesce(min(c), lit(true))
      case MOr   => coalesce(max(c), lit(false))
      case MMin  => min(c)
      case MMax  => max(c)
    }

    private def defaultCol(d: Default): Column = d match {
      case DZero  => lit(0)
      case DOne   => lit(1)
      case DTrue  => lit(true)
      case DFalse => lit(false)
      case DNull  => lit(null)
    }

    private def driverLong(e: CExpr): Long = {
      require(freeVars(e).isEmpty, s"range bound depends on loop variables: ${show(e)}")
      LocalBackend.evalExpr(e, Map.empty, scalarVal) match {
        case l: Long => l
        case d: Double => d.toLong
        case other => throw new IllegalArgumentException(s"not an integer bound: $other")
      }
    }

    /** Compile a plan to a DataFrame of its head columns (named c1..cm).
      * None when the result is statically empty (a scan of a
      * still-uninitialized array). A plan with a lookup of an initialized
      * target yields the target already merged with `◁`.
      */
    def compile(p: Plan): Option[DataFrame] = {
      if (p.ops.exists { case s: Scan => arr(s.arr).df.isEmpty; case _ => false })
        return None
      var cur: Option[DataFrame] = None
      var env = Map.empty[String, String]
      // after a fused lookup: (column set on new rows only, old value column)
      var oldOnly: Option[(String, String)] = None

      def unitDF: DataFrame = spark.range(1).drop("id")

      /** Bring in a generator's DataFrame `df0`, whose columns `vars` are
        * already in `env`: conds over `vars` alone filter it, the others
        * become equi-join conditions (a cross join when there are none).
        */
      def bind(df0: DataFrame, vars: Set[String], conds: List[CExpr]): Unit = {
        val (own, linking) = conds.partition(freeVars(_).subsetOf(vars))
        val df = own.foldLeft(df0)((d, e) => d.filter(col_(e, env)))
        val joinConds = linking.map(col_(_, env))
        cur = cur match {
          case None    => Some(joinConds.foldLeft(df)((d, c) => d.filter(c)))
          case Some(l) =>
            if (joinConds.isEmpty) Some(l.crossJoin(df))
            else Some(l.join(df, joinConds.reduce(_ && _), "inner"))
        }
      }

      p.ops.foreach {
        case Range(v, lo, hi, conds) =>
          val name = fresh()
          env += v -> name
          bind(spark.range(driverLong(lo), driverLong(hi) + 1).toDF(name), Set(v), conds)

        case Scan(a, idxVars, valVar, _, conds) =>
          val vars = idxVars :+ valVar
          val names = vars.map(_ => fresh())
          env ++= vars.zip(names)
          bind(arr(a).df.get.toDF(names: _*), vars.toSet, conds)

        case Let(v, e) =>
          val name = fresh()
          cur = Some(cur.getOrElse(unitDF).withColumn(name, col_(e, env)))
          env += v -> name

        case Filter(e) =>
          cur = Some(cur.getOrElse(unitDF).filter(col_(e, env)))

        case Aggregate(kvars, keys, reds) =>
          var base = cur.getOrElse(unitDF)
          // pre-group columns: group keys and reduction arguments
          val keyNames = keys.map { k =>
            val nm = fresh(); base = base.withColumn(nm, col_(k, env)); nm
          }
          val redArgs = reds.map { case (rv, m, argE) =>
            val argN = fresh(); base = base.withColumn(argN, col_(argE, env))
            (rv, m, argN, fresh())
          }
          val aggs = redArgs.map { case (_, m, argN, outN) =>
            aggOf(m, col(argN), base.schema(argN).dataType).as(outN) }
          val grouped =
            if (keyNames.isEmpty) {
              // Spark's global aggregate yields a row even over no input
              // rows; the plan's group by () has no group then, so the
              // targets stay unchanged, as on the local backend
              val cnt = fresh()
              base.agg(count(lit(1)).as(cnt), aggs: _*).filter(col(cnt) > 0)
            } else base.groupBy(keyNames.map(col): _*).agg(aggs.head, aggs.tail: _*)
          cur = Some(grouped)
          env = kvars.zip(keyNames).toMap ++
            redArgs.map { case (rv, _, _, outN) => rv -> outN }

        case Lookup(w, a, keyVars, default) =>
          val name = fresh()
          val base = cur.getOrElse(unitDF)
          arr(a).df match {
            case None =>
              cur = Some(base.withColumn(name, defaultCol(default)))
            case Some(adf) =>
              // the ◁ merge, fused: one full-outer join with the old array
              val rNames = (0 to arr(a).keyArity).map(_ => fresh())
              val isNew = fresh()
              val keyPairs = keyVars.map(env).zip(rNames)
              val joined = base.withColumn(isNew, lit(true)).join(adf.toDF(rNames: _*),
                keyPairs.map { case (k, r) => col(k) === col(r) }.reduce(_ && _),
                "full_outer")
              val old = col(rNames.last)
              val wCol = default match {
                case DNull => old
                case d     => coalesce(old, defaultCol(d))
              }
              cur = Some(keyPairs.foldLeft(joined) { case (df, (k, r)) =>
                df.withColumn(k, coalesce(col(k), col(r))) }.withColumn(name, wCol))
              oldOnly = Some((isNew, rNames.last))
          }
          env += w -> name
      }

      val cols = p.head.zipWithIndex.map { case (e, i) =>
        val c = oldOnly match {
          case Some((isNew, old)) if i == p.head.length - 1 =>
            when(col(isNew).isNull, col(old)).otherwise(col_(e, env))
          case _ => col_(e, env)
        }
        c.as(s"c${i + 1}")
      }
      Some(cur.getOrElse(unitDF).select(cols: _*))
    }
  }

  // ------------------------------------------------------------ execution

  /** Local state → Spark state: scalars stay on the driver, arrays become
    * DataFrames. An empty array has no element to take a schema from; it
    * becomes a never-assigned array, which `compile` treats as statically
    * empty.
    */
  def fromLocal(spark: SparkSession, data: Map[String, Data]): Map[String, SValue] =
    data.map {
      case (n, ScalarD(v))                 => n -> SScalar(v)
      case (n, ArrayD(m, ka)) if m.isEmpty => n -> SArr(None, ka)
      case (n, a @ ArrayD(_, ka))          => n -> SArr(Some(arrayToDF(spark, a)), ka)
    }

  /** Run target code over an initial state; returns the final state. */
  def run(prog: List[TStmt], init: Map[String, SValue], spark: SparkSession)
      : Map[String, SValue] = {
    val state = collection.mutable.Map.empty[String, SValue] ++ init
    def scalar(n: String): Any = state(n) match {
      case SScalar(v) => v
      case _ => throw new IllegalArgumentException(s"$n is not a scalar")
    }

    def keyCols(ka: Int): Seq[String] = (1 to ka).map(i => s"k$i")

    def exec(ts: List[TStmt]): Unit = ts.foreach {
      case TInit(nm, ka) => state(nm) = SArr(None, ka)

      case t @ TAssign(nms, _, isArray) =>
        val plan = Plan.of(t)
        // no row (a global aggregate over nothing): targets unchanged
        def assign(row: List[Any]): Unit =
          nms.zip(row).foreach { case (n, v) => state(n) = SScalar(v) }
        if (!isArray && plan.driverOnly) {
          LocalBackend.evalDriver(plan, scalar).foreach(assign)
        } else {
          val compiled = new Compiler(spark, state).compile(plan)
          if (isArray) {
            val nm = nms.head
            val ka = state.get(nm) match {
              case Some(SArr(_, a)) => a
              case _                => plan.keyArity
            }
            compiled.foreach { df =>
              val ndf = df.toDF(keyCols(ka) :+ "v": _*)
              val merged = state.get(nm) match {
                case Some(SArr(Some(odf), _)) if plan.lookup.isEmpty =>
                  val renamed = ndf.withColumnRenamed("v", "_nv")
                  odf.join(renamed, keyCols(ka), "full_outer")
                    .select(keyCols(ka).map(col) :+
                      coalesce(col("_nv"), col("v")).as("v"): _*)
                case _ => ndf
              }
              state(nm) = SArr(Some(merged.localCheckpoint(true)), ka)
            }
          } else {
            compiled.foreach { df =>
              df.collect().headOption.foreach(r => assign(
                df.schema.fields.toList.zipWithIndex.map { case (f, i) =>
                  fromSparkValue(r.get(i), f.dataType) }))
            }
          }
        }

      case TWhileS(cond, body) =>
        val plan = Plan.of(cond)
        def test(): Boolean = {
          val v =
            if (plan.driverOnly) LocalBackend.evalDriver(plan, scalar).map(_.head)
            else new Compiler(spark, state).compile(plan)
              .flatMap(df => df.collect().headOption.map(_.get(0)))
          v.exists(_.asInstanceOf[Boolean])
        }
        while (test()) exec(body)
    }
    exec(prog)
    state.toMap
  }
}
