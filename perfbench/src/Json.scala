package perfbench

/** Minimal JSON writer for the result and span files: maps (insertion
  * order kept when a ListMap/SeqMap is given), sequences, strings, numbers,
  * booleans and null.
  */
object Json {

  def write(v: Any): String = {
    val sb = new StringBuilder
    emit(v, sb)
    sb.toString
  }

  private def emit(v: Any, sb: StringBuilder): Unit = v match {
    case null                 => sb ++= "null"
    case s: String            => quote(s, sb)
    case b: Boolean           => sb ++= b.toString
    case d: Double            => sb ++= (if (d.isNaN || d.isInfinite) "null" else d.toString)
    case f: Float             => emit(f.toDouble, sb)
    case n: Int               => sb ++= n.toString
    case n: Long              => sb ++= n.toString
    case m: collection.Map[_, _] =>
      sb += '{'
      var first = true
      for ((k, x) <- m) {
        if (!first) sb += ','
        first = false
        quote(k.toString, sb); sb += ':'; emit(x, sb)
      }
      sb += '}'
    case xs: Iterable[_] =>
      sb += '['
      var first = true
      for (x <- xs) { if (!first) sb += ','; first = false; emit(x, sb) }
      sb += ']'
    case other => quote(other.toString, sb)
  }

  private def quote(s: String, sb: StringBuilder): Unit = {
    sb += '"'
    s.foreach {
      case '"'  => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case '\t' => sb ++= "\\t"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c    => sb += c
    }
    sb += '"'
  }
}
