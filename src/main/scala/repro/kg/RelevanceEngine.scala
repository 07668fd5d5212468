package repro.kg

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Computes the meta-graph relevance `s(x,y|m)` from the KG edge DataFrame
  * with Catalyst self-joins (the SCSE-style instance counting of Sec. V-A).
  *
  * Every query here has a DuckDB twin ([[duckSql]]) used by the oracle
  * tests, so a wrong join or normalization is caught as a result diff, not
  * just a crash.
  */
object RelevanceEngine {

  /** Common-neighbor counts of every item pair under each edge type in
    * `ets`: DataFrame(etype, x, y, cnt) with x < y, from one self-join of
    * the distinct (etype, item, nb) projection on (etype, nb).
    */
  private def sharedCounts(edges: DataFrame, ets: Seq[String]): DataFrame = {
    val e = edges.filter(col("etype").isin(ets: _*))
      .select(col("etype"), col("src").as("item"), col("dst").as("nb")).distinct()
    e.as("a")
      .join(e.as("b"),
        col("a.etype") === col("b.etype") && col("a.nb") === col("b.nb") && col("a.item") < col("b.item"))
      .groupBy(col("a.etype").as("etype"), col("a.item").as("x"), col("b.item").as("y"))
      .agg(count(lit(1)).as("cnt"))
  }

  /** Instance counts per item pair: DataFrame(x, y, cnt) with x < y.
    * SharedNeighbor counts common neighbors; Conjunction counts pairs of
    * common neighbors, i.e. the product of the two counts.
    */
  def pairCounts(edges: DataFrame, m: MetaGraph): DataFrame = m match {
    case MetaGraph.SharedNeighbor(_, _, etype) =>
      sharedCounts(edges, Seq(etype)).select(col("x"), col("y"), col("cnt"))
    case MetaGraph.Conjunction(_, _, e1, e2) =>
      val c1 = pairCounts(edges, MetaGraph.SharedNeighbor("", m.kind, e1))
      val c2 = pairCounts(edges, MetaGraph.SharedNeighbor("", m.kind, e2))
      c1.as("l")
        .join(c2.as("r"), col("l.x") === col("r.x") && col("l.y") === col("r.y"))
        .select(col("l.x").as("x"), col("l.y").as("y"), (col("l.cnt") * col("r.cnt")).as("cnt"))
  }

  /** Relevance per pair: DataFrame(x, y, s) with s = cnt / max(cnt) ∈ (0,1]. */
  def relevance(edges: DataFrame, m: MetaGraph): DataFrame = {
    // one global aggregate carries the max and the (small by construction)
    // pair table, so the counts are computed once and stay off the driver
    pairCounts(edges, m)
      .agg(max(col("cnt")).as("maxCnt"), collect_list(struct(col("x"), col("y"), col("cnt"))).as("ps"))
      .select(col("maxCnt"), explode(col("ps")).as("p"))
      .select(
        col("p.x").as("x"),
        col("p.y").as("y"),
        (col("p.cnt").cast("double") / col("maxCnt").cast("double")).as("s"))
  }

  /** Relevance for a whole meta-graph set: DataFrame(meta, kind, x, y, s). */
  def relevanceAll(edges: DataFrame, ms: Seq[MetaGraph]): DataFrame = {
    require(ms.nonEmpty, "need at least one meta-graph")
    ms.map { m =>
      relevance(edges, m).select(
        lit(m.name).as("meta"),
        lit(m.kind.toString).as("kind"),
        col("x"),
        col("y"),
        col("s"))
    }.reduce(_.unionByName(_))
  }

  /** Collect one meta-graph's relevance into a dense symmetric matrix
    * (zero diagonal) indexed by item id — the driver-local form consumed
    * by [[repro.core.ProblemInstance]].
    */
  def collectMatrix(rel: DataFrame, nItems: Int): Array[Array[Double]] = {
    val mat = Array.fill(nItems, nItems)(0.0)
    rel.select("x", "y", "s").collect().foreach(r => put(mat, r.getLong(0), r.getLong(1), r.getDouble(2)))
    mat
  }

  private def put(mat: Array[Array[Double]], x: Long, y: Long, s: Double): Unit = {
    val n = mat.length
    require(x >= 0 && x < n && y >= 0 && y < n, s"item id out of range: ($x,$y)")
    mat(x.toInt)(y.toInt) = s
    mat(y.toInt)(x.toInt) = s
  }

  /** Matrices for each meta-graph in `ms` order, equal bit for bit to
    * `collectMatrix(relevance(edges, m), nItems)` per meta-graph (absent
    * pair tables yield all-zero matrices). One Spark query counts the
    * common neighbors under every edge type the set reads; the collected
    * counts then give a conjunction's product and each meta-graph's
    * `cnt / max`, the same `Long` product and double division `relevance`
    * runs.
    */
  def collectMatrices(edges: DataFrame, ms: Seq[MetaGraph], nItems: Int): Vector[Array[Array[Double]]] = {
    val ets = ms.flatMap {
      case MetaGraph.SharedNeighbor(_, _, t)   => Seq(t)
      case MetaGraph.Conjunction(_, _, t1, t2) => Seq(t1, t2)
    }.distinct
    val byType: Map[String, Map[(Long, Long), Long]] =
      sharedCounts(edges, ets).collect().toSeq
        .groupMap(_.getString(0))(r => (r.getLong(1), r.getLong(2)) -> r.getLong(3))
        .map { case (t, cs) => t -> cs.toMap }
    def counts(t: String) = byType.getOrElse(t, Map.empty[(Long, Long), Long])
    ms.iterator.map { m =>
      val cnt = m match {
        case MetaGraph.SharedNeighbor(_, _, t) => counts(t)
        case MetaGraph.Conjunction(_, _, t1, t2) =>
          val c2 = counts(t2)
          counts(t1).flatMap { case (p, c) => c2.get(p).map(d => p -> Math.multiplyExact(c, d)) }
      }
      val mat = Array.fill(nItems, nItems)(0.0)
      if (cnt.nonEmpty) {
        val maxCnt = cnt.valuesIterator.max.toDouble
        cnt.foreach { case ((x, y), c) => put(mat, x, y, c.toDouble / maxCnt) }
      }
      mat
    }.toVector
  }

  /** DuckDB SQL computing the same (x, y, s) over a VARCHAR-typed `edges`
    * table (the oracle loads every column as VARCHAR, hence the casts).
    */
  def duckSql(m: MetaGraph): String = m match {
    case MetaGraph.SharedNeighbor(_, _, etype) =>
      s"""WITH e AS (
         |  SELECT DISTINCT CAST(src AS BIGINT) AS item, CAST(dst AS BIGINT) AS nb
         |  FROM edges WHERE etype = '$etype'
         |), c AS (
         |  SELECT a.item AS x, b.item AS y, COUNT(*) AS cnt
         |  FROM e a JOIN e b ON a.nb = b.nb AND a.item < b.item
         |  GROUP BY 1, 2
         |)
         |SELECT x, y, CAST(cnt AS DOUBLE) / (SELECT MAX(CAST(cnt AS DOUBLE)) FROM c) AS s
         |FROM c""".stripMargin
    case MetaGraph.Conjunction(_, _, e1, e2) =>
      s"""WITH e1 AS (
         |  SELECT DISTINCT CAST(src AS BIGINT) AS item, CAST(dst AS BIGINT) AS nb
         |  FROM edges WHERE etype = '$e1'
         |), e2 AS (
         |  SELECT DISTINCT CAST(src AS BIGINT) AS item, CAST(dst AS BIGINT) AS nb
         |  FROM edges WHERE etype = '$e2'
         |), c1 AS (
         |  SELECT a.item AS x, b.item AS y, COUNT(*) AS cnt
         |  FROM e1 a JOIN e1 b ON a.nb = b.nb AND a.item < b.item GROUP BY 1, 2
         |), c2 AS (
         |  SELECT a.item AS x, b.item AS y, COUNT(*) AS cnt
         |  FROM e2 a JOIN e2 b ON a.nb = b.nb AND a.item < b.item GROUP BY 1, 2
         |), c AS (
         |  SELECT c1.x AS x, c1.y AS y, c1.cnt * c2.cnt AS cnt
         |  FROM c1 JOIN c2 ON c1.x = c2.x AND c1.y = c2.y
         |)
         |SELECT x, y, CAST(cnt AS DOUBLE) / (SELECT MAX(CAST(cnt AS DOUBLE)) FROM c) AS s
         |FROM c""".stripMargin
  }
}
