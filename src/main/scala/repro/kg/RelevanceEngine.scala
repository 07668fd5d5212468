package repro.kg

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Computes the meta-graph relevance `s(x,y|m)` from the KG edge DataFrame
  * (the SCSE-style instance counting of Sec. V-A).
  *
  * One Spark query (`sharedCounts`) counts common neighbors per edge
  * type; one driver-side function (`scores`) turns those counts into
  * each meta-graph's `s`. The DuckDB oracle tests hold [[collectMatrices]],
  * the path every instance build runs, to [[duckSql]], so a wrong join or
  * normalization is caught as a result diff, not just a crash.
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

  /** Runs [[sharedCounts]] once over every edge type `ms` reads and
    * collects it: edge type → ((x, y) → count).
    */
  private def collectCounts(edges: DataFrame, ms: Seq[MetaGraph]): Map[String, Map[(Long, Long), Long]] = {
    val ets = ms.flatMap {
      case MetaGraph.SharedNeighbor(_, _, t)   => Seq(t)
      case MetaGraph.Conjunction(_, _, t1, t2) => Seq(t1, t2)
    }.distinct
    sharedCounts(edges, ets).collect().toSeq
      .groupMap(_.getString(0))(r => (r.getLong(1), r.getLong(2)) -> r.getLong(3))
      .map { case (t, cs) => t -> cs.toMap }
  }

  /** `s(x,y|m)` of every pair x < y with a positive instance count. A
    * SharedNeighbor counts common neighbors; a Conjunction counts pairs of
    * common neighbors, i.e. the `Long` product of the two counts on the
    * pairs both types hold (`Math.multiplyExact` fails on overflow). Then
    * `s = cnt / max(cnt)` over the meta-graph's pairs, so `s ∈ (0, 1]`.
    */
  private def scores(byType: Map[String, Map[(Long, Long), Long]], m: MetaGraph): Map[(Long, Long), Double] = {
    def counts(t: String) = byType.getOrElse(t, Map.empty[(Long, Long), Long])
    val cnt = m match {
      case MetaGraph.SharedNeighbor(_, _, t) => counts(t)
      case MetaGraph.Conjunction(_, _, t1, t2) =>
        val c2 = counts(t2)
        counts(t1).flatMap { case (p, c) => c2.get(p).map(d => p -> Math.multiplyExact(c, d)) }
    }
    if (cnt.isEmpty) Map.empty
    else {
      val maxCnt = cnt.valuesIterator.max.toDouble
      cnt.map { case (p, c) => p -> c.toDouble / maxCnt }
    }
  }

  /** One meta-graph's relevance as DataFrame(x: Long, y: Long, s: Double)
    * with x < y: `scores` over `sharedCounts` of `m`'s edge types, so
    * its values are those [[collectMatrices]] builds. Only the benchmark's
    * split build (`perfbench` `splitBuild`) calls it; once that times
    * `collectMatrices` instead, this and [[collectMatrix]] can go.
    */
  def relevance(edges: DataFrame, m: MetaGraph): DataFrame = {
    val rows = scores(collectCounts(edges, Seq(m)), m).iterator.map { case ((x, y), s) => (x, y, s) }.toSeq
    edges.sparkSession.createDataFrame(rows).toDF("x", "y", "s")
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

  /** Dense symmetric zero-diagonal matrices for each meta-graph in `ms`
    * order (a meta-graph without instances yields an all-zero matrix), from
    * one Spark query over every edge type the set reads.
    */
  def collectMatrices(edges: DataFrame, ms: Seq[MetaGraph], nItems: Int): Vector[Array[Array[Double]]] = {
    val byType = collectCounts(edges, ms)
    ms.iterator.map { m =>
      val mat = Array.fill(nItems, nItems)(0.0)
      scores(byType, m).foreach { case ((x, y), s) => put(mat, x, y, s) }
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
