package repro.data

import repro.SparkSpec
import repro.core.{ProblemInstance, Seed}
import repro.diffusion.LocalDiffusion
import repro.kg.{KGGenerator, RelevanceEngine}
import repro.social.SocialGen

class InstanceBuilderSpec extends SparkSpec {

  private def smallCfg = DatasetGen.amazonSmall()

  test("build produces a consistent instance") {
    val inst = InstanceBuilder.build(spark, smallCfg)
    assert(inst.nUsers == smallCfg.nUsers && inst.nItems == smallCfg.nItems)
    assert(inst.metaS.size == smallCfg.metaGraphs.size)
    assert(inst.importance.forall(w => w >= 0.2 && w <= 3.0))
    // adjacency is consistent: in-degree sum == out-degree sum == edge count
    assert(inst.inNbr.map(_.length).sum == inst.outNbr.map(_.length).sum)
  }

  test("build is deterministic") {
    val a = InstanceBuilder.build(spark, smallCfg)
    val b = InstanceBuilder.build(spark, smallCfg)
    assert(a.inNbr.map(_.toVector).toVector == b.inNbr.map(_.toVector).toVector)
    assert(a.basePref.map(_.toVector).toVector == b.basePref.map(_.toVector).toVector)
    assert(a.metaS.map(_.map(_.toVector).toVector) == b.metaS.map(_.map(_.toVector).toVector))
  }

  test("base influence follows the weighted cascade (bounded by actBase)") {
    val inst = InstanceBuilder.build(spark, smallCfg)
    for (v <- 0 until inst.nUsers; i <- inst.inNbr(v).indices) {
      val expected = math.min(inst.params.actBase, inst.params.actScale / math.max(1, inst.inDegree(v)))
      assert(math.abs(inst.inAct(v)(i) - expected) < 1e-12)
    }
  }

  test("costs follow the out-degree x (1.5 - pref) model") {
    val inst = InstanceBuilder.build(spark, smallCfg)
    for (u <- 0 until 20; x <- 0 until inst.nItems) {
      val expected = CostModel.cost(inst.outDegree(u), inst.basePref(u)(x), smallCfg.costScale)
      assert(math.abs(inst.cost(u)(x) - expected) < 1e-12)
    }
  }

  test("relevance matrices are nonzero (the KG actually connects items)") {
    val inst = InstanceBuilder.build(spark, smallCfg)
    assert(inst.cMeta.exists(m => inst.metaPairs(m).nonEmpty), "some complementary relevance")
    assert(inst.sMeta.exists(m => inst.metaPairs(m).nonEmpty), "some substitutable relevance")
  }

  /** Every field of `got` equals `want`'s, arrays element by element. */
  private def assertSameInstance(got: ProblemInstance, want: ProblemInstance, clue: String): Unit = {
    def same(a: Array[_ <: AnyRef], b: Array[_ <: AnyRef]) =
      java.util.Arrays.deepEquals(a.asInstanceOf[Array[AnyRef]], b.asInstanceOf[Array[AnyRef]])
    assert(got.nUsers == want.nUsers && got.nItems == want.nItems && got.itemNames == want.itemNames, clue)
    assert(got.metaKinds == want.metaKinds && got.budget == want.budget && got.T == want.T &&
      got.params == want.params, clue)
    assert(java.util.Arrays.equals(got.importance, want.importance), clue)
    assert(same(got.inNbr, want.inNbr) && same(got.inAct, want.inAct) && same(got.outNbr, want.outNbr), clue)
    assert(same(got.basePref, want.basePref) && same(got.cost, want.cost), clue)
    assert(same(got.metaS.toArray, want.metaS.toArray), clue)
  }

  test("build equals fromParts over the per-meta-graph relevance matrices") {
    Seq(smallCfg, DatasetGen.amazonLite(budget = 3, scale = 0.0)).foreach { cfg =>
      val kgEdges = KGGenerator.edges(spark, cfg.kg)
      val metaS = cfg.metaGraphs.map(m =>
        RelevanceEngine.collectMatrix(RelevanceEngine.relevance(kgEdges, m), cfg.nItems))
      val edgePairs = SocialGen.collectEdges(SocialGen.edges(spark, cfg.nUsers, cfg.nEdges, cfg.socialSeed))
      val want = InstanceBuilder.fromParts(cfg, edgePairs, metaS)
      assertSameInstance(InstanceBuilder.build(spark, cfg), want, cfg.name)
    }
  }

  // Spark-free: the benches build a dataset once and sweep T with withT
  test("fromParts with another T equals fromParts' instance withT") {
    val rnd = new scala.util.Random(5)
    Seq(smallCfg, DatasetGen.doubanLite(budget = 10.0, scale = 0.0)).foreach { cfg =>
      val edges = Seq.fill(cfg.nEdges)((rnd.nextInt(cfg.nUsers), rnd.nextInt(cfg.nUsers))).filter { case (s, d) => s != d }
      val metaS = cfg.metaGraphs.map { _ =>
        val m = Array.ofDim[Double](cfg.nItems, cfg.nItems)
        for (x <- 0 until cfg.nItems; y <- x + 1 until cfg.nItems) { m(x)(y) = rnd.nextDouble(); m(y)(x) = m(x)(y) }
        m
      }
      val base = InstanceBuilder.fromParts(cfg, edges, metaS)
      Seq(1, 2, 4, 10).foreach { t =>
        assertSameInstance(InstanceBuilder.fromParts(cfg.copy(T = t), edges, metaS), base.withT(t), s"${cfg.name} T=$t")
      }
    }
  }

  test("fromParts rejects out-of-range social edges") {
    val cfg = smallCfg
    assertThrows[IllegalArgumentException](
      InstanceBuilder.fromParts(cfg, Seq((0, cfg.nUsers)), cfg.metaGraphs.map(_ =>
        Array.fill(cfg.nItems, cfg.nItems)(0.0))))
  }

  test("a built instance diffuses influence end to end") {
    val inst = InstanceBuilder.build(spark, smallCfg)
    val hub = (0 until inst.nUsers).maxBy(inst.outDegree)
    val sigma = LocalDiffusion.sigma(inst, Seq(Seed(hub, 0, 1)))
    assert(sigma > inst.importance(0), "the seed influences at least someone beyond itself")
  }
}
