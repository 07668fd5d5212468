package repro.kg

/** Node/edge type vocabulary of the synthetic heterogeneous information
  * networks (HINs) standing in for the paper's real KGs.
  *
  * 6-type datasets (Amazon-lite, Yelp-lite) use all six node types and all
  * six edge types; 3-type datasets (Douban-lite, Gowalla-lite) use ITEM /
  * TAG / CATEGORY with HAS_TAG / BELONGS_TO / CAT_TAG, matching the paper's
  * "KG has N nodes of 3 (or 6) types and edges of 3 (or 6) types". Both
  * shapes carry the CAT_TAG taxonomy edges; no meta-graph reads them or
  * SOLD_AT, so they shape the KG but not the relevance.
  */
object KGSchema {
  // node types
  val Item     = "ITEM"
  val Feature  = "FEATURE"
  val Brand    = "BRAND"
  val Category = "CATEGORY"
  val Tag      = "TAG"
  val Shop     = "SHOP"

  // edge types (all item -> attribute except CatTag, a taxonomy edge)
  val Supports   = "SUPPORTS"    // item -> feature
  val ProducedBy = "PRODUCED_BY" // item -> brand
  val BelongsTo  = "BELONGS_TO"  // item -> category
  val HasTag     = "HAS_TAG"     // item -> tag
  val SoldAt     = "SOLD_AT"     // item -> shop
  val CatTag     = "CAT_TAG"     // category -> tag
}
