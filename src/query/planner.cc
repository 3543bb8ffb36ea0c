#include "query/planner.h"

#include "geo/covering.h"
#include "query/bucket_unpack.h"
#include "query/query_analysis.h"

namespace stix::query {
namespace {

// Cell intervals for a 2dsphere field from the query region (rectangle or
// polygon), via the GeoHash (Z-order) covering at the index's precision.
index::FieldBounds GeoBounds(const geo::GeoHash& geohash,
                             const geo::Region& region) {
  const geo::Covering covering = geo::CoverRegion(geohash.curve(), region);
  index::FieldBounds fb;
  fb.intervals.reserve(covering.ranges.size());
  for (const geo::DRange& r : covering.ranges) {
    fb.intervals.push_back(
        index::ValueInterval{bson::Value::Int64(static_cast<int64_t>(r.lo)),
                             bson::Value::Int64(static_cast<int64_t>(r.hi))});
  }
  return fb;
}

}  // namespace

std::vector<CandidatePlan> Planner::Plan(const storage::RecordStore& records,
                                         const index::IndexCatalog& catalog,
                                         const ExprPtr& expr,
                                         const PlanningContext& ctx) {
  // Bucketed collections: index bounds come from the *widened* rewrite of
  // the point expression (safe over bucket documents); the exact point
  // filter moves into the BUCKET_UNPACK stage wrapped around every plan.
  // A null widened expression simply constrains no path (a match-all), so
  // the planner falls through to BUCKET_UNPACK -> COLLSCAN.
  const bool bucketed = ctx.bucket_layout != nullptr;
  ExprPtr bounds_expr = expr;
  if (bucketed) {
    bounds_expr = WidenForBuckets(expr, *ctx.bucket_layout);
    if (bounds_expr == nullptr) bounds_expr = MakeAnd({});
  }

  const std::map<std::string, PathInfo> paths = AnalyzeQuery(bounds_expr);
  std::vector<CandidatePlan> candidates;

  for (const auto& idx : catalog.indexes()) {
    const index::IndexDescriptor& desc = idx->descriptor();
    index::IndexBounds bounds;
    bounds.fields.reserve(desc.num_fields());
    bool leading_constrained = false;

    // Fields after a geo-constrained 2dsphere field keep full-range bounds
    // and are filtered at FETCH instead. This mirrors MongoDB 4.0's
    // 2dsphere access method (the paper's platform): its {location, date}
    // compound scans visit every key of the covering's cells regardless of
    // the date predicate — which is exactly why the paper's bslST examines
    // orders of magnitude more keys than hil on big rectangles and why its
    // optimizer flips to the {date} index for short windows (Table 7).
    bool after_geo_bounds = false;
    for (size_t i = 0; i < desc.num_fields(); ++i) {
      const index::IndexField& field = desc.fields()[i];
      const auto it = paths.find(field.path);
      const PathInfo* info = it == paths.end() ? nullptr : &it->second;

      if (field.kind == index::IndexFieldKind::k2dsphere) {
        if (info != nullptr && info->geo != nullptr && !after_geo_bounds) {
          bounds.fields.push_back(
              GeoBounds(idx->keygen().geohash(), *info->geo));
          after_geo_bounds = true;
        } else {
          index::FieldBounds fb;
          fb.full_range = true;
          bounds.fields.push_back(std::move(fb));
        }
      } else if (after_geo_bounds) {
        index::FieldBounds fb;
        fb.full_range = true;
        bounds.fields.push_back(std::move(fb));
      } else {
        bounds.fields.push_back(AscendingBounds(info));
      }
      if (i == 0) {
        leading_constrained =
            !bounds.fields[0].full_range && !bounds.fields[0].intervals.empty();
      }
    }
    if (!leading_constrained) continue;

    CandidatePlan plan;
    plan.index_name = desc.name();
    plan.access.bucketed = bucketed;
    plan.access.bounds = bounds;  // cost-model copy; the stage owns the move
    plan.access.field_paths.reserve(desc.num_fields());
    plan.access.field_is_geo.reserve(desc.num_fields());
    for (const index::IndexField& field : desc.fields()) {
      plan.access.field_paths.push_back(field.path);
      plan.access.field_is_geo.push_back(field.kind ==
                                         index::IndexFieldKind::k2dsphere);
    }
    auto scan = std::make_unique<IndexScanStage>(*idx, std::move(bounds));
    if (bucketed) {
      // FETCH loads the bucket with no filter (pruning happens on bucket
      // metadata inside the unpack, the exact filter on decoded points).
      auto fetch =
          std::make_unique<FetchStage>(records, std::move(scan), nullptr);
      plan.root = std::make_unique<BucketUnpackStage>(std::move(fetch), expr,
                                                      *ctx.bucket_layout);
      plan.transient_docs = true;
    } else {
      plan.root = std::make_unique<FetchStage>(records, std::move(scan), expr);
    }
    plan.summary = plan.root->Summary();
    candidates.push_back(std::move(plan));
  }

  if (candidates.empty()) {
    CandidatePlan plan;
    plan.access.collscan = true;
    plan.access.bucketed = bucketed;
    if (bucketed) {
      auto scan = std::make_unique<CollScanStage>(records, nullptr);
      plan.root = std::make_unique<BucketUnpackStage>(std::move(scan), expr,
                                                      *ctx.bucket_layout);
      plan.transient_docs = true;
    } else {
      plan.root = std::make_unique<CollScanStage>(records, expr);
    }
    plan.summary = plan.root->Summary();
    candidates.push_back(std::move(plan));
  }
  return candidates;
}

}  // namespace stix::query
