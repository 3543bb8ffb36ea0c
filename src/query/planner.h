#ifndef STIX_QUERY_PLANNER_H_
#define STIX_QUERY_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "index/index_catalog.h"
#include "query/plan_stage.h"
#include "storage/bucket.h"

namespace stix::query {

/// Cost-model description of how a candidate accesses data, recorded by
/// the planner so the cost model (query/cost.h) never has to walk the
/// stage tree: the access shape plus — for IXSCAN plans — a copy of the
/// scan bounds and the index's field paths.
struct PlanAccess {
  bool collscan = false;  ///< Root access is a collection scan.
  bool bucketed = false;  ///< A BUCKET_UNPACK stage wraps the access path.
  /// IXSCAN only: the bounds handed to IndexScanStage, in index field
  /// order, with the matching dotted paths and 2dsphere flags.
  index::IndexBounds bounds;
  std::vector<std::string> field_paths;
  std::vector<bool> field_is_geo;
};

/// One runnable candidate plan.
struct CandidatePlan {
  std::unique_ptr<PlanStage> root;
  std::string summary;
  std::string index_name;  ///< Empty for COLLSCAN.
  /// True when the plan emits documents owned by its own stages (a
  /// BUCKET_UNPACK arena) rather than by the record store: results must be
  /// materialized before the executor dies (ShardCursor::GetMore moves
  /// them into its batch).
  bool transient_docs = false;
  PlanAccess access;
};

/// What the planner needs to know beyond the collection itself.
struct PlanningContext {
  /// Non-null when the collection stores bucket documents and the query is
  /// a *point-level* expression: plans become
  /// BUCKET_UNPACK -> FETCH -> IXSCAN over the widened bounds (or
  /// BUCKET_UNPACK -> COLLSCAN). Null plans row-layout, which is also how
  /// raw bucket scans (routing metadata, deletes) are planned.
  std::shared_ptr<const storage::BucketLayout> bucket_layout;
};

/// Generates candidate plans for a match expression against a collection's
/// indexes, MongoDB-style:
///  - an index is usable iff its *leading* field is constrained (an interval
///    set for an ascending field, a $geoWithin for a 2dsphere field) —
///    compound indexes are prefix-first (paper Section 3.1);
///  - every usable index yields an IXSCAN+FETCH(filter) candidate whose
///    bounds cover as many fields as have constraints;
///  - if no index is usable, the single candidate is a filtered COLLSCAN.
class Planner {
 public:
  static std::vector<CandidatePlan> Plan(const storage::RecordStore& records,
                                         const index::IndexCatalog& catalog,
                                         const ExprPtr& expr,
                                         const PlanningContext& ctx = {});
};

}  // namespace stix::query

#endif  // STIX_QUERY_PLANNER_H_
