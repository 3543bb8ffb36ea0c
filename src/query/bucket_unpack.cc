#include "query/bucket_unpack.h"

#include <algorithm>
#include <string>

#include "common/metrics.h"

namespace stix::query {
namespace {

/// Sorted-by-lo ranges whose lower bounds were just widened may now
/// overlap; merge back to the sorted-disjoint form RangeSetExpr requires.
std::vector<RangeSetExpr::Range> MergeWidenedRanges(
    std::vector<RangeSetExpr::Range> ranges) {
  std::vector<RangeSetExpr::Range> merged;
  for (RangeSetExpr::Range& r : ranges) {
    if (!merged.empty() &&
        r.lo.AsInt64() <= merged.back().hi.AsInt64()) {
      if (r.hi.AsInt64() > merged.back().hi.AsInt64()) {
        merged.back().hi = r.hi;
      }
      continue;
    }
    merged.push_back(std::move(r));
  }
  return merged;
}

ExprPtr WidenTimeCmp(const CmpExpr& cmp, const storage::BucketLayout& layout) {
  const int64_t v = cmp.value().AsDateTime();
  const int64_t widened_lo = v - layout.window_ms + 1;
  switch (cmp.op()) {
    case CmpOp::kGte:
      return MakeCmp(cmp.path(), CmpOp::kGte, bson::Value::DateTime(widened_lo));
    case CmpOp::kGt:
      // ts > v  ⇒  ts >= v+1  ⇒  bucket date >= v+1 - (window-1).
      return MakeCmp(cmp.path(), CmpOp::kGte,
                     bson::Value::DateTime(widened_lo + 1));
    case CmpOp::kLte:
    case CmpOp::kLt:
      // The bucket's date (window start) is <= every point's ts, so upper
      // bounds transfer unchanged.
      return MakeCmp(cmp.path(), cmp.op(), cmp.value());
    case CmpOp::kEq:
      return MakeAnd({MakeCmp(cmp.path(), CmpOp::kGte,
                              bson::Value::DateTime(widened_lo)),
                      MakeCmp(cmp.path(), CmpOp::kLte, cmp.value())});
  }
  return nullptr;
}

ExprPtr WidenHilbertRangeSet(const RangeSetExpr& rs,
                             const storage::BucketLayout& layout) {
  // Without hilbert cells in the bucket key, bucket documents carry no
  // hilbertIndex field at all — the predicate cannot route.
  if (!layout.use_hilbert) return nullptr;
  const int64_t widen = (int64_t{1} << layout.hilbert_shift) - 1;
  std::vector<RangeSetExpr::Range> widened;
  widened.reserve(rs.ranges().size());
  for (const RangeSetExpr::Range& r : rs.ranges()) {
    if (r.lo.type() != bson::Type::kInt64 ||
        r.hi.type() != bson::Type::kInt64) {
      return nullptr;
    }
    widened.push_back({bson::Value::Int64(r.lo.AsInt64() - widen), r.hi});
  }
  return MakeRangeSet(rs.path(), MergeWidenedRanges(std::move(widened)));
}

}  // namespace

ExprPtr WidenForBuckets(const ExprPtr& expr,
                        const storage::BucketLayout& layout) {
  if (expr == nullptr) return nullptr;
  switch (expr->kind()) {
    case MatchExpr::Kind::kAnd: {
      const auto& and_expr = static_cast<const AndExpr&>(*expr);
      std::vector<ExprPtr> widened;
      for (const ExprPtr& child : and_expr.children()) {
        if (ExprPtr w = WidenForBuckets(child, layout)) {
          widened.push_back(std::move(w));
        }
      }
      if (widened.empty()) return nullptr;
      return MakeAnd(std::move(widened));
    }
    case MatchExpr::Kind::kOr: {
      // An $or widens only if every branch does — one unroutable branch
      // means any bucket might match.
      const auto& or_expr = static_cast<const OrExpr&>(*expr);
      std::vector<ExprPtr> widened;
      for (const ExprPtr& child : or_expr.children()) {
        ExprPtr w = WidenForBuckets(child, layout);
        if (w == nullptr) return nullptr;
        widened.push_back(std::move(w));
      }
      if (widened.empty()) return nullptr;
      return MakeOr(std::move(widened));
    }
    case MatchExpr::Kind::kCmp: {
      const auto& cmp = static_cast<const CmpExpr&>(*expr);
      if (cmp.path() == storage::kTimeField &&
          cmp.value().type() == bson::Type::kDateTime) {
        return WidenTimeCmp(cmp, layout);
      }
      return nullptr;
    }
    case MatchExpr::Kind::kRangeSet: {
      const auto& rs = static_cast<const RangeSetExpr&>(*expr);
      if (rs.path() == storage::kHilbertField) {
        return WidenHilbertRangeSet(rs, layout);
      }
      return nullptr;
    }
    default:
      return nullptr;
  }
}

namespace {

/// Folds `expr` into `spec`. Returns true iff the node was captured
/// losslessly — the conjunction of what went into the spec is equivalent to
/// the node (drives BucketPruneSpec::exact; pruning side effects happen
/// regardless).
bool ExtractInto(const ExprPtr& expr, const storage::BucketLayout& layout,
                 BucketPruneSpec* spec) {
  if (expr == nullptr) return false;
  switch (expr->kind()) {
    case MatchExpr::Kind::kAnd: {
      const auto& and_expr = static_cast<const AndExpr&>(*expr);
      bool exact = true;
      for (const ExprPtr& child : and_expr.children()) {
        exact = ExtractInto(child, layout, spec) && exact;
      }
      return exact;
    }
    case MatchExpr::Kind::kCmp: {
      const auto& cmp = static_cast<const CmpExpr&>(*expr);
      if (cmp.path() != storage::kTimeField ||
          cmp.value().type() != bson::Type::kDateTime) {
        return false;
      }
      const int64_t v = cmp.value().AsDateTime();
      switch (cmp.op()) {
        case CmpOp::kGte:
          spec->min_ts = std::max(spec->min_ts.value_or(v), v);
          break;
        case CmpOp::kGt:
          spec->min_ts = std::max(spec->min_ts.value_or(v + 1), v + 1);
          break;
        case CmpOp::kLte:
          spec->max_ts = std::min(spec->max_ts.value_or(v), v);
          break;
        case CmpOp::kLt:
          spec->max_ts = std::min(spec->max_ts.value_or(v - 1), v - 1);
          break;
        case CmpOp::kEq:
          spec->min_ts = std::max(spec->min_ts.value_or(v), v);
          spec->max_ts = std::min(spec->max_ts.value_or(v), v);
          break;
      }
      return true;
    }
    case MatchExpr::Kind::kGeoWithinBox:
    case MatchExpr::Kind::kGeoIntersectsBox:
    case MatchExpr::Kind::kGeoWithinPolygon: {
      geo::Rect box;
      std::string path;
      // A polygon contributes only its bounding box: sound for pruning,
      // lossy for exactness.
      bool lossless = true;
      if (expr->kind() == MatchExpr::Kind::kGeoWithinBox) {
        const auto& g = static_cast<const GeoWithinBoxExpr&>(*expr);
        box = g.box();
        path = g.path();
      } else if (expr->kind() == MatchExpr::Kind::kGeoIntersectsBox) {
        const auto& g = static_cast<const GeoIntersectsBoxExpr&>(*expr);
        box = g.box();
        path = g.path();
      } else {
        const auto& g = static_cast<const GeoWithinPolygonExpr&>(*expr);
        box = g.region().BoundingBox();
        path = g.path();
        lossless = false;
      }
      if (path != storage::kLocationField) return false;
      if (!spec->rect.has_value()) {
        spec->rect = box;
      } else {
        // Intersection of conjunctive boxes; an empty intersection prunes
        // every bucket, which is exactly right.
        spec->rect->lo.lon = std::max(spec->rect->lo.lon, box.lo.lon);
        spec->rect->lo.lat = std::max(spec->rect->lo.lat, box.lo.lat);
        spec->rect->hi.lon = std::min(spec->rect->hi.lon, box.hi.lon);
        spec->rect->hi.lat = std::min(spec->rect->hi.lat, box.hi.lat);
      }
      return lossless;
    }
    case MatchExpr::Kind::kRangeSet: {
      const auto& rs = static_cast<const RangeSetExpr&>(*expr);
      if (rs.path() != storage::kHilbertField || !spec->hil_ranges.empty()) {
        return false;
      }
      for (const RangeSetExpr::Range& r : rs.ranges()) {
        if (r.lo.type() != bson::Type::kInt64 ||
            r.hi.type() != bson::Type::kInt64) {
          spec->hil_ranges.clear();
          return false;
        }
        spec->hil_ranges.emplace_back(r.lo.AsInt64(), r.hi.AsInt64());
      }
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

BucketPruneSpec ExtractBucketPredicates(const ExprPtr& expr,
                                        const storage::BucketLayout& layout) {
  BucketPruneSpec spec;
  spec.exact = ExtractInto(expr, layout, &spec);
  return spec;
}

BucketUnpackStage::BucketUnpackStage(std::unique_ptr<PlanStage> child,
                                     ExprPtr point_expr,
                                     const storage::BucketLayout& layout)
    : child_(std::move(child)),
      point_expr_(std::move(point_expr)),
      prune_(ExtractBucketPredicates(point_expr_, layout)) {}

BucketUnpackStage::~BucketUnpackStage() {
  // Once per stage execution, not per bucket: the hot loop touches only
  // the stage's own fields.
  STIX_METRIC_COUNTER(pruned_counter, "bucket.buckets_pruned");
  STIX_METRIC_COUNTER(unpacked_counter, "bucket.points_unpacked");
  if (buckets_pruned_ > 0) pruned_counter.Increment(buckets_pruned_);
  if (points_unpacked_ > 0) unpacked_counter.Increment(points_unpacked_);
}

PlanStage::State BucketUnpackStage::Work(storage::RecordId* rid_out,
                                         const bson::Document** doc_out) {
  *doc_out = nullptr;
  if (next_pending_ < arena_.size()) {
    *rid_out = pending_rid_;
    *doc_out = &arena_[next_pending_++];
    return State::kAdvanced;
  }

  storage::RecordId rid = storage::kInvalidRecordId;
  const bson::Document* doc = nullptr;
  const State child_state = child_->WorkUnit(&rid, &doc);
  if (child_state != State::kAdvanced) return child_state;
  if (doc == nullptr) return State::kNeedTime;

  const std::string* blob = storage::BucketBlob(*doc);
  if (blob == nullptr) {
    // A plain (row-layout) document in the stream: filter and pass it
    // through, copied into the arena so that every document this stage
    // emits is arena-owned — the executor moves transient results out of
    // the arena wholesale, which must never touch record-store memory.
    if (point_expr_ != nullptr && !point_expr_->Matches(*doc)) {
      return State::kNeedTime;
    }
    arena_.push_back(*doc);
    next_pending_ = arena_.size();
    *rid_out = rid;
    *doc_out = &arena_.back();
    return State::kAdvanced;
  }

  Status s = reader_.Reset(blob);
  if (s.ok()) s = reader_.Select(prune_, &selection_);
  if (!s.ok()) {
    status_ = std::move(s);
    return State::kEof;
  }
  buckets_pruned_ += selection_.pruned;
  points_scanned_ += selection_.scanned;
  if (selection_.rows.empty()) return State::kNeedTime;

  if (Status b = reader_.Build(&selection_.rows, &built_);
      !b.ok()) {
    status_ = std::move(b);
    return State::kEof;
  }
  points_unpacked_ += built_.size();

  // An exact selection is the answer; otherwise it is a superset the exact
  // point expression filters.
  const bool filter = !selection_.exact && point_expr_ != nullptr;
  const size_t before = arena_.size();
  for (bson::Document& point : built_) {
    if (!filter || point_expr_->Matches(point)) {
      arena_.push_back(std::move(point));
    }
  }
  if (arena_.size() == before) return State::kNeedTime;

  // Every point of this bucket is attributed to the bucket's record id.
  pending_rid_ = rid;
  *rid_out = pending_rid_;
  *doc_out = &arena_[next_pending_++];
  return State::kAdvanced;
}

void BucketUnpackStage::AccumulateStats(ExecStats* stats) const {
  // docs_examined was charged by the child when it loaded each bucket; the
  // unpack itself examines no stored documents.
  child_->AccumulateStats(stats);
}

std::string BucketUnpackStage::Summary() const {
  return "BUCKET_UNPACK -> " + child_->Summary();
}

ExplainNode BucketUnpackStage::Explain() const {
  ExplainNode node;
  node.stage = "BUCKET_UNPACK";
  if (point_expr_ != nullptr) node.filter = point_expr_->DebugString();
  node.buckets_pruned = buckets_pruned_;
  node.points_scanned = points_scanned_;
  node.points_unpacked = points_unpacked_;
  FillExplainBase(&node);
  node.children.push_back(child_->Explain());
  return node;
}

}  // namespace stix::query
