#ifndef STIX_QUERY_BUCKET_UNPACK_H_
#define STIX_QUERY_BUCKET_UNPACK_H_

#include <cstdint>
#include <deque>
#include <memory>

#include "query/plan_stage.h"
#include "storage/bucket.h"

namespace stix::query {

/// Rewrites a point-level match expression into a predicate that is safe to
/// evaluate against *bucket documents* of the given layout: every bucket
/// containing at least one matching point satisfies the rewrite. Used for
/// index bounds, shard routing and the multi-plan candidates — never as the
/// final filter (BucketUnpackStage re-applies the exact point expression
/// after decompression).
///
/// The rewrite follows MongoDB's time-series $_internalUnpackBucket
/// predicate mapping, specialised to this engine's expression subset:
///  - kTimeField comparisons widen their lower bound by window_ms - 1
///    (a bucket's date carries the window start, and points lie in
///    [date, date + window)); $eq becomes the widened closed range.
///  - kHilbertField RangeSets widen each range's lower bound by
///    2^hilbert_shift - 1 (a bucket's hilbertIndex carries its cell base),
///    then re-merge overlaps so the result is again sorted and disjoint.
///  - $and maps over its children; anything else (geo predicates,
///    per-point fields, $or) is dropped — buckets cannot be filtered by
///    them before unpacking.
///
/// Returns nullptr when nothing routable survives (callers treat that as
/// match-all / broadcast).
ExprPtr WidenForBuckets(const ExprPtr& expr,
                        const storage::BucketLayout& layout);

/// The bucket-level bounds BucketUnpackStage extracts from the point
/// expression once, at construction, and hands to the bucket predicate
/// kernel (storage::BucketReader::Select).
using BucketPruneSpec = storage::BucketPruneSpec;

/// Extracts the prunable conjuncts of `expr` (top-level $and walk, same
/// recognition rules as WidenForBuckets).
BucketPruneSpec ExtractBucketPredicates(const ExprPtr& expr,
                                        const storage::BucketLayout& layout);

/// MongoDB's $_internalUnpackBucket as a plan stage: pulls bucket documents
/// from its child (FETCH over the widened bounds, or COLLSCAN), runs the
/// bucket predicate kernel on each — metadata pruning, then the time/rect/
/// hil bounds over the ts/lon/lat/hil columns — and builds only the selected
/// rows into point documents. A bucket with no selected row never has its
/// `_id`, position or residual columns decoded. When the selection is exact
/// it is the answer; otherwise the exact point expression filters the built
/// rows.
///
/// Decoded points live in a stage-owned arena that is never discarded while
/// the stage lives, so emitted document pointers obey the same borrowed-
/// pointer protocol as record-store documents — but they do NOT survive the
/// executor: plans containing this stage are marked transient_docs and the
/// executor materializes their results (see CandidatePlan).
///
/// A bucket that fails to decode ends the stream: Work() returns kEof and
/// status() carries the Corruption, so the query fails instead of silently
/// missing the bucket's points.
///
/// Counter semantics: docs_examined stays 0 here (the child's FETCH/
/// COLLSCAN already counted each bucket load, keeping the explain
/// sum-over-tree invariant); buckets_pruned (skipped on metadata),
/// points_scanned (rows checked on the columns) and points_unpacked (rows
/// built into documents) are this stage's own explain fields. The stage
/// adds its buckets_pruned / points_unpacked to the registry counters of
/// the same names once, when it is destroyed.
class BucketUnpackStage : public PlanStage {
 public:
  BucketUnpackStage(std::unique_ptr<PlanStage> child, ExprPtr point_expr,
                    const storage::BucketLayout& layout);
  ~BucketUnpackStage() override;

  State Work(storage::RecordId* rid_out,
             const bson::Document** doc_out) override;
  void AccumulateStats(ExecStats* stats) const override;
  std::string Summary() const override;
  ExplainNode Explain() const override;
  Status status() const override { return status_; }

  uint64_t buckets_pruned() const { return buckets_pruned_; }
  uint64_t points_scanned() const { return points_scanned_; }
  uint64_t points_unpacked() const { return points_unpacked_; }

 protected:
  PlanStage* child_stage() override { return child_.get(); }

 private:
  std::unique_ptr<PlanStage> child_;
  ExprPtr point_expr_;
  BucketPruneSpec prune_;

  /// Pointer-stable arena of every matching decoded point (deque: grows
  /// without relocation). Pending points are emitted one per Work() call.
  std::deque<bson::Document> arena_;
  size_t next_pending_ = 0;       ///< First arena entry not yet emitted.
  storage::RecordId pending_rid_ = storage::kInvalidRecordId;

  /// One reader, selection and build buffer for every bucket of the scan:
  /// their buffers are reused, not reallocated per bucket.
  storage::BucketReader reader_;
  storage::BucketSelection selection_;
  std::vector<bson::Document> built_;

  uint64_t buckets_pruned_ = 0;
  uint64_t points_scanned_ = 0;
  uint64_t points_unpacked_ = 0;
  Status status_;
};

}  // namespace stix::query

#endif  // STIX_QUERY_BUCKET_UNPACK_H_
