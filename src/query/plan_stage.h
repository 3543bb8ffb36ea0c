#ifndef STIX_QUERY_PLAN_STAGE_H_
#define STIX_QUERY_PLAN_STAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>

#include "index/index.h"
#include "index/index_bounds.h"
#include "query/explain.h"
#include "query/expression.h"
#include "storage/btree.h"
#include "storage/record_store.h"

namespace stix::query {

/// Execution counters in MongoDB explain() vocabulary. keysExamined counts
/// index entries the scan visited (matching or not); docsExamined counts
/// FETCH-stage record loads — the paper's two cost metrics.
struct ExecStats {
  uint64_t keys_examined = 0;
  uint64_t docs_examined = 0;
  uint64_t n_returned = 0;
  uint64_t works = 0;
  std::string plan_summary;  ///< e.g. "IXSCAN {date: 1}" or "COLLSCAN".
};

/// One unit of output from a plan stage: a record id plus a document pointer
/// borrowed from the shard's RecordStore (valid until the store next
/// mutates: Insert may reallocate the slot vector, Remove kills the slot).
struct WorkItem {
  storage::RecordId rid = storage::kInvalidRecordId;
  const bson::Document* doc = nullptr;
};

/// A Volcano-with-work-units plan stage (as in MongoDB's executor): each
/// Work() call performs one unit of work and either produces a document,
/// asks for more time, or signals end of stream. The unit granularity is
/// what makes multi-plan "racing" meaningful.
class PlanStage {
 public:
  enum class State { kAdvanced, kNeedTime, kEof };

  /// Outcome of a Next() pull — either a document was produced, the stream
  /// ended, or the works budget ran out before either happened.
  enum class NextResult { kDoc, kEof, kBudget };

  virtual ~PlanStage() = default;

  /// On kAdvanced, *doc_out points at the produced document (owned by the
  /// record store) and *rid_out is its id.
  virtual State Work(storage::RecordId* rid_out,
                     const bson::Document** doc_out) = 0;

  /// Bookkeeping entry point every caller (executors, parent stages) uses
  /// instead of Work(): charges the unit to this stage's explain counters
  /// — and, when stage timing is enabled, its clock — then delegates to
  /// Work(). One branch on a bool when timing is off, so the hot path pays
  /// two increments.
  State WorkUnit(storage::RecordId* rid_out, const bson::Document** doc_out);

  /// Turns on per-stage wall-clock timing for this stage and its subtree
  /// (explain/profiler executions only — never the default query path).
  /// Times are inclusive of children, like MongoDB's
  /// executionTimeMillisEstimate.
  void EnableTiming();

  /// Explain subtree for this stage, counters included (see explain.h for
  /// what each verbosity serializes — the node always carries everything).
  virtual ExplainNode Explain() const = 0;

  /// Detaches the stage (and its subtree) from btree/record-store memory so
  /// the collection may mutate while the stage is dormant: cursors record
  /// their position as a (KeyString, RecordId) pair and are invalidated.
  /// The executor calls this at batch boundaries (a MongoDB yield).
  virtual void SaveState() {
    if (PlanStage* child = child_stage()) child->SaveState();
  }

  /// Reattaches after SaveState: cursors reposition from their saved
  /// KeyString (first entry >= the saved position), so entries inserted
  /// behind the scan point are skipped and removed entries are stepped over
  /// — MongoDB's restore contract for yielded index scans.
  virtual void RestoreState() {
    if (PlanStage* child = child_stage()) child->RestoreState();
  }

  /// Demand-driven pull: spins Work() until the stage produces a document
  /// or reaches end of stream, charging every unit spent to *works. When
  /// works_budget is non-zero the pull also stops (kBudget) once *works
  /// reaches the budget, so a caller can drain a cached plan under the
  /// replanning cap without overshooting. The budget is checked before each
  /// unit, and the Work() call that returns kEof is itself counted as a
  /// unit.
  NextResult Next(WorkItem* item, uint64_t* works, uint64_t works_budget = 0);

  virtual void AccumulateStats(ExecStats* stats) const = 0;

  virtual std::string Summary() const = 0;

  /// Non-OK when the stage ended its stream on a fault instead of at the
  /// true end (a stored bucket that fails to decode). Callers never work a
  /// stage past kEof, so the fault needs no check on the hot path.
  virtual Status status() const { return Status::OK(); }

 protected:
  /// Copies the base counters (works/advanced/time) into an explain node.
  void FillExplainBase(ExplainNode* node) const;

  /// Input stage, for EnableTiming's recursion (every stage here has at
  /// most one input). Leaf stages keep the null default.
  virtual PlanStage* child_stage() { return nullptr; }

  uint64_t stage_works_ = 0;
  uint64_t stage_advanced_ = 0;
  bool timing_enabled_ = false;
  uint64_t stage_time_nanos_ = 0;
};

/// Index scan with MongoDB-style compound-bounds checking: visits keys in
/// order, validates every field position against its interval set, and
/// seeks ahead over gaps (point-interval prefixes become direct seeks, range
/// prefixes degrade trailing bounds into per-key checks — the asymmetry
/// between the paper's bslST and bslTS lives exactly here).
class IndexScanStage : public PlanStage {
 public:
  IndexScanStage(const index::Index& idx, index::IndexBounds bounds);

  State Work(storage::RecordId* rid_out,
             const bson::Document** doc_out) override;
  void SaveState() override;
  void RestoreState() override;
  void AccumulateStats(ExecStats* stats) const override;
  std::string Summary() const override;
  ExplainNode Explain() const override;

 private:
  /// Builds the lowest possible key consistent with the bounds' first
  /// intervals, to position the initial seek.
  std::string BuildStartKey() const;

  const index::Index& index_;
  index::IndexBounds bounds_;
  storage::BTree::Cursor cursor_;
  bool initialized_ = false;
  bool done_ = false;
  // Saved scan position across a yield: the (key, rid) of the next entry to
  // examine, or "at end" when the cursor had run off the tree.
  bool saved_ = false;
  bool saved_at_end_ = false;
  std::string saved_key_;
  storage::RecordId saved_rid_ = storage::kInvalidRecordId;
  uint64_t keys_examined_ = 0;
  std::vector<bson::Value> decoded_;  // scratch
  /// Multikey indexes can emit a RecordId once per matching key; the scan
  /// deduplicates so FETCH sees each document once (MongoDB semantics).
  std::unordered_set<storage::RecordId> returned_rids_;
};

/// Fetches the document for each rid the child produces, counts it as
/// examined, and applies the residual filter (the $geoWithin refinement and
/// any predicates the index bounds did not cover).
class FetchStage : public PlanStage {
 public:
  FetchStage(const storage::RecordStore& records,
             std::unique_ptr<PlanStage> child, ExprPtr filter);

  State Work(storage::RecordId* rid_out,
             const bson::Document** doc_out) override;
  void AccumulateStats(ExecStats* stats) const override;
  std::string Summary() const override;
  ExplainNode Explain() const override;

 protected:
  PlanStage* child_stage() override { return child_.get(); }

 private:
  const storage::RecordStore& records_;
  std::unique_ptr<PlanStage> child_;
  ExprPtr filter_;
  uint64_t docs_examined_ = 0;
};

/// Full collection scan with a filter — the plan of last resort.
class CollScanStage : public PlanStage {
 public:
  CollScanStage(const storage::RecordStore& records, ExprPtr filter);

  State Work(storage::RecordId* rid_out,
             const bson::Document** doc_out) override;
  void AccumulateStats(ExecStats* stats) const override;
  std::string Summary() const override;
  ExplainNode Explain() const override;

 private:
  const storage::RecordStore& records_;
  ExprPtr filter_;
  storage::RecordId next_id_ = 1;
  uint64_t docs_examined_ = 0;
};

}  // namespace stix::query

#endif  // STIX_QUERY_PLAN_STAGE_H_
