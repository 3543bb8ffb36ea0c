#ifndef STIX_QUERY_EXECUTOR_H_
#define STIX_QUERY_EXECUTOR_H_

#include <cassert>
#include <deque>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "query/cost.h"
#include "query/plan_cache.h"
#include "query/planner.h"

namespace stix::query {

/// How plan selection settles on a winner when several candidates exist.
enum class PlanSelectionMode {
  /// Always run the multi-planner trial race (the pre-stats behaviour).
  kRace,
  /// Estimate each candidate from the shard's histograms first and pick
  /// outright when the margin test is decisive; race only under
  /// uncertainty (stale stats, missing histograms, close estimates) or
  /// when a cost-picked plan blows its derived works cap. The default.
  kCost,
};

/// How one execution settled on its winning plan (explain/profiler and
/// the fuzz oracle's counters).
enum class PlannedBy {
  kNone,    ///< Not prepared yet.
  kSingle,  ///< One candidate — nothing to select.
  kCache,   ///< Replayed a cached plan for the shape.
  kCost,    ///< Cost model picked outright from histogram estimates.
  kRace,    ///< Multi-planner trial race.
};

const char* PlannedByName(PlannedBy p);

/// Knobs of the trial-based plan selection (MongoDB's multi-planner).
struct ExecutorOptions {
  /// A plan that produces this many results during the trial wins
  /// immediately (MongoDB's 101).
  uint64_t trial_results = 101;
  /// A cached plan may spend up to 10x its cached works (MongoDB's
  /// internalQueryCacheEvictionRatio), but at least replan_min_works, before
  /// it is abandoned and the shape re-raced.
  uint64_t replan_min_works = 200;
  /// Per-stage wall-clock timing on every plan stage (explain/profiler
  /// executions). Off by default: normal queries pay no clock reads.
  bool stage_timing = false;
  /// Non-null when the collection stores bucket documents (see
  /// storage/bucket.h): queries plan as BUCKET_UNPACK over widened bounds
  /// and return decoded *points*. The layout must match what the writing
  /// BucketCatalog used.
  std::shared_ptr<const storage::BucketLayout> bucket_layout;
  /// With bucket_layout set, true bypasses the unpack and runs the query
  /// against the raw bucket documents (routing metadata scans, deletes).
  /// The expression must then be bucket-level (already widened).
  bool raw_buckets = false;
  /// See PlanSelectionMode. kCost additionally needs `shard_stats`; with
  /// no statistics attached the executor behaves exactly like kRace.
  PlanSelectionMode plan_selection = PlanSelectionMode::kCost;
  /// A cost-based pick is decisive only when the runner-up's (smoothed)
  /// estimated cost is at least this factor above the best candidate's.
  double cost_confidence_margin = 1.5;
  /// The owning shard's statistics, or null (estimation disabled). The
  /// executor only reads; the shard maintains and rebuilds.
  const stats::ShardStatistics* shard_stats = nullptr;
};

/// Result of running one query on one shard-local collection.
///
/// Matched documents are returned as borrowed pointers into the shard's
/// RecordStore — the executor copies nothing. Pointers stay valid until the
/// collection is next mutated; callers that outlive that window materialize
/// what they need exactly once (MaterializeDocs).
struct ExecutionResult {
  std::vector<const bson::Document*> docs;
  /// RecordIds parallel to `docs` (diagnostics).
  /// Bucket-unpacked points share their bucket's record id, so ids can
  /// repeat.
  std::vector<storage::RecordId> rids;

  /// Bucket-unpacked executions only: the decoded points, owned by the
  /// result itself (`docs` points into this vector; moving the result
  /// moves the buffer, so the pointers survive). Empty for row-layout
  /// executions, whose docs borrow from the record store instead.
  std::vector<bson::Document> owned;

  /// Borrow guard: the store the pointers borrow from and its generation at
  /// production time (see RecordStore::generation()). Reading `docs` after
  /// the store mutated is a use-after-mutate bug — debug builds abort via
  /// CheckBorrows(), release builds can test BorrowsValid().
  const storage::RecordStore* borrow_source = nullptr;
  uint64_t borrow_generation = 0;

  bool BorrowsValid() const {
    return borrow_source == nullptr ||
           borrow_source->generation() == borrow_generation;
  }
  void CheckBorrows() const { assert(BorrowsValid()); }

  /// Copies the matched documents out of the record store (the one
  /// materialization point for callers that need owned documents).
  std::vector<bson::Document> MaterializeDocs() const {
    CheckBorrows();
    std::vector<bson::Document> out;
    out.reserve(docs.size());
    for (const bson::Document* d : docs) out.push_back(*d);
    return out;
  }

  ExecStats stats;
  double exec_millis = 0.0;
  std::string winning_index;  ///< Index the (multi-)planner settled on.
  int num_candidates = 0;
  bool from_plan_cache = false;
  /// True when a cached plan blew its works budget and the shape was
  /// re-raced during this execution.
  bool replanned = false;
  /// How the winner was selected (see PlannedBy).
  PlannedBy planned_by = PlannedBy::kNone;
  /// Winning plan's histogram estimate when one was computed (negative
  /// when estimation did not run or was invalid for the winner).
  double estimated_keys = -1.0;
  double estimated_docs = -1.0;
};

/// Resumable, demand-driven query executor — the shard half of the
/// streaming pipeline. Construction is cheap; the first Next() call plans
/// the query and settles on a winner (replaying a cached plan under the
/// replanning budget, re-racing mid-stream when the budget blows, or
/// running the full multi-plan trial race), and every Next() after that
/// pulls a single result from the winning plan on demand.
///
/// A non-zero `limit` is pushed down: the stream ends after `limit`
/// documents and the trial race's result target is capped to it, so a
/// limit-k execution examines strictly fewer keys/docs than a full drain.
/// An unlimited drain performs the exact Work()-call sequence of the old
/// batch executor, so stats, winner and cache state come out identical.
///
/// Lifetime: borrows `records`, `catalog` and `cache` and yields document
/// pointers into `records`; consume results before the collection next
/// mutates (see ExecutionResult's borrow guard) and do not outlive the
/// shard.
class PlanExecutor {
 public:
  PlanExecutor(const storage::RecordStore& records,
               const index::IndexCatalog& catalog, ExprPtr expr,
               const ExecutorOptions& options = {}, PlanCache* cache = nullptr,
               uint64_t limit = 0);

  PlanExecutor(const PlanExecutor&) = delete;
  PlanExecutor& operator=(const PlanExecutor&) = delete;

  /// Pulls the next result; false at end of stream (EOF or limit reached),
  /// after which the stats/winner accessors are final. *doc_out borrows
  /// from the record store.
  bool Next(storage::RecordId* rid_out, const bson::Document** doc_out);

  /// True once Next() has returned false.
  bool exhausted() const { return phase_ == Phase::kDone; }

  /// Detaches the execution from btree/record-store memory so the
  /// collection may mutate while the executor is dormant (a MongoDB yield):
  /// unreturned trial-race results are materialized into executor-owned
  /// storage and every stage cursor collapses to its last KeyString
  /// position. Called by ShardCursor at batch boundaries, while the shard
  /// lock is still held. Idempotent; a no-op before the first Next() and
  /// after exhaustion.
  void SaveState();

  /// Repositions the stages after SaveState, before the next pull — under
  /// the shard lock. Entries removed during the yield are stepped over;
  /// entries inserted behind the scan position are not revisited.
  void RestoreState();

  /// Counters accumulated so far; after an unlimited drain they match the
  /// batch executor's ExecStats exactly.
  ExecStats CurrentStats() const;

  uint64_t n_returned() const { return returned_; }
  const std::string& winning_index() const;
  /// True when the winning plan's documents are owned by the plan itself
  /// (BUCKET_UNPACK arena) — they die with this executor, not with the
  /// next collection mutation. False before the first Next().
  bool winner_transient() const {
    return winner_ != nullptr && winner_->plan->transient_docs;
  }
  int num_candidates() const { return num_candidates_; }
  bool from_plan_cache() const { return from_plan_cache_; }
  bool replanned() const { return replanned_; }
  PlannedBy planned_by() const { return planned_by_; }
  /// The winner's histogram estimate, or null when estimation did not run
  /// or produced nothing valid for the winning candidate.
  const PlanEstimate* winner_estimate() const;

  /// Explain tree of the winning plan. The counters are whatever the
  /// execution has accumulated so far, so after a drain the tree's
  /// keys/docs sums equal CurrentStats() exactly (winner-only, like the
  /// stats — losing racers and an abandoned cached plan report through
  /// ExplainRejected instead). An unprepared executor returns an empty
  /// "NONE" node.
  ExplainNode ExplainWinner() const;

  /// Explain trees of every candidate that did not win (trial losers, and
  /// the abandoned cached plan's fresh re-race losers), with the partial
  /// counters they accumulated.
  std::vector<ExplainNode> ExplainRejected() const;

 private:
  enum class Phase { kInit, kBuffer, kStream, kDone };

  // Racers accumulate borrowed pointers during the trial — losing
  // candidates never copy a document, and the winner's buffered results
  // are replayed to the caller before live streaming resumes.
  struct Racer {
    CandidatePlan* plan;
    std::vector<const bson::Document*> docs;
    std::vector<storage::RecordId> rids;
    uint64_t works = 0;
    bool eof = false;
  };

  void Prepare();
  std::string MakeShape() const;
  bool DrainCachedWithCap(Racer* racer, uint64_t cap);
  Racer* RunTrial();
  void Finish();
  /// Estimate recorded for `plan` by the last ChoosePlan call, if any.
  const PlanEstimate* EstimateForPlan(const CandidatePlan* plan) const;

  const storage::RecordStore& records_;
  const index::IndexCatalog& catalog_;
  ExprPtr expr_;
  ExecutorOptions options_;
  PlanCache* cache_;
  uint64_t limit_;

  Phase phase_ = Phase::kInit;
  std::vector<CandidatePlan> candidates_;
  std::vector<Racer> racers_;
  Racer* winner_ = nullptr;
  // Documents materialized out of the record store at SaveState so the
  // buffered replay survives mutation; a deque so pointers handed back to
  // the winner's doc vector stay stable as more yields append.
  std::deque<bson::Document> owned_buffer_;
  bool saved_ = false;
  size_t buffer_pos_ = 0;
  uint64_t returned_ = 0;
  std::string shape_;
  bool raced_ = false;
  int num_candidates_ = 0;
  bool from_plan_cache_ = false;
  bool replanned_ = false;
  PlannedBy planned_by_ = PlannedBy::kNone;
  /// Parallel to candidates_ when cost selection ran (cleared on replan —
  /// indexes would go stale against a rebuilt candidate vector).
  std::vector<PlanEstimate> estimates_;
};

/// Plans and runs a query to completion (open + drain over PlanExecutor).
/// With multiple candidate plans the candidates race for a trial period and
/// the most productive one continues — this is the mechanism behind the
/// paper's Table 7 (bslST sometimes running on the {date} shard-key index
/// instead of the compound index).
///
/// When `cache` is non-null, a winning multi-plan race is remembered by
/// query shape and later executions of the same shape skip the race
/// (MongoDB's plan cache; its warm-state measurements depend on it).
ExecutionResult ExecuteQuery(const storage::RecordStore& records,
                             const index::IndexCatalog& catalog,
                             const ExprPtr& expr,
                             const ExecutorOptions& options = {},
                             PlanCache* cache = nullptr);

}  // namespace stix::query

#endif  // STIX_QUERY_EXECUTOR_H_
