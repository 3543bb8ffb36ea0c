#include "query/executor.h"

#include <algorithm>
#include <cmath>

#include "common/failpoint.h"
#include "common/metrics.h"

namespace stix::query {
namespace {

// A cached or cost-picked plan may spend this multiple of its expected
// works before the shape is re-raced (MongoDB's
// internalQueryCacheEvictionRatio).
constexpr double kReplanFactor = 10.0;

// Places a plan-level estimate onto the stages it predicts: est_keys on the
// first IXSCAN in the tree, est_docs on the first FETCH or COLLSCAN (the
// stage whose docs_examined counter the estimate targets).
void AnnotateEstimates(ExplainNode* node, const PlanEstimate& est,
                       bool* keys_done, bool* docs_done) {
  if (node->stage == "IXSCAN" && !*keys_done) {
    node->est_keys = est.keys;
    *keys_done = true;
  }
  if ((node->stage == "FETCH" || node->stage == "COLLSCAN") && !*docs_done) {
    node->est_docs = est.docs;
    *docs_done = true;
  }
  for (ExplainNode& child : node->children) {
    AnnotateEstimates(&child, est, keys_done, docs_done);
  }
}

}  // namespace

// Fires when Prepare finds a usable cached plan: the plan is abandoned as
// if its works budget blew on the first pull, forcing the mid-stream replan
// path (eviction + fresh multi-planner race). Results must be unaffected.
STIX_FAIL_POINT_DEFINE(planExecutorReplan);

const char* PlannedByName(PlannedBy p) {
  switch (p) {
    case PlannedBy::kNone:
      return "none";
    case PlannedBy::kSingle:
      return "single";
    case PlannedBy::kCache:
      return "cache";
    case PlannedBy::kCost:
      return "cost";
    case PlannedBy::kRace:
      return "race";
  }
  return "none";
}

PlanExecutor::PlanExecutor(const storage::RecordStore& records,
                           const index::IndexCatalog& catalog, ExprPtr expr,
                           const ExecutorOptions& options, PlanCache* cache,
                           uint64_t limit)
    : records_(records),
      catalog_(catalog),
      expr_(std::move(expr)),
      options_(options),
      cache_(cache),
      limit_(limit) {}

void PlanExecutor::PlanCandidates() {
  PlanningContext ctx;
  if (!options_.raw_buckets) ctx.bucket_layout = options_.bucket_layout;
  candidates_ = Planner::Plan(records_, catalog_, expr_, ctx);
  if (options_.stage_timing) {
    for (CandidatePlan& plan : candidates_) plan.root->EnableTiming();
  }
}

// Runs a trusted pick under its works cap, buffering results. Returns true
// when the result set is complete (EOF, or the pushed-down limit
// satisfied) — false means the cap blew and the shape must be re-raced.
bool PlanExecutor::DrainWithCap(Racer* racer, uint64_t cap) {
  WorkItem item;
  for (;;) {
    if (limit_ != 0 && racer->docs.size() >= limit_) return true;
    const PlanStage::NextResult r =
        racer->plan->root->Next(&item, &racer->works, cap);
    if (r == PlanStage::NextResult::kBudget) return false;
    if (r == PlanStage::NextResult::kEof) {
      racer->eof = true;
      return true;
    }
    racer->docs.push_back(item.doc);
    racer->rids.push_back(item.rid);
  }
}

// Races all candidates (MongoDB's multi-planner trial) and returns the
// winner, which may be partially or fully executed.
PlanExecutor::Racer* PlanExecutor::RunTrial() {
  // Per-plan works budget, as MongoDB derives it from collection size.
  const uint64_t budget =
      std::max<uint64_t>(10000, records_.num_records() * 3 / 10);
  // The pushed-down limit caps the trial's result target: once any plan can
  // satisfy the whole query there is nothing left to race for.
  uint64_t target = options_.trial_results;
  if (limit_ != 0 && limit_ < target) target = limit_;
  bool trial_over = false;
  while (!trial_over) {
    trial_over = true;
    for (Racer& racer : racers_) {
      if (racer.eof || racer.works >= budget) continue;
      trial_over = false;
      storage::RecordId rid;
      const bson::Document* doc;
      const PlanStage::State state = racer.plan->root->WorkUnit(&rid, &doc);
      ++racer.works;
      if (state == PlanStage::State::kEof) {
        racer.eof = true;
      } else if (state == PlanStage::State::kAdvanced) {
        racer.docs.push_back(doc);
        racer.rids.push_back(rid);
        if (racer.docs.size() >= target) {
          return &racer;
        }
      }
    }
  }
  // Most results; tie broken by least work done (cheapest progress).
  Racer* winner = &racers_[0];
  for (Racer& racer : racers_) {
    if (racer.docs.size() > winner->docs.size() ||
        (racer.docs.size() == winner->docs.size() &&
         racer.works < winner->works)) {
      winner = &racer;
    }
  }
  return winner;
}

void PlanExecutor::Prepare() {
  PlanCandidates();
  num_candidates_ = static_cast<int>(candidates_.size());
  STIX_METRIC_COUNTER(plans_total, "planner.plans_total");
  plans_total.Increment();
  STIX_METRIC_COUNTER(fallbacks, "planner.estimate_fallbacks");

  // A trusted pick skips the race: the plan cached for this query shape,
  // else — with fresh statistics — a decisive cost-model choice. `expected`
  // is the works figure its cap derives from.
  CandidatePlan* pick = nullptr;
  PlannedBy pick_kind = PlannedBy::kNone;
  double expected = 0.0;
  if (cache_ != nullptr && candidates_.size() > 1) {
    shape_ = MakeShape();
    if (const std::optional<PlanCacheEntry> entry = cache_->Lookup(shape_)) {
      for (CandidatePlan& plan : candidates_) {
        if (plan.index_name == entry->index_name) {
          pick = &plan;
          pick_kind = PlannedBy::kCache;
          expected = static_cast<double>(entry->works);
          break;
        }
      }
    }
  }
  // Cost-based selection estimates every candidate from the shard's
  // histograms. It never second-guesses a cached plan: a shape whose cached
  // plan blows its cap is exactly where estimates have been misleading, so
  // the race re-measures reality.
  if (pick == nullptr && candidates_.size() > 1 &&
      options_.plan_selection == PlanSelectionMode::kCost &&
      options_.shard_stats != nullptr) {
    if (!options_.shard_stats->ReliableForEstimation()) {
      STIX_METRIC_COUNTER(stale_stats, "planner.stale_stats");
      stale_stats.Increment();
      fallbacks.Increment();
    } else {
      PlanChoice choice = ChoosePlan(candidates_, *options_.shard_stats,
                                     options_.cost_confidence_margin);
      estimates_ = std::move(choice.estimates);
      if (choice.winner >= 0) {
        pick = &candidates_[static_cast<size_t>(choice.winner)];
        pick_kind = PlannedBy::kCost;
        expected = estimates_[static_cast<size_t>(choice.winner)].cost;
      } else {
        fallbacks.Increment();
      }
    }
  }

  if (pick != nullptr) {
    // The pick may spend kReplanFactor x its expected works, so a bad
    // cache entry or estimate costs a bounded amount before the race takes
    // over.
    const uint64_t cap = std::max<uint64_t>(
        options_.replan_min_works,
        static_cast<uint64_t>(kReplanFactor * expected));
    const bool forced_replan = pick_kind == PlannedBy::kCache &&
                               planExecutorReplan.Evaluate().has_value();
    if (!forced_replan) {
      racers_.push_back(Racer{pick, {}, {}, 0, false});
      if (DrainWithCap(&racers_.back(), cap)) {
        winner_ = &racers_.back();
        planned_by_ = pick_kind;
        if (pick_kind == PlannedBy::kCost) {
          STIX_METRIC_COUNTER(estimated, "planner.plans_estimated");
          estimated.Increment();
        }
        phase_ = Phase::kBuffer;
        return;
      }
    }
    // The cap blew: a cached plan is evicted (MongoDB's replanning), a
    // cost pick records an estimate miss. Either way the partially-run
    // stages cannot be reused — the racer and its plan pointer die before
    // the candidates are rebuilt for a fresh race.
    if (pick_kind == PlannedBy::kCache) {
      cache_->Evict(shape_);
      STIX_METRIC_COUNTER(replans, "executor.replans");
      replans.Increment();
      replanned_ = true;
    } else {
      STIX_METRIC_COUNTER(misses, "planner.estimate_misses");
      misses.Increment();
      fallbacks.Increment();
      estimates_.clear();
    }
    racers_.clear();
    PlanCandidates();
  }

  racers_.reserve(candidates_.size());
  for (CandidatePlan& plan : candidates_) {
    racers_.push_back(Racer{&plan, {}, {}, 0, false});
  }
  winner_ = &racers_[0];
  if (racers_.size() > 1) {
    winner_ = RunTrial();
    planned_by_ = PlannedBy::kRace;
    STIX_METRIC_COUNTER(raced, "planner.plans_raced");
    raced.Increment();
  } else {
    planned_by_ = PlannedBy::kSingle;
  }
  phase_ = Phase::kBuffer;
}

bool PlanExecutor::Next(storage::RecordId* rid_out,
                        const bson::Document** doc_out) {
  if (phase_ == Phase::kInit) Prepare();
  if (phase_ == Phase::kDone) return false;
  if (limit_ != 0 && returned_ >= limit_) {
    Finish();
    return false;
  }
  if (phase_ == Phase::kBuffer) {
    // Replay what the trial (or cached drain) already produced.
    if (buffer_pos_ < winner_->docs.size()) {
      *rid_out = winner_->rids[buffer_pos_];
      *doc_out = winner_->docs[buffer_pos_];
      ++buffer_pos_;
      ++returned_;
      return true;
    }
    phase_ = Phase::kStream;
  }
  if (winner_->eof) {
    Finish();
    return false;
  }
  WorkItem item;
  const PlanStage::NextResult r =
      winner_->plan->root->Next(&item, &winner_->works);
  if (r == PlanStage::NextResult::kEof) {
    winner_->eof = true;
    Finish();
    return false;
  }
  *rid_out = item.rid;
  *doc_out = item.doc;
  ++returned_;
  return true;
}

void PlanExecutor::SaveState() {
  if (phase_ == Phase::kInit || phase_ == Phase::kDone || saved_) return;
  if (phase_ == Phase::kBuffer && !winner_transient()) {
    // Unreturned buffered results still point into the record store;
    // materialize them into executor-owned storage and repoint. The deque
    // never reallocates elements, so earlier repointed entries stay valid.
    // (Transient plans need none of this: their documents live in the
    // stage's own arena, which yields cannot invalidate.)
    for (size_t i = buffer_pos_; i < winner_->docs.size(); ++i) {
      owned_buffer_.push_back(*winner_->docs[i]);
      winner_->docs[i] = &owned_buffer_.back();
    }
  }
  winner_->plan->root->SaveState();
  saved_ = true;
}

void PlanExecutor::RestoreState() {
  if (!saved_) return;
  saved_ = false;
  winner_->plan->root->RestoreState();
}

void PlanExecutor::Finish() {
  phase_ = Phase::kDone;
  // A raced or cost-picked winner that ran to EOF is remembered with its
  // full works figure — the number later replanning caps derive from. A
  // stream abandoned early (limit) or ended by a fault stores nothing: a
  // partial works count would poison those caps.
  const bool selected =
      planned_by_ == PlannedBy::kRace || planned_by_ == PlannedBy::kCost;
  if (selected && winner_ != nullptr && winner_->eof && cache_ != nullptr &&
      status().ok()) {
    if (shape_.empty()) shape_ = MakeShape();
    cache_->Store(shape_, winner_->plan->index_name, winner_->works);
  }
  // Measure estimation accuracy against the drain that actually happened.
  // Only full drains count: a limit-k execution stops early, so its actual
  // counters are not comparable to the full-drain estimate.
  const PlanEstimate* est = winner_estimate();
  if (est != nullptr && winner_ != nullptr && winner_->eof && limit_ == 0) {
    ExecStats stats;
    winner_->plan->root->AccumulateStats(&stats);
    const double actual =
        static_cast<double>(stats.keys_examined + stats.docs_examined);
    const double predicted = est->keys + est->docs;
    const double rel_err =
        std::abs(predicted - actual) / std::max(1.0, actual);
    STIX_METRIC_HISTOGRAM(err_pct, "planner.estimate_error_pct");
    err_pct.Observe(static_cast<uint64_t>(rel_err * 100.0));
  }
}

const PlanEstimate* PlanExecutor::EstimateForPlan(
    const CandidatePlan* plan) const {
  if (estimates_.empty() || plan == nullptr) return nullptr;
  const CandidatePlan* base = candidates_.data();
  if (plan < base || plan >= base + candidates_.size()) return nullptr;
  const size_t i = static_cast<size_t>(plan - base);
  if (i >= estimates_.size() || !estimates_[i].valid) return nullptr;
  return &estimates_[i];
}

const PlanEstimate* PlanExecutor::winner_estimate() const {
  if (winner_ == nullptr) return nullptr;
  return EstimateForPlan(winner_->plan);
}

// Bucket-unpacked and raw executions of the same expression have different
// plan spaces; keep their cache entries apart.
std::string PlanExecutor::MakeShape() const {
  std::string shape = QueryShape(*expr_);
  if (options_.bucket_layout != nullptr && !options_.raw_buckets) {
    shape.insert(0, "bucket|");
  }
  return shape;
}

ExecStats PlanExecutor::CurrentStats() const {
  ExecStats stats;
  if (winner_ == nullptr) return stats;
  winner_->plan->root->AccumulateStats(&stats);
  stats.works = winner_->works;
  stats.n_returned = returned_;
  stats.plan_summary = winner_->plan->summary;
  return stats;
}

Status PlanExecutor::status() const {
  return winner_ == nullptr ? Status::OK() : winner_->plan->root->status();
}

ExplainNode PlanExecutor::ExplainWinner() const {
  if (winner_ == nullptr) {
    ExplainNode none;
    none.stage = "NONE";
    return none;
  }
  ExplainNode node = winner_->plan->root->Explain();
  if (const PlanEstimate* est = EstimateForPlan(winner_->plan)) {
    bool keys_done = false, docs_done = false;
    AnnotateEstimates(&node, *est, &keys_done, &docs_done);
  }
  return node;
}

std::vector<ExplainNode> PlanExecutor::ExplainRejected() const {
  std::vector<ExplainNode> rejected;
  for (const Racer& racer : racers_) {
    if (&racer == winner_) continue;
    rejected.push_back(racer.plan->root->Explain());
    if (const PlanEstimate* est = EstimateForPlan(racer.plan)) {
      bool keys_done = false, docs_done = false;
      AnnotateEstimates(&rejected.back(), *est, &keys_done, &docs_done);
    }
  }
  return rejected;
}

const std::string& PlanExecutor::winning_index() const {
  static const std::string kNoWinner;
  return winner_ == nullptr ? kNoWinner : winner_->plan->index_name;
}

}  // namespace stix::query
