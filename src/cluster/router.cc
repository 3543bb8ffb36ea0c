#include "cluster/router.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "cluster/profiler.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "keystring/keystring.h"
#include "query/bucket_unpack.h"
#include "query/query_analysis.h"

namespace stix::cluster {

// Fires on every ClusterCursor merge round, before the getMores go out. A
// delay action models a slow mongos merge; an error action kills the whole
// cursor (the mongos losing its cursor state).
STIX_FAIL_POINT_DEFINE(clusterMergeBatch);

namespace {

// Fixed cost charged per contacted shard in the modelled latency
// (connection handling + result batching on the mongos). The paper's
// discussion of small queries hinges on this being small but non-zero;
// it is scaled down with the data so it stays proportionally as minor
// as a LAN round trip is against the paper's 10-1000 ms queries.
constexpr double kPerNodeOverheadMs = 0.02;

std::vector<int> AllShardIds(size_t n) {
  std::vector<int> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<int>(i);
  return ids;
}

}  // namespace

RoutingTable RoutingTable::Of(const ShardKeyPattern& pattern,
                              const ChunkManager* chunks, bool resharding) {
  RoutingTable table;
  table.pattern = pattern;
  table.resharding = resharding;
  if (chunks != nullptr) {
    table.bounds.reserve(chunks->num_chunks());
    table.owners.reserve(chunks->num_chunks());
    for (const Chunk& c : chunks->chunks()) {
      table.bounds.push_back(c.min);
      table.owners.push_back(c.shard_id);
    }
  }
  return table;
}

size_t RoutingTable::FindChunkIndex(const std::string& key) const {
  // Last chunk whose lower bound is <= key (bounds[0] is MinKey).
  return static_cast<size_t>(
             std::upper_bound(bounds.begin(), bounds.end(), key) -
             bounds.begin()) -
         1;
}

std::vector<size_t> RoutingTable::ChunksIntersecting(
    const std::string& start, const std::string& end) const {
  std::vector<size_t> out;
  // The chunk holding `start` intersects (its max lies past start); so
  // does every later chunk that begins at or before `end`.
  for (size_t i = FindChunkIndex(start); i < bounds.size() && bounds[i] <= end;
       ++i) {
    out.push_back(i);
  }
  return out;
}

std::vector<int> Router::TargetShards(const query::ExprPtr& expr,
                                      bool* broadcast_out) const {
  if (broadcast_out != nullptr) *broadcast_out = false;
  const auto broadcast = [&] {
    if (broadcast_out != nullptr) *broadcast_out = true;
    return AllShardIds(shards_->size());
  };

  if (routing_.broadcast()) return broadcast();
  const ShardKeyPattern& pattern = routing_.pattern;

  const std::map<std::string, query::PathInfo> paths =
      query::AnalyzeQuery(expr);
  const auto it0 = paths.find(pattern.paths().front());
  const query::PathInfo* info0 = it0 == paths.end() ? nullptr : &it0->second;
  const index::FieldBounds bounds0 = query::AscendingBounds(info0);

  if (bounds0.full_range || bounds0.intervals.empty()) return broadcast();

  if (pattern.strategy() == ShardingStrategy::kHashed) {
    // Hashed sharding can only target equality points; anything else is a
    // broadcast (exactly MongoDB's rule).
    std::set<int> ids;
    for (const index::ValueInterval& iv : bounds0.intervals) {
      if (!iv.IsPoint()) return broadcast();
    }
    for (const index::ValueInterval& iv : bounds0.intervals) {
      bson::Document probe;
      probe.Append(pattern.paths().front(), iv.lo);
      ids.insert(routing_.owners[routing_.FindChunkIndex(pattern.KeyOf(probe))]);
    }
    return std::vector<int>(ids.begin(), ids.end());
  }

  // Range sharding: per leading-field interval, derive a KeyString interval
  // and collect intersecting chunks. Point intervals on the leading field
  // let the second field's bounds narrow the range further (the hil case:
  // one Hilbert cell, a time slice of it).
  const index::FieldBounds bounds1 =
      pattern.paths().size() > 1
          ? [&] {
              const auto it1 = paths.find(pattern.paths()[1]);
              return query::AscendingBounds(
                  it1 == paths.end() ? nullptr : &it1->second);
            }()
          : index::FieldBounds{{}, true};

  std::set<int> ids;
  for (const index::ValueInterval& iv : bounds0.intervals) {
    std::string start, end;
    if (iv.IsPoint() && !bounds1.full_range && !bounds1.intervals.empty()) {
      keystring::Builder s;
      s.AppendValue(iv.lo).AppendValue(bounds1.intervals.front().lo);
      start = std::move(s).Build();
      keystring::Builder e;
      e.AppendValue(iv.hi).AppendValue(bounds1.intervals.back().hi);
      end = std::move(e).Build() + keystring::MaxKey();
    } else {
      start = keystring::Encode(iv.lo);
      end = keystring::Encode(iv.hi) + keystring::MaxKey();
    }
    for (size_t ci : routing_.ChunksIntersecting(start, end)) {
      ids.insert(routing_.owners[ci]);
    }
  }
  return std::vector<int>(ids.begin(), ids.end());
}

query::ExprPtr Router::RoutingExpr(const query::ExprPtr& expr,
                                   const query::ExecutorOptions& exec) {
  if (exec.bucket_layout == nullptr || exec.raw_buckets) return expr;
  if (query::ExprPtr widened =
          query::WidenForBuckets(expr, *exec.bucket_layout)) {
    return widened;
  }
  return query::MakeAnd({});  // match-all: target every chunk
}

std::unique_ptr<ClusterCursor> Router::OpenCursor(
    const query::ExprPtr& expr, const query::ExecutorOptions& exec_options,
    const CursorOptions& cursor_options,
    std::shared_lock<std::shared_mutex> migration_latch) const {
  query::ExecutorOptions exec = exec_options;
  if (cursor_options.raw_buckets) exec.raw_buckets = true;
  bool broadcast = false;
  std::vector<int> targets = TargetShards(RoutingExpr(expr, exec), &broadcast);
  return std::unique_ptr<ClusterCursor>(
      new ClusterCursor(shards_, std::move(targets), broadcast, expr, exec,
                        cursor_options, profiler_,
                        std::move(migration_latch)));
}

ClusterCursor::ClusterCursor(
    const std::vector<std::unique_ptr<Shard>>* shards,
    std::vector<int> targets, bool broadcast, const query::ExprPtr& expr,
    const query::ExecutorOptions& exec_options,
    const CursorOptions& cursor_options, OpProfiler* profiler,
    std::shared_lock<std::shared_mutex> migration_latch)
    : targets_(std::move(targets)),
      broadcast_(broadcast),
      cursor_options_(cursor_options),
      expr_(expr),
      profiler_(profiler),
      migration_latch_(std::move(migration_latch)) {
  cursors_.reserve(targets_.size());
  for (int target : targets_) {
    // The limit is pushed down whole to every shard: any one shard might
    // have to satisfy it alone, and no shard ever needs to produce more.
    cursors_.push_back((*shards)[static_cast<size_t>(target)]->OpenCursor(
        expr, exec_options, cursor_options_.limit));
  }
}

std::vector<bson::Document> ClusterCursor::NextBatch() {
  std::vector<bson::Document> out;
  if (exhausted_) return out;

  if (Status s = CheckFailPoint(clusterMergeBatch); !s.ok()) {
    // The mongos lost its cursor state: the shard halves must not leak.
    status_ = std::move(s);
    exhausted_ = true;
    CloseShardCursors();
    MaybeProfile();
    return out;
  }

  const size_t n = cursors_.size();
  std::vector<ShardCursor::Batch> batches(n);
  std::vector<size_t> active;
  active.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!cursors_[i]->exhausted()) active.push_back(i);
  }
  if (active.empty()) {
    // No getMore round was issued (zero targets, or a limit satisfied
    // exactly at a shard boundary): nothing to merge and no batch to count.
    exhausted_ = true;
    CloseShardCursors();
    MaybeProfile();
    return out;
  }
  // One getMore per shard, on the calling thread. Each shard cursor times
  // its own work, so the modeled fan-out (max shard + per-node overhead +
  // merge, see Summary) needs no physical concurrency.
  for (size_t i : active) {
    batches[i] = cursors_[i]->GetMore(cursor_options_.batch_size);
  }
  // A shard dying mid-stream kills the whole cursor, as a failed getMore
  // does on mongos: surface the first error, drop this round's documents
  // (a partial round is not a result), and stop. The faulted round is NOT
  // counted in num_batches — it delivered nothing, and counting it made the
  // drained-cursor accounting diverge from one-shot Query() under fault
  // injection.
  for (size_t i : active) {
    if (!batches[i].error.ok()) {
      // The other shards' cursors are still live; close them all so the
      // cluster never leaks shard cursors on a partial failure.
      status_ = batches[i].error;
      exhausted_ = true;
      CloseShardCursors();
      MaybeProfile();
      return out;
    }
  }
  ++num_batches_;
  STIX_METRIC_COUNTER(cluster_batches, "cluster.batches");
  cluster_batches.Increment();

  // Merge in shard-target order. Batches arrive already materialized
  // (shard-owned documents, moved here for free).
  Stopwatch merge_timer;
  size_t round_docs = 0;
  for (size_t i : active) round_docs += batches[i].docs.size();
  out.reserve(round_docs);
  uint64_t round_bytes = 0;
  for (size_t i : active) {
    ShardCursor::Batch& batch = batches[i];
    for (bson::Document& doc : batch.docs) {
      if (cursor_options_.limit != 0 && returned_ >= cursor_options_.limit) {
        break;
      }
      out.push_back(std::move(doc));
      // One size walk per document, shared by both accountings: ApproxBson-
      // Size recurses through sub-documents and is measurable at scan scale.
      const uint64_t doc_bytes = out.back().ApproxBsonSize();
      bytes_materialized_ += doc_bytes;
      round_bytes += doc_bytes;
      ++returned_;
    }
  }
  merge_millis_ += merge_timer.ElapsedMillis();
  STIX_METRIC_COUNTER(cluster_bytes, "cluster.bytes_materialized");
  cluster_bytes.Increment(round_bytes);
  if (!out.empty() && first_result_millis_ < 0.0) {
    first_result_millis_ = open_timer_.ElapsedMillis();
    STIX_METRIC_HISTOGRAM(first_result, "cluster.first_result_micros");
    first_result.Observe(
        static_cast<uint64_t>(first_result_millis_ * 1000.0));
  }

  if (cursor_options_.limit != 0 && returned_ >= cursor_options_.limit) {
    exhausted_ = true;
  } else {
    exhausted_ = true;
    for (const std::unique_ptr<ShardCursor>& cursor : cursors_) {
      if (!cursor->exhausted()) {
        exhausted_ = false;
        break;
      }
    }
  }
  if (exhausted_) {
    CloseShardCursors();
    MaybeProfile();
  }
  return out;
}

void ClusterCursor::Kill() {
  if (exhausted_) return;
  status_ = Status::Internal("operation was interrupted (cursor killed)");
  exhausted_ = true;
  CloseShardCursors();
}

void ClusterCursor::CloseShardCursors() {
  for (const std::unique_ptr<ShardCursor>& cursor : cursors_) {
    cursor->Close();
  }
  if (migration_latch_.owns_lock()) migration_latch_.unlock();
}

ClusterQueryResult ClusterCursor::Summary() const {
  ClusterQueryResult result;
  result.status = status_;
  result.nodes_contacted = static_cast<int>(targets_.size());
  result.broadcast = broadcast_;
  result.shard_reports.reserve(targets_.size());
  for (size_t i = 0; i < targets_.size(); ++i) {
    ShardQueryReport report;
    report.shard_id = targets_[i];
    report.stats = cursors_[i]->stats();
    report.millis = cursors_[i]->exec_millis();
    report.winning_index = cursors_[i]->winning_index();
    result.shard_reports.push_back(std::move(report));
  }
  for (const ShardQueryReport& report : result.shard_reports) {
    result.max_keys_examined =
        std::max(result.max_keys_examined, report.stats.keys_examined);
    result.max_docs_examined =
        std::max(result.max_docs_examined, report.stats.docs_examined);
    result.total_keys_examined += report.stats.keys_examined;
    result.total_docs_examined += report.stats.docs_examined;
    result.max_shard_millis = std::max(result.max_shard_millis, report.millis);
    result.sum_shard_millis += report.millis;
  }
  result.merge_millis = merge_millis_;
  result.modeled_millis =
      result.max_shard_millis +
      kPerNodeOverheadMs * static_cast<double>(result.nodes_contacted) +
      result.merge_millis;
  result.n_returned = returned_;
  result.bytes_materialized = bytes_materialized_;
  result.first_result_millis =
      first_result_millis_ < 0.0 ? 0.0 : first_result_millis_;
  result.num_batches = num_batches_;
  return result;
}

ClusterExplain ClusterCursor::Explain(query::ExplainVerbosity verbosity) const {
  ClusterExplain explain;
  explain.verbosity = verbosity;
  explain.query = expr_ == nullptr ? "" : expr_->DebugString();
  explain.broadcast = broadcast_;
  explain.result = Summary();
  explain.shards.reserve(cursors_.size());
  for (const std::unique_ptr<ShardCursor>& cursor : cursors_) {
    explain.shards.push_back(cursor->Explain());
  }
  return explain;
}

void ClusterCursor::MaybeProfile() {
  if (profiler_ == nullptr) return;
  const double modeled = Summary().modeled_millis;
  if (!profiler_->ShouldRecord(modeled)) return;
  ProfiledOp op;
  op.query = expr_ == nullptr ? "" : expr_->DebugString();
  op.modeled_millis = modeled;
  op.explain = Explain(query::ExplainVerbosity::kExecStats);
  profiler_->Record(std::move(op));
}

uint64_t ClusterExplain::SumStageKeysExamined() const {
  uint64_t sum = 0;
  for (const ShardExplain& shard : shards) {
    sum += shard.winning_plan.TotalKeysExamined();
  }
  return sum;
}

uint64_t ClusterExplain::SumStageDocsExamined() const {
  uint64_t sum = 0;
  for (const ShardExplain& shard : shards) {
    sum += shard.winning_plan.TotalDocsExamined();
  }
  return sum;
}

std::string ClusterExplain::ToJson() const {
  std::ostringstream out;
  out << "{\"verbosity\": \"" << query::ExplainVerbosityName(verbosity)
      << "\", \"query\": \"" << query::JsonEscape(query)
      << "\", \"shardKey\": \"" << query::JsonEscape(shard_key)
      << "\", \"totalShards\": " << total_shards
      << ", \"broadcast\": " << (broadcast ? "true" : "false");
  if (verbosity != query::ExplainVerbosity::kQueryPlanner) {
    char millis[32];
    std::snprintf(millis, sizeof(millis), "%.3f", result.modeled_millis);
    out << ", \"executionStats\": {\"nReturned\": " << result.n_returned
        << ", \"totalKeysExamined\": " << result.total_keys_examined
        << ", \"totalDocsExamined\": " << result.total_docs_examined
        << ", \"nodesContacted\": " << result.nodes_contacted
        << ", \"numBatches\": " << result.num_batches
        << ", \"bytesMaterialized\": " << result.bytes_materialized
        << ", \"executionTimeMillis\": " << millis << "}";
  }
  out << ", \"shards\": [";
  for (size_t i = 0; i < shards.size(); ++i) {
    if (i > 0) out << ", ";
    out << shards[i].ToJson(verbosity);
  }
  out << "]}";
  return out.str();
}

ClusterQueryResult ClusterCursor::Drain() {
  std::vector<bson::Document> docs;
  while (!exhausted_) {
    std::vector<bson::Document> batch = NextBatch();
    if (docs.empty()) {
      docs = std::move(batch);
    } else {
      docs.insert(docs.end(), std::make_move_iterator(batch.begin()),
                  std::make_move_iterator(batch.end()));
    }
  }
  ClusterQueryResult result = Summary();
  result.docs = std::move(docs);
  return result;
}

}  // namespace stix::cluster
