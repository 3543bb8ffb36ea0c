#ifndef STIX_CLUSTER_ROUTER_H_
#define STIX_CLUSTER_ROUTER_H_

#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cluster/chunk.h"
#include "cluster/shard.h"
#include "common/stopwatch.h"

namespace stix::cluster {

class OpProfiler;

/// Knobs for a streaming cluster cursor.
struct CursorOptions {
  /// Documents requested from each shard per getMore round; 0 drains every
  /// shard in a single round (the classic run-to-completion gather).
  size_t batch_size = 101;
  /// Total documents the cursor will produce; 0 = unlimited. Pushed down to
  /// every shard executor (trial target and stream length), so limit-k
  /// queries examine strictly fewer keys/docs than a full drain.
  uint64_t limit = 0;
  /// Bucketed clusters only: stream the raw *bucket documents* instead of
  /// decoded points. The expression must then be bucket-level (already
  /// widened) — used for metadata scans (kNN seeding) and deletes.
  bool raw_buckets = false;
};

/// Per-shard slice of a scatter/gather execution.
struct ShardQueryReport {
  int shard_id = 0;
  query::ExecStats stats;
  double millis = 0.0;
  std::string winning_index;
};

/// Cluster-level query outcome with the paper's four metrics: execution
/// time, max keys examined on any node, max docs examined on any node, and
/// nodes contacted.
struct ClusterQueryResult {
  std::vector<bson::Document> docs;

  /// Non-OK when the stream was killed by a shard or merge fault (e.g. an
  /// injected fail point): `docs` then holds only the rounds merged before
  /// the fault. OK for every clean execution.
  Status status;

  int nodes_contacted = 0;
  bool broadcast = false;

  uint64_t max_keys_examined = 0;
  uint64_t max_docs_examined = 0;
  uint64_t total_keys_examined = 0;
  uint64_t total_docs_examined = 0;

  /// Slowest shard (per-shard work is measured one shard at a time, so this
  /// is the latency a deployment with one node per shard would see).
  double max_shard_millis = 0.0;
  double sum_shard_millis = 0.0;
  double merge_millis = 0.0;
  /// max_shard + 0.02 ms per node + merge: the headline execution time.
  double modeled_millis = 0.0;

  /// Streaming accounting: documents the merge produced, bytes copied out
  /// of shard record stores at the materialization point, time from cursor
  /// open to the first non-empty merged batch, and getMore rounds issued.
  /// For a full drain n_returned == docs.size().
  uint64_t n_returned = 0;
  uint64_t bytes_materialized = 0;
  double first_result_millis = 0.0;
  int num_batches = 0;

  std::vector<ShardQueryReport> shard_reports;
};

/// Cluster-level explain: the targeting decision, this execution's totals,
/// and every contacted shard's explain slice (winning stage tree, rejected
/// candidates). Produced by one real execution — the stage trees and
/// `result` describe the same run, so per-stage keys/docs summed over the
/// shard trees equal result.total_* exactly. The shard-key / total-shards
/// framing and any approach-level covering cost are attached by the layers
/// that know them (Cluster, st::StStore).
struct ClusterExplain {
  query::ExplainVerbosity verbosity = query::ExplainVerbosity::kExecStats;
  std::string query;      ///< Filter, in MatchExpr debug syntax.
  std::string shard_key;  ///< "{date: 1}" etc.; set by Cluster.
  int total_shards = 0;   ///< Cluster size; set by Cluster.
  bool broadcast = false;
  /// Totals of the explain execution, docs dropped (explain reports, it
  /// does not return result sets).
  ClusterQueryResult result;
  std::vector<ShardExplain> shards;

  /// Sums of per-stage counters over every shard's winning tree; equal to
  /// result.total_keys_examined / total_docs_examined by construction.
  uint64_t SumStageKeysExamined() const;
  uint64_t SumStageDocsExamined() const;

  std::string ToJson() const;
};

/// A streaming scatter/gather cursor (the mongos getMore loop): each
/// NextBatch() asks every still-open shard cursor for one batch, one shard
/// after another on the calling thread, and merges the results in
/// shard-target order. Memory held at any moment is one batch per shard
/// instead of the full result set, and a pushed-down limit stops all
/// shard-side work as soon as it is satisfied.
///
/// Lifetime: borrows the shards (via their cursors). The cursor survives
/// concurrent inserts and balancer rounds: it holds the cluster's
/// migration-commit latch shared for its lifetime (chunk *copies* proceed,
/// chunk ownership cannot flip mid-stream) and every batch is
/// shard-materialized, so each merged batch the caller receives is owned.
///
/// Resource discipline: every path that abandons the stream — exhaustion,
/// a shard getMore fault, a merge fault, Kill(), destruction — closes all
/// outstanding shard cursors and releases the migration latch, so the
/// "cluster.open_cursors" gauge always returns to zero.
class ClusterCursor {
 public:
  ClusterCursor(const ClusterCursor&) = delete;
  ClusterCursor& operator=(const ClusterCursor&) = delete;

  ~ClusterCursor() { CloseShardCursors(); }

  /// Pulls and merges the next round of per-shard batches. An empty return
  /// means the stream is exhausted (the converse does not hold: the final
  /// batch of a limited stream can be non-empty).
  std::vector<bson::Document> NextBatch();

  bool exhausted() const { return exhausted_; }

  /// Non-OK once a shard died mid-stream or the merge faulted; the cursor
  /// is then exhausted and produces no further documents.
  const Status& status() const { return status_; }

  /// Kills the stream (mongos killCursors): the cursor becomes exhausted
  /// with a non-OK status, every outstanding shard cursor is closed and the
  /// migration latch released. Idempotent; a no-op after exhaustion.
  void Kill();

  /// Metrics accumulated so far (complete once exhausted), with `docs`
  /// left empty — batches hand ownership to the caller as they stream.
  ClusterQueryResult Summary() const;

  /// Drains the remaining stream and returns the full result, docs
  /// included — Cluster::Query is exactly open + Drain with batch size 0.
  ClusterQueryResult Drain();

  /// Explain view of this cursor's execution so far (complete once
  /// exhausted): Summary() totals plus every shard cursor's stage trees.
  /// shard_key/total_shards are left for the owning Cluster to fill.
  ClusterExplain Explain(query::ExplainVerbosity verbosity) const;

  const std::vector<int>& targets() const { return targets_; }

 private:
  friend class Router;
  ClusterCursor(const std::vector<std::unique_ptr<Shard>>* shards,
                std::vector<int> targets, bool broadcast,
                const query::ExprPtr& expr,
                const query::ExecutorOptions& exec_options,
                const CursorOptions& cursor_options,
                OpProfiler* profiler,
                std::shared_lock<std::shared_mutex> migration_latch);

  /// Hands the finished op to the profiler when it crosses the slow-op
  /// threshold. Called exactly once, at the exhaustion transition.
  void MaybeProfile();

  /// Closes every outstanding shard cursor and releases the migration
  /// latch. Idempotent; called on every exhaustion transition and from the
  /// destructor. Shard cursors stay allocated (their stats feed
  /// Summary/Explain after the stream ends) — only their shard claims drop.
  void CloseShardCursors();

  std::vector<int> targets_;
  bool broadcast_ = false;
  CursorOptions cursor_options_;
  query::ExprPtr expr_;  ///< For explain/profiler rendering.
  OpProfiler* profiler_ = nullptr;

  /// Parallel to targets_.
  std::vector<std::unique_ptr<ShardCursor>> cursors_;
  bool exhausted_ = false;
  Status status_;
  uint64_t returned_ = 0;
  uint64_t bytes_materialized_ = 0;
  double merge_millis_ = 0.0;
  double first_result_millis_ = -1.0;  // <0 = no result produced yet
  int num_batches_ = 0;
  Stopwatch open_timer_;
  /// Held shared for the cursor's lifetime: chunk ownership cannot commit
  /// while any cluster cursor streams (the migration's copy phase still
  /// runs concurrently). Default-constructed (empty) when the owning
  /// cluster has no latch.
  std::shared_lock<std::shared_mutex> migration_latch_;
};

/// An immutable snapshot of everything targeting reads: the shard key, the
/// chunk lower bounds in key order and each chunk's owning shard (the
/// mongos' cached, versioned chunk table). The Cluster builds a fresh one
/// after every routing change and publishes it; a query targets from the
/// snapshot it loaded and never waits for a topology writer. Byte/doc
/// accounting stays in the writer-side ChunkManager.
struct RoutingTable {
  /// The live shard key (empty until the collection is sharded).
  ShardKeyPattern pattern;
  /// bounds[i] is chunk i's inclusive lower bound; chunk i ends where
  /// chunk i+1 begins, and the last chunk runs to MaxKey.
  std::vector<std::string> bounds;
  /// owners[i] is the shard holding chunk i.
  std::vector<int> owners;
  /// True while a reshard is between its routing flip and its last chunk
  /// move.
  bool resharding = false;

  /// Snapshot of `chunks` (null before sharding) under `pattern`.
  static RoutingTable Of(const ShardKeyPattern& pattern,
                         const ChunkManager* chunks, bool resharding);

  /// Every query contacts every shard: the collection is not sharded yet,
  /// or a reshard is in flight and a document may sit on either its old or
  /// its new owner.
  bool broadcast() const { return resharding || pattern.empty(); }

  /// Index of the chunk owning `key` (requires a sharded table).
  size_t FindChunkIndex(const std::string& key) const;

  /// Chunk indexes whose range intersects [start, end] (end inclusive).
  std::vector<size_t> ChunksIntersecting(const std::string& start,
                                         const std::string& end) const;
};

/// The mongos: targets the minimal set of shards whose chunks can hold
/// matching documents (by intersecting the query's shard-key bounds with
/// chunk ranges) and falls back to broadcast when the shard key is
/// unconstrained — the mechanism the paper leans on throughout Section 4.
class Router {
 public:
  /// Targets from `routing`, which must outlive the Router. `profiler`
  /// (optional) receives every finished cursor that crosses the slow-op
  /// threshold.
  Router(const RoutingTable& routing,
         const std::vector<std::unique_ptr<Shard>>* shards,
         OpProfiler* profiler = nullptr)
      : routing_(routing), shards_(shards), profiler_(profiler) {}

  /// Shard ids this query must contact (sorted, unique).
  std::vector<int> TargetShards(const query::ExprPtr& expr,
                                bool* broadcast_out = nullptr) const;

  /// The expression shard targeting must use: for a bucketed collection
  /// (exec options carry a bucket layout and raw_buckets is off) the
  /// point-level expression is widened to bucket level first — stored
  /// documents carry window starts and cell bases, not point values.
  /// Falls back to a match-all (broadcast) when nothing routable survives
  /// the widening. Row layouts return `expr` unchanged.
  static query::ExprPtr RoutingExpr(const query::ExprPtr& expr,
                                    const query::ExecutorOptions& exec);

  /// Opens a streaming cursor: targets the shards, opens one shard cursor
  /// per target (lazily — no shard work until the first NextBatch), and
  /// returns the merge cursor. The cursor captures everything it needs, so
  /// it may outlive this Router (but not the shards).
  ///
  /// `migration_latch` (optional, and supplied by the owning Cluster) is a
  /// shared hold on the cluster's migration-commit latch, acquired by the
  /// caller *before* it loads the routing table, so the table it targets
  /// from already reflects every committed ownership flip. The cursor
  /// keeps it until it closes, fencing chunk-ownership flips out of live
  /// streams. Direct Router users (shard-local tests) pass nothing.
  std::unique_ptr<ClusterCursor> OpenCursor(
      const query::ExprPtr& expr, const query::ExecutorOptions& exec_options,
      const CursorOptions& cursor_options = {},
      std::shared_lock<std::shared_mutex> migration_latch = {}) const;

 private:
  const RoutingTable& routing_;
  const std::vector<std::unique_ptr<Shard>>* shards_;
  OpProfiler* profiler_;
};

}  // namespace stix::cluster

#endif  // STIX_CLUSTER_ROUTER_H_
