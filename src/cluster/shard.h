#ifndef STIX_CLUSTER_SHARD_H_
#define STIX_CLUSTER_SHARD_H_

#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "index/index_catalog.h"
#include "query/executor.h"
#include "query/explain.h"
#include "query/plan_cache.h"
#include "query/stats/shard_stats.h"
#include "storage/record_store.h"
#include "storage/wal.h"

namespace stix::cluster {

class Shard;

/// One shard's slice of an explain: the winning plan's executed stage tree,
/// the rejected candidates' partial trees, and the executor-level framing
/// (plan-cache provenance, totals). The winning tree's per-stage keys/docs
/// sum exactly to `stats` — the invariant explain golden tests and the fuzz
/// harness check.
struct ShardExplain {
  int shard_id = 0;
  std::string winning_index;
  int num_candidates = 0;
  bool from_plan_cache = false;
  bool replanned = false;
  /// How the winner was selected: "single", "cache", "cost" or "race"
  /// (PlannedByName).
  std::string planned_by;
  /// The cost model's whole-plan prediction for the winner, when one was
  /// computed (negative otherwise) — the executionStats counterpart of the
  /// per-stage estimatedKeysExamined/estimatedDocsExamined annotations.
  double estimated_keys = -1.0;
  double estimated_docs = -1.0;
  query::ExecStats stats;
  double exec_millis = 0.0;
  query::ExplainNode winning_plan;
  std::vector<query::ExplainNode> rejected_plans;

  /// JSON object (stage trees serialized at the given verbosity; rejected
  /// plans only at kAllPlansExecution).
  std::string ToJson(query::ExplainVerbosity v) const;
};

/// A resumable cursor over one shard's results — the shard half of the
/// getMore protocol. Each GetMore() pulls up to a batch of documents from
/// the shard's PlanExecutor, timing only the work actually performed, so a
/// stream abandoned early charges the shard only for what it produced.
///
/// Concurrency: every GetMore holds the shard's lock shared for the
/// duration of the pull. The executor detaches from storage before the
/// lock drops (SaveState) and each batch is materialized into cursor-owned
/// documents, so the cursor survives concurrent inserts and chunk
/// migrations between getMores.
///
/// Every open cursor is tracked in the "cluster.open_cursors" gauge until
/// Close() (called by the owning ClusterCursor on exhaustion, error and
/// kill, and by the destructor as a backstop).
class ShardCursor {
 public:
  /// One getMore's worth of results.
  struct Batch {
    /// Result documents, owned by the batch (copied or moved out of the
    /// shard before its lock drops), with their record ids in step.
    std::vector<bson::Document> docs;
    std::vector<storage::RecordId> rids;
    /// True when the stream ended at or before the end of this batch.
    bool exhausted = false;
    /// Non-OK when the shard died mid-stream (an injected fault, or a
    /// stored bucket that fails to decode): the batch carries no documents
    /// and the cursor is permanently exhausted.
    Status error;
  };

  ~ShardCursor() { Close(); }

  /// Pulls up to `batch_size` more documents (0 = run to exhaustion).
  Batch GetMore(size_t batch_size);

  /// Releases the cursor's claim on the shard: the stream is permanently
  /// exhausted and the open-cursor gauge is decremented (exactly once; Close
  /// is idempotent). The router calls this on every path that abandons the
  /// stream — exhaustion, a shard or merge fault, and Kill().
  void Close();

  bool exhausted() const { return done_; }
  int shard_id() const;

  /// Executor counters so far (final once exhausted).
  query::ExecStats stats() const { return exec_.CurrentStats(); }
  /// Explain slice of this cursor's execution so far (complete once
  /// exhausted). Stage timing is present when the executor options enabled
  /// it (ExecutorOptions::stage_timing).
  ShardExplain Explain() const;
  /// Shard-side execution time accumulated across GetMore calls.
  double exec_millis() const { return exec_millis_; }
  uint64_t n_returned() const { return exec_.n_returned(); }
  const std::string& winning_index() const { return exec_.winning_index(); }
  bool from_plan_cache() const { return exec_.from_plan_cache(); }
  bool replanned() const { return exec_.replanned(); }

 private:
  friend class Shard;
  ShardCursor(const Shard& shard, query::ExprPtr expr,
              const query::ExecutorOptions& options, uint64_t limit);

  const Shard& shard_;
  query::ExecutorOptions options_;
  query::PlanExecutor exec_;
  double exec_millis_ = 0.0;
  bool done_ = false;
  bool closed_ = false;
};

/// A chunk range's documents on one shard, in key order: a migration's
/// source set.
struct RangeDocs {
  std::vector<storage::RecordId> rids;
  std::vector<bson::Document> docs;  ///< Parallel to rids.
};

/// One MongoDB shard server: a shard-local record store plus its index
/// catalog. Queries run against it through the same executor a standalone
/// mongod would use; the router fans out and merges.
///
/// Concurrency: a reader–writer lock over the shard's data (records +
/// indexes). Readers (cursor GetMores) hold it shared; writers (Insert, and
/// the deletes and migrations that call WriteBatchLocked) hold it
/// exclusive. Acquired last in the cluster's lock order (migration latch <
/// topology < shard data) and never held across calls out of the shard.
/// Contended acquisitions feed "shard.lock_waits" /
/// "shard.lock_wait_micros".
class Shard {
 public:
  explicit Shard(int id) : id_(id) {}

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  int id() const { return id_; }

  storage::RecordStore& records() { return records_; }
  const storage::RecordStore& records() const { return records_; }
  index::IndexCatalog& catalog() { return catalog_; }
  const index::IndexCatalog& catalog() const { return catalog_; }

  /// Stores a document and maintains every index (exclusive lock): the
  /// one-document WriteBatchLocked.
  Result<storage::RecordId> Insert(bson::Document doc);

  /// Opens a resumable cursor over this shard's results for `expr`. A
  /// non-zero `limit` is pushed down to the executor (trial race target and
  /// stream length). Planning is lazy: the shard does no work until the
  /// first GetMore.
  std::unique_ptr<ShardCursor> OpenCursor(query::ExprPtr expr,
                                          const query::ExecutorOptions& options,
                                          uint64_t limit = 0) const;

  uint64_t num_documents() const { return records_.num_records(); }

  const query::PlanCache& plan_cache() const { return plan_cache_; }

  /// This shard's online statistics (histograms over date / hilbertIndex /
  /// geo cells plus layout counts), maintained by every write batch and
  /// read by the executor's cost model.
  const query::stats::ShardStatistics& statistics() const { return stats_; }

  /// Lazy statistics rebuild: when the histogram boundaries have drifted
  /// past their threshold (or a migration marked them stale), collects a
  /// fresh sample from the record store and swaps it in, then invalidates
  /// the plan cache (cached works figures were measured against the old
  /// distribution). Called at query entry under the shared data lock —
  /// the statistics and plan cache lock themselves.
  void MaybeRebuildStats() const;

  /// Unconditional statistics rebuild from the record store (the body of
  /// MaybeRebuildStats without the drift check). Recovery must use this
  /// rather than MarkStale(): a recovered shard's statistics never saw an
  /// Observe() call, so their live document count is zero and the
  /// "empty shard" short-circuit would report them reliable — the cost
  /// model would then trust estimates of exactly 0 over a populated record
  /// store. Safe under either lock mode; the statistics lock themselves and
  /// the generation guard discards a rebuild that lost a race.
  void RebuildStatsFromStorage() const;

  /// Migration hook: a chunk moved onto or off this shard. Marks the
  /// statistics stale (the next query triggers a rebuild) and invalidates
  /// cached plan choices immediately.
  void OnDataDistributionChanged() const;

  /// The shard's reader–writer data lock. Exposed for multi-record critical
  /// sections that must hold it across calls (a migration commit or a
  /// delete applies its changes under one exclusive acquisition via the
  /// *Locked entry points below).
  std::shared_mutex& data_mutex() const { return data_mu_; }

  /// The one shard write, for a caller holding data_mutex() exclusively:
  /// removes every record of `removes`, then stores and indexes every
  /// document of `inserts`, and logs both as one WAL batch with a single
  /// commit. All or nothing: any failure (a missing record included) puts
  /// every removed record back and takes every insert out again, so an
  /// error means "nothing happened" (a record whose own index removal
  /// fails stays stored as the index left it). Returns the new record ids
  /// in input order.
  Result<std::vector<storage::RecordId>> WriteBatchLocked(
      const std::vector<storage::RecordId>& removes,
      std::vector<bson::Document> inserts);
  /// Copies of the documents whose `index_name` key lies in [min, max), in
  /// key order, for a caller holding data_mutex() (shared suffices). A
  /// document already in `reuse` (a migration's copy-phase snapshot of the
  /// same range) is moved out of it instead of copied again.
  Result<RangeDocs> CollectRangeLocked(const std::string& index_name,
                                       const std::string& min,
                                       const std::string& max,
                                       RangeDocs* reuse = nullptr) const;

  // ---- Durability ----
  //
  // With a WAL attached every write batch is logged and committed before
  // it is acknowledged; without one the shard is the original in-memory
  // store. The log is the shard's only durable file: its first committed
  // batch is an image of the record store, and the batches after it are
  // the writes since (see DESIGN.md §5i).

  /// Attaches a write-ahead log living at `dir`/wal.log, replacing any log
  /// there with an image of the shard's current records. A non-zero
  /// `checkpoint_wal_bytes` auto-checkpoints whenever the log has grown
  /// that many bytes past its image.
  Status AttachWal(const std::string& dir, storage::WalOptions options,
                   uint64_t checkpoint_wal_bytes);

  /// Rewrites the log as one image batch of the records (WriteAheadLog::
  /// Rewrite), which drops every batch logged before it. Indexes are not
  /// persisted: recovery rebuilds them from the records. No-op without a
  /// WAL.
  Status Checkpoint();
  /// Checkpoint body for callers already holding data_mutex() exclusively.
  Status CheckpointLocked();

  /// Rebuilds this shard's state from `dir`/wal.log: restores the image
  /// batch's records, replays the committed batches after it, discards the
  /// torn tail, and reattaches the log for new writes. Every restored
  /// record is indexed as it lands, so the indexes follow from the records
  /// alone. A log that does not open with a complete image (damaged,
  /// missing, or from an older format) is Corruption. Must run after the
  /// shard's indexes are declared (empty) and before any insert.
  Status Recover(const std::string& dir, storage::WalOptions options,
                 uint64_t checkpoint_wal_bytes);

  /// Flushes any buffered group-commit window to the log file.
  Status SyncWal();

 private:
  // Cursors share the shard's plan cache, like getMore continuations share
  // mongod's.
  friend class ShardCursor;

  /// The GeoHash of the first 2dsphere index, or null — the value space the
  /// location histogram observes (it must match what the index keys store).
  const geo::GeoHash* StatsGeoHash() const;

  /// Stores `doc` at `rid` and indexes it: the one step recovery rebuilds
  /// a shard with, for image records and replayed inserts alike.
  Status RestoreRecordLocked(storage::RecordId rid, bson::Document doc);

  /// Replaces the log with an image of records_ and attaches the result; a
  /// failed rewrite kills the old log.
  Status WriteImageLocked();

  /// Auto-checkpoint trigger; failures don't fail the triggering write (it
  /// is already durable) — a failed checkpoint kills the WAL instead.
  void MaybeCheckpointLocked();

  int id_;
  storage::RecordStore records_;
  index::IndexCatalog catalog_;
  // Durability (null/empty when the shard runs in-memory only). wal_ is
  // replaced by every checkpoint, under the exclusive data lock.
  std::unique_ptr<storage::WriteAheadLog> wal_;
  std::string wal_path_;
  storage::WalOptions wal_options_;
  uint64_t checkpoint_wal_bytes_ = 0;
  uint64_t image_bytes_ = 0;  // log bytes of the image batch
  // Guards records_ + catalog_ (see class comment). The plan cache and
  // metrics lock themselves.
  mutable std::shared_mutex data_mu_;
  // Logically execution-state, not collection-state; mongod's cache is
  // likewise invisible to readers.
  mutable query::PlanCache plan_cache_;
  // Execution-state like the plan cache: internally locked, maintained by
  // writers, rebuilt lazily by readers.
  mutable query::stats::ShardStatistics stats_;
};

}  // namespace stix::cluster

#endif  // STIX_CLUSTER_SHARD_H_
