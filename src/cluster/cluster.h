#ifndef STIX_CLUSTER_CLUSTER_H_
#define STIX_CLUSTER_CLUSTER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/balancer.h"
#include "cluster/chunk.h"
#include "cluster/profiler.h"
#include "cluster/router.h"
#include "cluster/shard.h"
#include "cluster/zones.h"
#include "common/rng.h"
#include "query/aggregate.h"
#include "storage/wal.h"

namespace stix::cluster {

/// Durable-storage knobs. With an empty `data_dir` the cluster is the
/// original in-memory store; with one, every shard write is logged to a
/// per-shard WAL before it is acknowledged, topology changes are journaled
/// to a config WAL, and RecoverCluster() rebuilds the whole cluster from
/// the directory after a crash. Layout:
///
///   <data_dir>/config.wal            — full-metadata topology journal
///   <data_dir>/shard-<i>/wal.log     — per-shard write-ahead log: its
///                                      first batch is an image of the
///                                      shard's records, the rest the
///                                      writes since
struct DurabilityOptions {
  std::string data_dir;
  storage::WalOptions wal;
  /// Auto-checkpoint a shard once its WAL has logged this many bytes past
  /// its image (0 = checkpoint only on explicit Checkpoint() calls).
  uint64_t checkpoint_wal_bytes = 0;
};

/// Deployment-level knobs of the simulated cluster.
struct ClusterOptions {
  int num_shards = 12;  ///< The paper's deployment uses 12 shard VMs.

  /// Chunk split threshold. MongoDB defaults to 64 MB; bench scale reduces
  /// data ~60x versus the paper, so the default here keeps the number of
  /// chunks per shard comparable.
  uint64_t chunk_max_bytes = 512 * 1024;

  /// Run one balancer round every N inserts (the background Balancer); 0
  /// disables automatic balancing (call Balance() explicitly).
  int balance_every_inserts = 4096;

  uint64_t seed = 42;  ///< Drives balancer randomness; fully reproducible.

  query::ExecutorOptions exec;
  BalancerOptions balancer;
  DurabilityOptions durability;
  /// Slow-op profiler (off by default; see OpProfiler). When enabled, every
  /// query/cursor whose modeled time crosses the threshold is recorded with
  /// its full explain tree, queryable via profiler() / ServerStatus().
  ProfilerOptions profiler;
};

/// A sharded document-store cluster in one process: N shards, a config view
/// (chunks + zones) and a router. The public surface mirrors the operations
/// the paper performs against MongoDB: shard a collection, create indexes,
/// bulk insert, define zones with $bucketAuto boundaries, run queries, and
/// inspect sizes.
///
/// Concurrency model (see DESIGN.md §"Concurrency model" for the full
/// contract). Queries, inserts, deletes and chunk migrations may run on
/// different threads concurrently once the collection is sharded; the
/// setup-time calls (ShardCollection, CreateIndex, Restore*) are
/// single-threaded and must precede any concurrency. Three cluster locks in
/// a fixed order, shard data locks last:
///
///   migration_commit_latch_  — held shared by every open ClusterCursor for
///       its lifetime; a migration's commit phase takes it exclusive, so
///       chunk ownership never flips under a live stream (chunk *copies*
///       proceed concurrently — MongoDB's critical section, stretched to
///       cursor granularity). A balancer commit try-locks it (its thread
///       may hold a cursor); a reshard commit waits for it behind a gate
///       that pauses new readers;
///   topology_mu_             — chunks_ + zones_ + chunk accounting, for
///       writers: Insert routing/split, migration commit, Delete take it
///       exclusive; the balancer's pick and introspection take it shared.
///       A reshard's prepare phase writes shard data under the shard lock
///       alone, so introspection also takes each shard's lock shared;
///   shard data_mu_ (per shard) — see Shard; always acquired last, in
///       shard-id order inside a migration commit.
///
/// One migration path: MoveChunk makes a shard hold every document of a
/// chunk's range and own the chunk. The balancer uses it to give a chunk a
/// new owner. A reshard installs its target table at its routing flip and
/// then uses it to gather each chunk onto the owner the table assigned.
///
/// Targeting takes no topology lock. Every writer that changes routing
/// (pattern, chunk bounds, owners, the reshard flag) publishes a fresh
/// immutable RoutingTable before it releases topology_mu_ — a migration
/// commit therefore also before it releases the latch — and OpenCursor,
/// Explain, TargetShards and resharding() read the published snapshot.
class Cluster {
 public:
  explicit Cluster(const ClusterOptions& options = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int num_shards() const { return options_.num_shards; }
  const ClusterOptions& options() const { return options_; }

  /// Declares the shard key. Creates the supporting index on every shard
  /// (as MongoDB does) plus the always-present _id index. Must be called
  /// once, before inserts.
  Status ShardCollection(ShardKeyPattern pattern);

  /// Creates a secondary index on every shard.
  Status CreateIndex(const index::IndexDescriptor& descriptor);

  /// Routes the document to the owning chunk's shard; splits chunks that
  /// outgrow the limit and lets the balancer run periodically.
  Status Insert(bson::Document doc);

  /// Defines zones explicitly (sorted, disjoint, covering the key space)
  /// and migrates data to comply.
  Status SetZones(std::vector<ZoneRange> zones);

  /// The paper's zone recipe: $bucketAuto equi-count boundaries on `path`
  /// (a shard-key prefix field), one zone per shard.
  Status SetZonesByBucketAuto(const std::string& path);

  /// Runs balancer rounds until no migration is pending.
  void Balance();

  /// Starts the online balancer: one background thread that runs one
  /// balancer round (pick + two-phase move) every
  /// BalancerOptions::background_interval_ms, concurrently with queries and
  /// inserts. Idempotent. Call after setup (ShardCollection / Restore*) —
  /// the thread no-ops until the collection is sharded. This is the only
  /// thread a Cluster ever starts.
  void StartBalancer();

  /// Stops the online balancer and joins its thread (any in-flight
  /// migration finishes first). Idempotent; also called by the destructor.
  void StopBalancer();

  /// True between StartBalancer() and StopBalancer().
  bool balancer_running() const;

  /// Checkpoints every shard (its log rewritten as an image of its
  /// records) and compacts the config journal down to one current metadata
  /// record.
  /// No-op for an in-memory cluster.
  Status Checkpoint();

  /// Flushes every shard's buffered group-commit window to its log file.
  Status SyncWals();

  /// True when the cluster writes through WALs (durability.data_dir set).
  bool durable() const { return config_wal_ != nullptr; }

  /// Recovery path: installs a journaled sharding state (pattern, chunk
  /// table, zones) and creates the mandatory and given secondary indexes
  /// on every shard. The cluster must be fresh. The chunk table must
  /// satisfy ChunkManager invariants.
  Status RestoreShardingState(
      ShardKeyPattern pattern, std::vector<Chunk> chunk_table,
      std::vector<ZoneRange> zones,
      const std::vector<index::IndexDescriptor>& secondary_indexes);

  /// Scatter/gather query through the router (open + drain of a cursor).
  ClusterQueryResult Query(const query::ExprPtr& expr) const;

  /// Opens a streaming cursor through the router: batched getMore rounds,
  /// optional limit pushdown (see CursorOptions). The cursor borrows the
  /// cluster's shards. It may be consumed while inserts and
  /// balancer rounds run concurrently (it holds the migration-commit latch
  /// shared until closed).
  std::unique_ptr<ClusterCursor> OpenCursor(
      const query::ExprPtr& expr,
      const CursorOptions& cursor_options = {}) const;

  /// Runs an aggregation pipeline cluster-wide: a leading $match is routed
  /// and executed on the shards like a query (index-assisted); the
  /// remaining stages run on the merged stream at the router, as mongos
  /// does for these stage types.
  Result<std::vector<bson::Document>> Aggregate(
      const query::Pipeline& pipeline) const;

  /// Deletes every document (on a bucketed store: every point) matching
  /// the expression; returns the count. Each target shard's removals and
  /// re-encoded buckets commit as one write batch (Shard::WriteBatchLocked),
  /// so the delete is crash-atomic per shard. Chunk byte/document
  /// accounting is updated (chunks never re-merge, as in MongoDB).
  Result<uint64_t> Delete(const query::ExprPtr& expr);

  // --- online resharding (reshard.cc) ---

  /// Document fix-up applied to every stored document before it is keyed by
  /// the new pattern (e.g. computing `hilbertIndex` for a bslTS → hil
  /// reshard). Returns true when the document was modified (its indexes are
  /// then rewritten in place), false when it already fits the new layout.
  /// May be null when no enrichment is needed.
  using ReshardEnrichFn = std::function<Result<bool>(bson::Document*)>;

  /// Live shard-key migration (MongoDB's reshardCollection, scaled to this
  /// process): re-keys the populated collection onto `new_pattern` while
  /// queries, cursors and writers keep running. Five phases — per-shard
  /// document enrichment + index build, a sampled split vector for the
  /// target chunk table, the routing flip (the target table, pattern and
  /// index go live: new writes land by them, reads broadcast), a MoveChunk
  /// per target chunk onto its owner (planner stats + plan caches
  /// invalidate per migrated chunk), and the end of the broadcast. Zones are
  /// cleared at the flip (they were keyed in the old shard-key space).
  /// In-memory clusters only:
  /// durable clusters return NotSupported. One reshard at a time;
  /// concurrent calls return AlreadyExists.
  Status Reshard(ShardKeyPattern new_pattern,
                 const std::vector<index::IndexDescriptor>& new_secondary_indexes,
                 const ReshardEnrichFn& enrich = nullptr);

  /// True while a Reshard() is between its routing flip and its last chunk
  /// move (reads broadcast, writes route by the target table).
  bool resharding() const { return routing()->resharding; }

  /// Read/write distribution snapshot as one JSON object: per-shard cursor
  /// targeting counts (reads), per-shard write counts summed from the
  /// per-chunk write counters, and the hottest chunk's share — the figures
  /// MongoDB's analyzeShardKey reports, feeding the traffic harness
  /// report.
  std::string DistributionJson() const;

  /// Shards the router would contact (for node-count studies).
  std::vector<int> TargetShards(const query::ExprPtr& expr) const;

  /// Structured explain: executes the query once through the normal cursor
  /// path with per-stage timing enabled and returns the full execution
  /// tree — targeting decision, per-shard winning plans with stage
  /// counters, and (at kAllPlansExecution) rejected candidates. The
  /// per-stage keys/docs summed over shards equal the result totals of that
  /// same execution. Plan caches advance exactly as a normal query would
  /// advance them.
  ClusterExplain Explain(const query::ExprPtr& expr,
                         query::ExplainVerbosity verbosity) const;

  /// Server-wide status document: deployment shape, the global metrics
  /// registry snapshot, and the slow-op profiler's retained ops, as one
  /// JSON object (mongod's serverStatus, scaled down).
  std::string ServerStatus() const;

  /// The cluster's slow-op profiler (configure via ClusterOptions::profiler
  /// or OpProfiler::Configure; ops are recorded at cursor exhaustion).
  OpProfiler& profiler() const { return profiler_; }

  // --- introspection for benches/tests ---

  const std::vector<std::unique_ptr<Shard>>& shards() const { return shards_; }
  const ChunkManager& chunks() const { return *chunks_; }
  const std::vector<ZoneRange>& zones() const { return zones_; }
  const ShardKeyPattern& shard_key() const { return pattern_; }
  /// The published routing snapshot (never null; broadcast-only before
  /// sharding). Safe to call concurrently with any writer.
  std::shared_ptr<const RoutingTable> routing() const {
    const std::lock_guard<std::mutex> lock(routing_mu_);
    return routing_;
  }
  uint64_t total_documents() const;

  /// Aggregate data size (Table 6): logical and block-compressed bytes.
  storage::CollectionStats ComputeDataStats() const;

  /// Total index sizes across shards, per index name (Fig. 14).
  std::map<std::string, uint64_t> ComputeIndexSizes() const;

  /// Name of the index backing the shard key.
  const std::string& shard_key_index_name() const {
    return shard_key_index_name_;
  }

  /// Estimated fraction of the cluster's stored documents whose `path`
  /// value lies in the closed range [lo, hi], aggregated over every shard's
  /// histograms. Negative when no shard can estimate the path (never built,
  /// or the path has no histogram) — callers must treat that as unknown.
  /// Shards whose histograms are unbuilt or drifted are skipped. Takes no
  /// topology lock: each shard's count and estimate are read together under
  /// that shard's statistics lock, shard after shard.
  double EstimateFraction(const std::string& path, int64_t lo,
                          int64_t hi) const;

 private:
  friend Result<std::unique_ptr<Cluster>> RecoverCluster(
      const ClusterOptions& options);

  /// How a migration commit takes the migration latch exclusive.
  enum class LatchMode {
    kTry,   ///< Balancer: its thread may hold a cursor, so a busy latch
            ///< aborts the move.
    kWait,  ///< Reshard: its thread holds no cursor; waits through the gate.
  };
  /// What one MoveChunk did.
  struct MoveResult {
    enum Outcome {
      kAborted,  ///< Benign: latch busy or chunk changed; nothing moved.
      kInPlace,  ///< `to` already owned the chunk.
      kFlipped,  ///< Ownership moved to `to`.
    };
    Outcome outcome = kAborted;
    uint64_t docs = 0;  ///< Documents copied onto `to`.
  };
  /// The one two-phase migration: makes shard `to` hold every document of
  /// chunk `chunk_index`'s range and own the chunk (see cluster.cc).
  Result<MoveResult> MoveChunk(size_t chunk_index, int to, LatchMode mode);
  /// One balancer move: the balancerMoveChunk fail point, a try-locked
  /// MoveChunk and the balancer.migrations_* counters.
  Status BalancerMove(const Migration& m);
  /// The balancer's next move; none when balanced, unsharded, or while a
  /// reshard owns chunk movement.
  std::optional<Migration> PickMigration();
  /// The migration latch exclusive. kTry may return a lock that does not
  /// own it; kWait raises the gate LatchShared honours, then blocks.
  std::unique_lock<std::shared_mutex> LatchExclusive(LatchMode mode);
  /// The migration latch shared, for a reader: a bounded pause at the gate
  /// while a commit waits, then a blocking acquisition.
  std::shared_lock<std::shared_mutex> LatchShared() const;
  void MaybeSplitChunk(size_t chunk_index);
  /// Bucketed collections balance by decoded points, not bucket documents
  /// (see PickNextMigration).
  bool weigh_by_points() const {
    return options_.exec.bucket_layout != nullptr;
  }
  /// Publishes a RoutingTable of the current pattern_, chunks_ and reshard
  /// flag. Every routing change calls it before it releases topology_mu_
  /// (or, in single-threaded setup, before it returns).
  void PublishRouting();
  /// First-time durable setup: creates the data directory, attaches a WAL
  /// holding an (empty) image to every shard and opens an empty config
  /// journal. No-op when durability is off or already attached (the
  /// recovery path attaches its own WALs with history intact).
  Status AttachDurability();
  /// Journals the full current metadata document to the config WAL (no-op
  /// when not durable). Callers hold topology_mu_ exclusive or are in
  /// single-threaded setup.
  Status LogTopology();
  /// Rewrites the config journal as one current metadata record
  /// (WriteAheadLog::Rewrite — a crash mid-compaction keeps the old
  /// journal).
  Status CompactConfigWalLocked();
  void BalancerMain(int interval_ms);
  static std::string IndexNameForPattern(const ShardKeyPattern& pattern);

  // --- resharding internals (reshard.cc) ---
  /// Phase 1: enrich every stored document for the new layout and build the
  /// new shard-key + secondary indexes (with backfill) on every shard.
  Status ReshardPrepareShards(
      const ShardKeyPattern& new_pattern, const std::string& new_index_name,
      const std::vector<index::IndexDescriptor>& new_secondary_indexes,
      const ReshardEnrichFn& enrich);
  /// Phase 2: sampled split vector over the new-pattern keys of every
  /// shard → the target chunk table with exact accounting. The table has
  /// as many chunks as the data volume over chunk_max_bytes, and at least
  /// one per shard.
  Result<std::unique_ptr<ChunkManager>> ReshardBuildChunkTable(
      const ShardKeyPattern& new_pattern) const;

  ClusterOptions options_;
  // Execution-state, not collection-state (like the shard plan caches):
  // const queries record into it.
  mutable OpProfiler profiler_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ChunkManager> chunks_;
  ShardKeyPattern pattern_;
  std::vector<ZoneRange> zones_;
  std::string shard_key_index_name_;
  Rng rng_;
  int inserts_since_balance_ = 0;
  bool sharded_ = false;
  // Durability (null when in-memory). config_mu_ serializes config-journal
  // writers; it nests inside topology_mu_ and is held across no other lock.
  std::unique_ptr<storage::WriteAheadLog> config_wal_;
  mutable std::mutex config_mu_;
  bool durability_attached_ = false;

  // --- concurrency control (lock order: latch < topology < shard data) ---
  // Shared by cursors for their lifetime, exclusive for a migration commit.
  mutable std::shared_mutex migration_commit_latch_;
  // Guards chunks_, zones_ and chunk accounting (see class comment).
  mutable std::shared_mutex topology_mu_;
  // The published routing snapshot. routing_mu_ guards only the pointer
  // (a copy or a swap, never held across other work), so a reader waits at
  // most for another pointer copy, never for a topology writer.
  mutable std::mutex routing_mu_;
  std::shared_ptr<const RoutingTable> routing_;
  // Guards rng_ and inserts_since_balance_ (balancer cadence state shared
  // by the insert path and the background balancer).
  mutable std::mutex balance_mu_;

  // --- resharding state ---
  // Serializes whole Reshard() calls (never nested in another lock).
  std::mutex reshard_mu_;
  // The rest is guarded by topology_mu_. The flag flips exclusive and is
  // published in the RoutingTable for readers; it is set from the routing
  // flip, where the target table replaces chunks_, until the last chunk
  // lands.
  bool resharding_in_progress_ = false;
  // Set for the whole Reshard() call, before the routing flip: suspends
  // chunk movement (splits keep running — they don't relocate documents)
  // so a balancer migration cannot carry a not-yet-enriched document onto
  // an already-prepared shard.
  bool reshard_preparing_ = false;
  // Installed (exclusive) before the enrichment sweep and applied by
  // Insert inside its exclusive topology hold, so every write either
  // completes before the sweep starts (the sweep enriches it) or enriches
  // itself at write time — a racing writer can never slip an un-enriched
  // document onto an already-swept shard, where it would key into the
  // null-key chunk and vanish from post-reshard queries. Deliberately kept
  // installed after the reshard (idempotent, one field probe per insert):
  // a writer stalled since before the reshard began must still enrich.
  ReshardEnrichFn reshard_enrich_;
  // Commit gate: while a reshard commit wants the latch exclusive, new
  // readers (LatchShared: cursors and Explain) wait (bounded) before
  // taking it shared, so the shared holders drain and the commit cannot be
  // starved by a reader-preferring rwlock.
  std::atomic<bool> reshard_commit_pending_{false};
  mutable std::mutex reshard_gate_mu_;
  mutable std::condition_variable reshard_gate_cv_;

  // Read-distribution tracking: cursor targetings per shard (atomics — the
  // open path holds only the shared latch).
  mutable std::vector<std::atomic<uint64_t>> reads_per_shard_;

  // Background balancer, declared last so the thread is declared after
  // every member its rounds touch. balancer_lifecycle_mu_ serializes
  // Start/Stop and guards balancer_thread_ (running == joinable);
  // balancer_mu_ guards balancer_stop_, the flag BalancerMain waits on
  // between rounds. Stop joins under the lifecycle mutex, which the
  // balancer thread never takes.
  mutable std::mutex balancer_lifecycle_mu_;
  std::mutex balancer_mu_;
  std::condition_variable balancer_cv_;
  bool balancer_stop_ = false;
  std::thread balancer_thread_;
};

/// A cluster's sharding metadata, decoded from its BSON form: everything
/// needed to rebuild topology before any document arrives. The config
/// journal's kConfigMeta records carry it.
struct ClusterMeta {
  int num_shards = 0;
  ShardKeyPattern pattern;
  std::vector<Chunk> chunks;
  std::vector<ZoneRange> zones;
  std::vector<index::IndexDescriptor> secondary_indexes;
};

/// Encodes a cluster's sharding metadata (shard count, key pattern, chunk
/// table, zones, secondary index declarations) as one BSON document.
bson::Document ClusterMetadataDoc(const Cluster& cluster);

/// Inverse of ClusterMetadataDoc; Corruption on missing fields.
Result<ClusterMeta> ParseClusterMetadata(const bson::Document& meta);

/// Rebuilds a durable cluster from options.durability.data_dir: parses the
/// last journaled metadata record, restores the sharding state, recovers
/// every shard (its log's image + replay), sweeps orphans left by a crashed
/// migration (documents whose owning chunk maps to another shard), and
/// reopens every WAL for new writes. Defined in durability.cc.
Result<std::unique_ptr<Cluster>> RecoverCluster(const ClusterOptions& options);

/// The "planner" section of ServerStatus() — plan-selection counters
/// (plans_total/estimated/raced, estimate_fallbacks/misses,
/// cache_invalidations) and the mean absolute estimation error — rendered
/// from the global metrics registry as one JSON object. Standalone so the
/// fuzz harness and benches can read it without a cluster handle.
std::string PlannerStatusJson();

}  // namespace stix::cluster

#endif  // STIX_CLUSTER_CLUSTER_H_
