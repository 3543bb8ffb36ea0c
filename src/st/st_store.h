#ifndef STIX_ST_ST_STORE_H_
#define STIX_ST_ST_STORE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "bson/object_id.h"
#include "cluster/cluster.h"
#include "st/approach.h"
#include "storage/bucket_catalog.h"
#include "storage/wal.h"

namespace stix::st {

/// StStore configuration: an approach plus the cluster deployment.
struct StStoreOptions {
  ApproachConfig approach;
  cluster::ClusterOptions cluster;
  /// Bucketed time-series collection layout: when set, inserts buffer into
  /// a BucketCatalog and the cluster stores one compressed bucket document
  /// per (vehicle, time window) instead of one document per point. Queries
  /// answer identically to the row layout (the executor unpacks buckets
  /// behind a BUCKET_UNPACK stage); `use_hilbert` is derived from the
  /// approach, so leave it defaulted.
  std::optional<storage::BucketLayout> bucket;
  /// _id generation: the load clock starts here and advances one second per
  /// 128 inserts — the client-side ObjectId timestamps the
  /// paper's A.3 prefix-compression analysis depends on.
  int64_t load_clock_begin_ms = 1538352000000;  // 2018-10-01T00:00:00Z
};

/// Result of one spatio-temporal query at cluster level.
struct StQueryResult {
  cluster::ClusterQueryResult cluster;
  TranslatedQuery translated;
};

/// Approach-aware explain: the cluster execution tree plus the translation
/// cost the cluster cannot see — which approach phrased the query, how long
/// the curve covering took, how wide it came out, and whether it was served
/// from the covering cache. The paper's Table 8 separates exactly this cost
/// from execution time.
struct StExplain {
  std::string approach;  ///< ApproachName of the translating approach.
  std::string curve;     ///< Curve2D::name() of the curve; "" for baselines.
  double cover_millis = 0.0;
  size_t num_ranges = 0;
  size_t num_singletons = 0;
  bool cover_cache_hit = false;
  /// Covering budget the translation ran under (0 = exact covering).
  size_t cover_budget = 0;
  cluster::ClusterExplain cluster;

  /// {"approach": .., "covering": {..}, "cluster": <ClusterExplain>}.
  std::string ToJson() const;
};

/// Cursor knobs for StStore::OpenQuery (the spatio-temporal face of
/// cluster::CursorOptions).
struct StCursorOptions {
  /// Documents per shard per getMore round; 0 = single unbounded round.
  size_t batch_size = 101;
  /// Total documents to produce; 0 = unlimited. Pushed down to every shard
  /// executor, which is what lets kNN probes stop at a candidate budget.
  uint64_t limit = 0;
};

/// A streaming spatio-temporal query: the approach's translated expression
/// driven through a cluster cursor. Batches are owned documents; Summary()
/// carries the paper's four metrics plus the covering-translation stats.
class StCursor {
 public:
  StCursor(StCursor&&) = default;
  StCursor& operator=(StCursor&&) = default;

  /// Next merged batch; empty means exhausted.
  std::vector<bson::Document> NextBatch() { return cursor_->NextBatch(); }

  bool exhausted() const { return cursor_->exhausted(); }

  /// Metrics so far (docs left empty — batches own the documents).
  StQueryResult Summary() const;

  /// Drains the remaining stream into a full StQueryResult (docs filled).
  StQueryResult Drain();

  const TranslatedQuery& translated() const { return translated_; }

 private:
  friend class StStore;
  StCursor(TranslatedQuery translated,
           std::unique_ptr<cluster::ClusterCursor> cursor);

  TranslatedQuery translated_;
  std::unique_ptr<cluster::ClusterCursor> cursor_;
};

/// The paper's system: a sharded document store set up for one of the four
/// approaches, exposing spatio-temporal load and query operations.
///
///   StStoreOptions opts;
///   opts.approach.kind = ApproachKind::kHil;
///   StStore store(opts);
///   store.Setup();
///   store.Insert(doc);            // doc has location + date fields
///   store.FinishLoad();
///   auto res = store.Query(rect, t0, t1);
class StStore {
 public:
  explicit StStore(const StStoreOptions& options);

  /// The live approach. The returned reference stays valid across a
  /// Reshard() (superseded approaches are retired, never destroyed), but
  /// names the store's layout only as of the call.
  const Approach& approach() const {
    const std::lock_guard<std::mutex> lock(approach_mu_);
    return *approach_;
  }
  cluster::Cluster& cluster() { return *cluster_; }
  const cluster::Cluster& cluster() const { return *cluster_; }

  /// Shards the collection and creates the approach's indexes. On a durable
  /// store (cluster.durability.data_dir set) this also attaches the
  /// per-shard WALs, the config journal and — for bucketed layouts — the
  /// catalog journal at `<data_dir>/catalog.wal`, all starting fresh.
  Status Setup();

  /// Reopens a durable store from its data directory after a crash or a
  /// clean shutdown: recovers the cluster (config journal, per-shard log
  /// image + replay, orphan sweep), then — for bucketed layouts —
  /// replays the catalog journal, re-buffering every acknowledged point
  /// that never reached a flushed bucket. `options` must match the ones the
  /// store was Setup() with (approach, layout, data_dir); an approach whose
  /// shard key differs from the journaled one is InvalidArgument.
  static Result<std::unique_ptr<StStore>> Recover(
      const StStoreOptions& options);

  /// Durable stores: flushes buffered buckets, rewrites every shard's WAL
  /// as an image of its data and compacts the config journal.
  /// No-op (OK) otherwise.
  Status Checkpoint();

  /// True when writes are journaled (Setup saw a durability.data_dir).
  bool durable() const { return cluster_->durable(); }

  /// Adds _id (driver-style) and hilbertIndex (if applicable), then routes
  /// the insert.
  Status Insert(bson::Document doc);

  /// Final balancer pass after bulk load.
  Status FinishLoad();

  /// Applies the approach's zone configuration ($bucketAuto equi-count
  /// ranges on the zone path, one zone per shard) and migrates.
  Status ConfigureZones();

  /// Spatio-temporal range query: rectangle + closed time interval (millis).
  /// Implemented as OpenQuery + drain, so it is byte-identical to consuming
  /// the cursor yourself.
  StQueryResult Query(const geo::Rect& rect, int64_t t_begin_ms,
                      int64_t t_end_ms) const;

  /// Streaming variant of Query: returns a cursor over the same translated
  /// expression. The cursor borrows the cluster — consume it before
  /// mutating the store.
  StCursor OpenQuery(const geo::Rect& rect, int64_t t_begin_ms,
                     int64_t t_end_ms,
                     const StCursorOptions& cursor_options = {}) const;

  /// Structured explain of a spatio-temporal range query: translates the
  /// rect/time window through the approach (advancing the covering cache
  /// like a normal query), executes it once with per-stage timing, and
  /// returns the full tree with the translation cost attached.
  StExplain Explain(const geo::Rect& rect, int64_t t_begin_ms,
                    int64_t t_end_ms,
                    query::ExplainVerbosity verbosity =
                        query::ExplainVerbosity::kExecStats) const;

  /// Polygon + closed time interval — complex geometries over the same
  /// indexing/sharding machinery (paper future work, Section 6).
  StQueryResult QueryPolygon(const geo::Polygon& polygon, int64_t t_begin_ms,
                             int64_t t_end_ms) const;

  /// Streaming variant of QueryPolygon.
  StCursor OpenPolygonQuery(const geo::Polygon& polygon, int64_t t_begin_ms,
                            int64_t t_end_ms,
                            const StCursorOptions& cursor_options = {}) const;

  /// Deletes every point in the rectangle/time window (data retention:
  /// the motivating fleet operators age out old positions). Returns the
  /// number of points removed. Each shard's part commits as one write
  /// batch. A durable bucketed store first empties its catalog journal and
  /// holds it empty for the delete; when it cannot (a dead journal) the
  /// call fails and deletes nothing.
  Result<uint64_t> Delete(const geo::Rect& rect, int64_t t_begin_ms,
                          int64_t t_end_ms);

  /// Live approach migration: reshards the populated cluster onto
  /// `to_kind`'s shard key (Cluster::Reshard — enrichment, new indexes,
  /// chunk-by-chunk copy) while queries and writers keep running, then
  /// swaps the store's approach. During the transition the cluster
  /// enriches every insert for the target layout too, and queries
  /// translate through the live approach, whose predicates every stored
  /// document answers (at broadcast cost). The target must use a different
  /// shard key than the current approach (bsl* <-> hil*); same-key
  /// migrations return InvalidArgument, bucketed/durable stores
  /// NotSupported, and a second concurrent call AlreadyExists.
  Status Reshard(ApproachKind to_kind);

  /// True for the duration of a Reshard() call, and for good after one
  /// that failed past its routing flip (the cluster broadcasts and a retry
  /// is refused).
  bool resharding() const {
    const std::lock_guard<std::mutex> lock(approach_mu_);
    return resharding_;
  }

  /// True when the store uses the bucketed collection layout.
  bool bucketed() const { return catalog_ != nullptr; }

  /// The write-path bucket catalog (nullptr for row stores). Exposed for
  /// tests and the fuzz harness, which flush explicitly around fail points.
  storage::BucketCatalog* bucket_catalog() const { return catalog_.get(); }

  /// Seals and flushes every buffered bucket so readers see all points.
  /// No-op (OK) for row stores. Query paths call this implicitly.
  Status FlushBuckets() const;

  /// Bucketed stores only: the smallest great-circle distance from `center`
  /// to any bucket MBR whose time extent overlaps the closed interval — a
  /// lower bound on the distance to any stored point there. Scans bucket
  /// metadata only (no column decompression). nullopt for row stores or
  /// when no bucket overlaps the window. kNN seeds its first ring from it.
  std::optional<double> MinBucketDistanceM(geo::Point center,
                                           int64_t t_begin_ms,
                                           int64_t t_end_ms) const;

 private:
  /// Recovery path: `cluster` was rebuilt by cluster::RecoverCluster;
  /// `resolved` already went through ResolveOptions.
  StStore(StStoreOptions resolved, std::unique_ptr<cluster::Cluster> cluster);

  /// Opens the catalog journal for a durable bucketed store: a new, empty
  /// one when `recovered` is null, else the journal `recovered` (its
  /// ReadWal) describes. No-op for row layouts or non-durable stores.
  Status OpenCatalogJournal(const storage::WalScan* recovered);

  /// Durable bucketed stores, journal_mu_ held: flushes every buffered
  /// bucket and, once every journaled point sits in a flushed bucket,
  /// syncs the shard WALs and empties the catalog journal. True when the
  /// journal is empty; false when it cannot be (points still buffered, or
  /// the journal died in a simulated crash).
  Result<bool> FlushJournaledLocked() const;

  /// Covering budget for one rect/time query (0 = exact covering):
  /// Approach::CoverBudget, which decides from the rect's area share of the
  /// curve domain alone when that share is small and otherwise multiplies
  /// it by the cluster's histogram estimate of the time window's
  /// selectivity (uniformity assumption — only steers coarse-vs-exact
  /// covering, never correctness). Unknown selectivity (no histograms yet)
  /// stays exact. `ap` is the approach about to translate the query.
  size_t CoverBudgetFor(const Approach& ap, const geo::Rect& rect,
                        int64_t t_begin_ms, int64_t t_end_ms) const;

  StStoreOptions options_;
  /// The live approach and the reshard flag, under approach_mu_.
  /// Superseded approaches move to retired_approaches_ so references
  /// handed out by approach() never dangle.
  mutable std::mutex approach_mu_;
  std::shared_ptr<const Approach> approach_;
  /// See resharding().
  bool resharding_ = false;
  std::vector<std::shared_ptr<const Approach>> retired_approaches_;
  /// Owned pointer (not a value) so Recover can hand over a cluster rebuilt
  /// by cluster::RecoverCluster — Cluster itself is not movable.
  std::unique_ptr<cluster::Cluster> cluster_;
  /// Buffers live inserts into open buckets; flush hands encoded bucket
  /// documents to cluster_->Insert. Declared after cluster_ (the flush
  /// callback captures it) and null for row stores.
  std::unique_ptr<storage::BucketCatalog> catalog_;
  /// Durable bucketed stores: every point is journaled here (kCatalogAdd)
  /// before it is acknowledged, closing the durability gap while the point
  /// sits in an open in-memory bucket. Truncated once every buffered point
  /// has reached a flushed bucket inside some shard's own WAL.
  std::unique_ptr<storage::WriteAheadLog> journal_;
  /// Orders (journal append+commit, catalog add) pairs against the
  /// flush-then-truncate sequence in FlushBuckets — without it a point
  /// could be journaled, buffered, and lost to a concurrent truncate — and
  /// keeps the journal empty across a Delete. Nests outside the catalog
  /// mutex (and therefore outside the cluster's and the shards' locks).
  mutable std::mutex journal_mu_;
  // Guards the driver-side _id clock (id_generator_ + inserted_) so
  // concurrent writers draw unique ObjectIds; the cluster handles its own
  // locking downstream.
  std::mutex insert_mu_;
  bson::ObjectIdGenerator id_generator_;
  uint64_t inserted_ = 0;
};

}  // namespace stix::st

#endif  // STIX_ST_ST_STORE_H_
