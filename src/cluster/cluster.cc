#include "cluster/cluster.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <map>
#include <sstream>
#include <variant>

#include "bson/codec.h"
#include "common/failpoint.h"
#include "common/fs.h"
#include "common/metrics.h"
#include "keystring/keystring.h"
#include "query/bucket_unpack.h"
#include "storage/bucket.h"

namespace stix::cluster {

// Fires at the start of every chunk migration, before any document moves.
// An error action aborts the migration cleanly (no partial move: chunk
// ownership and both shards are untouched); a delay models a slow donor.
STIX_FAIL_POINT_DEFINE(balancerMoveChunk);

Cluster::Cluster(const ClusterOptions& options)
    : options_(options),
      profiler_(options.profiler),
      rng_(options.seed),
      reads_per_shard_(static_cast<size_t>(options.num_shards)) {
  shards_.reserve(options_.num_shards);
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(i));
  }
  PublishRouting();  // unsharded: every query broadcasts
}

Cluster::~Cluster() { StopBalancer(); }

std::string Cluster::IndexNameForPattern(const ShardKeyPattern& pattern) {
  std::string name;
  for (const std::string& path : pattern.paths()) {
    if (!name.empty()) name += "_";
    name += path;
    name += "_1";
  }
  return name;
}

Status Cluster::AttachDurability() {
  const DurabilityOptions& d = options_.durability;
  if (d.data_dir.empty() || durability_attached_) return Status::OK();
  if (Status s = CreateDirs(d.data_dir); !s.ok()) return s;
  for (auto& shard : shards_) {
    const Status s = shard->AttachWal(
        d.data_dir + "/shard-" + std::to_string(shard->id()), d.wal,
        d.checkpoint_wal_bytes);
    if (!s.ok()) return s;
  }
  // Topology changes are rare and must never sit in a group-commit window:
  // the config journal syncs every commit regardless of the data knob.
  storage::WalOptions config_opts;
  config_opts.sync_every_commits = 1;
  Result<std::unique_ptr<storage::WriteAheadLog>> wal =
      storage::WriteAheadLog::Rewrite(d.data_dir + "/config.wal",
                                      config_opts);
  if (!wal.ok()) return wal.status();
  config_wal_ = std::move(*wal);
  durability_attached_ = true;
  return Status::OK();
}

Status Cluster::LogTopology() {
  if (config_wal_ == nullptr) return Status::OK();
  const std::lock_guard<std::mutex> lock(config_mu_);
  const std::string meta = bson::EncodeBson(ClusterMetadataDoc(*this));
  if (Result<uint64_t> a = config_wal_->Append(
          storage::WalRecordType::kConfigMeta, 0, meta);
      !a.ok()) {
    return a.status();
  }
  const Result<uint64_t> lsn = config_wal_->Commit();
  return lsn.ok() ? Status::OK() : lsn.status();
}

void Cluster::PublishRouting() {
  std::shared_ptr<const RoutingTable> table = std::make_shared<RoutingTable>(
      RoutingTable::Of(pattern_, chunks_.get(), resharding_in_progress_));
  const std::lock_guard<std::mutex> lock(routing_mu_);
  routing_.swap(table);
  // `table` now holds the old snapshot. It is released after the lock
  // drops, and lives on while a reader still holds it.
}

Status Cluster::ShardCollection(ShardKeyPattern pattern) {
  if (sharded_) {
    return Status::AlreadyExists("collection is already sharded");
  }
  if (pattern.empty()) {
    return Status::InvalidArgument("shard key must have at least one field");
  }
  if (Status s = AttachDurability(); !s.ok()) return s;
  pattern_ = std::move(pattern);
  chunks_ = std::make_unique<ChunkManager>(0);
  shard_key_index_name_ = IndexNameForPattern(pattern_);

  // Every shard gets the mandatory _id index and the shard-key index that
  // sharding imposes (paper Section 4.1.2 / A.3).
  for (auto& shard : shards_) {
    Status s = shard->catalog().CreateIndex(index::IndexDescriptor(
        "_id_", {{"_id", index::IndexFieldKind::kAscending}}));
    if (!s.ok()) return s;
    std::vector<index::IndexField> fields;
    for (const std::string& path : pattern_.paths()) {
      fields.push_back({path, index::IndexFieldKind::kAscending});
    }
    s = shard->catalog().CreateIndex(
        index::IndexDescriptor(shard_key_index_name_, std::move(fields)));
    if (!s.ok()) return s;
  }
  sharded_ = true;
  PublishRouting();
  return LogTopology();
}

Status Cluster::CreateIndex(const index::IndexDescriptor& descriptor) {
  if (!sharded_) {
    return Status::Internal("shard the collection before creating indexes");
  }
  for (auto& shard : shards_) {
    index::IndexDescriptor copy(descriptor.name(), descriptor.fields(),
                                descriptor.geohash_bits());
    const Status s = shard->catalog().CreateIndex(std::move(copy));
    if (!s.ok()) return s;
  }
  return LogTopology();
}

Status Cluster::Insert(bson::Document doc) {
  if (!sharded_) {
    return Status::Internal("shard the collection before inserting");
  }
  // Size and point count read only the document, so they are measured
  // before the exclusive topology hold. A bucket document carries many
  // logical points; the balancer's point-weighted pick reads them.
  uint64_t doc_bytes = doc.ApproxBsonSize();
  uint64_t doc_points = storage::StoredPointCount(doc);
  {
    // Routing, the shard write, chunk accounting and a possible split are
    // one atomic topology step; the shard's own exclusive lock nests inside
    // (topology < shard data).
    const std::unique_lock<std::shared_mutex> topo(topology_mu_);
    // Enrich before keying: a writer that raced the reshard's install may
    // carry a document the target layout's sweep will never revisit, and
    // its routing key below must be computed from the enriched shape.
    if (reshard_enrich_ != nullptr) {
      Result<bool> enriched = reshard_enrich_(&doc);
      if (!enriched.ok()) return enriched.status();
      if (*enriched) {  // the document changed shape: measure it again
        doc_bytes = doc.ApproxBsonSize();
        doc_points = storage::StoredPointCount(doc);
      }
    }
    // From a reshard's routing flip on, chunks_ is its target table: the
    // document lands directly on its final owner, so the chunk copier never
    // chases a moving tail, and reads broadcast until the last chunk lands.
    const std::string key = pattern_.KeyOf(doc);
    const size_t chunk_index = chunks_->FindChunkIndex(key);
    Chunk& chunk = chunks_->chunk(chunk_index);

    Result<storage::RecordId> rid =
        shards_[static_cast<size_t>(chunk.shard_id)]->Insert(std::move(doc));
    if (!rid.ok()) return rid.status();

    chunk.AddDocument(doc_bytes, doc_points);
    chunk.writes += 1;
    // A reshard walks its table by chunk index until the last chunk lands,
    // so the table does not split meanwhile; the sampled split vector
    // already sized its chunks.
    if (!resharding_in_progress_ && chunk.bytes > options_.chunk_max_bytes &&
        !chunk.jumbo) {
      MaybeSplitChunk(chunk_index);
    }
  }

  // The inline balancer cadence runs with the topology lock released — a
  // migration takes it again itself (and a self-deadlock would be the
  // alternative). Cadence state is shared with the background balancer.
  bool run_round = false;
  if (options_.balance_every_inserts > 0) {
    const std::lock_guard<std::mutex> bl(balance_mu_);
    if (++inserts_since_balance_ >= options_.balance_every_inserts) {
      inserts_since_balance_ = 0;
      run_round = true;
    }
  }
  if (!run_round) return Status::OK();
  const std::optional<Migration> m = PickMigration();
  return m.has_value() ? BalancerMove(*m) : Status::OK();
}

void Cluster::MaybeSplitChunk(size_t chunk_index) {
  Chunk& chunk = chunks_->chunk(chunk_index);
  Shard& shard = *shards_[static_cast<size_t>(chunk.shard_id)];

  // Shard-key values of the chunk, from the shard-key index. The topology
  // hold does not cover the shard's catalog: a reshard's prepare phase adds
  // indexes under the shard's data lock alone.
  std::vector<std::string> keys;
  {
    const std::shared_lock<std::shared_mutex> data(shard.data_mutex());
    const index::Index* skidx = shard.catalog().Get(shard_key_index_name_);
    if (skidx == nullptr) return;
    keys.reserve(chunk.docs);
    for (storage::BTree::Cursor c = skidx->btree().SeekGE(chunk.min);
         c.Valid() && c.key() < chunk.max; c.Next()) {
      keys.push_back(c.key());
    }
  }
  if (keys.size() < 2) {
    chunk.jumbo = true;
    return;
  }
  // Sampled split vector: cut into as many near-equal parts as the
  // overgrowth calls for (MongoDB's autoSplitVector), not one median split
  // per triggering insert — a bulk load that blew far past the limit (or a
  // write-hotspot chunk the balancer wants to spread) settles in one pass.
  // The target part size is half the limit, matching the old median split;
  // duplicate-key runs shift boundaries right (for {hilbertIndex, date}
  // this is the paper's "split on the temporal dimension" case).
  const uint64_t target_part_bytes =
      std::max<uint64_t>(options_.chunk_max_bytes / 2, 1);
  const size_t parts = static_cast<size_t>(std::min<uint64_t>(
      std::max<uint64_t>(chunk.bytes / target_part_bytes, 2), 16));
  const std::vector<std::string> bounds = SplitVector(keys, parts);
  if (bounds.empty()) {
    chunk.jumbo = true;  // one key value fills the chunk; cannot split
    return;
  }
  (void)chunks_->MultiSplit(chunk_index, bounds);
  PublishRouting();
  // A split moves no data: if journaling it fails, recovery simply sees the
  // pre-split chunk over the same documents. The triggering insert is
  // already durable and must not fail retroactively.
  (void)LogTopology();
}

// The one chunk migration (MongoDB's moveChunk, with its critical section):
// make shard `to` hold every document of the chunk's range and own the
// chunk. The balancer moves a chunk to a new owner, every document on the
// old one. A reshard, whose target table went live at its routing flip,
// gathers each chunk onto the owner it already has from wherever the old
// table left the documents. The copy phase clones the range from every
// other shard under that shard's shared lock, concurrently with readers and
// writers. The commit then takes the migration latch exclusive (per
// `mode`) and the topology lock exclusive, aborts benignly if the chunk
// split, moved or was re-keyed during the copy, and applies the move under
// the data locks of `to`, the owner and the shards the copy found documents
// on. Documents are immutable here (no updates), so a pre-copied clone is
// never stale; writes after the copy snapshot land on the owner, whose
// stragglers are cloned inside the commit.
Result<Cluster::MoveResult> Cluster::MoveChunk(size_t chunk_index, int to,
                                               LatchMode mode) {
  // Snapshot the chunk identity and the index that keys it. The index may
  // be stale (a concurrent split shifts indices) — harmless: it still names
  // a real chunk, and the commit re-validates against this snapshot.
  std::string min, max, index_name;
  int owner = -1;
  {
    const std::shared_lock<std::shared_mutex> topo(topology_mu_);
    if (chunk_index >= chunks_->num_chunks()) return MoveResult{};
    const Chunk& chunk = chunks_->chunk(chunk_index);
    min = chunk.min;
    max = chunk.max;
    owner = chunk.shard_id;
    index_name = shard_key_index_name_;
  }
  Shard& dest = *shards_[static_cast<size_t>(to)];

  // Copy phase: readers keep streaming; each shard's writers wait only for
  // that shard's scan.
  std::vector<RangeDocs> clones(shards_.size());
  std::vector<int> donors;  // in id order
  for (const auto& shard : shards_) {
    if (shard->id() == to) continue;
    const std::shared_lock<std::shared_mutex> data(shard->data_mutex());
    Result<RangeDocs> found =
        shard->CollectRangeLocked(index_name, min, max);
    if (!found.ok()) return found.status();
    // The owner donates even when empty: it takes the writes that arrive
    // before the commit.
    if (found->rids.empty() && shard->id() != owner) continue;
    donors.push_back(shard->id());
    clones[static_cast<size_t>(shard->id())] = std::move(*found);
  }
  if (donors.empty()) return MoveResult{MoveResult::kInPlace, 0};

  // Commit phase (the critical section). Lock order: latch < topology <
  // shard data, shards in id order.
  const std::unique_lock<std::shared_mutex> commit = LatchExclusive(mode);
  if (!commit.owns_lock()) return MoveResult{};
  const std::unique_lock<std::shared_mutex> topo(topology_mu_);
  Chunk& chunk = chunks_->chunk(chunks_->FindChunkIndex(min));
  // A balancer move that a reshard overtook aborts as well: its clones may
  // predate the enrichment sweep.
  if (chunk.min != min || chunk.max != max || chunk.shard_id != owner ||
      index_name != shard_key_index_name_ ||
      (mode == LatchMode::kTry &&
       (resharding_in_progress_ || reshard_preparing_))) {
    return MoveResult{};
  }
  std::vector<int> locked = donors;
  locked.insert(std::upper_bound(locked.begin(), locked.end(), to), to);
  std::vector<std::unique_lock<std::shared_mutex>> data_locks;
  data_locks.reserve(locked.size());
  for (const int id : locked) {
    data_locks.emplace_back(shards_[static_cast<size_t>(id)]->data_mutex());
  }

  // Re-collect inside the critical section: stragglers are cloned now, and
  // a clone whose document was deleted mid-copy drops out.
  std::vector<std::vector<storage::RecordId>> doomed(donors.size());
  std::vector<bson::Document> moved;
  for (size_t i = 0; i < donors.size(); ++i) {
    const int id = donors[i];
    Result<RangeDocs> range = shards_[static_cast<size_t>(id)]
                                  ->CollectRangeLocked(
                                      index_name, min, max,
                                      &clones[static_cast<size_t>(id)]);
    if (!range.ok()) return range.status();
    doomed[i] = std::move(range->rids);
    std::move(range->docs.begin(), range->docs.end(),
              std::back_inserter(moved));
  }
  const uint64_t num_moved = moved.size();
  // Apply order is chosen for crash atomicity (a no-op reordering for the
  // in-memory store): the copies become durable on the recipient first
  // (one WAL batch, one commit), then an ownership flip is journaled, and
  // only then do the donors' copies die (one more batch each). A crash
  // anywhere leaves either the old or the new owner journaled, and
  // recovery's orphan sweep removes whichever side the journaled owner does
  // not claim — an acknowledged migration survives whole, an unacknowledged
  // one vanishes whole. A failed recipient batch has already taken itself
  // back out of memory.
  Result<std::vector<storage::RecordId>> dest_rids =
      dest.WriteBatchLocked({}, std::move(moved));
  if (!dest_rids.ok()) return dest_rids.status();
  const bool flip = owner != to;
  if (flip) {
    chunk.shard_id = to;
    PublishRouting();
    if (Status s = LogTopology(); !s.ok()) {
      chunk.shard_id = owner;
      PublishRouting();
      // Best effort: after a simulated crash the recipient's WAL may be
      // dead too, and recovery's orphan sweep finishes the job.
      (void)dest.WriteBatchLocked(*dest_rids, {});
      return s;
    }
  }
  for (size_t i = 0; i < donors.size(); ++i) {
    if (Result<std::vector<storage::RecordId>> r =
            shards_[static_cast<size_t>(donors[i])]->WriteBatchLocked(
                doomed[i], {});
        !r.ok()) {
      return r.status();
    }
  }
  // Every touched shard's data distribution just changed: stale-mark its
  // statistics (next query rebuilds) and drop its cached plan choices.
  for (const int id : locked) {
    shards_[static_cast<size_t>(id)]->OnDataDistributionChanged();
  }
  return MoveResult{flip ? MoveResult::kFlipped : MoveResult::kInPlace,
                    num_moved};
}

Status Cluster::BalancerMove(const Migration& m) {
  STIX_METRIC_COUNTER(committed, "balancer.migrations_committed");
  STIX_METRIC_COUNTER(aborted, "balancer.migrations_aborted");
  if (Status s = CheckFailPoint(balancerMoveChunk); !s.ok()) return s;
  // Try-locked: interleaving inserts with an open cursor on one thread is
  // legal, and that thread already holds the latch shared — blocking would
  // self-deadlock. Contention aborts the move benignly; a later round
  // retries. A failed move counts as aborted too.
  const Result<MoveResult> r =
      MoveChunk(m.chunk_index, m.to_shard, LatchMode::kTry);
  if (!r.ok() || r->outcome == MoveResult::kAborted) aborted.Increment();
  if (r.ok() && r->outcome == MoveResult::kFlipped) committed.Increment();
  return r.ok() ? Status::OK() : r.status();
}

std::optional<Migration> Cluster::PickMigration() {
  const std::shared_lock<std::shared_mutex> topo(topology_mu_);
  if (chunks_ == nullptr) return std::nullopt;  // not sharded yet
  // A reshard owns chunk movement for its whole duration.
  if (resharding_in_progress_ || reshard_preparing_) return std::nullopt;
  const std::lock_guard<std::mutex> bl(balance_mu_);
  return PickNextMigration(*chunks_, options_.num_shards, zones_,
                           weigh_by_points(), &rng_);
}

std::unique_lock<std::shared_mutex> Cluster::LatchExclusive(LatchMode mode) {
  if (mode == LatchMode::kTry) {
    return std::unique_lock<std::shared_mutex>(migration_commit_latch_,
                                               std::try_to_lock);
  }
  // Raise the gate first: new cursors pause (bounded) in LatchShared, the
  // existing shared holders drain, and the blocking exclusive acquisition
  // below cannot be starved by a reader-preferring rwlock. Under open-loop
  // traffic a try-lock would starve forever.
  reshard_commit_pending_.store(true, std::memory_order_release);
  std::unique_lock<std::shared_mutex> latch(migration_commit_latch_);
  reshard_commit_pending_.store(false, std::memory_order_release);
  {
    // Empty critical section pairs with the gate's predicate check, so no
    // waiter can check the flag and then sleep through the notify.
    const std::lock_guard<std::mutex> gate(reshard_gate_mu_);
  }
  reshard_gate_cv_.notify_all();
  return latch;
}

std::shared_lock<std::shared_mutex> Cluster::LatchShared() const {
  // While a commit waits for the latch exclusive, new readers pause briefly
  // so the shared holders drain and the commit gets in. Bounded wait, never
  // a lock: a thread that already holds the latch shared through another
  // open cursor times out and proceeds — slower commit, no deadlock.
  if (reshard_commit_pending_.load(std::memory_order_acquire)) {
    std::unique_lock<std::mutex> gate(reshard_gate_mu_);
    reshard_gate_cv_.wait_for(gate, std::chrono::milliseconds(50), [this] {
      return !reshard_commit_pending_.load(std::memory_order_acquire);
    });
  }
  return std::shared_lock<std::shared_mutex>(migration_commit_latch_);
}

Status Cluster::SetZones(std::vector<ZoneRange> zones) {
  if (!sharded_) {
    return Status::Internal("shard the collection before defining zones");
  }
  std::sort(zones.begin(), zones.end(),
            [](const ZoneRange& a, const ZoneRange& b) { return a.min < b.min; });
  for (size_t i = 1; i < zones.size(); ++i) {
    if (zones[i].min < zones[i - 1].max) {
      return Status::InvalidArgument("zone ranges overlap");
    }
  }

  {
    const std::unique_lock<std::shared_mutex> topo(topology_mu_);
    // Chunk boundaries must align with zone boundaries: split where needed.
    for (const ZoneRange& z : zones) {
      for (const std::string* boundary : {&z.min, &z.max}) {
        if (*boundary == keystring::MinKey() ||
            *boundary == keystring::MaxKey()) {
          continue;
        }
        const size_t ci = chunks_->FindChunkIndex(*boundary);
        if (chunks_->chunk(ci).min != *boundary) {
          const Status s = chunks_->MultiSplit(ci, {*boundary});
          if (!s.ok()) {
            PublishRouting();  // the splits made so far stand
            return s;
          }
        }
      }
    }
    PublishRouting();
    zones_ = std::move(zones);
    if (Status s = LogTopology(); !s.ok()) return s;
  }
  Balance();  // first priority of the balancer: fix zone violations
  return Status::OK();
}

Status Cluster::SetZonesByBucketAuto(const std::string& path) {
  const std::vector<bson::Value> boundaries =
      BucketAutoBoundaries(shards_, path, options_.num_shards);
  std::vector<ZoneRange> zones;
  zones.reserve(boundaries.size() + 1);
  std::string prev = keystring::MinKey();
  int shard = 0;
  for (const bson::Value& b : boundaries) {
    std::string enc = keystring::Encode(b);
    if (enc <= prev) continue;  // collapsed boundary under heavy skew
    zones.push_back(ZoneRange{prev, enc, shard++});
    prev = std::move(enc);
  }
  zones.push_back(ZoneRange{prev, keystring::MaxKey(), shard});
  return SetZones(std::move(zones));
}

Status Cluster::RestoreShardingState(
    ShardKeyPattern pattern, std::vector<Chunk> chunk_table,
    std::vector<ZoneRange> zones,
    const std::vector<index::IndexDescriptor>& secondary_indexes) {
  if (sharded_) {
    return Status::AlreadyExists("cannot restore into a sharded cluster");
  }
  for (const Chunk& c : chunk_table) {
    if (c.shard_id < 0 || c.shard_id >= options_.num_shards) {
      return Status::Corruption("chunk references unknown shard " +
                                std::to_string(c.shard_id));
    }
  }
  Result<std::unique_ptr<ChunkManager>> chunks =
      ChunkManager::FromChunks(std::move(chunk_table));
  if (!chunks.ok()) return chunks.status();

  const Status s = ShardCollection(std::move(pattern));
  if (!s.ok()) return s;
  chunks_ = std::move(*chunks);
  zones_ = std::move(zones);
  PublishRouting();
  for (const index::IndexDescriptor& desc : secondary_indexes) {
    const Status cs = CreateIndex(desc);
    if (!cs.ok()) return cs;
  }
  // ShardCollection/CreateIndex journaled intermediate states (default
  // chunk table); close with the fully restored topology.
  return LogTopology();
}

void Cluster::Balance() {
  // Cap rounds defensively; each successful migration strictly reduces either
  // zone violations or imbalance, so this should never bind.
  size_t max_rounds = 0;
  {
    const std::shared_lock<std::shared_mutex> topo(topology_mu_);
    max_rounds = 16 * chunks_->num_chunks() + 64;
  }
  for (size_t round = 0; round < max_rounds; ++round) {
    const std::optional<Migration> m = PickMigration();
    if (!m.has_value() || !BalancerMove(*m).ok()) return;
  }
}

void Cluster::BalancerMain(int interval_ms) {
  std::unique_lock<std::mutex> lock(balancer_mu_);
  while (!balancer_stop_) {
    lock.unlock();
    // Failures (an enabled balancerMoveChunk fail point, a benign abort)
    // are the background balancer's to swallow: the next round re-picks.
    if (const std::optional<Migration> m = PickMigration()) {
      (void)BalancerMove(*m);
    }
    lock.lock();
    balancer_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                          [this] { return balancer_stop_; });
  }
}

void Cluster::StartBalancer() {
  const std::lock_guard<std::mutex> lifecycle(balancer_lifecycle_mu_);
  if (balancer_thread_.joinable()) return;
  const int interval_ms = std::max(1, options_.balancer.background_interval_ms);
  balancer_thread_ =
      std::thread([this, interval_ms] { BalancerMain(interval_ms); });
}

void Cluster::StopBalancer() {
  const std::lock_guard<std::mutex> lifecycle(balancer_lifecycle_mu_);
  if (!balancer_thread_.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(balancer_mu_);
    balancer_stop_ = true;
  }
  balancer_cv_.notify_all();
  balancer_thread_.join();
  balancer_stop_ = false;  // the thread is gone: a restart begins unstopped
}

bool Cluster::balancer_running() const {
  const std::lock_guard<std::mutex> lifecycle(balancer_lifecycle_mu_);
  return balancer_thread_.joinable();
}

Status Cluster::Checkpoint() {
  if (config_wal_ == nullptr) return Status::OK();
  // Topology held exclusive: chunk accounting, shard contents and the
  // journaled metadata all checkpoint from one consistent cut.
  const std::unique_lock<std::shared_mutex> topo(topology_mu_);
  for (auto& shard : shards_) {
    if (Status s = shard->Checkpoint(); !s.ok()) return s;
  }
  return CompactConfigWalLocked();
}

Status Cluster::CompactConfigWalLocked() {
  const std::lock_guard<std::mutex> lock(config_mu_);
  if (config_wal_->dead()) {
    return Status::Internal("config journal is dead");
  }
  storage::WalOptions config_opts;
  config_opts.sync_every_commits = 1;
  const std::string meta = bson::EncodeBson(ClusterMetadataDoc(*this));
  Result<std::unique_ptr<storage::WriteAheadLog>> compacted =
      storage::WriteAheadLog::Rewrite(
          config_wal_->path(), config_opts,
          [&meta](const storage::WriteAheadLog::AppendFn& append) {
            append(storage::WalRecordType::kConfigMeta, 0, meta);
          });
  if (!compacted.ok()) return compacted.status();
  config_wal_ = std::move(*compacted);
  return Status::OK();
}

Status Cluster::SyncWals() {
  for (auto& shard : shards_) {
    if (Status s = shard->SyncWal(); !s.ok()) return s;
  }
  return Status::OK();
}

ClusterQueryResult Cluster::Query(const query::ExprPtr& expr) const {
  // One unbounded getMore per shard (the classic run-to-completion
  // scatter/gather), routed through OpenCursor so the drain holds the
  // migration latch.
  CursorOptions full_drain;
  full_drain.batch_size = 0;
  full_drain.limit = 0;
  return OpenCursor(expr, full_drain)->Drain();
}

std::unique_ptr<ClusterCursor> Cluster::OpenCursor(
    const query::ExprPtr& expr, const CursorOptions& cursor_options) const {
  // The migration latch (kept by the cursor until it closes) first, then
  // the routing snapshot: an ownership flip publishes before its commit
  // releases the latch, so the snapshot matches where documents live for
  // the cursor's whole life. No topology lock — inserts never stall this.
  std::shared_lock<std::shared_mutex> latch = LatchShared();
  const std::shared_ptr<const RoutingTable> snapshot = routing();
  const Router router(*snapshot, &shards_, &profiler_);
  std::unique_ptr<ClusterCursor> cursor = router.OpenCursor(
      expr, options_.exec, cursor_options, std::move(latch));
  for (const int shard_id : cursor->targets()) {
    reads_per_shard_[static_cast<size_t>(shard_id)].fetch_add(
        1, std::memory_order_relaxed);
  }
  return cursor;
}

Result<std::vector<bson::Document>> Cluster::Aggregate(
    const query::Pipeline& pipeline) const {
  // A leading $match is pushed down to the shards through the router;
  // without one the stream is a match-all query over the same cursor path,
  // so bucketed collections feed the merge stages points, not buckets.
  const auto& stages = pipeline.stages();
  query::ExprPtr match = query::MakeAnd({});
  size_t first_merge_stage = 0;
  if (!stages.empty()) {
    if (const auto* m = std::get_if<query::MatchStage>(&stages[0])) {
      match = m->expr;
      first_merge_stage = 1;
    }
  }
  ClusterQueryResult r = Query(match);
  if (!r.status.ok()) return r.status;

  query::Pipeline merge_stages(std::vector<query::PipelineStage>(
      stages.begin() + static_cast<ptrdiff_t>(first_merge_stage),
      stages.end()));
  return query::RunPipeline(std::move(r.docs), merge_stages);
}

// One delete loop for both layouts. Each target shard's candidates are read
// through the shard's own cursor: raw documents, selected on a bucketed
// store by the widened bucket-level expression. Each stored document is
// decided on its own: a row document dies if it matches; a bucket runs the
// bucket predicate kernel and, where points match, is replaced by a
// re-encoded bucket of its survivors (MongoDB's time-series delete does the
// same unpack/rewrite). A survivor bucket keeps the window start and cell
// base, so it stays in the same chunk on the same shard, and the shard's
// removals and rewrites commit as one write batch: crash-atomic per shard.
// Returns the number of points deleted.
Result<uint64_t> Cluster::Delete(const query::ExprPtr& expr) {
  // Exclusive for the chunk accounting: no insert, split or migration
  // commit lands between a shard's read and its batch, so the accounting
  // matches what the batch removed. Held across one WAL commit per target
  // shard.
  const std::unique_lock<std::shared_mutex> topo(topology_mu_);
  const storage::BucketLayout* layout =
      options_.exec.raw_buckets ? nullptr : options_.exec.bucket_layout.get();
  query::ExecutorOptions raw_exec = options_.exec;
  raw_exec.raw_buckets = true;
  const query::ExprPtr routing_expr = Router::RoutingExpr(expr, options_.exec);
  const query::BucketPruneSpec spec =
      layout != nullptr ? query::ExtractBucketPredicates(expr, *layout)
                        : query::BucketPruneSpec{};
  const Router router(*routing(), &shards_);
  storage::BucketReader reader;
  storage::BucketSelection selection;
  uint64_t deleted = 0;
  for (const int shard_id : router.TargetShards(routing_expr)) {
    Shard& shard = *shards_[static_cast<size_t>(shard_id)];
    const ShardCursor::Batch found =
        shard.OpenCursor(routing_expr, raw_exec)->GetMore(0);
    if (!found.error.ok()) return found.error;
    struct Doomed {
      size_t chunk;
      uint64_t bytes;
      uint64_t removed_points;
      uint64_t new_bytes;  ///< The survivor bucket's; 0 when none.
    };
    std::vector<Doomed> doomed;
    std::vector<storage::RecordId> removes;
    std::vector<bson::Document> rebucketed;
    for (size_t i = 0; i < found.docs.size(); ++i) {
      const bson::Document& doc = found.docs[i];
      Doomed d{0, doc.ApproxBsonSize(), 1, 0};
      if (layout == nullptr || !storage::IsBucketDocument(doc)) {
        if (expr != nullptr && !expr->Matches(doc)) continue;
      } else {
        if (Status s = reader.Reset(doc); !s.ok()) return s;
        if (Status s = reader.Select(spec, &selection); !s.ok()) return s;
        if (selection.rows.empty()) continue;
        std::vector<bson::Document> points;
        if (Status s = reader.Build(nullptr, &points); !s.ok()) return s;
        std::vector<bson::Document> survivors;
        size_t next = 0;  // cursor into the ascending selected rows
        for (uint32_t row = 0; row < points.size(); ++row) {
          const bool selected =
              next < selection.rows.size() && selection.rows[next] == row;
          next += selected;
          if (selected && (selection.exact || expr == nullptr ||
                           expr->Matches(points[row]))) {
            continue;
          }
          survivors.push_back(std::move(points[row]));
        }
        if (survivors.size() == points.size()) continue;  // none matched
        d.removed_points = points.size() - survivors.size();
        if (!survivors.empty()) {
          Result<bson::Document> bucket =
              storage::EncodeBucket(survivors, *layout);
          if (!bucket.ok()) return bucket.status();
          d.new_bytes = bucket->ApproxBsonSize();
          rebucketed.push_back(std::move(*bucket));
        }
      }
      d.chunk = chunks_->FindChunkIndex(pattern_.KeyOf(doc));
      doomed.push_back(d);
      removes.push_back(found.rids[i]);
    }
    if (removes.empty()) continue;
    {
      const std::unique_lock<std::shared_mutex> data(shard.data_mutex());
      if (Result<std::vector<storage::RecordId>> r =
              shard.WriteBatchLocked(removes, std::move(rebucketed));
          !r.ok()) {
        return r.status();
      }
    }
    for (const Doomed& d : doomed) {
      Chunk& chunk = chunks_->chunk(d.chunk);
      chunk.bytes = chunk.bytes - std::min(chunk.bytes, d.bytes) + d.new_bytes;
      chunk.points -= std::min(chunk.points, d.removed_points);
      if (d.new_bytes == 0 && chunk.docs > 0) --chunk.docs;
      chunk.writes += 1;
      deleted += d.removed_points;
    }
  }
  return deleted;
}

ClusterExplain Cluster::Explain(const query::ExprPtr& expr,
                                query::ExplainVerbosity verbosity) const {
  query::ExecutorOptions exec = options_.exec;
  exec.stage_timing = true;
  CursorOptions full_drain;
  full_drain.batch_size = 0;
  // Targets like OpenCursor: the latch, then the routing snapshot.
  std::shared_lock<std::shared_mutex> latch = LatchShared();
  const std::shared_ptr<const RoutingTable> snapshot = routing();
  const Router router(*snapshot, &shards_, &profiler_);
  std::unique_ptr<ClusterCursor> cursor =
      router.OpenCursor(expr, exec, full_drain, std::move(latch));
  while (!cursor->exhausted()) (void)cursor->NextBatch();
  ClusterExplain explain = cursor->Explain(verbosity);
  explain.shard_key = snapshot->pattern.DebugString();
  explain.total_shards = static_cast<int>(shards_.size());
  return explain;
}

std::string Cluster::ServerStatus() const {
  const uint64_t documents = total_documents();
  const size_t num_chunks = routing()->bounds.size();
  std::ostringstream out;
  out << "{\"shards\": " << shards_.size() << ", \"documents\": " << documents
      << ", \"chunks\": " << num_chunks
      << ", \"planner\": " << PlannerStatusJson()
      << ", \"distribution\": " << DistributionJson()
      << ", \"metrics\": " << MetricsRegistry::Instance().ToJson()
      << ", \"profiler\": " << profiler_.ToJson() << "}";
  return out.str();
}

std::string PlannerStatusJson() {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  const uint64_t total = reg.GetCounter("planner.plans_total").value();
  const uint64_t estimated =
      reg.GetCounter("planner.plans_estimated").value();
  const uint64_t raced = reg.GetCounter("planner.plans_raced").value();
  const uint64_t fallbacks =
      reg.GetCounter("planner.estimate_fallbacks").value();
  const uint64_t misses = reg.GetCounter("planner.estimate_misses").value();
  const uint64_t invalidations =
      reg.GetCounter("planner.cache_invalidations").value();
  const Histogram::Snapshot err =
      reg.GetHistogram("planner.estimate_error_pct").Snap();
  // The error histogram observes per-execution |est - actual| / actual as a
  // percentage; its exact mean / 100 is the mean absolute relative
  // estimation error the acceptance gate measures.
  char mare[32];
  std::snprintf(mare, sizeof(mare), "%.4f", err.Mean() / 100.0);
  std::ostringstream out;
  out << "{\"plans_total\": " << total << ", \"plans_estimated\": " << estimated
      << ", \"plans_raced\": " << raced
      << ", \"estimate_fallbacks\": " << fallbacks
      << ", \"estimate_misses\": " << misses
      << ", \"cache_invalidations\": " << invalidations
      << ", \"estimates_measured\": " << err.count
      << ", \"mean_abs_estimation_error\": " << mare << "}";
  return out.str();
}

std::vector<int> Cluster::TargetShards(const query::ExprPtr& expr) const {
  const std::shared_ptr<const RoutingTable> snapshot = routing();
  const Router router(*snapshot, &shards_);
  return router.TargetShards(Router::RoutingExpr(expr, options_.exec));
}

std::string Cluster::DistributionJson() const {
  const std::shared_lock<std::shared_mutex> topo(topology_mu_);
  std::vector<uint64_t> writes(shards_.size(), 0);
  uint64_t hottest_writes = 0;
  uint64_t total_writes = 0;
  if (chunks_ != nullptr) {
    for (const Chunk& c : chunks_->chunks()) {
      if (c.shard_id >= 0 && c.shard_id < static_cast<int>(writes.size())) {
        writes[static_cast<size_t>(c.shard_id)] += c.writes;
      }
      hottest_writes = std::max(hottest_writes, c.writes);
      total_writes += c.writes;
    }
  }
  std::ostringstream out;
  out << "{\"reads_per_shard\": [";
  for (size_t i = 0; i < reads_per_shard_.size(); ++i) {
    if (i > 0) out << ", ";
    out << reads_per_shard_[i].load(std::memory_order_relaxed);
  }
  out << "], \"writes_per_shard\": [";
  for (size_t i = 0; i < writes.size(); ++i) {
    if (i > 0) out << ", ";
    out << writes[i];
  }
  char share[32];
  std::snprintf(share, sizeof(share), "%.4f",
                total_writes == 0
                    ? 0.0
                    : static_cast<double>(hottest_writes) /
                          static_cast<double>(total_writes));
  out << "], \"hottest_chunk_writes\": " << hottest_writes
      << ", \"hottest_chunk_write_share\": " << share << "}";
  return out.str();
}

// No topology lock: shards_ is fixed at construction and each shard's
// statistics lock themselves. Shards are read one after another, so the sum
// is not a cross-shard cut — it only picks a covering budget.
double Cluster::EstimateFraction(const std::string& path, int64_t lo,
                                 int64_t hi) const {
  double in_range = 0.0;
  double total = 0.0;
  for (const auto& shard : shards_) {
    // Unbuilt or drifted histograms still answer (Observe keeps feeding
    // them), but their answers shouldn't steer anything: they report
    // unknown, and the shard is skipped until its next rebuild.
    const query::stats::ShardStatistics::RangeEstimate est =
        shard->statistics().ReliableRangeEstimate(path, lo, hi);
    if (est.in_range < 0.0) continue;
    in_range += est.in_range;
    total += static_cast<double>(est.docs);
  }
  if (total <= 0.0) return -1.0;
  return std::min(1.0, in_range / total);
}

// Introspection reads shard records and catalogs under the topology lock
// shared (a consistent cut against inserts, deletes and migration commits)
// plus each shard's data lock shared: a reshard's prepare phase rewrites
// documents and creates indexes under the shard's data lock alone.
uint64_t Cluster::total_documents() const {
  const std::shared_lock<std::shared_mutex> topo(topology_mu_);
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    const std::shared_lock<std::shared_mutex> data(shard->data_mutex());
    total += shard->num_documents();
  }
  return total;
}

storage::CollectionStats Cluster::ComputeDataStats() const {
  const std::shared_lock<std::shared_mutex> topo(topology_mu_);
  storage::CollectionStats total;
  for (const auto& shard : shards_) {
    const std::shared_lock<std::shared_mutex> data(shard->data_mutex());
    const storage::CollectionStats s = storage::ComputeStats(shard->records());
    total.num_documents += s.num_documents;
    total.logical_bytes += s.logical_bytes;
    total.compressed_bytes += s.compressed_bytes;
  }
  return total;
}

std::map<std::string, uint64_t> Cluster::ComputeIndexSizes() const {
  const std::shared_lock<std::shared_mutex> topo(topology_mu_);
  std::map<std::string, uint64_t> sizes;
  for (const auto& shard : shards_) {
    const std::shared_lock<std::shared_mutex> data(shard->data_mutex());
    for (const auto& idx : shard->catalog().indexes()) {
      sizes[idx->descriptor().name()] +=
          idx->btree().SizeWithPrefixCompression();
    }
  }
  return sizes;
}

}  // namespace stix::cluster
