// Online resharding (MongoDB's reshardCollection, scaled to this process):
// re-keys a populated, live cluster onto a new shard-key pattern while
// queries, open cursors and writers keep running. The protocol, in phases:
//
//   0. validate — in-memory row clusters only, one reshard at a time, and
//      the new pattern must name a different supporting index;
//   1. prepare  — per shard (under its exclusive data lock): create the new
//      shard-key + secondary indexes, enrich every stored document for the
//      new layout (e.g. compute hilbertIndex) and backfill the new indexes;
//   2. plan     — under the exclusive topology lock: a sampled split vector
//      over every document's new-pattern key becomes the target chunk
//      table, round-robin across shards, with exact byte/doc/point
//      accounting;
//   3. flip     — in the same exclusive hold: the target table, pattern
//      and shard-key index replace the live ones and zones (keyed in the
//      old shard-key space) clear. Writes land directly on their owner
//      under the new table (so the copier's source set only shrinks), reads
//      broadcast (a document may still sit where the old table put it),
//      splits and the balancer suspend;
//   4. copy     — chunk by chunk, MoveChunk onto the chunk's owner: the same
//      two-phase migration the balancer runs, its commit waiting for the
//      migration latch through the cursor gate and locking only the owner
//      and the shards holding documents of the range;
//   5. finish   — the flag clears and targeted routing resumes.
//
// Failure discipline: before the flip every error unwinds cleanly (the
// enrichment and extra indexes are benign leftovers). After the flip the
// cluster stays in the resharding state on error — reads broadcast and
// writes route by the target table, so every operation remains correct,
// just untargeted; nothing ever reverts to the old table once a document
// has moved under the new one.

#include <algorithm>
#include <vector>

#include "cluster/cluster.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "keystring/keystring.h"
#include "storage/bucket.h"

namespace stix::cluster {
namespace {

// Every Nth shard-key value feeds the target split vector.
constexpr size_t kSampleStride = 4;

}  // namespace

// Fires at the start of every per-chunk reshard move, before any document
// is cloned. A delay models a slow copy (stretching the window concurrent
// traffic observes); an error aborts the reshard mid-flight, which leaves
// the cluster permanently in its broadcast-routing state — correct, so
// tests can assert liveness under injected faults.
STIX_FAIL_POINT_DEFINE(reshardMoveChunk);

Status Cluster::Reshard(ShardKeyPattern new_pattern,
                        const std::vector<index::IndexDescriptor>&
                            new_secondary_indexes,
                        const ReshardEnrichFn& enrich) {
  STIX_METRIC_COUNTER(completed, "reshard.completed");

  const std::unique_lock<std::mutex> one(reshard_mu_, std::try_to_lock);
  if (!one.owns_lock()) {
    return Status::AlreadyExists("a reshard is already in progress");
  }
  if (!sharded_) {
    return Status::Internal("shard the collection before resharding");
  }
  if (new_pattern.empty()) {
    return Status::InvalidArgument("shard key must have at least one field");
  }
  if (new_pattern.strategy() == ShardingStrategy::kHashed) {
    return Status::NotSupported("resharding onto a hashed key");
  }
  if (durable()) {
    return Status::NotSupported("resharding a durable cluster");
  }
  const std::string new_index_name = IndexNameForPattern(new_pattern);
  if (new_index_name == shard_key_index_name_) {
    return Status::InvalidArgument(
        "new shard key is served by the current shard-key index");
  }

  // Suspend chunk movement for the whole operation: a balancer migration
  // racing phase 1 could carry a not-yet-enriched document onto an
  // already-prepared shard, and it would never be enriched.
  {
    const std::unique_lock<std::shared_mutex> topo(topology_mu_);
    reshard_preparing_ = true;
    // From here on every Insert enriches under its own exclusive topology
    // hold; writes already past routing completed before this hold began,
    // so the sweep below sees them. Stays installed after the reshard.
    reshard_enrich_ = enrich;
  }
  const auto unwind = [this](Status s) {
    const std::unique_lock<std::shared_mutex> topo(topology_mu_);
    reshard_preparing_ = false;
    // Pre-flip failure: the old layout stays; stop decorating new writes
    // with fields no live approach asked for.
    reshard_enrich_ = nullptr;
    return s;
  };

  // Phase 1: enrichment + index builds, shard by shard.
  if (Status s = ReshardPrepareShards(new_pattern, new_index_name,
                                      new_secondary_indexes, enrich);
      !s.ok()) {
    return unwind(s);
  }

  // Phases 2 + 3 under one exclusive topology hold, so the table's exact
  // accounting cannot be invalidated by a write that the flipped routing
  // would miss. This is the reshard's stop-the-world moment: one scan of
  // the data, no document movement.
  size_t num_target_chunks = 0;
  {
    const std::unique_lock<std::shared_mutex> topo(topology_mu_);
    Result<std::unique_ptr<ChunkManager>> table =
        ReshardBuildChunkTable(new_pattern);
    if (!table.ok()) {
      reshard_preparing_ = false;
      reshard_enrich_ = nullptr;  // pre-flip failure, as in unwind()
      return table.status();
    }
    chunks_ = std::move(*table);
    pattern_ = std::move(new_pattern);
    shard_key_index_name_ = new_index_name;
    zones_.clear();
    num_target_chunks = chunks_->num_chunks();
    resharding_in_progress_ = true;
    reshard_preparing_ = false;
    PublishRouting();  // reads broadcast from here on
  }

  // Phase 4: chunk-by-chunk copy. The table does not split while the flag
  // is set, so indices are stable across the loop.
  STIX_METRIC_COUNTER(chunks_migrated, "reshard.chunks_migrated");
  STIX_METRIC_COUNTER(docs_moved, "reshard.docs_moved");
  for (size_t i = 0; i < num_target_chunks; ++i) {
    if (Status s = CheckFailPoint(reshardMoveChunk); !s.ok()) return s;
    int owner = -1;
    {
      const std::shared_lock<std::shared_mutex> topo(topology_mu_);
      owner = chunks_->chunk(i).shard_id;
    }
    const Result<MoveResult> moved = MoveChunk(i, owner, LatchMode::kWait);
    if (!moved.ok()) return moved.status();
    // Nothing else changes the table mid-reshard, so an abort is a bug;
    // stay broadcasting rather than leave the chunk half-gathered.
    if (moved->outcome != MoveResult::kInPlace) {
      return Status::Internal("reshard chunk move aborted");
    }
    docs_moved.Increment(moved->docs);
    chunks_migrated.Increment();
  }

  // Phase 5: every document sits on its owner; targeting resumes.
  {
    const std::unique_lock<std::shared_mutex> topo(topology_mu_);
    resharding_in_progress_ = false;
    PublishRouting();
  }
  completed.Increment();
  return Status::OK();
}

Status Cluster::ReshardPrepareShards(
    const ShardKeyPattern& new_pattern, const std::string& new_index_name,
    const std::vector<index::IndexDescriptor>& new_secondary_indexes,
    const ReshardEnrichFn& enrich) {
  for (auto& shard : shards_) {
    // One exclusive hold per shard: index creation, enrichment and backfill
    // are atomic against that shard's readers and writers, so a concurrent
    // query sees either no new index or a fully built one. Other shards
    // stay fully available meanwhile.
    const std::unique_lock<std::shared_mutex> data(shard->data_mutex());
    index::IndexCatalog& catalog = shard->catalog();

    std::vector<index::Index*> fresh;  // created here → need backfill
    if (catalog.Get(new_index_name) == nullptr) {
      std::vector<index::IndexField> fields;
      for (const std::string& path : new_pattern.paths()) {
        fields.push_back({path, index::IndexFieldKind::kAscending});
      }
      if (Status s = catalog.CreateIndex(
              index::IndexDescriptor(new_index_name, std::move(fields)));
          !s.ok()) {
        return s;
      }
      fresh.push_back(catalog.Get(new_index_name));
    }
    for (const index::IndexDescriptor& desc : new_secondary_indexes) {
      if (catalog.Get(desc.name()) != nullptr) continue;
      if (Status s = catalog.CreateIndex(index::IndexDescriptor(
              desc.name(), desc.fields(), desc.geohash_bits()));
          !s.ok()) {
        return s;
      }
      fresh.push_back(catalog.Get(desc.name()));
    }

    storage::RecordStore& records = shard->records();
    std::vector<storage::RecordId> rids;
    rids.reserve(records.num_records());
    records.ForEach([&rids](storage::RecordId rid, const bson::Document&) {
      rids.push_back(rid);
    });
    for (const storage::RecordId rid : rids) {
      const bson::Document* stored = records.Get(rid);
      if (stored == nullptr) continue;
      bool modified = false;
      bson::Document copy = *stored;
      if (enrich != nullptr) {
        Result<bool> r = enrich(&copy);
        if (!r.ok()) return r.status();
        modified = *r;
      }
      if (!modified) {
        for (index::Index* idx : fresh) {
          if (Status s = idx->InsertDocument(*stored, rid); !s.ok()) return s;
        }
        continue;
      }
      // The document changed shape: rewrite it in place (same RecordId — a
      // tombstone-then-RestoreAt round trip), pulling it out of the
      // pre-existing indexes first and re-indexing everything after.
      for (const auto& idx : catalog.indexes()) {
        index::Index* mut = catalog.Get(idx->descriptor().name());
        const bool is_fresh =
            std::find(fresh.begin(), fresh.end(), mut) != fresh.end();
        if (is_fresh) continue;
        if (Status s = mut->RemoveDocument(*stored, rid); !s.ok()) return s;
      }
      records.Remove(rid);
      if (Status s = records.RestoreAt(rid, std::move(copy)); !s.ok()) {
        return s;
      }
      const bson::Document* rewritten = records.Get(rid);
      if (Status s = catalog.OnInsert(*rewritten, rid); !s.ok()) return s;
    }
    // The shard's value distribution changed shape (new fields, new
    // indexes): stale-mark its statistics and drop cached plan choices.
    shard->OnDataDistributionChanged();
  }
  return Status::OK();
}

Result<std::unique_ptr<ChunkManager>> Cluster::ReshardBuildChunkTable(
    const ShardKeyPattern& new_pattern) const {
  // Caller holds topology_mu_ exclusive: no writer can run, so one pass
  // over every shard is a consistent snapshot.
  struct Keyed {
    std::string key;
    uint64_t bytes;
    uint64_t points;
  };
  std::vector<Keyed> all;
  uint64_t total_bytes = 0;
  for (const auto& shard : shards_) {
    const std::shared_lock<std::shared_mutex> data(shard->data_mutex());
    shard->records().ForEach(
        [&](storage::RecordId, const bson::Document& doc) {
          const uint64_t bytes = doc.ApproxBsonSize();
          all.push_back({new_pattern.KeyOf(doc), bytes,
                         storage::StoredPointCount(doc)});
          total_bytes += bytes;
        });
  }
  std::sort(all.begin(), all.end(),
            [](const Keyed& a, const Keyed& b) { return a.key < b.key; });

  // Same density the split threshold would converge to, but computed in
  // one pass — and never fewer chunks than shards, or the round-robin
  // assignment would leave shards empty.
  const size_t target_chunks = std::max(
      static_cast<size_t>(
          total_bytes / std::max<uint64_t>(options_.chunk_max_bytes, 1) + 1),
      static_cast<size_t>(options_.num_shards));

  // MongoDB's resharding samples the key space rather than sorting every
  // key into the split decision; the stride keeps that shape (accounting
  // below stays exact — only the boundary choice is sampled).
  std::vector<std::string> sampled;
  sampled.reserve(all.size() / kSampleStride + 1);
  for (size_t i = 0; i < all.size(); i += kSampleStride) {
    sampled.push_back(all[i].key);
  }
  const std::vector<std::string> bounds = SplitVector(sampled, target_chunks);

  // Materialize the table: boundaries MinKey, bounds..., MaxKey, owners
  // round-robin, accounting by walking the sorted keys once.
  std::vector<Chunk> table;
  table.reserve(bounds.size() + 1);
  std::string prev = keystring::MinKey();
  for (size_t i = 0; i <= bounds.size(); ++i) {
    Chunk c;
    c.min = prev;
    c.max = i < bounds.size() ? bounds[i] : keystring::MaxKey();
    c.shard_id = static_cast<int>(i % static_cast<size_t>(options_.num_shards));
    prev = c.max;
    table.push_back(std::move(c));
  }
  size_t ci = 0;
  for (const Keyed& k : all) {
    while (ci + 1 < table.size() && k.key >= table[ci].max) ++ci;
    table[ci].AddDocument(k.bytes, k.points);
  }
  return ChunkManager::FromChunks(std::move(table));
}

}  // namespace stix::cluster
