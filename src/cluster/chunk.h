#ifndef STIX_CLUSTER_CHUNK_H_
#define STIX_CLUSTER_CHUNK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bson/document.h"
#include "common/status.h"

namespace stix::cluster {

/// How documents map to the shard-key space.
enum class ShardingStrategy {
  kRange,   ///< KeyString order of the shard-key fields (locality).
  kHashed,  ///< Hash of the leading field (spreads, kills locality).
};

/// A (compound) shard key: ordered field paths plus the strategy. 2dsphere
/// fields cannot participate (MongoDB restriction the paper works around via
/// hilbertIndex).
class ShardKeyPattern {
 public:
  ShardKeyPattern() = default;
  ShardKeyPattern(std::vector<std::string> paths, ShardingStrategy strategy)
      : paths_(std::move(paths)), strategy_(strategy) {}

  const std::vector<std::string>& paths() const { return paths_; }
  ShardingStrategy strategy() const { return strategy_; }
  bool empty() const { return paths_.empty(); }

  /// Position of this document in shard-key space (a KeyString). Missing
  /// fields key as Null, like MongoDB.
  std::string KeyOf(const bson::Document& doc) const;

  /// "{hilbertIndex: 1, date: 1}" for reports.
  std::string DebugString() const;

 private:
  std::vector<std::string> paths_;
  ShardingStrategy strategy_ = ShardingStrategy::kRange;
};

/// A contiguous shard-key range [min, max) of the collection, resident on
/// one shard. Splits when it outgrows the configured max size; `jumbo`
/// marks chunks that cannot split because every document shares one key.
struct Chunk {
  std::string min;  ///< Inclusive KeyString lower bound.
  std::string max;  ///< Exclusive KeyString upper bound.
  int shard_id = 0;
  uint64_t bytes = 0;
  uint64_t docs = 0;
  /// Logical data points in the chunk. Equal to `docs` for row-layout
  /// collections; for bucketed collections each stored document is a
  /// bucket of many points, and the balancer weighs chunks by this.
  uint64_t points = 0;
  /// Write-distribution tracking: cumulative inserts + deletes routed into
  /// this key range (MongoDB's analyzeShardKey read/write distribution).
  /// Split distributes it across the parts; a migration keeps it with the
  /// chunk. Reported by Cluster::DistributionJson.
  uint64_t writes = 0;
  bool jumbo = false;

  /// Counts one stored document of `doc_bytes` holding `doc_points`
  /// logical points into the chunk's accounting.
  void AddDocument(uint64_t doc_bytes, uint64_t doc_points) {
    bytes += doc_bytes;
    docs += 1;
    points += doc_points;
  }
};

/// Sampled split vector (MongoDB's autoSplitVector): given the ascending
/// shard-key sequence of one chunk, returns up to `parts - 1` boundary keys
/// cutting it into near-equal key-count parts. Boundaries are drawn from the
/// observed keys, strictly increase, and skip over runs of duplicate keys
/// (a run longer than a part simply yields fewer boundaries — the caller
/// marks the chunk jumbo when none fit). Returns an empty vector when
/// `parts < 2` or the keys admit no interior boundary.
std::vector<std::string> SplitVector(const std::vector<std::string>& keys,
                                     size_t parts);

/// The config-server view: an ordered, gap-free partition of the shard-key
/// space into chunks.
class ChunkManager {
 public:
  /// Starts with one chunk [MinKey, MaxKey) on `initial_shard`.
  explicit ChunkManager(int initial_shard);

  /// Rebuilds a chunk table from a saved list (recovery). Fails
  /// with Corruption when the list violates the invariants (sorted,
  /// contiguous, covering the whole key space).
  static Result<std::unique_ptr<ChunkManager>> FromChunks(
      std::vector<Chunk> chunk_table);

  size_t num_chunks() const { return chunks_.size(); }
  const Chunk& chunk(size_t i) const { return chunks_[i]; }
  Chunk& chunk(size_t i) { return chunks_[i]; }
  const std::vector<Chunk>& chunks() const { return chunks_; }

  /// Index of the chunk owning this key.
  size_t FindChunkIndex(const std::string& key) const;

  /// Splits chunk `i` at every boundary in `bounds` (ascending, strictly
  /// inside its range), dividing the byte/doc/point/write accounting evenly
  /// across the resulting `bounds.size() + 1` parts — the multi-way split a
  /// sampled split vector produces. Fails (leaving the table untouched) on
  /// unsorted or out-of-range boundaries.
  Status MultiSplit(size_t i, const std::vector<std::string>& bounds);

  /// Per-shard chunk counts (index = shard id), sized to `num_shards`.
  std::vector<int> CountsPerShard(int num_shards) const;

  /// Invariants: sorted, contiguous, covering [MinKey, MaxKey). For tests.
  bool CheckInvariants() const;

 private:
  ChunkManager() = default;  // for FromChunks

  std::vector<Chunk> chunks_;  // sorted by min
};

}  // namespace stix::cluster

#endif  // STIX_CLUSTER_CHUNK_H_
