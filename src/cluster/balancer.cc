#include "cluster/balancer.h"

#include <algorithm>
#include <vector>

namespace stix::cluster {
namespace {

// Migrate only when the donor has at least this many more movable chunks
// than the recipient.
constexpr int kImbalanceThreshold = 2;

}  // namespace

int ZoneForChunk(const std::vector<ZoneRange>& zones, const Chunk& chunk) {
  // Zones are few and sorted; overlap is an interval intersection test.
  for (const ZoneRange& z : zones) {
    if (z.min < chunk.max && chunk.min < z.max) return z.shard_id;
  }
  return -1;
}

std::optional<Migration> PickNextMigration(const ChunkManager& chunks,
                                           int num_shards,
                                           const std::vector<ZoneRange>& zones,
                                           bool weigh_by_points, Rng* rng) {
  // Priority 1: zone violations. Overlap-based pinning (ZoneForChunk)
  // catches chunks that straddle a zone boundary; classifying by the min
  // key alone left such chunks stranded on the wrong shard.
  if (!zones.empty()) {
    for (size_t i = 0; i < chunks.num_chunks(); ++i) {
      const Chunk& c = chunks.chunk(i);
      const int owner = ZoneForChunk(zones, c);
      if (owner >= 0 && owner != c.shard_id) {
        return Migration{i, owner};
      }
    }
  }

  // Priority 2: even out the chunks that are actually free to move. The
  // counts deliberately exclude pinned chunks — a shard whose surplus is
  // entirely pinned is not a donor (nothing on it can move), and a movable
  // imbalance between two lightly-loaded shards must not be masked by a
  // third shard's pinned load.
  std::vector<int> counts(static_cast<size_t>(num_shards), 0);
  for (size_t i = 0; i < chunks.num_chunks(); ++i) {
    const Chunk& c = chunks.chunk(i);
    if (!zones.empty() && ZoneForChunk(zones, c) >= 0) continue;  // pinned
    ++counts[static_cast<size_t>(c.shard_id)];
  }
  int donor = 0, recipient = 0;
  for (int s = 1; s < num_shards; ++s) {
    if (counts[s] > counts[donor]) donor = s;
    if (counts[s] < counts[recipient]) recipient = s;
  }
  if (counts[donor] - counts[recipient] < kImbalanceThreshold) {
    return std::nullopt;
  }

  std::vector<size_t> movable;
  for (size_t i = 0; i < chunks.num_chunks(); ++i) {
    const Chunk& c = chunks.chunk(i);
    if (c.shard_id != donor) continue;
    if (!zones.empty() && ZoneForChunk(zones, c) >= 0) continue;  // pinned
    movable.push_back(i);
  }
  if (movable.empty()) return std::nullopt;
  if (weigh_by_points) {
    // Heaviest movable chunk first; rng breaks ties among equals so the
    // degenerate all-equal case matches the unweighted pick distribution.
    uint64_t best = 0;
    for (const size_t i : movable) {
      best = std::max(best, chunks.chunk(i).points);
    }
    std::vector<size_t> heaviest;
    for (const size_t i : movable) {
      if (chunks.chunk(i).points == best) heaviest.push_back(i);
    }
    const size_t pick = heaviest[rng->NextBounded(heaviest.size())];
    return Migration{pick, recipient};
  }
  const size_t pick = movable[rng->NextBounded(movable.size())];
  return Migration{pick, recipient};
}

}  // namespace stix::cluster
