#ifndef STIX_CLUSTER_BALANCER_H_
#define STIX_CLUSTER_BALANCER_H_

#include <optional>

#include "cluster/chunk.h"
#include "cluster/zones.h"
#include "common/rng.h"

namespace stix::cluster {

/// A proposed chunk migration.
struct Migration {
  size_t chunk_index;
  int to_shard;
};

/// Balancer policy options.
struct BalancerOptions {
  /// Sleep between rounds of the background balancer thread
  /// (Cluster::StartBalancer). Small by default: bench-scale migrations are
  /// sub-millisecond, so the thread mostly idles on its condition variable.
  int background_interval_ms = 5;
};

/// The zone pinning a chunk, or -1 when no zone touches it. A chunk is
/// pinned by the first zone its [min, max) range *overlaps* — not merely
/// the zone of its min key — so a chunk straddling a zone boundary (zones
/// set after data split the chunks, or restored layouts) is still pinned
/// and still counts as violating when it sits on the wrong shard.
int ZoneForChunk(const std::vector<ZoneRange>& zones, const Chunk& chunk);

/// Pure balancer policy (the decision half of MongoDB's Balancer; the
/// cluster applies the moves). Priorities, in order:
///  1. zone violations — a chunk whose pinning zone (see ZoneForChunk)
///     disagrees with the shard it sits on;
///  2. plain imbalance — move a random *movable* (zone-free) chunk from the
///     shard with the most movable chunks to the shard with the fewest,
///     once they differ by at least two (MongoDB's migration threshold,
///     scaled down).
///     Counts, donor/recipient choice and the threshold all consider only
///     movable chunks: pinned chunks can never be moved to fix the
///     imbalance they create, and counting them both stalled the balancer
///     (donor with a pinned surplus, nothing movable) and hid real movable
///     imbalance elsewhere. With no zones every chunk is movable and this
///     degenerates to plain chunk counts.
/// `weigh_by_points` (bucketed collections): chunks with equal document
/// counts can differ by orders of magnitude in logical points (buckets
/// seal at different fills), so the imbalance pick moves the donor's
/// *heaviest* movable chunk (by Chunk::points) instead of a random one, and
/// data — not bucket documents — evens out. The trigger is unchanged.
/// Row layouts pass false and keep the seeded random pick.
/// Returns nullopt when balanced. Randomness comes from the caller's seeded
/// Rng, so placements are reproducible.
std::optional<Migration> PickNextMigration(const ChunkManager& chunks,
                                           int num_shards,
                                           const std::vector<ZoneRange>& zones,
                                           bool weigh_by_points, Rng* rng);

}  // namespace stix::cluster

#endif  // STIX_CLUSTER_BALANCER_H_
