#ifndef STIX_ST_ADAPTIVE_H_
#define STIX_ST_ADAPTIVE_H_

#include <vector>

#include "st/st_store.h"

namespace stix::st {

/// One entry of a historical query workload: a spatio-temporal range and
/// its relative frequency.
struct WorkloadQuery {
  geo::Rect rect;
  int64_t t_begin_ms = 0;
  int64_t t_end_ms = 0;
  double weight = 1.0;
};

/// Knobs of the workload-aware zone computation.
struct AdaptiveZoneOptions {
  /// Documents sampled for the load estimate (0 = use all documents).
  size_t sample_limit = 100000;
  uint64_t seed = 97;
};

/// The paper's closing future-work item ("an adaptive, workload-aware
/// mechanism for indexing and partitioning"): instead of $bucketAuto's
/// equi-*count* zone boundaries, compute equi-*load* boundaries — each
/// document's weight is the summed frequency of the workload queries that
/// match it, and zones split the shard-key-prefix space into equal-weight
/// slices. Hot regions get spread over more shards; cold regions share one.
///
/// Returns one zone per shard on the approach's zone path (hilbertIndex for
/// the Hilbert approaches, date for the baselines), ready for
/// Cluster::SetZones. Zones may be fewer than shards under extreme skew
/// (identical boundary values collapse).
Result<std::vector<cluster::ZoneRange>> ComputeWorkloadAwareZones(
    const StStore& store, const std::vector<WorkloadQuery>& workload,
    const AdaptiveZoneOptions& options = {});

/// Convenience: compute and apply (migrates data).
Status ApplyWorkloadAwareZones(StStore* store,
                               const std::vector<WorkloadQuery>& workload,
                               const AdaptiveZoneOptions& options = {});

}  // namespace stix::st

#endif  // STIX_ST_ADAPTIVE_H_
