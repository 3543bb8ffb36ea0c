#ifndef STIX_ST_KNN_H_
#define STIX_ST_KNN_H_

#include <vector>

#include "st/st_store.h"

namespace stix::st {

/// k-nearest-neighbour search options.
struct KnnOptions {
  size_t k = 10;
  /// Documents pulled per shard per getMore while streaming a ring probe.
  size_t batch_size = 256;
  /// Candidate budget per ring probe, pushed down the cursor stack as a
  /// limit: the probe's shard executors stop as soon as this many
  /// candidates have been produced. 0 (default) keeps the search exact; a
  /// non-zero budget makes it approximate — a ring that hits the budget may
  /// miss closer points it never pulled — in exchange for bounded per-probe
  /// work (the top-k early-termination the streaming stack exists for).
  uint64_t candidate_budget = 0;
};

/// One kNN answer: a matching document and its great-circle distance.
struct Neighbor {
  bson::Document doc;
  double distance_m = 0.0;
};

/// kNN outcome plus the cost of the expanding search.
struct KnnResult {
  /// OK, or the status of the first ring probe that failed: the search
  /// stops there and `neighbors` stays empty (a partial ring is not an
  /// answer).
  Status status;
  std::vector<Neighbor> neighbors;  ///< Ascending distance, `<= k` entries.
  int expansions = 0;               ///< Radius doublings performed.
  int queries_issued = 0;
  uint64_t total_keys_examined = 0;
  /// Ring-probe documents that reached the merger across all rounds. The
  /// search streams each probe and keeps only the best k, so this bounds
  /// transient memory at k + one batch per shard regardless of ring size.
  uint64_t candidates_examined = 0;
};

/// Finds the k documents nearest to `center` among those within the closed
/// time interval, by expanding-ring range queries over the store (the
/// classic space-filling-curve kNN recipe, here an extension on top of the
/// paper's range-query machinery):
/// a square of half-width r is queried; the answer is final once at least k
/// candidates lie within distance r (no point outside the square can be
/// closer). Otherwise r doubles, at most 16 times. r starts at 250 m; on
/// bucketed stores it starts at least at the distance to the nearest bucket
/// MBR overlapping the time window (a metadata-only scan, no column
/// decompression). Enlarging the first ring never skips a neighbour — no
/// point can lie closer than its bucket's MBR — it only skips ring probes
/// that provably return nothing.
KnnResult KnnQuery(const StStore& store, geo::Point center,
                   int64_t t_begin_ms, int64_t t_end_ms,
                   const KnnOptions& options = {});

}  // namespace stix::st

#endif  // STIX_ST_KNN_H_
