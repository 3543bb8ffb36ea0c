#ifndef STIX_QUERY_STATS_SHARD_STATS_H_
#define STIX_QUERY_STATS_SHARD_STATS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bson/document.h"
#include "geo/geohash.h"
#include "query/stats/histogram.h"

namespace stix::query::stats {

/// The int64 values one stored document contributes to the per-path
/// histograms, plus the point count it represents (1 for row documents, the
/// decoded point count for bucket documents).
struct ObservedValues {
  std::optional<int64_t> date;
  std::optional<int64_t> hilbert;
  std::optional<int64_t> geocell;
  uint32_t points = 1;
  bool is_bucket = false;
};

/// Extracts the statistics values of one stored document: the date millis
/// (DateTime or integer), the hilbertIndex cell, and — when `geohash` is
/// non-null — the GeoHash cell of the location point (the value space the
/// 2dsphere index keys scan over). Bucket documents contribute their
/// bucket-level date (window start) and hilbertIndex (cell base) fields and
/// their decoded point count; they carry no location point.
ObservedValues ExtractStatsValues(const bson::Document& doc,
                                  const geo::GeoHash* geohash);

/// Everything a ShardStatistics rebuild needs, collected by the owner under
/// its data lock (the stats layer never walks storage itself).
struct RebuildSample {
  std::vector<int64_t> dates;
  std::vector<int64_t> hilberts;
  std::vector<int64_t> geocells;
  uint64_t num_docs = 0;
  uint64_t num_points = 0;
  uint64_t num_buckets = 0;
};

/// Per-shard online statistics: equi-depth histograms over the `date`,
/// `hilbertIndex` and `location` (GeoHash cell) paths plus collection /
/// bucket-layout counts. Maintained incrementally on every insert and
/// delete (Observe), marked stale by chunk migrations (MarkStale), and
/// rebuilt lazily — the owning shard calls NeedsRebuild() at query entry
/// and hands a fresh RebuildSample to Rebuild() when the frozen histogram
/// boundaries have drifted too far.
///
/// Thread-safe: all methods lock the internal mutex. Like the plan cache,
/// this is execution-state, not collection-state — readers holding the
/// shard's data lock shared may mutate it.
class ShardStatistics {
 public:
  /// Histogram paths (the document schema's field names; bucket documents
  /// reuse the same top-level names for their widened values).
  static constexpr char kDatePath[] = "date";
  static constexpr char kHilbertPath[] = "hilbertIndex";
  static constexpr char kLocationPath[] = "location";

  /// Boundary-drift threshold beyond which estimates are considered
  /// unreliable and a rebuild is requested.
  static constexpr double kMaxDrift = 0.25;

  /// Buckets per histogram. Finer than the library default (64): the
  /// worst estimation errors are query bounds clipping a bucket mid-span
  /// (the interpolation error is ~half a bucket's population), and at
  /// bench scale (~20k values/shard) 256 buckets keep that under ~40
  /// values while the resident cost stays trivial (3 paths x 4 KB).
  static constexpr size_t kHistogramBuckets = 256;

  /// Incremental maintenance hook (insert: delta = +1, delete: delta = -1).
  /// Called by the shard under its exclusive data lock.
  void Observe(const ObservedValues& values, int delta);

  /// Flags the statistics as stale (chunk migration changed the shard's
  /// data distribution); the next NeedsRebuild() returns true.
  void MarkStale();

  /// True when estimates should not be trusted until a rebuild: never
  /// built, explicitly marked stale, or any histogram drifted past
  /// kMaxDrift. False for an empty shard (nothing to estimate).
  bool NeedsRebuild() const;

  /// Installs a freshly collected sample, clearing staleness and drift.
  /// `generation` guards against racing rebuilds installing the same work
  /// twice: pass the value of rebuild_generation() read *before* collecting
  /// the sample — a stale generation is discarded.
  void Rebuild(RebuildSample sample, uint64_t generation);
  uint64_t rebuild_generation() const;
  uint64_t rebuilds() const;

  /// True when the histograms are built and fresh enough for cost-based
  /// plan selection (the executor's gate).
  bool ReliableForEstimation() const;

  /// Estimated number of stored documents whose `path` value lies in the
  /// closed range [lo, hi]; negative when no histogram exists for the path.
  double EstimateRange(const std::string& path, int64_t lo, int64_t hi) const;

  /// Sum of EstimateRange over an interval set (one lock acquisition —
  /// hil* coverings carry thousands of ranges). Negative when no histogram
  /// exists for the path.
  double EstimateIntervalSum(
      const std::string& path,
      const std::vector<std::pair<int64_t, int64_t>>& ranges) const;

  /// One shard's part of a cluster-wide fraction estimate, read under one
  /// lock so the count and the estimate belong to one moment.
  struct RangeEstimate {
    uint64_t docs = 0;     ///< Stored documents.
    double in_range = -1;  ///< EstimateRange; negative when unknown.
  };

  /// EstimateRange with the document count it is a share of. `in_range` is
  /// negative (unknown) for an empty shard, for histograms that are not
  /// ReliableForEstimation, and for a path without a histogram.
  RangeEstimate ReliableRangeEstimate(const std::string& path, int64_t lo,
                                      int64_t hi) const;

  uint64_t total_docs() const;
  uint64_t total_points() const;

  /// Mean decoded points per stored document (1.0 for row collections,
  /// the mean bucket fill for bucketed ones).
  double avg_points_per_doc() const;

 private:
  bool NeedsRebuildLocked() const;

  mutable std::mutex mu_;
  std::map<std::string, EquiDepthHistogram> histograms_;
  uint64_t docs_ = 0;
  uint64_t points_ = 0;
  uint64_t buckets_ = 0;
  bool stale_ = false;
  bool built_ = false;
  uint64_t generation_ = 0;
  uint64_t rebuilds_ = 0;
};

}  // namespace stix::query::stats

#endif  // STIX_QUERY_STATS_SHARD_STATS_H_
