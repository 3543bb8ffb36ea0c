#ifndef STIX_ST_APPROACH_H_
#define STIX_ST_APPROACH_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/chunk.h"
#include "geo/covering.h"
#include "geo/curve_registry.h"
#include "index/index_descriptor.h"
#include "query/expression.h"

namespace stix::st {

/// Field names of the paper's document schema.
inline constexpr char kLocationField[] = "location";
inline constexpr char kDateField[] = "date";
inline constexpr char kHilbertField[] = "hilbertIndex";

/// The four evaluated methods (paper Section 5.1, "Methodology").
enum class ApproachKind {
  kBslST,    ///< Shard on {date}; compound index {location 2dsphere, date}.
  kBslTS,    ///< Shard on {date}; compound index {date, location 2dsphere}.
  kHil,      ///< hilbertIndex over the globe; shard {hilbertIndex, date}.
  kHilStar,  ///< hilbertIndex over the dataset MBR; shard {hilbertIndex, date}.
};

const char* ApproachName(ApproachKind kind);

/// Tunables shared by the approaches.
struct ApproachConfig {
  ApproachKind kind = ApproachKind::kHil;
  /// Hilbert curve bits per dimension (paper: 13, matching the 26 total bits
  /// of the 2dsphere GeoHash).
  int hilbert_order = 13;
  /// MBR of the data set; only consulted by kHilStar.
  geo::Rect dataset_mbr = geo::GlobeRect();
  /// 1D linearization behind the hilbertIndex field (curve approaches
  /// only). The field name and its Int64 KeyString encoding are shared by
  /// every curve — d < 4^order <= 2^32 always fits — so switching curves
  /// changes key *values*, never key shapes.
  geo::CurveKind curve_kind = geo::CurveKind::kHilbert;
  /// Point sample the EntropyGeoHash mapping fits its equi-depth cell
  /// boundaries from (ignored by other curves; empty = uniform boundaries,
  /// i.e. plain GeoHash cells).
  std::vector<geo::Point> curve_fit_sample;
  /// Covering/translation cache capacity in entries (LRU eviction beyond
  /// it); 0 disables memoization entirely. Bounds the cache under workloads
  /// with unboundedly many distinct query rects.
  size_t cover_cache_capacity = 4096;
  /// Adaptive curve-covering budget (Hilbert approaches only): when the
  /// store can estimate a query's selectivity from the shard histograms,
  /// low-selectivity rects — ones expected to touch more than
  /// 2% of the data — are covered with at most
  /// `coarse_cover_max_ranges` ranges (a coarser superset: fewer seeks and
  /// far less covering work, and still exact because the residual
  /// $geoWithin + date predicates refine at FETCH), while hot small rects
  /// keep the exact covering. Off, or an unknown selectivity, always uses
  /// the exact covering.
  bool adaptive_cover_budget = true;
  size_t coarse_cover_max_ranges = 64;
};

/// A spatio-temporal range query translated into the store's match language,
/// plus the cost of the curve-covering step (reported separately by the
/// paper's Table 8 and excluded from its execution-time figures).
struct TranslatedQuery {
  query::ExprPtr expr;
  double cover_millis = 0.0;  ///< Time spent in CoverRect (0 for baselines).
  size_t num_ranges = 0;      ///< Width->1 ranges in the $or.
  size_t num_singletons = 0;  ///< Cells that went into the $in.
  /// True when the covering + expression came out of the approach's
  /// translation cache instead of being recomputed (cover_millis is then
  /// the hash-lookup time, effectively zero).
  bool cache_hit = false;
  /// Covering budget the translation used: 0 = exact covering, otherwise
  /// the max_ranges cap a coarse (adaptive) covering was computed under.
  size_t cover_budget = 0;
};

/// Hit/miss/eviction counters of the covering & translation cache.
struct CoverCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Strategy object tying together everything one approach defines: how to
/// shard, which indexes to build, how to enrich documents, how to phrase
/// queries, and which field zones are keyed on (paper Section 4).
class Approach {
 public:
  explicit Approach(const ApproachConfig& config);

  const ApproachConfig& config() const { return config_; }
  ApproachKind kind() const { return config_.kind; }
  const char* name() const { return ApproachName(config_.kind); }
  bool uses_hilbert() const {
    return config_.kind == ApproachKind::kHil ||
           config_.kind == ApproachKind::kHilStar;
  }

  /// Shard key ({date} for baselines, {hilbertIndex, date} for Hilbert).
  cluster::ShardKeyPattern shard_key() const;

  /// Secondary indexes beyond the shard-key and _id indexes (the baselines'
  /// compound 2dsphere index; none for the Hilbert approaches).
  std::vector<index::IndexDescriptor> secondary_indexes() const;

  /// Adds the hilbertIndex field for Hilbert approaches; no-op otherwise.
  /// Fails if the location field is not a GeoJSON point.
  Status EnrichDocument(bson::Document* doc) const;

  /// Rect + closed time interval -> the approach's query document
  /// (baselines: $geoWithin + date range; Hilbert: plus the $or over
  /// covering ranges / $in over single cells — Section 4.2.2).
  ///
  /// Translations are memoized per (rect, time window): repeated query
  /// shapes (warm bench runs, periodic workload queries) skip the Hilbert
  /// covering entirely and reuse the immutable translated expression. The
  /// paper's Table 8 treats covering as a per-query cost; with the cache it
  /// is paid once per distinct query. Thread-safe.
  /// `max_ranges` caps the covering's range count (0 = exact covering);
  /// StStore derives it per query via PickCoverBudget. Distinct budgets
  /// memoize separately (the budget is part of the cache key).
  TranslatedQuery TranslateQuery(const geo::Rect& rect, int64_t t_begin_ms,
                                 int64_t t_end_ms,
                                 size_t max_ranges = 0) const;

  /// Selectivity above which the adaptive cover budget goes coarse.
  static constexpr double kCoarseCoverFraction = 0.02;

  /// The covering budget for a query expected to select `est_fraction`
  /// (0..1) of the stored documents: coarse_cover_max_ranges when the
  /// adaptive budget is on and the fraction crosses kCoarseCoverFraction,
  /// else 0 (exact). A negative fraction means unknown — exact covering.
  size_t PickCoverBudget(double est_fraction) const;

  /// The covering budget for a query over `rect`, deciding from the rect
  /// first: a rect covering at most kCoarseCoverFraction of the curve
  /// domain selects at most that share whatever the time window, so it
  /// covers exactly without calling `time_fraction`. Only a larger rect
  /// asks `time_fraction()` for the time window's share of the stored
  /// documents (negative: unknown, stay exact) and picks the budget for
  /// the product.
  template <typename TimeFraction>
  size_t CoverBudget(const geo::Rect& rect,
                     TimeFraction&& time_fraction) const {
    if (!uses_hilbert() || !config_.adaptive_cover_budget) return 0;
    const double spatial = SpatialFraction(rect);
    if (spatial <= kCoarseCoverFraction) return PickCoverBudget(spatial);
    const double time = time_fraction();
    return PickCoverBudget(time < 0.0 ? -1.0 : time * spatial);
  }

  /// Polygon variant (the paper's complex-geometry future-work item): same
  /// covering machinery, exact point-in-polygon refinement.
  TranslatedQuery TranslatePolygonQuery(const geo::Polygon& polygon,
                                        int64_t t_begin_ms,
                                        int64_t t_end_ms) const;

  /// Field zones are defined on ("date" / "hilbertIndex"), Section 4.x.3.
  std::string zone_path() const;

  /// The curve behind hilbertIndex (null for baselines). Fixed at
  /// construction — an EntropyGeoHash mapping is fitted once, from
  /// ApproachConfig::curve_fit_sample — so it needs no lock.
  const std::shared_ptr<const geo::Curve2D>& curve() const { return curve_; }

  /// Covering/translation cache counters (cumulative for this approach
  /// instance).
  CoverCacheStats cover_cache_stats() const {
    return CoverCacheStats{cache_hits_.load(std::memory_order_relaxed),
                           cache_misses_.load(std::memory_order_relaxed),
                           cache_evictions_.load(std::memory_order_relaxed)};
  }

  /// Entries currently memoized (for tests/diagnostics).
  size_t cover_cache_size() const;

  void ClearCoverCache() const;

 private:
  /// Cache key: the exact rect coordinates, time window and covering
  /// budget. The curve is fixed per approach, so it needs no key part.
  struct CacheKey {
    double lo_lon, lo_lat, hi_lon, hi_lat;
    int64_t t_begin_ms, t_end_ms;
    uint64_t max_ranges;  ///< Covering budget (0 = exact).

    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& k) const;
  };

  /// Share of the curve domain that `rect`, clipped to it, covers (1 for a
  /// degenerate domain). Curve approaches only.
  double SpatialFraction(const geo::Rect& rect) const;

  TranslatedQuery TranslateRegionQuery(query::ExprPtr geo_predicate,
                                       const geo::Region& region,
                                       int64_t t_begin_ms, int64_t t_end_ms,
                                       size_t max_ranges) const;

  ApproachConfig config_;
  std::shared_ptr<const geo::Curve2D> curve_;  ///< Null for baselines.

  /// Memoized rect translations as a bounded LRU: a recency list of
  /// (key, value) pairs plus an index into it. A hit splices its entry to
  /// the front; an insert beyond capacity evicts from the back. Values hold
  /// immutable shared expressions, so concurrent readers can share them
  /// freely. Guarded by cache_mu_; counters are atomics so stats reads
  /// never block translation.
  using CacheEntry = std::pair<CacheKey, TranslatedQuery>;
  mutable std::mutex cache_mu_;
  mutable std::list<CacheEntry> cover_cache_lru_;
  mutable std::unordered_map<CacheKey, std::list<CacheEntry>::iterator,
                             CacheKeyHash>
      cover_cache_;
  mutable std::atomic<uint64_t> cache_hits_{0};
  mutable std::atomic<uint64_t> cache_misses_{0};
  mutable std::atomic<uint64_t> cache_evictions_{0};
};

}  // namespace stix::st

#endif  // STIX_ST_APPROACH_H_
