#include "st/approach.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/stopwatch.h"

namespace stix::st {

size_t Approach::CacheKeyHash::operator()(const CacheKey& k) const {
  // FNV-1a over the raw bytes: the key is a POD of doubles/int64s compared
  // bitwise via ==, so hashing the bit patterns is consistent with it.
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* p, size_t n) {
    const unsigned char* bytes = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  mix(&k.lo_lon, sizeof k.lo_lon);
  mix(&k.lo_lat, sizeof k.lo_lat);
  mix(&k.hi_lon, sizeof k.hi_lon);
  mix(&k.hi_lat, sizeof k.hi_lat);
  mix(&k.t_begin_ms, sizeof k.t_begin_ms);
  mix(&k.t_end_ms, sizeof k.t_end_ms);
  mix(&k.max_ranges, sizeof k.max_ranges);
  return static_cast<size_t>(h);
}

const char* ApproachName(ApproachKind kind) {
  switch (kind) {
    case ApproachKind::kBslST:
      return "bslST";
    case ApproachKind::kBslTS:
      return "bslTS";
    case ApproachKind::kHil:
      return "hil";
    case ApproachKind::kHilStar:
      return "hil*";
  }
  return "?";
}

Approach::Approach(const ApproachConfig& config) : config_(config) {
  if (uses_hilbert()) {
    const geo::Rect domain = config_.kind == ApproachKind::kHilStar
                                 ? config_.dataset_mbr
                                 : geo::GlobeRect();
    curve_ = geo::MakeCurve(config_.curve_kind, config_.hilbert_order, domain,
                            config_.curve_fit_sample);
  }
}

cluster::ShardKeyPattern Approach::shard_key() const {
  if (uses_hilbert()) {
    return cluster::ShardKeyPattern({kHilbertField, kDateField},
                                    cluster::ShardingStrategy::kRange);
  }
  return cluster::ShardKeyPattern({kDateField},
                                  cluster::ShardingStrategy::kRange);
}

std::vector<index::IndexDescriptor> Approach::secondary_indexes() const {
  std::vector<index::IndexDescriptor> out;
  switch (config_.kind) {
    case ApproachKind::kBslST:
      out.emplace_back(
          "location_2dsphere_date_1",
          std::vector<index::IndexField>{
              {kLocationField, index::IndexFieldKind::k2dsphere},
              {kDateField, index::IndexFieldKind::kAscending}});
      break;
    case ApproachKind::kBslTS:
      out.emplace_back(
          "date_1_location_2dsphere",
          std::vector<index::IndexField>{
              {kDateField, index::IndexFieldKind::kAscending},
              {kLocationField, index::IndexFieldKind::k2dsphere}});
      break;
    case ApproachKind::kHil:
    case ApproachKind::kHilStar:
      // The shard-key compound index {hilbertIndex, date} is the
      // spatio-temporal index; nothing extra (paper A.3).
      break;
  }
  return out;
}

Status Approach::EnrichDocument(bson::Document* doc) const {
  if (!uses_hilbert()) return Status::OK();
  const bson::Value* loc = doc->Get(kLocationField);
  double lon, lat;
  if (loc == nullptr || !bson::ExtractGeoJsonPoint(*loc, &lon, &lat)) {
    return Status::InvalidArgument(
        "document has no GeoJSON point in 'location'");
  }
  doc->Set(kHilbertField,
           bson::Value::Int64(
               static_cast<int64_t>(curve_->PointToD(lon, lat))));
  return Status::OK();
}

TranslatedQuery Approach::TranslateQuery(const geo::Rect& rect,
                                         int64_t t_begin_ms, int64_t t_end_ms,
                                         size_t max_ranges) const {
  // Baselines have no covering, so the budget would only fragment their
  // cache entries.
  if (!uses_hilbert()) max_ranges = 0;
  // Normalize -0.0 so bitwise hashing agrees with value equality.
  const auto norm = [](double d) { return d == 0.0 ? 0.0 : d; };
  const CacheKey key{norm(rect.lo.lon),
                     norm(rect.lo.lat),
                     norm(rect.hi.lon),
                     norm(rect.hi.lat),
                     t_begin_ms,
                     t_end_ms,
                     static_cast<uint64_t>(max_ranges)};
  STIX_METRIC_COUNTER(cover_hits, "cover_cache.hits");
  STIX_METRIC_COUNTER(cover_misses, "cover_cache.misses");
  STIX_METRIC_COUNTER(cover_evictions, "cover_cache.evictions");
  STIX_METRIC_GAUGE(cover_size, "cover_cache.size");
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    const auto it = cover_cache_.find(key);
    if (it != cover_cache_.end()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      cover_hits.Increment();
      // Refresh recency: the hit entry moves to the front of the LRU list.
      cover_cache_lru_.splice(cover_cache_lru_.begin(), cover_cache_lru_,
                              it->second);
      TranslatedQuery out = it->second->second;  // shares the immutable expr
      out.cache_hit = true;
      out.cover_millis = 0.0;  // the covering was not recomputed
      return out;
    }
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  cover_misses.Increment();

  // Compute outside the lock: coverings can be expensive and concurrent
  // queries must not serialize on them. A racing duplicate insert is
  // harmless (same value, last writer wins).
  TranslatedQuery fresh = TranslateRegionQuery(
      query::MakeGeoWithinBox(kLocationField, rect), geo::RectRegion(rect),
      t_begin_ms, t_end_ms, max_ranges);
  if (config_.cover_cache_capacity == 0) return fresh;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    const auto it = cover_cache_.find(key);
    if (it != cover_cache_.end()) {
      // A racing translation of the same key won; keep its entry.
      cover_cache_lru_.splice(cover_cache_lru_.begin(), cover_cache_lru_,
                              it->second);
    } else {
      cover_cache_lru_.emplace_front(key, fresh);
      cover_cache_[key] = cover_cache_lru_.begin();
      while (cover_cache_.size() > config_.cover_cache_capacity) {
        cover_cache_.erase(cover_cache_lru_.back().first);
        cover_cache_lru_.pop_back();
        cache_evictions_.fetch_add(1, std::memory_order_relaxed);
        cover_evictions.Increment();
      }
    }
    cover_size.Set(static_cast<int64_t>(cover_cache_.size()));
    cover_size.UpdateMax();
  }
  return fresh;
}

size_t Approach::cover_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cover_cache_.size();
}

void Approach::ClearCoverCache() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  cover_cache_.clear();
  cover_cache_lru_.clear();
}

TranslatedQuery Approach::TranslatePolygonQuery(const geo::Polygon& polygon,
                                                int64_t t_begin_ms,
                                                int64_t t_end_ms) const {
  return TranslateRegionQuery(
      query::MakeGeoWithinPolygon(kLocationField, polygon), polygon,
      t_begin_ms, t_end_ms, /*max_ranges=*/0);
}

TranslatedQuery Approach::TranslateRegionQuery(query::ExprPtr geo_predicate,
                                               const geo::Region& region,
                                               int64_t t_begin_ms,
                                               int64_t t_end_ms,
                                               size_t max_ranges) const {
  TranslatedQuery out;
  std::vector<query::ExprPtr> conjuncts;
  conjuncts.push_back(std::move(geo_predicate));
  conjuncts.push_back(query::MakeRange(kDateField,
                                       bson::Value::DateTime(t_begin_ms),
                                       bson::Value::DateTime(t_end_ms)));

  if (curve_ != nullptr) {
    // A capped covering is a superset of the exact one (both strategies'
    // budget contract), so results stay exact: the $geoWithin conjunct
    // re-checks every fetched point. num_ranges/num_singletons report what
    // was actually generated.
    geo::CoveringOptions cover_options;
    cover_options.max_ranges = max_ranges;
    out.cover_budget = max_ranges;
    // Per-curve covering counters surface which linearization serves
    // traffic in ServerStatus ("covering.by_curve.<name>").
    MetricsRegistry::Instance()
        .GetCounter(std::string("covering.by_curve.") + curve_->name())
        .Increment();
    Stopwatch cover_timer;
    const geo::Covering covering =
        geo::CoverRegion(*curve_, region, cover_options);
    out.cover_millis = cover_timer.ElapsedMillis();

    // Consecutive cells become ranges; isolated cells are width-one entries
    // (the paper's $gte/$lte pairs plus $in, Section 4.2.2). The RangeSet
    // node keeps the identical semantics but matches by binary search — a
    // hil* covering over a small MBR can have thousands of arms.
    std::vector<query::RangeSetExpr::Range> ranges;
    ranges.reserve(covering.ranges.size());
    for (const geo::DRange& r : covering.ranges) {
      if (r.lo == r.hi) {
        ++out.num_singletons;
      } else {
        ++out.num_ranges;
      }
      ranges.push_back(query::RangeSetExpr::Range{
          bson::Value::Int64(static_cast<int64_t>(r.lo)),
          bson::Value::Int64(static_cast<int64_t>(r.hi))});
    }
    if (!ranges.empty()) {
      conjuncts.push_back(query::MakeRangeSet(kHilbertField,
                                              std::move(ranges)));
    }
  }

  out.expr = query::MakeAnd(std::move(conjuncts));
  return out;
}

size_t Approach::PickCoverBudget(double est_fraction) const {
  if (!uses_hilbert() || !config_.adaptive_cover_budget) return 0;
  if (est_fraction < 0.0) return 0;  // unknown selectivity: stay exact
  if (est_fraction <= kCoarseCoverFraction) {
    STIX_METRIC_COUNTER(fine, "planner.cover_fine");
    fine.Increment();
    return 0;
  }
  STIX_METRIC_COUNTER(coarse, "planner.cover_coarse");
  coarse.Increment();
  return config_.coarse_cover_max_ranges;
}

double Approach::SpatialFraction(const geo::Rect& rect) const {
  const geo::Rect domain = curve_->grid().domain();
  geo::Rect clipped;
  clipped.lo.lon = std::max(rect.lo.lon, domain.lo.lon);
  clipped.lo.lat = std::max(rect.lo.lat, domain.lo.lat);
  clipped.hi.lon = std::min(rect.hi.lon, domain.hi.lon);
  clipped.hi.lat = std::min(rect.hi.lat, domain.hi.lat);
  const double domain_area = domain.AreaDeg2();
  return domain_area > 0.0 ? clipped.AreaDeg2() / domain_area : 1.0;
}

std::string Approach::zone_path() const {
  return uses_hilbert() ? kHilbertField : kDateField;
}

}  // namespace stix::st
