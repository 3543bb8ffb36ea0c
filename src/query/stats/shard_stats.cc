#include "query/stats/shard_stats.h"

#include <algorithm>
#include <cmath>

#include "storage/bucket.h"

namespace stix::query::stats {

namespace {

std::optional<int64_t> Int64At(const bson::Document& doc,
                               std::string_view field) {
  const bson::Value* v = doc.Get(field);
  if (v == nullptr) return std::nullopt;
  switch (v->type()) {
    case bson::Type::kDateTime:
      return v->AsDateTime();
    case bson::Type::kInt64:
      return v->AsInt64();
    case bson::Type::kInt32:
      return static_cast<int64_t>(v->AsInt32());
    default:
      return std::nullopt;
  }
}

}  // namespace

ObservedValues ExtractStatsValues(const bson::Document& doc,
                                  const geo::GeoHash* geohash) {
  ObservedValues out;
  out.date = Int64At(doc, ShardStatistics::kDatePath);
  out.hilbert = Int64At(doc, ShardStatistics::kHilbertPath);
  if (storage::IsBucketDocument(doc)) {
    out.is_bucket = true;
    auto meta = storage::ParseBucketMeta(doc);
    if (meta.ok()) out.points = std::max<uint32_t>(1, meta->num_points);
    // Bucket documents have no location point; the 2dsphere key space is
    // not observable from bucket-level fields.
    return out;
  }
  if (geohash != nullptr) {
    const bson::Value* loc = doc.Get(ShardStatistics::kLocationPath);
    double lon = 0.0, lat = 0.0;
    if (loc != nullptr && bson::ExtractGeoJsonPoint(*loc, &lon, &lat)) {
      out.geocell = static_cast<int64_t>(geohash->Encode(lon, lat));
    }
  }
  return out;
}

void ShardStatistics::Observe(const ObservedValues& values, int delta) {
  std::lock_guard<std::mutex> lock(mu_);
  if (delta > 0) {
    ++docs_;
    points_ += values.points;
    if (values.is_bucket) ++buckets_;
  } else if (delta < 0) {
    if (docs_ > 0) --docs_;
    points_ -= std::min<uint64_t>(points_, values.points);
    if (values.is_bucket && buckets_ > 0) --buckets_;
  }
  const auto touch = [&](const char* path, std::optional<int64_t> v) {
    if (!v) return;
    EquiDepthHistogram& h = histograms_[path];
    if (delta > 0) {
      h.Add(*v);
    } else if (delta < 0) {
      h.Remove(*v);
    }
  };
  touch(kDatePath, values.date);
  touch(kHilbertPath, values.hilbert);
  touch(kLocationPath, values.geocell);
}

void ShardStatistics::MarkStale() {
  std::lock_guard<std::mutex> lock(mu_);
  stale_ = true;
}

bool ShardStatistics::NeedsRebuildLocked() const {
  if (docs_ == 0) return false;
  if (stale_ || !built_) return true;
  for (const auto& [path, h] : histograms_) {
    if (h.Drift() > kMaxDrift) return true;
  }
  return false;
}

bool ShardStatistics::NeedsRebuild() const {
  std::lock_guard<std::mutex> lock(mu_);
  return NeedsRebuildLocked();
}

void ShardStatistics::Rebuild(RebuildSample sample, uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  if (generation != generation_) return;  // a racing rebuild already landed
  ++generation_;
  ++rebuilds_;
  histograms_.clear();
  if (!sample.dates.empty()) {
    histograms_[kDatePath].Build(std::move(sample.dates), kHistogramBuckets);
  }
  if (!sample.hilberts.empty()) {
    histograms_[kHilbertPath].Build(std::move(sample.hilberts),
                                    kHistogramBuckets);
  }
  if (!sample.geocells.empty()) {
    histograms_[kLocationPath].Build(std::move(sample.geocells),
                                     kHistogramBuckets);
  }
  docs_ = sample.num_docs;
  points_ = sample.num_points;
  buckets_ = sample.num_buckets;
  stale_ = false;
  built_ = true;
}

uint64_t ShardStatistics::rebuild_generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

uint64_t ShardStatistics::rebuilds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rebuilds_;
}

bool ShardStatistics::ReliableForEstimation() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (docs_ == 0) return true;  // empty shard: every estimate is exactly 0
  return built_ && !NeedsRebuildLocked();
}

double ShardStatistics::EstimateRange(const std::string& path, int64_t lo,
                                      int64_t hi) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (docs_ == 0) return 0.0;
  const auto it = histograms_.find(path);
  if (it == histograms_.end()) return -1.0;
  return it->second.EstimateRange(lo, hi);
}

ShardStatistics::RangeEstimate ShardStatistics::ReliableRangeEstimate(
    const std::string& path, int64_t lo, int64_t hi) const {
  std::lock_guard<std::mutex> lock(mu_);
  RangeEstimate out;
  out.docs = docs_;
  if (docs_ == 0 || !built_ || NeedsRebuildLocked()) return out;
  const auto it = histograms_.find(path);
  if (it != histograms_.end()) out.in_range = it->second.EstimateRange(lo, hi);
  return out;
}

double ShardStatistics::EstimateIntervalSum(
    const std::string& path,
    const std::vector<std::pair<int64_t, int64_t>>& ranges) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (docs_ == 0) return 0.0;
  const auto it = histograms_.find(path);
  if (it == histograms_.end()) return -1.0;
  const EquiDepthHistogram& h = it->second;
  double est = 0.0;
  for (const auto& [lo, hi] : ranges) est += h.EstimateRange(lo, hi);
  return std::min(est, static_cast<double>(h.total()));
}

uint64_t ShardStatistics::total_docs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return docs_;
}

uint64_t ShardStatistics::total_points() const {
  std::lock_guard<std::mutex> lock(mu_);
  return points_;
}

double ShardStatistics::avg_points_per_doc() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (docs_ == 0) return 1.0;
  return static_cast<double>(points_) / static_cast<double>(docs_);
}

}  // namespace stix::query::stats
