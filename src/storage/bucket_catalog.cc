#include "storage/bucket_catalog.h"

#include <utility>

#include "common/failpoint.h"
#include "common/metrics.h"

namespace stix::storage {
namespace {

// Open-bucket cap; past it the least-recently-touched bucket seals even
// if short (bounds writer memory under many concurrent vehicles).
constexpr size_t kMaxOpenBuckets = 1024;

}  // namespace

// Fires at the start of every bucket flush (seal, eviction or FlushAll).
// An error action fails the flush: the bucket stays buffered and the error
// surfaces to the inserting/querying caller — eventual consistency is
// restored by the next flush, which the fuzz harness verifies.
STIX_FAIL_POINT_DEFINE(bucketCatalogFlush);

BucketCatalog::BucketCatalog(BucketLayout layout, FlushFn flush)
    : layout_(std::move(layout)), flush_(std::move(flush)) {
  // Pre-register the bucket metrics so ServerStatus shows them from the
  // first snapshot, not from the first flush/unpack.
  MetricsRegistry& registry = MetricsRegistry::Instance();
  registry.GetCounter("bucket.buckets_flushed");
  registry.GetCounter("bucket.bytes_logical");
  registry.GetCounter("bucket.bytes_encoded");
  registry.GetCounter("bucket.buckets_pruned");
  registry.GetCounter("bucket.points_unpacked");
  registry.GetGauge("bucket.compression_ratio");
  registry.GetGauge("bucket.open_buckets");
}

Status BucketCatalog::Add(bson::Document point, uint64_t wal_lsn) {
  Result<BucketKey> key = ComputeBucketKey(point, layout_);
  if (!key.ok()) return key.status();

  const std::lock_guard<std::mutex> lock(mu_);
  OpenBucket& bucket = open_[*key];
  bucket.raw_bytes += point.ApproxBsonSize();
  bucket.last_touch = ++tick_;
  bucket.points.push_back(std::move(point));
  bucket.lsns.push_back(wal_lsn);
  ++points_open_;
  STIX_METRIC_GAUGE(open_gauge, "bucket.open_buckets");
  open_gauge.Set(static_cast<int64_t>(open_.size()));

  if (bucket.points.size() >= layout_.max_points) {
    return FlushOneLocked(*key);
  }
  if (open_.size() > kMaxOpenBuckets) {
    // Evict the least-recently-touched bucket (never the one just fed).
    const BucketKey* lru = nullptr;
    uint64_t lru_touch = 0;
    for (const auto& [k, b] : open_) {
      if (k == *key) continue;
      if (lru == nullptr || b.last_touch < lru_touch) {
        lru = &k;
        lru_touch = b.last_touch;
      }
    }
    if (lru != nullptr) return FlushOneLocked(*lru);
  }
  return Status::OK();
}

Status BucketCatalog::FlushAll() {
  const std::lock_guard<std::mutex> lock(mu_);
  while (!open_.empty()) {
    const Status s = FlushOneLocked(open_.begin()->first);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status BucketCatalog::FlushOneLocked(const BucketKey& key) {
  const auto it = open_.find(key);
  if (it == open_.end()) return Status::OK();

  if (Status s = CheckFailPoint(bucketCatalogFlush); !s.ok()) return s;

  Result<bson::Document> bucket = EncodeBucket(it->second.points, layout_);
  if (!bucket.ok()) return bucket.status();
  // Durable stores stamp the bucket with its points' journal LSNs so
  // recovery knows these points survived in flushed form.
  bool any_lsn = false;
  for (const uint64_t lsn : it->second.lsns) any_lsn |= (lsn != 0);
  if (any_lsn) {
    bson::Array lsns;
    lsns.reserve(it->second.lsns.size());
    for (const uint64_t lsn : it->second.lsns) {
      lsns.push_back(bson::Value::Int64(static_cast<int64_t>(lsn)));
    }
    bucket->Append(kBucketWalLsnsField, bson::Value::MakeArray(std::move(lsns)));
  }
  const uint64_t encoded_bytes = bucket->ApproxBsonSize();
  const uint64_t raw_bytes = it->second.raw_bytes;
  const size_t num_points = it->second.points.size();

  if (Status s = flush_(std::move(*bucket)); !s.ok()) return s;

  points_open_ -= num_points;
  open_.erase(it);
  ++flushed_;

  STIX_METRIC_COUNTER(flushed_counter, "bucket.buckets_flushed");
  STIX_METRIC_COUNTER(logical_counter, "bucket.bytes_logical");
  STIX_METRIC_COUNTER(encoded_counter, "bucket.bytes_encoded");
  STIX_METRIC_GAUGE(ratio_gauge, "bucket.compression_ratio");
  STIX_METRIC_GAUGE(open_gauge, "bucket.open_buckets");
  flushed_counter.Increment();
  logical_counter.Increment(raw_bytes);
  encoded_counter.Increment(encoded_bytes);
  // Cumulative logical/encoded ratio, scaled by 100 (a gauge holds ints):
  // 520 means the layout is compressing 5.2x.
  const uint64_t total_logical = logical_counter.value();
  const uint64_t total_encoded = encoded_counter.value();
  if (total_encoded > 0) {
    ratio_gauge.Set(static_cast<int64_t>(total_logical * 100 / total_encoded));
  }
  open_gauge.Set(static_cast<int64_t>(open_.size()));
  return Status::OK();
}

size_t BucketCatalog::open_buckets() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return open_.size();
}

uint64_t BucketCatalog::points_buffered() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return points_open_;
}

uint64_t BucketCatalog::buckets_flushed() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return flushed_;
}

}  // namespace stix::storage
