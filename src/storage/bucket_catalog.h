#ifndef STIX_STORAGE_BUCKET_CATALOG_H_
#define STIX_STORAGE_BUCKET_CATALOG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "storage/bucket.h"

namespace stix::storage {

/// The write path of the bucketed layout (MongoDB's BucketCatalog, scaled
/// down): live inserts buffer into open buckets keyed by
/// (vehicle, window[, hilbert cell]); a bucket seals — encodes and hands the
/// bucket document to the flush callback — when it reaches
/// BucketLayout::max_points, when the open-bucket cap (1024) evicts it, or on
/// FlushAll() (which query paths call first, so buffered points are always
/// visible to readers).
///
/// A failed flush (the bucketCatalogFlush fail point, or a downstream
/// insert error) leaves the bucket buffered and surfaces the error to the
/// caller; a later flush retries, so no points are ever lost.
///
/// Thread-safe. The flush callback runs under the catalog mutex; it may
/// take cluster/shard locks (nothing in the cluster calls back into the
/// catalog).
class BucketCatalog {
 public:
  using FlushFn = std::function<Status(bson::Document bucket)>;

  BucketCatalog(BucketLayout layout, FlushFn flush);

  const BucketLayout& layout() const { return layout_; }

  /// Buffers one point; may seal and flush this (or an evicted) bucket.
  /// `wal_lsn` (nonzero on durable stores) is the catalog-journal LSN that
  /// acknowledged the point; the sealed bucket document carries the LSNs of
  /// its points in a kBucketWalLsnsField array so recovery can tell which
  /// journaled points already reached a flushed bucket.
  Status Add(bson::Document point, uint64_t wal_lsn = 0);

  /// Seals and flushes every open bucket. Stops at the first error (the
  /// failed bucket and all later ones stay buffered).
  Status FlushAll();

  size_t open_buckets() const;
  uint64_t points_buffered() const;
  uint64_t buckets_flushed() const;

 private:
  struct OpenBucket {
    std::vector<bson::Document> points;
    /// Catalog-journal LSN per point; all-zero (and omitted from the
    /// bucket document) on non-durable stores.
    std::vector<uint64_t> lsns;
    uint64_t raw_bytes = 0;  ///< Sum of the points' ApproxBsonSize.
    uint64_t last_touch = 0;
  };

  Status FlushOneLocked(const BucketKey& key);

  const BucketLayout layout_;
  const FlushFn flush_;

  mutable std::mutex mu_;
  std::map<BucketKey, OpenBucket> open_;
  uint64_t points_open_ = 0;
  uint64_t tick_ = 0;
  uint64_t flushed_ = 0;
};

}  // namespace stix::storage

#endif  // STIX_STORAGE_BUCKET_CATALOG_H_
