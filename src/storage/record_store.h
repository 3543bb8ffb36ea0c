#ifndef STIX_STORAGE_RECORD_STORE_H_
#define STIX_STORAGE_RECORD_STORE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "bson/document.h"
#include "common/status.h"

namespace stix::storage {

/// Identifies a record within one shard's record store. 0 is invalid.
using RecordId = uint64_t;
constexpr RecordId kInvalidRecordId = 0;

/// Heap of documents addressed by RecordId — the "collection data" half of a
/// document store (indexes point into it with RecordIds, the FETCH stage
/// reads through it and is what "docsExamined" counts).
class RecordStore {
 public:
  RecordStore() = default;

  RecordStore(const RecordStore&) = delete;
  RecordStore& operator=(const RecordStore&) = delete;
  RecordStore(RecordStore&&) = default;
  RecordStore& operator=(RecordStore&&) = default;

  /// Stores a document, returning its id.
  RecordId Insert(bson::Document doc);

  /// Returns the live document or nullptr (removed / never existed).
  /// Pointer stability: the returned pointer survives Remove of *other*
  /// records (slots are tombstoned in place) but not Insert, which may
  /// reallocate the slot vector. The query pipeline relies on this window:
  /// plan stages pass borrowed pointers up to ShardCursor::GetMore, which
  /// copies the documents out before the shard lock drops.
  const bson::Document* Get(RecordId id) const;

  /// Removes a record and hands its document back (a shard write batch
  /// keeps it as its undo copy); nullopt if already gone.
  std::optional<bson::Document> Remove(RecordId id);

  /// Re-creates a record at a specific id — WAL replay (a log's image
  /// batch and the batches after it) must reproduce the exact RecordIds
  /// the indexes point at. Grows the
  /// store with tombstoned slots as needed; InvalidArgument for id 0,
  /// AlreadyExists if the slot is live (a replay bug, not a data race).
  Status RestoreAt(RecordId id, bson::Document doc);

  /// Extends the store with tombstoned slots so max_record_id() reaches at
  /// least `id` — recovery uses it to reproduce trailing removed slots, so
  /// post-recovery inserts never reuse a RecordId the WAL already named.
  void PadToRecordId(RecordId id);

  /// Visits live records in RecordId order (collection scan order).
  void ForEach(
      const std::function<void(RecordId, const bson::Document&)>& fn) const;

  uint64_t num_records() const { return num_records_; }

  /// Highest RecordId ever issued (ids are dense from 1; removed slots stay
  /// addressable and return nullptr).
  RecordId max_record_id() const {
    return static_cast<RecordId>(records_.size());
  }

  /// Sum of ApproxBsonSize over live documents — the uncompressed data size.
  uint64_t logical_size_bytes() const { return logical_size_bytes_; }

 private:
  std::vector<std::optional<bson::Document>> records_;
  uint64_t num_records_ = 0;
  uint64_t logical_size_bytes_ = 0;
};

/// Storage statistics mirrored after MongoDB's collStats.
struct CollectionStats {
  uint64_t num_documents = 0;
  uint64_t logical_bytes = 0;     ///< Uncompressed BSON bytes.
  uint64_t compressed_bytes = 0;  ///< After block compression (storageSize).
};

/// WiredTiger-style storage accounting for one shard's records. Block
/// compression is computed by actually serializing documents into 32 KB
/// blocks and compressing them with the repo's LZ codec (snappy's role in
/// the paper's deployment). O(data): call from benches and storage
/// reports, not per query.
CollectionStats ComputeStats(const RecordStore& records);

}  // namespace stix::storage

#endif  // STIX_STORAGE_RECORD_STORE_H_
