#ifndef STIX_STORAGE_RECORD_STORE_H_
#define STIX_STORAGE_RECORD_STORE_H_

#include <atomic>
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
  // Moves are hand-written because the generation counter is atomic (moving
  // a store is a single-threaded setup-time operation; borrows never span
  // it).
  RecordStore(RecordStore&& other) noexcept
      : records_(std::move(other.records_)),
        num_records_(other.num_records_),
        logical_size_bytes_(other.logical_size_bytes_),
        generation_(other.generation_.load(std::memory_order_relaxed)) {}
  RecordStore& operator=(RecordStore&& other) noexcept {
    records_ = std::move(other.records_);
    num_records_ = other.num_records_;
    logical_size_bytes_ = other.logical_size_bytes_;
    generation_.store(other.generation_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    return *this;
  }

  /// Stores a document, returning its id.
  RecordId Insert(bson::Document doc);

  /// Returns the live document or nullptr (removed / never existed).
  /// Pointer stability: the returned pointer survives Remove of *other*
  /// records (slots are tombstoned in place) but not Insert, which may
  /// reallocate the slot vector. The zero-copy query pipeline (executor ->
  /// router merge) relies on this window.
  const bson::Document* Get(RecordId id) const;

  /// Removes a record and hands its document back (a shard write batch
  /// keeps it as its undo copy); nullopt if already gone.
  std::optional<bson::Document> Remove(RecordId id);

  /// Re-creates a record at a specific id — checkpoint load and WAL replay
  /// must reproduce the exact RecordIds the indexes point at. Grows the
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

  /// Mutation generation: bumped on every Insert and Remove. Borrowed
  /// `const Document*` handed out by the query pipeline are only guaranteed
  /// valid while the generation is unchanged (Insert may reallocate the slot
  /// vector; Remove kills the removed slot). Cursors copy their documents
  /// out before the shard lock drops and never read this counter; only the
  /// debug-mode borrow check of `query::ExecutionResult` (the executor
  /// tests' run-to-completion harness) compares a snapshot of it. Atomic so
  /// that check stays a defined read.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

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
  std::atomic<uint64_t> generation_{0};
};

}  // namespace stix::storage

#endif  // STIX_STORAGE_RECORD_STORE_H_
