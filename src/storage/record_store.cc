#include "storage/record_store.h"

#include <string>

#include "bson/codec.h"
#include "common/lz.h"

namespace stix::storage {

RecordId RecordStore::Insert(bson::Document doc) {
  logical_size_bytes_ += doc.ApproxBsonSize();
  ++num_records_;
  records_.emplace_back(std::move(doc));
  return static_cast<RecordId>(records_.size());  // ids are 1-based
}

const bson::Document* RecordStore::Get(RecordId id) const {
  if (id == kInvalidRecordId || id > records_.size()) return nullptr;
  const auto& slot = records_[id - 1];
  return slot.has_value() ? &*slot : nullptr;
}

std::optional<bson::Document> RecordStore::Remove(RecordId id) {
  if (id == kInvalidRecordId || id > records_.size()) return std::nullopt;
  auto& slot = records_[id - 1];
  if (!slot.has_value()) return std::nullopt;
  logical_size_bytes_ -= slot->ApproxBsonSize();
  --num_records_;
  std::optional<bson::Document> removed = std::move(slot);
  slot.reset();
  return removed;
}

Status RecordStore::RestoreAt(RecordId id, bson::Document doc) {
  if (id == kInvalidRecordId) {
    return Status::InvalidArgument("cannot restore record id 0");
  }
  if (id > records_.size()) records_.resize(id);
  auto& slot = records_[id - 1];
  if (slot.has_value()) {
    return Status::AlreadyExists("record id already live during restore");
  }
  logical_size_bytes_ += doc.ApproxBsonSize();
  ++num_records_;
  slot.emplace(std::move(doc));
  return Status::OK();
}

void RecordStore::PadToRecordId(RecordId id) {
  if (id > records_.size()) records_.resize(id);
}

void RecordStore::ForEach(
    const std::function<void(RecordId, const bson::Document&)>& fn) const {
  for (size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].has_value()) {
      fn(static_cast<RecordId>(i + 1), *records_[i]);
    }
  }
}

CollectionStats ComputeStats(const RecordStore& records) {
  constexpr size_t kBlockSize = 32 * 1024;
  CollectionStats stats;
  stats.num_documents = records.num_records();
  stats.logical_bytes = records.logical_size_bytes();

  std::string block;
  block.reserve(kBlockSize * 2);
  uint64_t compressed = 0;
  records.ForEach([&](RecordId, const bson::Document& doc) {
    block += bson::EncodeBson(doc);
    if (block.size() >= kBlockSize) {
      compressed += LzCompress(block).size();
      block.clear();
    }
  });
  if (!block.empty()) compressed += LzCompress(block).size();
  stats.compressed_bytes = compressed;
  return stats;
}

}  // namespace stix::storage
