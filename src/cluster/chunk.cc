#include "cluster/chunk.h"

#include <algorithm>

#include "keystring/keystring.h"

namespace stix::cluster {
namespace {

// 64-bit mix for hashed sharding (splitmix64 finalizer).
uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint64_t HashBytes(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a then mixed
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

}  // namespace

std::string ShardKeyPattern::KeyOf(const bson::Document& doc) const {
  keystring::Builder b;
  if (strategy_ == ShardingStrategy::kHashed) {
    const bson::Value* v = doc.GetPath(paths_.front());
    const std::string field_key =
        keystring::Encode(v != nullptr ? *v : bson::Value::Null());
    b.AppendValue(
        bson::Value::Int64(static_cast<int64_t>(HashBytes(field_key))));
    return std::move(b).Build();
  }
  for (const std::string& path : paths_) {
    const bson::Value* v = doc.GetPath(path);
    b.AppendValue(v != nullptr ? *v : bson::Value::Null());
  }
  return std::move(b).Build();
}

std::string ShardKeyPattern::DebugString() const {
  std::string out = "{";
  for (size_t i = 0; i < paths_.size(); ++i) {
    if (i > 0) out += ", ";
    out += paths_[i];
    out += (strategy_ == ShardingStrategy::kHashed && i == 0) ? ": 'hashed'"
                                                              : ": 1";
  }
  return out + "}";
}

std::vector<std::string> SplitVector(const std::vector<std::string>& keys,
                                     size_t parts) {
  std::vector<std::string> bounds;
  if (parts < 2 || keys.size() < 2) return bounds;
  if (parts > keys.size()) parts = keys.size();
  for (size_t i = 1; i < parts; ++i) {
    const size_t at = i * keys.size() / parts;
    const std::string& prev = bounds.empty() ? keys.front() : bounds.back();
    if (keys[at] > prev) {
      bounds.push_back(keys[at]);
      continue;
    }
    // The quantile landed inside a run of duplicates; a chunk boundary must
    // strictly increase, so advance to the next distinct key.
    const auto it = std::upper_bound(keys.begin() + at, keys.end(), prev);
    if (it == keys.end()) break;
    bounds.push_back(*it);
  }
  return bounds;
}

Result<std::unique_ptr<ChunkManager>> ChunkManager::FromChunks(
    std::vector<Chunk> chunk_table) {
  std::sort(chunk_table.begin(), chunk_table.end(),
            [](const Chunk& a, const Chunk& b) { return a.min < b.min; });
  std::unique_ptr<ChunkManager> manager(new ChunkManager());
  manager->chunks_ = std::move(chunk_table);
  if (!manager->CheckInvariants()) {
    return Status::Corruption("chunk table violates invariants");
  }
  return manager;
}

ChunkManager::ChunkManager(int initial_shard) {
  Chunk all;
  all.min = keystring::MinKey();
  all.max = keystring::MaxKey();
  all.shard_id = initial_shard;
  chunks_.push_back(std::move(all));
}

size_t ChunkManager::FindChunkIndex(const std::string& key) const {
  // Last chunk with min <= key.
  const auto it = std::upper_bound(
      chunks_.begin(), chunks_.end(), key,
      [](const std::string& k, const Chunk& c) { return k < c.min; });
  return static_cast<size_t>(it - chunks_.begin()) - 1;
}

Status ChunkManager::MultiSplit(size_t i,
                                const std::vector<std::string>& bounds) {
  if (bounds.empty()) return Status::OK();
  const Chunk& whole = chunks_[i];
  for (size_t k = 0; k < bounds.size(); ++k) {
    if (bounds[k] <= whole.min || bounds[k] >= whole.max) {
      return Status::InvalidArgument("split boundary outside chunk range");
    }
    if (k > 0 && bounds[k] <= bounds[k - 1]) {
      return Status::InvalidArgument("split boundaries not ascending");
    }
  }
  const size_t parts = bounds.size() + 1;
  std::vector<Chunk> replacement(parts, whole);
  for (size_t k = 0; k < parts; ++k) {
    Chunk& part = replacement[k];
    if (k > 0) part.min = bounds[k - 1];
    if (k + 1 < parts) part.max = bounds[k];
    // Even division, remainder on the first part, so the totals are exact.
    part.bytes = whole.bytes / parts + (k == 0 ? whole.bytes % parts : 0);
    part.docs = whole.docs / parts + (k == 0 ? whole.docs % parts : 0);
    part.points = whole.points / parts + (k == 0 ? whole.points % parts : 0);
    part.writes = whole.writes / parts + (k == 0 ? whole.writes % parts : 0);
  }
  chunks_.erase(chunks_.begin() + i);
  chunks_.insert(chunks_.begin() + i, replacement.begin(), replacement.end());
  return Status::OK();
}

std::vector<int> ChunkManager::CountsPerShard(int num_shards) const {
  std::vector<int> counts(num_shards, 0);
  for (const Chunk& c : chunks_) {
    if (c.shard_id >= 0 && c.shard_id < num_shards) ++counts[c.shard_id];
  }
  return counts;
}

bool ChunkManager::CheckInvariants() const {
  if (chunks_.empty()) return false;
  if (chunks_.front().min != keystring::MinKey()) return false;
  if (chunks_.back().max != keystring::MaxKey()) return false;
  for (size_t i = 0; i < chunks_.size(); ++i) {
    if (chunks_[i].min >= chunks_[i].max) return false;
    if (i > 0 && chunks_[i - 1].max != chunks_[i].min) return false;
  }
  return true;
}

}  // namespace stix::cluster
