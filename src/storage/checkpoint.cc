#include "storage/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "bson/codec.h"
#include "common/failpoint.h"
#include "common/fs.h"
#include "common/lz.h"
#include "common/metrics.h"
#include "storage/wal.h"

namespace stix::storage {
namespace {

constexpr char kMagic[8] = {'S', 'T', 'I', 'X', 'C', 'K', 'P', '1'};
constexpr uint32_t kVersion = 2;
constexpr size_t kBlockTarget = 256 * 1024;
constexpr uint32_t kMaxBlockLen = 64u * 1024 * 1024;
constexpr char kSuffix[] = ".ckpt";

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

bool GetU32(std::istream* in, uint32_t* v) {
  char buf[4];
  if (!in->read(buf, 4)) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<uint8_t>(buf[i])) << (8 * i);
  }
  return true;
}

bool GetU64(std::istream* in, uint64_t* v) {
  char buf[8];
  if (!in->read(buf, 8)) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<uint8_t>(buf[i])) << (8 * i);
  }
  return true;
}

uint32_t GetU32Mem(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t GetU64Mem(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

/// Accumulates a raw byte stream and flushes it as LZ'd CRC-framed blocks.
/// Every flush evaluates checkpointMidWrite — the crash point that leaves a
/// partial `.tmp` behind.
class BlockWriter {
 public:
  explicit BlockWriter(std::ofstream* out) : out_(out) {}

  Status Add(std::string_view bytes) {
    buf_.append(bytes.data(), bytes.size());
    if (buf_.size() >= kBlockTarget) return Flush();
    return Status::OK();
  }

  /// Flushes the remainder and writes the raw_len == 0 terminator.
  Status Finish() {
    if (!buf_.empty()) {
      if (Status s = Flush(); !s.ok()) return s;
    }
    std::string terminator;
    PutU32(0, &terminator);
    out_->write(terminator.data(),
                static_cast<std::streamsize>(terminator.size()));
    return Status::OK();
  }

 private:
  Status Flush();

  std::ofstream* out_;
  std::string buf_;
};

std::string ParseLsnFromName(const std::string& path, uint64_t* lsn) {
  // dir/checkpoint-<lsn>.ckpt
  const size_t slash = path.find_last_of('/');
  const std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  constexpr char kPrefix[] = "checkpoint-";
  if (name.rfind(kPrefix, 0) != 0) return "";
  const size_t suffix_at = name.size() - (sizeof(kSuffix) - 1);
  if (name.size() <= sizeof(kPrefix) - 1 + sizeof(kSuffix) - 1 ||
      name.compare(suffix_at, std::string::npos, kSuffix) != 0) {
    return "";
  }
  const std::string digits =
      name.substr(sizeof(kPrefix) - 1, suffix_at - (sizeof(kPrefix) - 1));
  uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return "";
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *lsn = value;
  return name;
}

/// Reads one block stream (until the raw_len == 0 terminator) and returns
/// the concatenated raw bytes.
Result<std::string> ReadBlocks(std::istream* in) {
  std::string raw;
  for (;;) {
    uint32_t raw_len;
    if (!GetU32(in, &raw_len)) {
      return Status::Corruption("checkpoint: truncated block header");
    }
    if (raw_len == 0) return raw;
    uint32_t comp_len, crc;
    if (!GetU32(in, &comp_len) || !GetU32(in, &crc)) {
      return Status::Corruption("checkpoint: truncated block header");
    }
    if (raw_len > kMaxBlockLen || comp_len > kMaxBlockLen) {
      return Status::Corruption("checkpoint: implausible block length");
    }
    std::string compressed(comp_len, '\0');
    if (!in->read(compressed.data(), comp_len)) {
      return Status::Corruption("checkpoint: truncated block body");
    }
    if (Crc32(compressed) != crc) {
      return Status::Corruption("checkpoint: block checksum mismatch");
    }
    Result<std::string> block = LzDecompress(compressed);
    if (!block.ok()) return block.status();
    if (block->size() != raw_len) {
      return Status::Corruption("checkpoint: block length mismatch");
    }
    raw += *block;
  }
}

}  // namespace

// Armed by recovery tests/fuzzing with an error action; each fired flush
// aborts the checkpoint write mid-file.
STIX_FAIL_POINT_DEFINE(checkpointMidWrite);

Status BlockWriter::Flush() {
  if (Status s = CheckFailPoint(checkpointMidWrite); !s.ok()) {
    // Simulated crash mid-checkpoint: whatever already streamed out stays
    // in the .tmp file, exactly like a torn real write.
    out_->flush();
    return s;
  }
  const std::string compressed = LzCompress(buf_);
  std::string header;
  PutU32(static_cast<uint32_t>(buf_.size()), &header);
  PutU32(static_cast<uint32_t>(compressed.size()), &header);
  PutU32(Crc32(compressed), &header);
  out_->write(header.data(), static_cast<std::streamsize>(header.size()));
  out_->write(compressed.data(),
              static_cast<std::streamsize>(compressed.size()));
  buf_.clear();
  return Status::OK();
}

std::string CheckpointPath(const std::string& dir, uint64_t lsn) {
  return dir + "/checkpoint-" + std::to_string(lsn) + kSuffix;
}

Status WriteCheckpoint(const RecordStore& records, uint64_t lsn,
                       const std::string& dir) {
  const std::string final_path = CheckpointPath(dir, lsn);
  const std::string tmp_path = final_path + ".tmp";
  std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::Internal("cannot create checkpoint file: " + tmp_path);
  }

  std::string header;
  header.append(kMagic, sizeof(kMagic));
  PutU32(kVersion, &header);
  PutU64(lsn, &header);
  PutU64(records.max_record_id(), &header);
  PutU64(records.num_records(), &header);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));

  BlockWriter docs(&out);
  Status doc_status = Status::OK();
  records.ForEach(
      [&](RecordId rid, const bson::Document& doc) {
        if (!doc_status.ok()) return;
        std::string entry;
        const std::string bytes = bson::EncodeBson(doc);
        PutU64(rid, &entry);
        PutU32(static_cast<uint32_t>(bytes.size()), &entry);
        entry += bytes;
        doc_status = docs.Add(entry);
      });
  if (doc_status.ok()) doc_status = docs.Finish();
  if (!doc_status.ok()) return doc_status;

  out.flush();
  if (!out.good()) {
    return Status::Internal("checkpoint write failed: " + tmp_path);
  }
  out.close();

  // Only a complete image is renamed into place — the atomicity boundary.
  if (Status s = RenameFile(tmp_path, final_path); !s.ok()) return s;
  STIX_METRIC_COUNTER(written, "checkpoint.written");
  written.Increment();
  return Status::OK();
}

Result<CheckpointImage> LoadCheckpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("cannot open checkpoint file: " + path);
  }
  char magic[8];
  if (!in.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("not a STIX checkpoint: " + path);
  }
  uint32_t version;
  if (!GetU32(&in, &version) || version != kVersion) {
    return Status::Corruption("unsupported checkpoint version");
  }
  CheckpointImage image;
  uint64_t max_record_id, num_docs;
  if (!GetU64(&in, &image.lsn) || !GetU64(&in, &max_record_id) ||
      !GetU64(&in, &num_docs)) {
    return Status::Corruption("checkpoint: truncated header");
  }

  Result<std::string> doc_stream = ReadBlocks(&in);
  if (!doc_stream.ok()) return doc_stream.status();
  size_t offset = 0;
  uint64_t restored = 0;
  while (offset < doc_stream->size()) {
    if (offset + 12 > doc_stream->size()) {
      return Status::Corruption("checkpoint: truncated document entry");
    }
    const uint64_t rid = GetU64Mem(doc_stream->data() + offset);
    const uint32_t len = GetU32Mem(doc_stream->data() + offset + 8);
    offset += 12;
    if (offset + len > doc_stream->size()) {
      return Status::Corruption("checkpoint: truncated document body");
    }
    Result<bson::Document> doc =
        bson::DecodeBson(std::string_view(doc_stream->data() + offset, len));
    if (!doc.ok()) return doc.status();
    offset += len;
    if (Status s = image.records.RestoreAt(rid, std::move(*doc)); !s.ok()) {
      return s;
    }
    ++restored;
  }
  if (restored != num_docs) {
    return Status::Corruption("checkpoint: document count mismatch");
  }
  image.records.PadToRecordId(max_record_id);
  // The document blocks end the file. A version 1 image kept its index
  // section here; any tail is damage, not data.
  if (in.peek() != std::ifstream::traits_type::eof()) {
    return Status::Corruption("checkpoint: bytes after the document blocks");
  }
  return image;
}

std::vector<CheckpointRef> ListCheckpoints(const std::string& dir) {
  std::vector<CheckpointRef> out;
  for (const std::string& path : ListDir(dir)) {
    uint64_t lsn = 0;
    if (ParseLsnFromName(path, &lsn).empty()) continue;
    out.push_back(CheckpointRef{lsn, path});
  }
  std::sort(out.begin(), out.end(),
            [](const CheckpointRef& a, const CheckpointRef& b) {
              return a.lsn > b.lsn;
            });
  return out;
}

void RemoveStaleCheckpoints(const std::string& dir, uint64_t keep_lsn) {
  for (const std::string& path : ListDir(dir)) {
    if (path.size() > 4 && path.compare(path.size() - 4, 4, ".tmp") == 0) {
      (void)RemoveFile(path);
      continue;
    }
    uint64_t lsn = 0;
    if (ParseLsnFromName(path, &lsn).empty()) continue;
    if (lsn < keep_lsn) (void)RemoveFile(path);
  }
}

}  // namespace stix::storage
