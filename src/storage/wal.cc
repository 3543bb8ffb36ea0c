#include "storage/wal.h"

#include <array>
#include <fstream>
#include <utility>

#include "common/failpoint.h"
#include "common/fs.h"
#include "common/metrics.h"

namespace stix::storage {
namespace {

// 17 fixed body bytes: u8 type + u64 lsn + u64 rid.
constexpr size_t kBodyHeader = 1 + 8 + 8;
constexpr size_t kFrameHeader = 4 + 4;  // u32 len + u32 crc
// Frames larger than this are treated as corruption by the reader — a
// defense against a damaged length field turning into a giant allocation.
constexpr uint32_t kMaxBodyLen = 64u * 1024 * 1024;

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

/// `u32 len | u32 crc | body` with body = `u8 type | u64 lsn | u64 rid |
/// payload` — the one frame shape shared by writer and reader.
std::string EncodeFrame(WalRecordType type, uint64_t lsn, uint64_t rid,
                        std::string_view payload) {
  std::string body;
  body.reserve(kBodyHeader + payload.size());
  body.push_back(static_cast<char>(type));
  PutU64(lsn, &body);
  PutU64(rid, &body);
  body += payload;

  std::string frame;
  frame.reserve(kFrameHeader + body.size());
  PutU32(static_cast<uint32_t>(body.size()), &frame);
  PutU32(Crc32(body), &frame);
  frame += body;
  return frame;
}

}  // namespace

std::string EncodeImageCount(uint64_t num_records) {
  std::string out;
  PutU64(num_records, &out);
  return out;
}

Result<uint64_t> DecodeImageCount(std::string_view payload) {
  if (payload.size() != 8) {
    return Status::Corruption("image record payload is not a u64 count");
  }
  return GetU64(payload.data());
}

uint32_t Crc32(std::string_view data) {
  static const std::array<uint32_t, 256> table = MakeCrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (const char c : data) {
    crc = table[(crc ^ static_cast<uint8_t>(c)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// The three crash points of the commit path and the one of Rewrite (see
// wal.h). Arm with an error action; the configured Status is what the dying
// operation returns.
STIX_FAIL_POINT_DEFINE(walBeforeCommit);
STIX_FAIL_POINT_DEFINE(walAfterCommitBeforeAck);
STIX_FAIL_POINT_DEFINE(walTornTail);
STIX_FAIL_POINT_DEFINE(checkpointMidWrite);

Result<WalScan> ReadWal(const std::string& path) {
  WalScan scan;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return scan;  // no log yet: empty, not an error

  std::vector<WalRecord> batch;
  uint64_t offset = 0;
  for (;;) {
    char header[kFrameHeader];
    if (!in.read(header, sizeof(header))) break;  // clean EOF or torn header
    const uint32_t body_len = GetU32(header);
    const uint32_t crc = GetU32(header + 4);
    if (body_len < kBodyHeader || body_len > kMaxBodyLen) break;
    std::string body(body_len, '\0');
    if (!in.read(body.data(), body_len)) break;  // torn body
    if (Crc32(body) != crc) break;               // bit flip anywhere in body

    WalRecord record;
    record.type = static_cast<WalRecordType>(static_cast<uint8_t>(body[0]));
    record.lsn = GetU64(body.data() + 1);
    record.rid = GetU64(body.data() + 9);
    record.payload = body.substr(kBodyHeader);
    offset += kFrameHeader + body_len;

    if (record.type == WalRecordType::kCommit) {
      for (WalRecord& r : batch) scan.committed.push_back(std::move(r));
      batch.clear();
      scan.last_lsn = record.lsn;
      scan.committed_bytes = offset;
      if (scan.first_batch_bytes == 0) scan.first_batch_bytes = offset;
    } else {
      batch.push_back(std::move(record));
    }
  }
  const Result<uint64_t> size = FileSize(path);
  scan.torn = size.ok() && *size != scan.committed_bytes;
  return scan;
}

WriteAheadLog::WriteAheadLog(std::string path, WalOptions options)
    : path_(std::move(path)), options_(options) {}

WriteAheadLog::~WriteAheadLog() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!dead_ && file_.is_open()) (void)SyncLocked();
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Rewrite(
    std::string path, WalOptions options,
    const std::function<void(const AppendFn&)>& fill) {
  std::unique_ptr<WriteAheadLog> wal(
      new WriteAheadLog(std::move(path), options));
  const std::string tmp = wal->path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      return Status::Internal("cannot create wal file: " + tmp);
    }
    const auto write = [&](WalRecordType type, uint64_t rid,
                           std::string_view payload) {
      const std::string frame =
          EncodeFrame(type, wal->next_lsn_++, rid, payload);
      out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
      wal->log_bytes_ += frame.size();
    };
    if (fill) fill(write);
    if (wal->log_bytes_ > 0) {
      // The crash leaves a `.tmp` without its commit marker, never renamed.
      if (Status s = CheckFailPoint(checkpointMidWrite); !s.ok()) {
        out.flush();
        return s;
      }
      wal->last_commit_lsn_ = wal->next_lsn_;
      write(WalRecordType::kCommit, 0, {});
    }
    out.flush();
    if (!out.good()) return Status::Internal("wal write failed: " + tmp);
  }
  if (Status s = RenameFile(tmp, wal->path_); !s.ok()) return s;
  wal->file_.open(wal->path_, std::ios::binary | std::ios::app);
  if (!wal->file_.is_open()) {
    return Status::Internal("cannot open wal file: " + wal->path_);
  }
  return wal;
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    std::string path, WalOptions options, const WalScan& scan) {
  std::unique_ptr<WriteAheadLog> wal(
      new WriteAheadLog(std::move(path), options));
  // Truncate the torn/uncommitted tail away permanently — replaying twice
  // must see the same log.
  if (FileExists(wal->path_)) {
    const Status s = ResizeFile(wal->path_, scan.committed_bytes);
    if (!s.ok()) return s;
  }
  wal->next_lsn_ = scan.last_lsn + 1;
  wal->last_commit_lsn_ = scan.last_lsn;
  wal->log_bytes_ = scan.committed_bytes;
  wal->file_.open(wal->path_, std::ios::binary | std::ios::app);
  if (!wal->file_.is_open()) {
    return Status::Internal("cannot open wal file: " + wal->path_);
  }
  return wal;
}

Result<uint64_t> WriteAheadLog::Append(WalRecordType type, uint64_t rid,
                                       std::string_view payload) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (dead_) return Status::Internal("wal is dead after a simulated crash");
  WalRecord record;
  record.type = type;
  record.lsn = next_lsn_++;
  record.rid = rid;
  record.payload.assign(payload.data(), payload.size());
  const uint64_t lsn = record.lsn;
  staged_.push_back(std::move(record));
  return lsn;
}

void WriteAheadLog::CrashLocked(std::string_view extra) {
  // The durable image a real crash would leave: the buffered tail plus
  // `extra` (with sync-every-commit the tail is always empty and `extra`
  // is the whole delta). Flushing the tail keeps the crash conservative —
  // losing MORE than the OS would lose is modeled by group-commit tests
  // truncating the file to a pre-sync size instead.
  file_.write(tail_.data(), static_cast<std::streamsize>(tail_.size()));
  file_.write(extra.data(), static_cast<std::streamsize>(extra.size()));
  file_.flush();
  tail_.clear();
  dead_ = true;
  staged_.clear();
  STIX_METRIC_COUNTER(crashes, "wal.simulated_crashes");
  crashes.Increment();
}

Result<uint64_t> WriteAheadLog::Commit() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (dead_) return Status::Internal("wal is dead after a simulated crash");
  if (staged_.empty()) return last_commit_lsn_;

  std::string batch;
  for (const WalRecord& record : staged_) {
    batch += EncodeFrame(record.type, record.lsn, record.rid, record.payload);
  }

  // Crash point 1: the batch's record frames reach the file, the commit
  // marker never does. Recovery sees an uncommitted tail and discards it.
  if (Status s = CheckFailPoint(walBeforeCommit); !s.ok()) {
    CrashLocked(batch);
    return s;
  }

  const uint64_t commit_lsn = next_lsn_++;
  const std::string commit_frame =
      EncodeFrame(WalRecordType::kCommit, commit_lsn, 0, {});

  // Crash point 2: the commit marker is cut mid-frame — a torn write.
  // Recovery must CRC-reject the partial frame and truncate it away.
  if (Status s = CheckFailPoint(walTornTail); !s.ok()) {
    CrashLocked(batch + commit_frame.substr(0, commit_frame.size() / 2));
    return s;
  }

  tail_ += batch;
  tail_ += commit_frame;
  log_bytes_ += batch.size() + commit_frame.size();
  last_commit_lsn_ = commit_lsn;
  staged_.clear();
  ++commits_since_sync_;

  STIX_METRIC_COUNTER(commits, "wal.commits");
  commits.Increment();

  // Crash point 3: the batch is fully durable (flushed, marker intact) but
  // the acknowledgment never reaches the caller. The write MAY survive
  // recovery — the oracle's "uncertain" class.
  if (Status s = CheckFailPoint(walAfterCommitBeforeAck); !s.ok()) {
    CrashLocked({});
    return s;
  }

  if (commits_since_sync_ >= options_.sync_every_commits) {
    if (Status s = SyncLocked(); !s.ok()) return s;
  }
  return commit_lsn;
}

Status WriteAheadLog::SyncLocked() {
  if (!tail_.empty()) {
    file_.write(tail_.data(), static_cast<std::streamsize>(tail_.size()));
    STIX_METRIC_COUNTER(bytes, "wal.bytes_written");
    bytes.Increment(tail_.size());
    tail_.clear();
  }
  file_.flush();
  commits_since_sync_ = 0;
  if (!file_.good()) {
    return Status::Internal("wal write failed: " + path_);
  }
  STIX_METRIC_COUNTER(syncs, "wal.syncs");
  syncs.Increment();
  return Status::OK();
}

Status WriteAheadLog::Sync() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (dead_) return Status::Internal("wal is dead after a simulated crash");
  return SyncLocked();
}

Status WriteAheadLog::Truncate() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (dead_) return Status::Internal("wal is dead after a simulated crash");
  file_.close();
  file_.open(path_, std::ios::binary | std::ios::trunc);
  tail_.clear();
  staged_.clear();
  log_bytes_ = 0;
  commits_since_sync_ = 0;
  if (!file_.is_open()) {
    return Status::Internal("cannot reopen wal file: " + path_);
  }
  STIX_METRIC_COUNTER(truncates, "wal.truncates");
  truncates.Increment();
  return Status::OK();
}

void WriteAheadLog::EnsureLsnPast(uint64_t lsn) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (next_lsn_ <= lsn) next_lsn_ = lsn + 1;
}

void WriteAheadLog::Kill() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (dead_) return;
  CrashLocked({});
}

bool WriteAheadLog::dead() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dead_;
}

uint64_t WriteAheadLog::log_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return log_bytes_;
}

}  // namespace stix::storage
