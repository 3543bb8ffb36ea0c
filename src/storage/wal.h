#ifndef STIX_STORAGE_WAL_H_
#define STIX_STORAGE_WAL_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace stix::storage {

/// CRC-32 (IEEE 802.3 polynomial, reflected) — the frame checksum of the
/// write-ahead log.
uint32_t Crc32(std::string_view data);

/// What a WAL record describes. Data records (insert/remove/catalog-add)
/// and config records (full topology metadata) share one framing; a commit
/// marker closes each atomic batch and defines the commit horizon.
enum class WalRecordType : uint8_t {
  kInsert = 1,      ///< rid + document BSON into a shard's record store.
  kRemove = 2,      ///< rid out of a shard's record store.
  kCommit = 3,      ///< Batch boundary: everything staged before it commits.
  kCatalogAdd = 4,  ///< Point BSON journaled by the bucket catalog.
  kConfigMeta = 5,  ///< Full cluster metadata BSON (config journal).
  /// Opens a shard log's first batch, the image of its record store: rid =
  /// the highest RecordId ever issued, payload = the live record count
  /// (EncodeImageCount). One kInsert per live record follows in the batch.
  kImage = 6,
};

/// The kImage payload: the image's live record count, u64 little-endian.
std::string EncodeImageCount(uint64_t num_records);
/// Inverse of EncodeImageCount; Corruption unless the payload is 8 bytes.
Result<uint64_t> DecodeImageCount(std::string_view payload);

/// One decoded log record. `rid` is meaningful for kInsert/kRemove;
/// `payload` carries BSON bytes for kInsert/kCatalogAdd/kConfigMeta.
struct WalRecord {
  WalRecordType type = WalRecordType::kCommit;
  uint64_t lsn = 0;
  uint64_t rid = 0;
  std::string payload;
};

/// Durability/throughput knobs of one log.
struct WalOptions {
  /// Flush buffered commits to the file every Nth commit (group commit).
  /// 1 = every commit is on disk before it returns, so an acknowledged
  /// write is always durable; N > 1 batches flushes — a crash loses at
  /// most the last N-1 acknowledged commits (the bench quantifies the
  /// throughput side of that trade).
  int sync_every_commits = 1;
};

/// Result of scanning a log file up to its commit horizon.
struct WalScan {
  /// Data records of every fully committed batch, in log order (commit
  /// markers themselves are not included).
  std::vector<WalRecord> committed;
  /// Highest committed LSN (the last commit marker's LSN); 0 if none.
  uint64_t last_lsn = 0;
  /// Byte offset of the commit horizon — everything past it is an
  /// uncommitted or torn tail that recovery discards.
  uint64_t committed_bytes = 0;
  /// Byte offset where the first committed batch ends (a rewritten log's
  /// image); 0 if none.
  uint64_t first_batch_bytes = 0;
  /// True when bytes existed past the horizon (torn frame, bad CRC, or a
  /// batch with no commit marker).
  bool torn = false;
};

/// Scans a log file: validates each frame's length and CRC, groups records
/// into batches, and stops at the first damaged frame. A batch only counts
/// once its commit marker is intact — a torn tail can never surface a
/// partial batch. A missing file reads as an empty log.
Result<WalScan> ReadWal(const std::string& path);

/// A per-shard (or config/catalog) write-ahead log over one append-only
/// file. Frame format, little-endian:
///
///   u32 body_len | u32 crc32(body) | body
///   body = u8 type | u64 lsn | u64 rid | payload
///
/// Writers stage records with Append and seal an atomic batch with
/// Commit(), which frames the staged records plus a kCommit marker.
/// Commits buffer in memory and reach the file on every Nth commit
/// (WalOptions::sync_every_commits) or an explicit Sync — the group-commit
/// window. The file therefore always ends at a frame boundary of fully
/// buffered-out commits; a crash loses only the unflushed window.
///
/// Crash points (FailPoint registry; fire with an error action):
///   walBeforeCommit        — staged record frames reach the file but the
///                            commit marker does not: an uncommitted tail
///                            recovery must discard.
///   walTornTail            — the commit marker is cut mid-frame: a torn
///                            tail recovery must truncate.
///   walAfterCommitBeforeAck— the batch is fully durable but the caller
///                            still sees an error: an unacknowledged write
///                            that MAY legitimately survive recovery.
///   checkpointMidWrite     — Rewrite dies after the new batch's records
///                            reached `.tmp` and before its commit marker:
///                            the rename never happens and the old log
///                            stays in place (a shard then kills it).
/// The commit-path crash points kill the log: every later Append/Commit/
/// Sync fails, modeling the process being gone. Thread-safe (internally
/// locked).
class WriteAheadLog {
 public:
  /// Stages one record of the batch a Rewrite writes.
  using AppendFn = std::function<void(WalRecordType type, uint64_t rid,
                                      std::string_view payload)>;

  /// Replaces the log at `path` (if any) with a log whose one committed
  /// batch holds the records `fill` appends, and opens it for appending;
  /// a null or silent `fill` leaves an empty log. The batch is written to
  /// `<path>.tmp`, flushed and renamed over `path`: the rename is the
  /// truncation, so a crash before it leaves the old log whole and a crash
  /// after it the new one. LSNs restart at 1.
  static Result<std::unique_ptr<WriteAheadLog>> Rewrite(
      std::string path, WalOptions options,
      const std::function<void(const AppendFn&)>& fill = nullptr);

  /// Opens the log at `path` for appending, given `scan` = ReadWal(path):
  /// truncates the torn tail past its commit horizon away and resumes the
  /// LSN counter after its last committed LSN.
  static Result<std::unique_ptr<WriteAheadLog>> Open(std::string path,
                                                     WalOptions options,
                                                     const WalScan& scan);

  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Stages one record into the current batch; returns its assigned LSN
  /// (the LSN the record will replay under — the bucket catalog journals it
  /// into flushed bucket documents).
  Result<uint64_t> Append(WalRecordType type, uint64_t rid,
                          std::string_view payload);

  /// Seals the staged records into an atomic batch: frames them plus a
  /// commit marker, buffers the bytes, and flushes per the group-commit
  /// window. Returns the commit LSN.
  Result<uint64_t> Commit();

  /// Flushes every buffered commit to the file immediately.
  Status Sync();

  /// Drops all log content (the catalog journal, once flushed buckets
  /// cover it). The LSN counter keeps counting — LSNs are never reused.
  Status Truncate();

  /// Raises the LSN counter so the next assigned LSN is at least lsn + 1.
  /// Catalog-journal recovery calls this with the highest LSN a flushed
  /// bucket document's wlsns references: the reopened journal may be empty
  /// — truncated once those buckets covered it — and without the floor new
  /// records would reuse covered LSNs, which the next recovery would skip.
  void EnsureLsnPast(uint64_t lsn);

  /// Simulates process death: every later write refuses. ReadWal of the
  /// file sees exactly what was flushed before the kill.
  void Kill();

  bool dead() const;
  /// Bytes of committed frames in the log file (flushed + buffered) — the
  /// checkpoint trigger reads this.
  uint64_t log_bytes() const;
  const std::string& path() const { return path_; }

 private:
  WriteAheadLog(std::string path, WalOptions options);

  Status SyncLocked();
  /// Crash-point helper: flushes `extra` after the buffered tail, then
  /// kills the log. What hit the file is the post-crash durable image.
  void CrashLocked(std::string_view extra);

  const std::string path_;
  const WalOptions options_;

  mutable std::mutex mu_;
  std::ofstream file_;
  bool dead_ = false;
  uint64_t next_lsn_ = 1;
  uint64_t last_commit_lsn_ = 0;
  uint64_t log_bytes_ = 0;
  std::vector<WalRecord> staged_;   // appended, not yet committed
  std::string tail_;                // committed frames not yet flushed
  int commits_since_sync_ = 0;
};

}  // namespace stix::storage

#endif  // STIX_STORAGE_WAL_H_
