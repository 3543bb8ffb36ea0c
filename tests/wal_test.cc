// Unit tests of the write-ahead log: pinned frame encoding (golden vector),
// group-commit flush batching, CRC rejection of arbitrary bit flips, the
// every-prefix torn-tail property, replay idempotence, one disk-image
// check per simulated crash point, and the all-or-nothing log rewrite.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/fs.h"
#include "storage/wal.h"
#include "temp_dir.h"

namespace stix::storage {
namespace {

using stix::testing::ReadFileBytes;
using stix::testing::WriteFileBytes;

// Independent re-implementation of the frame shape (little-endian
// u32 len | u32 crc | u8 type | u64 lsn | u64 rid | payload) so the golden
// test catches the production encoder drifting.
void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
std::string ExpectedFrame(uint8_t type, uint64_t lsn, uint64_t rid,
                          const std::string& payload) {
  std::string body;
  body.push_back(static_cast<char>(type));
  PutU64(lsn, &body);
  PutU64(rid, &body);
  body += payload;
  std::string frame;
  PutU32(static_cast<uint32_t>(body.size()), &frame);
  PutU32(Crc32(body), &frame);
  frame += body;
  return frame;
}

class WalTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPointRegistry::Instance().DisableAll(); }

  void ArmCrash(const char* name) {
    FailPoint* fp = FailPointRegistry::Instance().Find(name);
    ASSERT_NE(fp, nullptr) << name;
    FailPoint::Config config;
    config.error_code = StatusCode::kInternal;
    config.error_message = std::string("injected crash at ") + name;
    fp->Enable(config);
  }

  stix::testing::TempDir dir_;
};

TEST_F(WalTest, Crc32KnownAnswers) {
  // The CRC-32 check value (IEEE 802.3, reflected) — pins polynomial,
  // reflection and the init/final xor all at once.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32(std::string(1, '\0')), 0xD202EF8Du);
}

TEST_F(WalTest, GoldenFrameEncoding) {
  const std::string path = dir_ / "wal.log";
  {
    Result<std::unique_ptr<WriteAheadLog>> wal =
        WriteAheadLog::Rewrite(path, WalOptions{});
    ASSERT_TRUE(wal.ok());
    const Result<uint64_t> lsn =
        (*wal)->Append(WalRecordType::kInsert, 7, "hi");
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(*lsn, 1u);
    const Result<uint64_t> commit = (*wal)->Commit();
    ASSERT_TRUE(commit.ok());
    EXPECT_EQ(*commit, 2u);
  }
  const std::string expected =
      ExpectedFrame(1, 1, 7, "hi") +        // kInsert, lsn 1, rid 7
      ExpectedFrame(3, 2, 0, "");           // kCommit, lsn 2
  EXPECT_EQ(ReadFileBytes(path), expected);
}

TEST_F(WalTest, RoundTripPreservesArbitraryPayloadBytes) {
  const std::string path = dir_ / "wal.log";
  std::string payload;
  for (int i = 0; i < 512; ++i) payload.push_back(static_cast<char>(i % 256));
  {
    Result<std::unique_ptr<WriteAheadLog>> wal =
        WriteAheadLog::Rewrite(path, WalOptions{});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(WalRecordType::kInsert, 11, payload).ok());
    ASSERT_TRUE((*wal)->Append(WalRecordType::kRemove, 3, "").ok());
    ASSERT_TRUE((*wal)->Commit().ok());
    ASSERT_TRUE((*wal)->Append(WalRecordType::kCatalogAdd, 0, "x").ok());
    ASSERT_TRUE((*wal)->Commit().ok());
  }
  const Result<WalScan> scan = ReadWal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn);
  ASSERT_EQ(scan->committed.size(), 3u);
  EXPECT_EQ(scan->committed[0].type, WalRecordType::kInsert);
  EXPECT_EQ(scan->committed[0].lsn, 1u);
  EXPECT_EQ(scan->committed[0].rid, 11u);
  EXPECT_EQ(scan->committed[0].payload, payload);
  EXPECT_EQ(scan->committed[1].type, WalRecordType::kRemove);
  EXPECT_EQ(scan->committed[2].type, WalRecordType::kCatalogAdd);
  EXPECT_EQ(scan->last_lsn, 5u);  // 2 records + commit + record + commit
}

TEST_F(WalTest, EmptyCommitWritesNothing) {
  const std::string path = dir_ / "wal.log";
  Result<std::unique_ptr<WriteAheadLog>> wal =
      WriteAheadLog::Rewrite(path, WalOptions{});
  ASSERT_TRUE(wal.ok());
  const Result<uint64_t> commit = (*wal)->Commit();
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(*commit, 0u);  // nothing ever committed
  ASSERT_TRUE((*wal)->Sync().ok());
  EXPECT_EQ(*FileSize(path), 0u);
}

TEST_F(WalTest, GroupCommitFlushesEveryNthCommit) {
  const std::string path = dir_ / "wal.log";
  WalOptions options;
  options.sync_every_commits = 4;
  Result<std::unique_ptr<WriteAheadLog>> wal =
      WriteAheadLog::Rewrite(path, options);
  ASSERT_TRUE(wal.ok());

  const auto commit_one = [&](uint64_t rid) {
    ASSERT_TRUE((*wal)->Append(WalRecordType::kInsert, rid, "p").ok());
    ASSERT_TRUE((*wal)->Commit().ok());
  };

  for (uint64_t i = 1; i <= 3; ++i) commit_one(i);
  // Three commits acknowledged, none synced yet: the group-commit window.
  EXPECT_EQ(*FileSize(path), 0u);

  commit_one(4);  // fourth commit triggers the flush
  const uint64_t synced_size = *FileSize(path);
  EXPECT_GT(synced_size, 0u);

  // Two more buffered commits; the on-disk image still ends at commit 4.
  commit_one(5);
  commit_one(6);
  EXPECT_EQ(*FileSize(path), synced_size);

  // A crash here (copy of the current file) loses exactly the buffered
  // window: commits 5 and 6, never a committed-and-synced batch.
  const std::string crashed = dir_ / "crashed.log";
  WriteFileBytes(crashed, ReadFileBytes(path));
  const Result<WalScan> scan = ReadWal(crashed);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->committed.size(), 4u);
  EXPECT_EQ(scan->committed.back().rid, 4u);

  // An explicit Sync drains the window; now everything is durable.
  ASSERT_TRUE((*wal)->Sync().ok());
  const Result<WalScan> full = ReadWal(path);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->committed.size(), 6u);
  EXPECT_FALSE(full->torn);
}

TEST_F(WalTest, CrcRejectsBitFlipsAnywhere) {
  const std::string path = dir_ / "wal.log";
  std::vector<uint64_t> rids;
  {
    Result<std::unique_ptr<WriteAheadLog>> wal =
        WriteAheadLog::Rewrite(path, WalOptions{});
    ASSERT_TRUE(wal.ok());
    for (uint64_t rid = 1; rid <= 5; ++rid) {
      ASSERT_TRUE(
          (*wal)->Append(WalRecordType::kInsert, rid, "payload").ok());
      ASSERT_TRUE((*wal)->Commit().ok());
      rids.push_back(rid);
    }
  }
  const std::string original = ReadFileBytes(path);
  ASSERT_FALSE(original.empty());

  const std::string flipped_path = dir_ / "flipped.log";
  for (size_t offset = 0; offset < original.size(); ++offset) {
    std::string flipped = original;
    flipped[offset] =
        static_cast<char>(flipped[offset] ^ (1 << (offset % 8)));
    WriteFileBytes(flipped_path, flipped);
    const Result<WalScan> scan = ReadWal(flipped_path);
    ASSERT_TRUE(scan.ok()) << "offset " << offset;
    // Whatever survives must be a clean prefix of what was written: rids
    // 1..k in order, never a skipped or altered batch.
    ASSERT_LE(scan->committed.size(), rids.size()) << "offset " << offset;
    for (size_t i = 0; i < scan->committed.size(); ++i) {
      EXPECT_EQ(scan->committed[i].rid, rids[i]) << "offset " << offset;
      EXPECT_EQ(scan->committed[i].payload, "payload") << "offset " << offset;
    }
    // A flip inside the last batch must drop at least that batch.
    EXPECT_LT(scan->committed.size(), rids.size()) << "offset " << offset;
  }
}

TEST_F(WalTest, EveryPrefixLengthRecoversCleanly) {
  const std::string path = dir_ / "wal.log";
  {
    Result<std::unique_ptr<WriteAheadLog>> wal =
        WriteAheadLog::Rewrite(path, WalOptions{});
    ASSERT_TRUE(wal.ok());
    for (uint64_t rid = 1; rid <= 4; ++rid) {
      ASSERT_TRUE((*wal)->Append(WalRecordType::kInsert, rid, "abc").ok());
      ASSERT_TRUE((*wal)->Commit().ok());
    }
  }
  const std::string original = ReadFileBytes(path);

  const std::string torn_path = dir_ / "torn.log";
  for (size_t len = 0; len <= original.size(); ++len) {
    WriteFileBytes(torn_path, original.substr(0, len));
    const Result<WalScan> scan = ReadWal(torn_path);
    ASSERT_TRUE(scan.ok()) << "len " << len;
    EXPECT_LE(scan->committed_bytes, len) << "len " << len;
    EXPECT_EQ(scan->torn, scan->committed_bytes != len) << "len " << len;
    for (size_t i = 0; i < scan->committed.size(); ++i) {
      EXPECT_EQ(scan->committed[i].rid, i + 1) << "len " << len;
    }

    // Opening for append repairs the tail permanently and resumes LSNs
    // above everything that ever existed in the prefix.
    Result<std::unique_ptr<WriteAheadLog>> reopened =
        WriteAheadLog::Open(torn_path, WalOptions{}, *scan);
    ASSERT_TRUE(reopened.ok()) << "len " << len;
    EXPECT_EQ(*FileSize(torn_path), scan->committed_bytes) << "len " << len;
    const Result<uint64_t> lsn =
        (*reopened)->Append(WalRecordType::kInsert, 99, "post");
    ASSERT_TRUE(lsn.ok());
    EXPECT_GT(*lsn, scan->last_lsn) << "len " << len;
    ASSERT_TRUE((*reopened)->Commit().ok());
    const Result<WalScan> rescan = ReadWal(torn_path);
    ASSERT_TRUE(rescan.ok());
    EXPECT_FALSE(rescan->torn) << "len " << len;
    ASSERT_FALSE(rescan->committed.empty());
    EXPECT_EQ(rescan->committed.back().rid, 99u) << "len " << len;
  }
}

TEST_F(WalTest, ReplayIsIdempotent) {
  const std::string path = dir_ / "wal.log";
  {
    Result<std::unique_ptr<WriteAheadLog>> wal =
        WriteAheadLog::Rewrite(path, WalOptions{});
    ASSERT_TRUE(wal.ok());
    for (uint64_t rid = 1; rid <= 3; ++rid) {
      ASSERT_TRUE((*wal)->Append(WalRecordType::kInsert, rid, "v").ok());
      ASSERT_TRUE((*wal)->Commit().ok());
    }
  }
  // Tear the file mid-frame.
  std::string bytes = ReadFileBytes(path);
  bytes.resize(bytes.size() - 7);
  WriteFileBytes(path, bytes);

  // Recover once (open truncates the tear), then recover again: both scans
  // and both file images must be identical.
  {
    ASSERT_TRUE(
        WriteAheadLog::Open(path, WalOptions{}, *ReadWal(path)).ok());
  }
  const std::string after_first = ReadFileBytes(path);
  const Result<WalScan> first = ReadWal(path);
  {
    ASSERT_TRUE(
        WriteAheadLog::Open(path, WalOptions{}, *ReadWal(path)).ok());
  }
  const std::string after_second = ReadFileBytes(path);
  const Result<WalScan> second = ReadWal(path);

  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(after_first, after_second);
  ASSERT_EQ(first->committed.size(), second->committed.size());
  EXPECT_EQ(first->committed.size(), 2u);  // batch 3 lost to the tear
  EXPECT_EQ(first->last_lsn, second->last_lsn);
  EXPECT_FALSE(second->torn);
}

TEST_F(WalTest, TruncateKeepsLsnsMonotonic) {
  const std::string path = dir_ / "wal.log";
  Result<std::unique_ptr<WriteAheadLog>> wal =
      WriteAheadLog::Rewrite(path, WalOptions{});
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(WalRecordType::kInsert, 1, "a").ok());
  const Result<uint64_t> before = (*wal)->Commit();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE((*wal)->Truncate().ok());
  EXPECT_EQ((*wal)->log_bytes(), 0u);
  const Result<uint64_t> after =
      (*wal)->Append(WalRecordType::kInsert, 2, "b");
  ASSERT_TRUE(after.ok());
  EXPECT_GT(*after, *before);  // LSNs are never reused across truncation
  ASSERT_TRUE((*wal)->Commit().ok());
  ASSERT_TRUE((*wal)->Sync().ok());
  const Result<WalScan> scan = ReadWal(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->committed.size(), 1u);
  EXPECT_EQ(scan->committed[0].rid, 2u);
}

// ---------- crash points: the disk image each one must leave ----------

TEST_F(WalTest, CrashBeforeCommitLeavesRecordsWithoutMarker) {
  const std::string path = dir_ / "wal.log";
  Result<std::unique_ptr<WriteAheadLog>> wal =
      WriteAheadLog::Rewrite(path, WalOptions{});
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(WalRecordType::kInsert, 1, "ok").ok());
  ASSERT_TRUE((*wal)->Commit().ok());

  ArmCrash("walBeforeCommit");
  ASSERT_TRUE((*wal)->Append(WalRecordType::kInsert, 2, "lost").ok());
  EXPECT_FALSE((*wal)->Commit().ok());
  EXPECT_TRUE((*wal)->dead());
  EXPECT_FALSE((*wal)->Append(WalRecordType::kInsert, 3, "").ok());
  EXPECT_FALSE((*wal)->Sync().ok());
  EXPECT_FALSE((*wal)->Truncate().ok());

  const Result<WalScan> scan = ReadWal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->torn);  // record frames on disk past the horizon
  ASSERT_EQ(scan->committed.size(), 1u);
  EXPECT_EQ(scan->committed[0].rid, 1u);
}

TEST_F(WalTest, CrashTornTailIsCrcRejectedAndTruncated) {
  const std::string path = dir_ / "wal.log";
  Result<std::unique_ptr<WriteAheadLog>> wal =
      WriteAheadLog::Rewrite(path, WalOptions{});
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(WalRecordType::kInsert, 1, "ok").ok());
  ASSERT_TRUE((*wal)->Commit().ok());
  const uint64_t horizon = *FileSize(path);

  ArmCrash("walTornTail");
  ASSERT_TRUE((*wal)->Append(WalRecordType::kInsert, 2, "torn").ok());
  EXPECT_FALSE((*wal)->Commit().ok());
  EXPECT_GT(*FileSize(path), horizon);  // the half-written marker is there

  const Result<WalScan> scan = ReadWal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->torn);
  EXPECT_EQ(scan->committed.size(), 1u);
  EXPECT_EQ(scan->committed_bytes, horizon);

  wal->reset();
  FailPointRegistry::Instance().DisableAll();
  ASSERT_TRUE(WriteAheadLog::Open(path, WalOptions{}, *ReadWal(path)).ok());
  EXPECT_EQ(*FileSize(path), horizon);
}

TEST_F(WalTest, CrashAfterCommitIsDurableButUnacknowledged) {
  const std::string path = dir_ / "wal.log";
  Result<std::unique_ptr<WriteAheadLog>> wal =
      WriteAheadLog::Rewrite(path, WalOptions{});
  ASSERT_TRUE(wal.ok());

  ArmCrash("walAfterCommitBeforeAck");
  ASSERT_TRUE((*wal)->Append(WalRecordType::kInsert, 42, "kept").ok());
  EXPECT_FALSE((*wal)->Commit().ok());  // caller sees an error ...

  const Result<WalScan> scan = ReadWal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn);  // ... but the batch is fully on disk
  ASSERT_EQ(scan->committed.size(), 1u);
  EXPECT_EQ(scan->committed[0].rid, 42u);
  EXPECT_EQ(scan->committed[0].payload, "kept");
}

TEST_F(WalTest, RewriteReplacesTheLogOrLeavesItWhole) {
  const std::string path = dir_ / "wal.log";
  {
    Result<std::unique_ptr<WriteAheadLog>> wal =
        WriteAheadLog::Rewrite(path, WalOptions{});
    ASSERT_TRUE(wal.ok());
    for (uint64_t rid = 1; rid <= 3; ++rid) {
      ASSERT_TRUE((*wal)->Append(WalRecordType::kInsert, rid, "old").ok());
      ASSERT_TRUE((*wal)->Commit().ok());
    }
  }
  const std::string old_log = ReadFileBytes(path);
  const auto fill = [](const WriteAheadLog::AppendFn& append) {
    append(WalRecordType::kInsert, 7, "new");
    append(WalRecordType::kInsert, 8, "new");
  };

  // Dying before the new batch's commit marker leaves the old log as it was.
  ArmCrash("checkpointMidWrite");
  EXPECT_FALSE(WriteAheadLog::Rewrite(path, WalOptions{}, fill).ok());
  FailPointRegistry::Instance().DisableAll();
  EXPECT_EQ(ReadFileBytes(path), old_log);

  // A clean rewrite holds exactly one committed batch, and appends follow it.
  Result<std::unique_ptr<WriteAheadLog>> wal =
      WriteAheadLog::Rewrite(path, WalOptions{}, fill);
  ASSERT_TRUE(wal.ok());
  EXPECT_FALSE(FileExists(path + ".tmp"));
  EXPECT_EQ((*wal)->log_bytes(), *FileSize(path));
  ASSERT_TRUE((*wal)->Append(WalRecordType::kRemove, 7, "").ok());
  ASSERT_TRUE((*wal)->Commit().ok());
  const Result<WalScan> scan = ReadWal(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->committed.size(), 3u);
  EXPECT_EQ(scan->committed[0].rid, 7u);
  EXPECT_EQ(scan->committed[1].rid, 8u);
  EXPECT_EQ(scan->committed[2].type, WalRecordType::kRemove);
  EXPECT_LT(scan->first_batch_bytes, scan->committed_bytes);
}

}  // namespace
}  // namespace stix::storage
