// Crash-recovery matrix: every simulated crash point × every approach ×
// both collection layouts. Each case runs a workload, crashes at the armed
// point, recovers the store from disk, and diffs the queryable state
// against the oracle of acknowledged writes:
//
//   acked ⊆ recovered ⊆ acked ∪ uncertain
//
// where `uncertain` is the set of writes that returned an error after the
// crash was armed — a write may die before its journal commit (lost) or
// after it (durable but unacknowledged), and both outcomes are legal.
// Clean-shutdown round trips, delete replay, recover-twice idempotence,
// recover-then-{balance,migrate} interleavings, damaged checkpoints and
// approach mismatches ride on the same fixture.

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "st/st_store.h"
#include "storage/checkpoint.h"
#include "temp_dir.h"

namespace stix::st {
namespace {

using bson::Value;
using stix::testing::ReadFileBytes;
using stix::testing::WriteFileBytes;

constexpr int64_t kHourMs = 3600 * 1000;
const geo::Rect kEverywhere{{-20, -20}, {30, 30}};

struct CrashCase {
  const char* crash_point;  // nullptr = no crash (clean shutdown)
  ApproachKind kind;
  bool bucketed;
};

const char* KindLabel(ApproachKind kind) {
  // ApproachName(kHilStar) is "hil*", which gtest rejects in test names.
  switch (kind) {
    case ApproachKind::kBslST: return "bslST";
    case ApproachKind::kBslTS: return "bslTS";
    case ApproachKind::kHil: return "hil";
    case ApproachKind::kHilStar: return "hilStar";
  }
  return "unknown";
}

std::string CaseName(const ::testing::TestParamInfo<CrashCase>& info) {
  return std::string(info.param.crash_point ? info.param.crash_point
                                            : "cleanShutdown") +
         "_" + KindLabel(info.param.kind) +
         (info.param.bucketed ? "_bucketed" : "_row");
}

class RecoveryTest : public ::testing::TestWithParam<CrashCase> {
 protected:
  void TearDown() override { FailPointRegistry::Instance().DisableAll(); }

  StStoreOptions MakeOptions() const {
    StStoreOptions options;
    options.approach.kind = GetParam().kind;
    options.cluster.num_shards = 3;
    options.cluster.chunk_max_bytes = 16 * 1024;
    options.cluster.seed = 77;
    options.cluster.durability.data_dir = dir_.path();
    options.cluster.durability.wal.sync_every_commits = 1;
    options.cluster.durability.checkpoint_wal_bytes = 64 * 1024;
    if (GetParam().bucketed) {
      storage::BucketLayout layout;
      layout.window_ms = kHourMs;
      layout.max_points = 16;
      options.bucket = layout;
    }
    return options;
  }

  bson::Document MakeDoc(int64_t id) {
    bson::Document doc;
    doc.Append("_id", Value::Int64(id));
    doc.Append("location",
               Value::MakeDocument(bson::GeoJsonPoint(
                   rng_.NextDouble(0, 10), rng_.NextDouble(0, 10))));
    doc.Append("date", Value::DateTime(30000LL * id));
    doc.Append("vehicleId", Value::Int32(static_cast<int32_t>(id % 5)));
    return doc;
  }

  static void ArmCrash(const char* name) {
    FailPoint* fp = FailPointRegistry::Instance().Find(name);
    ASSERT_NE(fp, nullptr) << name;
    FailPoint::Config config;
    config.error_code = StatusCode::kInternal;
    config.error_message = std::string("injected crash at ") + name;
    fp->Enable(config);
  }

  /// Full-window query → sorted ids; fails the test on duplicates.
  static std::vector<int64_t> QueryIds(const StStore& store) {
    const StQueryResult res =
        store.Query(kEverywhere, 0, 30000LL * 1000000);
    std::vector<int64_t> ids;
    for (const bson::Document& doc : res.cluster.docs) {
      const Value* id = doc.Get("_id");
      EXPECT_NE(id, nullptr);
      if (id != nullptr) ids.push_back(id->AsInt64());
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
        << "duplicate _id in recovered query result";
    return ids;
  }

  static void ExpectOracleHolds(const std::vector<int64_t>& recovered,
                                const std::set<int64_t>& acked,
                                const std::set<int64_t>& uncertain) {
    const std::set<int64_t> got(recovered.begin(), recovered.end());
    for (const int64_t id : acked) {
      EXPECT_TRUE(got.count(id)) << "acknowledged write lost: _id " << id;
    }
    for (const int64_t id : got) {
      EXPECT_TRUE(acked.count(id) || uncertain.count(id))
          << "recovered a write that was neither acked nor in flight: _id "
          << id;
    }
  }

  stix::testing::TempDir dir_;
  Rng rng_{99};
};

TEST_P(RecoveryTest, CrashRecoverDiffAgainstOracle) {
  const CrashCase& c = GetParam();
  StStoreOptions options = MakeOptions();
  std::set<int64_t> acked, uncertain;

  {
    StStore store(options);
    ASSERT_TRUE(store.Setup().ok());
    ASSERT_TRUE(store.durable());

    // Phase 1 (clean): bulk insert with a mid-workload checkpoint, so
    // recovery exercises checkpoint-load + WAL-tail replay, not just one
    // of them.
    for (int64_t id = 0; id < 150; ++id) {
      ASSERT_TRUE(store.Insert(MakeDoc(id)).ok()) << "id " << id;
      acked.insert(id);
      if (id == 75) {
        ASSERT_TRUE(store.Checkpoint().ok());
      }
    }

    if (c.crash_point == nullptr) {
      // Clean shutdown: everything flushed and checkpointed.
      ASSERT_TRUE(store.Checkpoint().ok());
    } else if (std::string(c.crash_point) == "checkpointMidWrite") {
      ArmCrash(c.crash_point);
      EXPECT_FALSE(store.Checkpoint().ok());
    } else {
      // Phase 2: arm the WAL crash point and write until the store dies.
      // A failed write may be lost or durable-but-unacknowledged
      // depending on where in the commit path it died — either is legal,
      // so it lands in `uncertain`.
      ArmCrash(c.crash_point);
      for (int64_t id = 150; id < 170; ++id) {
        if (store.Insert(MakeDoc(id)).ok()) {
          acked.insert(id);
        } else {
          uncertain.insert(id);
          break;  // the store is dead from here on
        }
      }
      EXPECT_FALSE(uncertain.empty())
          << "armed crash point never fired; the case tests nothing";
    }
    FailPointRegistry::Instance().DisableAll();
  }  // destructor = the crash: in-memory state is gone

  const Result<std::unique_ptr<StStore>> recovered = StStore::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_TRUE((*recovered)->FlushBuckets().ok());

  const std::vector<int64_t> ids = QueryIds(**recovered);
  ExpectOracleHolds(ids, acked, uncertain);

  // The recovered store is live: new writes land, a balance pass moves
  // chunks durably, and the full state stays intact.
  for (int64_t id = 1000; id < 1010; ++id) {
    ASSERT_TRUE((*recovered)->Insert(MakeDoc(id)).ok());
    acked.insert(id);
  }
  ASSERT_TRUE((*recovered)->FinishLoad().ok());
  ExpectOracleHolds(QueryIds(**recovered), acked, uncertain);
}

INSTANTIATE_TEST_SUITE_P(
    CrashMatrix, RecoveryTest,
    ::testing::ValuesIn([] {
      std::vector<CrashCase> cases;
      const ApproachKind kinds[] = {ApproachKind::kBslST, ApproachKind::kBslTS,
                                    ApproachKind::kHil, ApproachKind::kHilStar};
      const char* points[] = {nullptr, "walBeforeCommit", "walTornTail",
                              "walAfterCommitBeforeAck", "checkpointMidWrite"};
      for (const char* point : points) {
        for (const ApproachKind kind : kinds) {
          for (const bool bucketed : {false, true}) {
            cases.push_back({point, kind, bucketed});
          }
        }
      }
      return cases;
    }()),
    CaseName);

// ---------- targeted interleavings beyond the matrix ----------

class RecoveryScenarioTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPointRegistry::Instance().DisableAll(); }
  stix::testing::TempDir dir_;
};

StStoreOptions DurableOptions(const std::string& data_dir, bool bucketed) {
  StStoreOptions options;
  options.approach.kind = ApproachKind::kHil;
  options.cluster.num_shards = 3;
  options.cluster.chunk_max_bytes = 16 * 1024;
  options.cluster.seed = 7;
  options.cluster.durability.data_dir = data_dir;
  if (bucketed) {
    storage::BucketLayout layout;
    layout.window_ms = kHourMs;
    layout.max_points = 16;
    options.bucket = layout;
  }
  return options;
}

bson::Document ScenarioDoc(int64_t id, double lon, double lat) {
  bson::Document doc;
  doc.Append("_id", Value::Int64(id));
  doc.Append("location", Value::MakeDocument(bson::GeoJsonPoint(lon, lat)));
  doc.Append("date", Value::DateTime(30000LL * id));
  doc.Append("vehicleId", Value::Int32(static_cast<int32_t>(id % 5)));
  return doc;
}

TEST_F(RecoveryScenarioTest, DeleteReplayRemovesDocuments) {
  const StStoreOptions options = DurableOptions(dir_.path(), false);
  {
    StStore store(options);
    ASSERT_TRUE(store.Setup().ok());
    // Left half in [0,4], right half in [6,10]: the delete hits only the
    // left half, all without any checkpoint, so recovery must replay both
    // the kInsert and the kRemove records.
    for (int64_t id = 0; id < 60; ++id) {
      const double lon = (id % 2 == 0) ? 2.0 : 8.0;
      ASSERT_TRUE(store.Insert(ScenarioDoc(id, lon, 5.0)).ok());
    }
    const Result<uint64_t> removed =
        store.Delete({{0, 0}, {4, 10}}, 0, 30000LL * 1000000);
    ASSERT_TRUE(removed.ok());
    EXPECT_EQ(*removed, 30u);
  }
  const Result<std::unique_ptr<StStore>> recovered = StStore::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const StQueryResult res =
      (*recovered)->Query(kEverywhere, 0, 30000LL * 1000000);
  EXPECT_EQ(res.cluster.docs.size(), 30u);
  for (const bson::Document& doc : res.cluster.docs) {
    EXPECT_EQ(doc.Get("_id")->AsInt64() % 2, 1) << "deleted doc came back";
  }
}

/// Every `_id` a full-window query returns, sorted (duplicates kept).
std::vector<int64_t> QueriedIds(const StStore& store) {
  std::vector<int64_t> ids;
  for (const bson::Document& doc :
       store.Query(kEverywhere, 0, 30000LL * 1000000).cluster.docs) {
    ids.push_back(doc.Get("_id")->AsInt64());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST_F(RecoveryScenarioTest, BucketDeleteCrashKeepsSurvivors) {
  const StStoreOptions options = DurableOptions(dir_.path(), true);
  {
    StStore store(options);
    ASSERT_TRUE(store.Setup().ok());
    for (int64_t id = 0; id < 60; ++id) {
      const double lon = (id % 2 == 0) ? 2.0 : 8.0;
      ASSERT_TRUE(store.Insert(ScenarioDoc(id, lon, 5.0)).ok());
    }
    ASSERT_TRUE(store.FlushBuckets().ok());
    // The delete rewrites buckets that hold ids on both sides of 29. Let
    // its first WAL commit through and crash the next one: a bucket's
    // removal and its survivors' re-encoding must never land apart.
    FailPoint* crash = FailPointRegistry::Instance().Find("walBeforeCommit");
    ASSERT_NE(crash, nullptr);
    FailPoint::Config after_first;
    after_first.mode = FailPoint::Mode::kSkip;
    after_first.count = 1;
    after_first.error_code = StatusCode::kInternal;
    crash->Enable(after_first);
    (void)store.Delete(kEverywhere, 0, 30000LL * 29);
    crash->Disable();
  }
  const Result<std::unique_ptr<StStore>> recovered = StStore::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const std::vector<int64_t> ids = QueriedIds(**recovered);
  for (int64_t id = 30; id < 60; ++id) {
    EXPECT_EQ(std::count(ids.begin(), ids.end(), id), 1)
        << "survivor " << id << " lost or duplicated";
  }
}

TEST_F(RecoveryScenarioTest, FailedBucketDeleteBatchUndoesItself) {
  const StStoreOptions options = DurableOptions(dir_.path(), true);
  std::vector<int64_t> all(60);
  for (int64_t id = 0; id < 60; ++id) all[static_cast<size_t>(id)] = id;
  {
    StStore store(options);
    ASSERT_TRUE(store.Setup().ok());
    for (int64_t id = 0; id < 60; ++id) {
      const double lon = (id % 2 == 0) ? 2.0 : 8.0;
      ASSERT_TRUE(store.Insert(ScenarioDoc(id, lon, 5.0)).ok());
    }
    ASSERT_TRUE(store.FlushBuckets().ok());
    // Crash the first batch, which removes buckets and inserts their
    // re-encoded survivors: both halves come back out of memory.
    FailPoint* crash = FailPointRegistry::Instance().Find("walBeforeCommit");
    ASSERT_NE(crash, nullptr);
    FailPoint::Config once;
    once.mode = FailPoint::Mode::kTimes;
    once.count = 1;
    once.error_code = StatusCode::kInternal;
    crash->Enable(once);
    EXPECT_FALSE(store.Delete(kEverywhere, 0, 30000LL * 29).ok());
    crash->Disable();
    EXPECT_EQ(crash->times_fired(), 1u);
    EXPECT_EQ(QueriedIds(store), all);
  }
  const Result<std::unique_ptr<StStore>> recovered = StStore::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(QueriedIds(**recovered), all);
}

TEST_F(RecoveryScenarioTest, DeleteAfterJournalCrashDoesNotResurrect) {
  const StStoreOptions options = DurableOptions(dir_.path(), true);
  std::vector<int64_t> before_close;
  {
    StStore store(options);
    ASSERT_TRUE(store.Setup().ok());
    // One vehicle, one cell: ids 0-15 and 16-31 seal into flushed buckets,
    // 32-39 stay buffered behind the catalog journal.
    const auto point = [](int64_t id) {
      bson::Document doc = ScenarioDoc(id, 2.0, 5.0);
      doc.Set("vehicleId", Value::Int32(0));
      return doc;
    };
    for (int64_t id = 0; id < 40; ++id) {
      ASSERT_TRUE(store.Insert(point(id)).ok());
    }
    // The next insert dies committing its catalog journal record: the
    // journal can no longer be truncated.
    FailPoint* crash = FailPointRegistry::Instance().Find("walBeforeCommit");
    ASSERT_NE(crash, nullptr);
    FailPoint::Config once;
    once.mode = FailPoint::Mode::kTimes;
    once.count = 1;
    once.error_code = StatusCode::kInternal;
    crash->Enable(once);
    EXPECT_FALSE(store.Insert(point(40)).ok());
    crash->Disable();
    // Rewriting the first bucket would drop the wlsns coverage of its
    // points while the journal still holds them.
    const Result<uint64_t> removed =
        store.Delete(kEverywhere, 0, 30000LL * 7);
    EXPECT_FALSE(removed.ok());
    before_close = QueriedIds(store);
    EXPECT_EQ(before_close.size(), 40u) << "a failed delete removed points";
  }
  const Result<std::unique_ptr<StStore>> recovered = StStore::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(QueriedIds(**recovered), before_close);
}

TEST_F(RecoveryScenarioTest, DeleteCommitsOneWalBatchPerShard) {
  const StStoreOptions options = DurableOptions(dir_.path(), false);
  Counter& commits = MetricsRegistry::Instance().GetCounter("wal.commits");
  StStore store(options);
  ASSERT_TRUE(store.Setup().ok());
  for (int64_t id = 0; id < 600; ++id) {
    const double lon = (id % 2 == 0) ? 2.0 : 8.0;
    ASSERT_TRUE(store.Insert(ScenarioDoc(id, lon, 5.0)).ok());
  }
  ASSERT_TRUE(store.FinishLoad().ok());
  std::vector<uint64_t> docs_before;
  for (const auto& shard : store.cluster().shards()) {
    docs_before.push_back(shard->num_documents());
  }
  const uint64_t commits_before = commits.value();
  const Result<uint64_t> removed =
      store.Delete({{0, 0}, {4, 10}}, 0, 30000LL * 1000000);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(*removed, 300u);
  uint64_t touched = 0;
  for (const auto& shard : store.cluster().shards()) {
    touched += shard->num_documents() != docs_before[shard->id()];
  }
  EXPECT_GE(touched, 2u);
  EXPECT_LE(commits.value() - commits_before, touched);
}

TEST_F(RecoveryScenarioTest, RecoverTwiceIsIdenticalToRecoverOnce) {
  const StStoreOptions options = DurableOptions(dir_.path(), true);
  {
    StStore store(options);
    ASSERT_TRUE(store.Setup().ok());
    for (int64_t id = 0; id < 80; ++id) {
      ASSERT_TRUE(store.Insert(ScenarioDoc(id, 1.0 + (id % 9), 5.0)).ok());
    }
    // No flush, no checkpoint: a maximally dirty shutdown — most points
    // live only in the catalog journal.
  }
  std::vector<size_t> sizes;
  for (int round = 0; round < 2; ++round) {
    const Result<std::unique_ptr<StStore>> recovered =
        StStore::Recover(options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    const StQueryResult res =
        (*recovered)->Query(kEverywhere, 0, 30000LL * 1000000);
    sizes.push_back(res.cluster.docs.size());
    // The recovered store is destroyed with its re-buffered points
    // unflushed again — round 2 must replay to the identical state.
  }
  EXPECT_EQ(sizes[0], 80u);
  EXPECT_EQ(sizes[0], sizes[1]);
}

TEST_F(RecoveryScenarioTest, CheckpointFilesAppearAndPruneOnCleanShutdown) {
  const StStoreOptions options = DurableOptions(dir_.path(), false);
  {
    StStore store(options);
    ASSERT_TRUE(store.Setup().ok());
    for (int64_t id = 0; id < 40; ++id) {
      ASSERT_TRUE(store.Insert(ScenarioDoc(id, 1.0 + (id % 9), 5.0)).ok());
    }
    ASSERT_TRUE(store.Checkpoint().ok());
    for (int64_t id = 40; id < 80; ++id) {
      ASSERT_TRUE(store.Insert(ScenarioDoc(id, 1.0 + (id % 9), 5.0)).ok());
    }
    ASSERT_TRUE(store.Checkpoint().ok());
  }
  for (int shard = 0; shard < 3; ++shard) {
    const std::string shard_dir =
        dir_.path() + "/shard-" + std::to_string(shard);
    const std::vector<storage::CheckpointRef> refs =
        storage::ListCheckpoints(shard_dir);
    ASSERT_EQ(refs.size(), 1u) << "stale checkpoints not pruned, shard "
                               << shard;
    // The WAL was truncated behind the checkpoint.
    const Result<storage::WalScan> scan =
        storage::ReadWal(shard_dir + "/wal.log");
    ASSERT_TRUE(scan.ok());
    EXPECT_TRUE(scan->committed.empty()) << "shard " << shard;
  }
  const Result<std::unique_ptr<StStore>> recovered = StStore::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const StQueryResult res =
      (*recovered)->Query(kEverywhere, 0, 30000LL * 1000000);
  EXPECT_EQ(res.cluster.docs.size(), 80u);
}

TEST_F(RecoveryScenarioTest, RecoverThenMigrateViaZones) {
  const StStoreOptions options = DurableOptions(dir_.path(), false);
  {
    StStore store(options);
    ASSERT_TRUE(store.Setup().ok());
    for (int64_t id = 0; id < 120; ++id) {
      ASSERT_TRUE(store.Insert(ScenarioDoc(id, 1.0 + (id % 9),
                                           1.0 + (id % 7))).ok());
    }
    ASSERT_TRUE(store.FinishLoad().ok());
  }
  {
    const Result<std::unique_ptr<StStore>> recovered =
        StStore::Recover(options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    // Zone-driven migrations move chunks between shards right after
    // recovery; every move is topology-journaled + durably applied, so the
    // data set is unchanged...
    ASSERT_TRUE((*recovered)->ConfigureZones().ok());
    const StQueryResult res =
        (*recovered)->Query(kEverywhere, 0, 30000LL * 1000000);
    EXPECT_EQ(res.cluster.docs.size(), 120u);
  }

  // ... including across a second crash+recovery after the migrations.
  const Result<std::unique_ptr<StStore>> again = StStore::Recover(options);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  const StQueryResult res2 =
      (*again)->Query(kEverywhere, 0, 30000LL * 1000000);
  EXPECT_EQ(res2.cluster.docs.size(), 120u);
}

// Regression: WAL LSNs must stay monotonic *across* recoveries. A shard's
// log is truncated at each checkpoint, so the reopened (empty) log would
// restart numbering at 1 — below the checkpoint horizon — and writes made
// after a recovery would be skipped by the next recovery's `lsn <= ckpt`
// replay filter as "already inside the checkpoint". Same trap for the
// catalog journal vs the wlsns arrays of already-flushed buckets. Found by
// stix_fuzz --crash (seed 20004); both layouts covered here.
TEST_F(RecoveryScenarioTest, WritesAfterRecoverySurviveNextRecovery) {
  for (const bool bucketed : {false, true}) {
    const stix::testing::TempDir dir;
    const StStoreOptions options = DurableOptions(dir.path(), bucketed);
    {
      StStore store(options);
      ASSERT_TRUE(store.Setup().ok());
      for (int64_t id = 0; id < 60; ++id) {
        ASSERT_TRUE(store.Insert(ScenarioDoc(id, 1.0 + (id % 9), 5.0)).ok());
      }
      // Checkpoint (truncates the shard WALs) and, on the bucketed layout,
      // flush (truncates the catalog journal) so both logs reopen empty.
      ASSERT_TRUE(store.Checkpoint().ok());
    }
    {
      const Result<std::unique_ptr<StStore>> recovered =
          StStore::Recover(options);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      for (int64_t id = 60; id < 100; ++id) {
        ASSERT_TRUE(
            (*recovered)->Insert(ScenarioDoc(id, 1.0 + (id % 9), 5.0)).ok());
      }
      // Dirty shutdown: the new writes live only in the reopened logs.
    }
    const Result<std::unique_ptr<StStore>> again = StStore::Recover(options);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    const StQueryResult res =
        (*again)->Query(kEverywhere, 0, 30000LL * 1000000);
    EXPECT_EQ(res.cluster.docs.size(), 100u)
        << (bucketed ? "bucket" : "row")
        << " layout lost post-recovery writes";
  }
}

// Regression: recovery replays the WAL/checkpoint straight into the record
// store without feeding ShardStatistics::Observe, so a recovered shard's
// statistics report zero documents. MarkStale() alone cannot repair that —
// zero-doc statistics take the "empty shard" short-circuit and claim to be
// reliable, so the cost model would happily estimate 0 keys/docs for every
// plan over a populated shard. Recovery must rebuild the statistics from
// the record store outright; this locks that in.
TEST_F(RecoveryScenarioTest, RecoveredShardStatsAreRebuiltAndReliable) {
  StStoreOptions options = DurableOptions(dir_.path(), false);
  options.approach.kind = ApproachKind::kBslST;  // two candidate plans
  {
    StStore store(options);
    ASSERT_TRUE(store.Setup().ok());
    for (int64_t id = 0; id < 150; ++id) {
      const double lon = 0.5 + (id % 90) / 10.0;
      ASSERT_TRUE(store.Insert(ScenarioDoc(id, lon, 5.0)).ok());
    }
    ASSERT_TRUE(store.FinishLoad().ok());
    ASSERT_TRUE(store.Checkpoint().ok());
  }

  const Result<std::unique_ptr<StStore>> recovered = StStore::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  // Before any query runs: every populated shard's statistics must already
  // agree with its record store and admit to being usable for estimation.
  for (const auto& shard : (*recovered)->cluster().shards()) {
    const uint64_t stored = shard->collection().records().num_records();
    const query::stats::ShardStatistics& stats = shard->statistics();
    EXPECT_EQ(stats.total_docs(), stored) << "shard " << shard->id();
    EXPECT_TRUE(stats.ReliableForEstimation()) << "shard " << shard->id();
    if (stored > 0) {
      // The whole date span must estimate roughly the full shard, not 0.
      EXPECT_GT(stats.EstimateRange(kDateField, 0, 30000LL * 1000000), 0.0)
          << "shard " << shard->id();
    }
  }

  // And a cost-planned query must actually use them: plans_estimated moves
  // and the cost-picked shards carry non-zero key estimates (the broken
  // behaviour was "reliable" zero-histograms estimating 0 for everything).
  const uint64_t estimated_before =
      MetricsRegistry::Instance().GetCounter("planner.plans_estimated")
          .value();
  const StExplain explain =
      (*recovered)->Explain({{0.0, 4.0}, {10.0, 6.0}}, 0, 30000LL * 1000000);
  EXPECT_GT(MetricsRegistry::Instance()
                .GetCounter("planner.plans_estimated")
                .value(),
            estimated_before);
  bool saw_positive_estimate = false;
  for (const cluster::ShardExplain& se : explain.cluster.shards) {
    if (se.planned_by == "cost" && se.estimated_keys > 0.0) {
      saw_positive_estimate = true;
    }
  }
  EXPECT_TRUE(saw_positive_estimate)
      << "no shard planned by cost with a positive estimate after recovery";
}


// ---------- the checkpoint image as the whole-store format ----------

std::vector<int64_t> SortedIds(const StQueryResult& res) {
  std::vector<int64_t> ids;
  for (const bson::Document& doc : res.cluster.docs) {
    ids.push_back(doc.Get("_id")->AsInt64());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// ---------- the whole-store image: checkpoints + config journal ----------
//
// A clean Checkpoint() is the store's one persisted image. These cases pin
// what that image must carry through StStore::Recover, and that a damaged
// image fails loudly instead of recovering as fewer documents.

class SnapshotTest : public RecoveryScenarioTest {
 protected:
  const index::IndexDescriptor geo_index_{
      "location_2dsphere_date_1",
      {{kLocationField, index::IndexFieldKind::k2dsphere},
       {kDateField, index::IndexFieldKind::kAscending}}};
  const geo::Rect rect_{{2, 2}, {7, 7}};
  const int64_t t_end_ = 30000LL * 400;

  /// What the source store looked like when it checkpointed.
  std::string shard_key_;
  std::vector<cluster::Chunk> chunks_;
  std::vector<cluster::ZoneRange> zones_;
  std::vector<uint64_t> shard_docs_;
  std::vector<size_t> shard_indexes_;
  std::vector<int64_t> ids_;
  int nodes_ = 0;

  /// Loads 600 points into a durable hil store with an extra 2dsphere
  /// index, balances and zones it, checkpoints it cleanly and closes it.
  void CheckpointZonedStore(const StStoreOptions& options) {
    StStore store(options);
    ASSERT_TRUE(store.Setup().ok());
    ASSERT_TRUE(store.cluster().CreateIndex(geo_index_).ok());
    for (int64_t id = 0; id < 600; ++id) {
      ASSERT_TRUE(store.Insert(ScenarioDoc(id, 0.5 + (id * 7 % 95) / 10.0,
                                           0.5 + (id * 3 % 89) / 10.0))
                      .ok());
    }
    ASSERT_TRUE(store.FinishLoad().ok());
    ASSERT_TRUE(store.ConfigureZones().ok());
    ASSERT_TRUE(store.Checkpoint().ok());

    const cluster::Cluster& c = store.cluster();
    ASSERT_GT(c.chunks().num_chunks(), 3u);
    ASSERT_EQ(c.zones().size(), 3u);
    shard_key_ = c.shard_key().DebugString();
    chunks_ = c.chunks().chunks();
    zones_ = c.zones();
    for (const auto& shard : c.shards()) {
      shard_docs_.push_back(shard->num_documents());
      shard_indexes_.push_back(shard->catalog().indexes().size());
    }
    const StQueryResult res = store.Query(rect_, 0, t_end_);
    ids_ = SortedIds(res);
    nodes_ = res.cluster.nodes_contacted;
    ASSERT_FALSE(ids_.empty());
  }
};

TEST_F(SnapshotTest, RoundTripPreservesEverything) {
  const StStoreOptions options = DurableOptions(dir_.path(), false);
  ASSERT_NO_FATAL_FAILURE(CheckpointZonedStore(options));

  const Result<std::unique_ptr<StStore>> recovered = StStore::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  StStore& r = **recovered;
  const cluster::Cluster& c = r.cluster();
  EXPECT_EQ(c.shard_key().DebugString(), shard_key_);
  ASSERT_EQ(c.chunks().num_chunks(), chunks_.size());
  for (size_t i = 0; i < chunks_.size(); ++i) {
    EXPECT_EQ(c.chunks().chunk(i).min, chunks_[i].min) << "chunk " << i;
    EXPECT_EQ(c.chunks().chunk(i).shard_id, chunks_[i].shard_id)
        << "chunk " << i;
  }
  ASSERT_EQ(c.zones().size(), zones_.size());
  for (size_t i = 0; i < zones_.size(); ++i) {
    EXPECT_EQ(c.zones()[i].min, zones_[i].min) << "zone " << i;
    EXPECT_EQ(c.zones()[i].max, zones_[i].max) << "zone " << i;
    EXPECT_EQ(c.zones()[i].shard_id, zones_[i].shard_id) << "zone " << i;
  }
  ASSERT_EQ(c.shards().size(), shard_docs_.size());
  for (size_t s = 0; s < shard_docs_.size(); ++s) {
    EXPECT_EQ(c.shards()[s]->num_documents(), shard_docs_[s])
        << "shard " << s;
    EXPECT_EQ(c.shards()[s]->catalog().indexes().size(), shard_indexes_[s])
        << "shard " << s;
    EXPECT_NE(c.shards()[s]->catalog().Get(geo_index_.name()), nullptr)
        << "shard " << s;
  }
  const StQueryResult res = r.Query(rect_, 0, t_end_);
  EXPECT_EQ(SortedIds(res), ids_);
  EXPECT_EQ(res.cluster.nodes_contacted, nodes_);
}

TEST_F(SnapshotTest, RestoredClusterAcceptsNewInserts) {
  const StStoreOptions options = DurableOptions(dir_.path(), false);
  ASSERT_NO_FATAL_FAILURE(CheckpointZonedStore(options));

  const Result<std::unique_ptr<StStore>> recovered = StStore::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_TRUE((*recovered)->Insert(ScenarioDoc(999999, 5, 5)).ok());
  EXPECT_EQ((*recovered)->cluster().total_documents(), 601u);
}

TEST_F(RecoveryScenarioTest, HashedShardKeyRecoversAsHashed) {
  cluster::ClusterOptions options;
  options.num_shards = 2;
  options.durability.data_dir = dir_.path();
  {
    cluster::Cluster source(options);
    ASSERT_TRUE(source
                    .ShardCollection(cluster::ShardKeyPattern(
                        {kDateField}, cluster::ShardingStrategy::kHashed))
                    .ok());
    for (int64_t i = 0; i < 50; ++i) {
      bson::Document doc;
      doc.Append("_id", Value::Int64(i));
      doc.Append(kDateField, Value::DateTime(1000LL * i));
      ASSERT_TRUE(source.Insert(std::move(doc)).ok());
    }
    ASSERT_TRUE(source.Checkpoint().ok());
  }
  const Result<std::unique_ptr<cluster::Cluster>> recovered =
      cluster::RecoverCluster(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->shard_key().strategy(),
            cluster::ShardingStrategy::kHashed);
  EXPECT_EQ((*recovered)->total_documents(), 50u);
  // Hashed routing still works: an equality query targets one shard.
  const query::ExprPtr eq =
      query::MakeCmp(kDateField, query::CmpOp::kEq, Value::DateTime(5000));
  EXPECT_EQ((*recovered)->TargetShards(eq).size(), 1u);
}

/// Loads 300 points into a durable hil store, checkpoints it cleanly and
/// closes it. Returns a shard that holds documents: its only checkpoint
/// is the image the corruption tests damage.
int BuildCheckpointedStore(const StStoreOptions& options) {
  StStore store(options);
  EXPECT_TRUE(store.Setup().ok());
  for (int64_t id = 0; id < 300; ++id) {
    EXPECT_TRUE(
        store.Insert(ScenarioDoc(id, 0.5 + (id % 95) / 10.0, 5.0)).ok());
  }
  EXPECT_TRUE(store.FinishLoad().ok());
  EXPECT_TRUE(store.Checkpoint().ok());
  for (const auto& shard : store.cluster().shards()) {
    if (shard->num_documents() > 0) return shard->id();
  }
  ADD_FAILURE() << "no shard holds documents";
  return 0;
}

std::string OnlyCheckpoint(const std::string& data_dir, int shard) {
  const std::vector<storage::CheckpointRef> refs = storage::ListCheckpoints(
      data_dir + "/shard-" + std::to_string(shard));
  EXPECT_EQ(refs.size(), 1u);
  return refs.empty() ? std::string() : refs.front().path;
}

void ExpectRecoverCorruption(const StStoreOptions& options) {
  const Result<std::unique_ptr<StStore>> recovered = StStore::Recover(options);
  ASSERT_FALSE(recovered.ok())
      << "a damaged checkpoint recovered as "
      << (*recovered)->Query(kEverywhere, 0, 30000LL * 1000000)
             .cluster.docs.size()
      << " documents";
  EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption)
      << recovered.status().ToString();
}

/// Checkpoints a store into `data_dir`, rewrites one shard's only
/// checkpoint through `damage` and expects recovery to fail with
/// Corruption: the clean checkpoint truncated the WAL, so nothing covers
/// the image.
void ExpectDamagedCheckpointIsCorruption(const std::string& data_dir,
                                         void (*damage)(std::string*)) {
  const StStoreOptions options = DurableOptions(data_dir, false);
  const std::string path =
      OnlyCheckpoint(data_dir, BuildCheckpointedStore(options));
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 64u);
  damage(&bytes);
  WriteFileBytes(path, bytes);
  ExpectRecoverCorruption(options);
}

TEST_F(SnapshotTest, DetectsCorruption) {
  ExpectDamagedCheckpointIsCorruption(
      dir_.path(), [](std::string* b) { (*b)[b->size() / 2] ^= 0x5A; });
}

TEST_F(SnapshotTest, RejectsTruncatedFile) {
  ExpectDamagedCheckpointIsCorruption(
      dir_.path(), [](std::string* b) { b->resize(b->size() * 2 / 3); });
}

TEST_F(SnapshotTest, RejectsWrongMagicAndMissingFile) {
  ExpectDamagedCheckpointIsCorruption(
      dir_.path(), [](std::string* b) { *b = "not a checkpoint"; });

  // A directory that never held a store has nothing to recover.
  const stix::testing::TempDir empty;
  EXPECT_FALSE(StStore::Recover(DurableOptions(empty.path(), false)).ok());
}

// Skipping a damaged image is legal while the WAL covers the gap back to
// the older image; past the WAL's horizon it is not.
TEST_F(RecoveryScenarioTest, DamagedCheckpointFallsBackWhenWalCoversIt) {
  const StStoreOptions options = DurableOptions(dir_.path(), false);
  {
    StStore store(options);
    ASSERT_TRUE(store.Setup().ok());
    for (int64_t id = 0; id < 300; ++id) {
      ASSERT_TRUE(
          store.Insert(ScenarioDoc(id, 0.5 + (id % 95) / 10.0, 5.0)).ok());
      if (id == 149) {
        ASSERT_TRUE(store.Checkpoint().ok());
      }
    }
  }
  std::string shard_dir;
  uint64_t horizon = 0;
  for (int shard = 0; shard < 3 && shard_dir.empty(); ++shard) {
    const std::string dir = dir_.path() + "/shard-" + std::to_string(shard);
    const Result<storage::WalScan> scan = storage::ReadWal(dir + "/wal.log");
    ASSERT_TRUE(scan.ok());
    if (scan->committed.empty()) continue;
    ASSERT_EQ(storage::ListCheckpoints(dir).size(), 1u);
    shard_dir = dir;
    horizon = scan->last_lsn;
  }
  ASSERT_FALSE(shard_dir.empty()) << "no shard logged writes after the "
                                     "checkpoint";

  WriteFileBytes(storage::CheckpointPath(shard_dir, horizon), "damaged image");
  {
    const Result<std::unique_ptr<StStore>> recovered =
        StStore::Recover(options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ((*recovered)
                  ->Query(kEverywhere, 0, 30000LL * 1000000)
                  .cluster.docs.size(),
              300u);
  }

  WriteFileBytes(storage::CheckpointPath(shard_dir, horizon + 1000),
                 "damaged image");
  ExpectRecoverCorruption(options);
}

void ExpectApproachMismatchRejected(const std::string& data_dir,
                                    ApproachKind written,
                                    ApproachKind opened) {
  StStoreOptions options = DurableOptions(data_dir, false);
  options.approach.kind = written;
  {
    StStore store(options);
    ASSERT_TRUE(store.Setup().ok());
    for (int64_t id = 0; id < 60; ++id) {
      ASSERT_TRUE(store.Insert(ScenarioDoc(id, 1.0 + (id % 9), 5.0)).ok());
    }
    ASSERT_TRUE(store.Checkpoint().ok());
  }
  options.approach.kind = opened;
  const Result<std::unique_ptr<StStore>> wrong = StStore::Recover(options);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument)
      << wrong.status().ToString();

  // The refusal leaves the directory intact for the right approach.
  options.approach.kind = written;
  const Result<std::unique_ptr<StStore>> right = StStore::Recover(options);
  ASSERT_TRUE(right.ok()) << right.status().ToString();
  EXPECT_EQ(
      (*right)->Query(kEverywhere, 0, 30000LL * 1000000).cluster.docs.size(),
      60u);
}

TEST_F(RecoveryScenarioTest, RecoverRejectsHilDataOpenedAsBslTS) {
  ExpectApproachMismatchRejected(dir_.path(), ApproachKind::kHil,
                                 ApproachKind::kBslTS);
}

TEST_F(RecoveryScenarioTest, RecoverRejectsBslTSDataOpenedAsHil) {
  ExpectApproachMismatchRejected(dir_.path(), ApproachKind::kBslTS,
                                 ApproachKind::kHil);
}

// ---- migration commits: one WAL batch per side ----

cluster::ClusterOptions MigrationOptions(const std::string& data_dir) {
  cluster::ClusterOptions options;
  options.num_shards = 2;
  options.chunk_max_bytes = 4 * 1024;
  options.balance_every_inserts = 0;  // migrations only on Balance()
  options.durability.data_dir = data_dir;
  return options;
}

/// Shards on date and loads `n` documents; with no balancing every chunk
/// stays on shard 0.
void LoadUnbalanced(cluster::Cluster* cluster, int n) {
  ASSERT_TRUE(cluster
                  ->ShardCollection(cluster::ShardKeyPattern(
                      {kDateField}, cluster::ShardingStrategy::kRange))
                  .ok());
  for (int64_t i = 0; i < n; ++i) {
    bson::Document doc;
    doc.Append("_id", Value::Int64(i));
    doc.Append(kDateField, Value::DateTime(1000LL * i));
    doc.Append("pad", Value::String(std::string(100, 'p')));
    ASSERT_TRUE(cluster->Insert(std::move(doc)).ok());
  }
}

/// Every stored _id, sorted: equal vectors mean the same documents, each
/// exactly once.
std::vector<int64_t> AllIds(const cluster::Cluster& cluster) {
  const cluster::ClusterQueryResult all = cluster.Query(query::MakeAnd({}));
  EXPECT_TRUE(all.status.ok());
  std::vector<int64_t> ids;
  for (const bson::Document& doc : all.docs) {
    ids.push_back(doc.Get("_id")->AsInt64());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<int> Owners(const cluster::Cluster& cluster) {
  std::vector<int> owners;
  for (const cluster::Chunk& c : cluster.chunks().chunks()) {
    owners.push_back(c.shard_id);
  }
  return owners;
}

TEST_F(RecoveryScenarioTest, MigrationCommitsOneWalBatchPerSide) {
  const cluster::ClusterOptions options = MigrationOptions(dir_.path());
  Counter& commits = MetricsRegistry::Instance().GetCounter("wal.commits");
  Counter& committed =
      MetricsRegistry::Instance().GetCounter("balancer.migrations_committed");
  std::vector<int64_t> ids;
  std::vector<int> owners;
  {
    cluster::Cluster source(options);
    ASSERT_NO_FATAL_FAILURE(LoadUnbalanced(&source, 400));
    ASSERT_GT(source.chunks().num_chunks(), 2u);
    const uint64_t commits_before = commits.value();
    const uint64_t migrations_before = committed.value();
    source.Balance();
    const uint64_t migrations = committed.value() - migrations_before;
    ASSERT_GT(migrations, 0u);
    // Per migration: the recipient's batch, the journaled flip and the
    // donor's batch — not one commit per moved document.
    EXPECT_EQ(commits.value() - commits_before, 3 * migrations);
    ids = AllIds(source);
    owners = Owners(source);
  }
  ASSERT_EQ(ids.size(), 400u);
  const Result<std::unique_ptr<cluster::Cluster>> recovered =
      cluster::RecoverCluster(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Owners(**recovered), owners);
  EXPECT_EQ(AllIds(**recovered), ids);
  for (const auto& shard : (*recovered)->shards()) {
    EXPECT_GT(shard->num_documents(), 0u);
  }
}

TEST_F(RecoveryScenarioTest, CrashInRecipientBatchKeepsDonorOwner) {
  const cluster::ClusterOptions options = MigrationOptions(dir_.path());
  std::vector<int64_t> ids;
  {
    cluster::Cluster source(options);
    ASSERT_NO_FATAL_FAILURE(LoadUnbalanced(&source, 400));
    ids = AllIds(source);
    // The first commit of the first migration is the recipient's batch.
    FailPoint* crash = FailPointRegistry::Instance().Find("walBeforeCommit");
    ASSERT_NE(crash, nullptr);
    FailPoint::Config once;
    once.mode = FailPoint::Mode::kTimes;
    once.count = 1;
    once.error_code = StatusCode::kInternal;
    crash->Enable(once);
    source.Balance();
    EXPECT_EQ(crash->times_fired(), 1u);
    // The failed batch took itself back out of memory.
    EXPECT_EQ(AllIds(source), ids);
    EXPECT_EQ(Owners(source), std::vector<int>(source.chunks().num_chunks(), 0));
    EXPECT_EQ(source.shards()[1]->num_documents(), 0u);
  }
  const Result<std::unique_ptr<cluster::Cluster>> recovered =
      cluster::RecoverCluster(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Owners(**recovered),
            std::vector<int>((*recovered)->chunks().num_chunks(), 0));
  EXPECT_EQ(AllIds(**recovered), ids);
}

TEST_F(RecoveryScenarioTest, CrashJournalingFlipRollsOwnershipBack) {
  const cluster::ClusterOptions options = MigrationOptions(dir_.path());
  std::vector<int64_t> ids;
  {
    cluster::Cluster source(options);
    ASSERT_NO_FATAL_FAILURE(LoadUnbalanced(&source, 400));
    ids = AllIds(source);
    // Skip the recipient's batch; crash the journaled flip (and, with it,
    // the best-effort take-back on the recipient).
    FailPoint* crash = FailPointRegistry::Instance().Find("walBeforeCommit");
    ASSERT_NE(crash, nullptr);
    FailPoint::Config after_recipient;
    after_recipient.mode = FailPoint::Mode::kSkip;
    after_recipient.count = 1;
    after_recipient.error_code = StatusCode::kInternal;
    crash->Enable(after_recipient);
    source.Balance();
    crash->Disable();
    EXPECT_GE(crash->times_fired(), 1u);
    // The rollback republished the donor as owner.
    const std::vector<int> owners = Owners(source);
    EXPECT_EQ(owners, std::vector<int>(owners.size(), 0));
    const std::shared_ptr<const cluster::RoutingTable> routing =
        source.routing();
    EXPECT_EQ(routing->owners, owners);
  }
  const Result<std::unique_ptr<cluster::Cluster>> recovered =
      cluster::RecoverCluster(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Owners(**recovered),
            std::vector<int>((*recovered)->chunks().num_chunks(), 0));
  EXPECT_EQ(AllIds(**recovered), ids);
}

}  // namespace
}  // namespace stix::st
