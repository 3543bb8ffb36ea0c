// Live shard-key resharding: Cluster::Reshard driven through
// StStore::Reshard — approach migration on a populated store, with and
// without concurrent traffic, plus every rejection gate, the
// reshardMoveChunk fail point's abort semantics and the placement every
// migrated document ends in.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "st/st_store.h"
#include "temp_dir.h"

namespace stix::st {
namespace {

constexpr int64_t kT0 = 1538352000000;  // 2018-10-01T00:00:00Z
constexpr int64_t kSpanMs = 14 * 24 * 3600000LL;
const geo::Rect kMbr{{23.3, 37.6}, {24.3, 38.5}};

struct TestDoc {
  double lon, lat;
  int64_t t_ms;
  int32_t fid;
};

bson::Document MakeDoc(const TestDoc& d) {
  bson::Document doc;
  doc.Append(kLocationField,
             bson::Value::MakeDocument(bson::GeoJsonPoint(d.lon, d.lat)));
  doc.Append(kDateField, bson::Value::DateTime(d.t_ms));
  doc.Append("fid", bson::Value::Int32(d.fid));
  return doc;
}

std::vector<TestDoc> MakeDocs(int count, uint64_t seed, int32_t first_fid) {
  Rng rng(seed);
  std::vector<TestDoc> docs;
  docs.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    docs.push_back(TestDoc{
        rng.NextDouble(kMbr.lo.lon, kMbr.hi.lon),
        rng.NextDouble(kMbr.lo.lat, kMbr.hi.lat),
        kT0 + static_cast<int64_t>(rng.NextBounded(kSpanMs + 1)),
        first_fid + i});
  }
  return docs;
}

std::vector<int32_t> OracleFids(const std::vector<TestDoc>& docs,
                                const geo::Rect& rect, int64_t t0,
                                int64_t t1) {
  std::vector<int32_t> fids;
  for (const TestDoc& d : docs) {
    if (rect.Contains({d.lon, d.lat}) && d.t_ms >= t0 && d.t_ms <= t1) {
      fids.push_back(d.fid);
    }
  }
  std::sort(fids.begin(), fids.end());
  return fids;
}

std::vector<int32_t> QueryFids(const StStore& store, const geo::Rect& rect,
                               int64_t t0, int64_t t1) {
  const StQueryResult result = store.Query(rect, t0, t1);
  EXPECT_TRUE(result.cluster.status.ok()) << result.cluster.status.ToString();
  std::vector<int32_t> fids;
  fids.reserve(result.cluster.docs.size());
  for (const bson::Document& doc : result.cluster.docs) {
    const bson::Value* v = doc.Get("fid");
    fids.push_back(v == nullptr ? -1 : v->AsInt32());
  }
  std::sort(fids.begin(), fids.end());
  return fids;
}

StStoreOptions Options(ApproachKind kind, int shards = 3) {
  StStoreOptions options;
  options.approach.kind = kind;
  options.approach.dataset_mbr = kMbr;
  options.cluster.num_shards = shards;
  options.cluster.chunk_max_bytes = 16 * 1024;  // force several chunks
  options.cluster.seed = 7;
  return options;
}

std::unique_ptr<StStore> LoadedStore(ApproachKind kind,
                                     const std::vector<TestDoc>& docs,
                                     int shards = 3) {
  auto store = std::make_unique<StStore>(Options(kind, shards));
  EXPECT_TRUE(store->Setup().ok());
  for (const TestDoc& d : docs) {
    EXPECT_TRUE(store->Insert(MakeDoc(d)).ok());
  }
  EXPECT_TRUE(store->FinishLoad().ok());
  return store;
}

TEST(ReshardTest, BaselineToHilbertMigratesAndSwapsApproach) {
  const std::vector<TestDoc> docs = MakeDocs(1500, 42, 0);
  auto store = LoadedStore(ApproachKind::kBslTS, docs);
  Counter& moved =
      MetricsRegistry::Instance().GetCounter("reshard.docs_moved");
  Counter& completed =
      MetricsRegistry::Instance().GetCounter("reshard.completed");
  const uint64_t moved_before = moved.value();
  const uint64_t completed_before = completed.value();

  ASSERT_TRUE(store->Reshard(ApproachKind::kHil).ok());

  EXPECT_EQ(store->approach().kind(), ApproachKind::kHil);
  EXPECT_FALSE(store->resharding());
  EXPECT_FALSE(store->cluster().resharding());
  EXPECT_EQ(completed.value(), completed_before + 1);
  EXPECT_GT(moved.value(), moved_before);

  // Every document answers from the new layout, full-window and sub-rect.
  EXPECT_EQ(QueryFids(*store, kMbr, kT0, kT0 + kSpanMs),
            OracleFids(docs, kMbr, kT0, kT0 + kSpanMs));
  const geo::Rect sub{{23.5, 37.8}, {23.9, 38.2}};
  const int64_t t1 = kT0 + kSpanMs / 3;
  EXPECT_EQ(QueryFids(*store, sub, kT0, t1), OracleFids(docs, sub, kT0, t1));

  // The routing flip is visible end to end: explain now reports the
  // Hilbert shard key.
  const StExplain explain = store->Explain(sub, kT0, t1);
  EXPECT_NE(explain.cluster.shard_key.find(kHilbertField), std::string::npos);

  // The store keeps working post-swap: new inserts land and are found.
  std::vector<TestDoc> extended = docs;
  for (const TestDoc& d : MakeDocs(200, 43, 1500)) {
    ASSERT_TRUE(store->Insert(MakeDoc(d)).ok());
    extended.push_back(d);
  }
  EXPECT_EQ(QueryFids(*store, kMbr, kT0, kT0 + kSpanMs),
            OracleFids(extended, kMbr, kT0, kT0 + kSpanMs));
}

TEST(ReshardTest, HilbertToBaselineMigrates) {
  const std::vector<TestDoc> docs = MakeDocs(1200, 5, 0);
  auto store = LoadedStore(ApproachKind::kHilStar, docs);
  ASSERT_TRUE(store->Reshard(ApproachKind::kBslTS).ok());
  EXPECT_EQ(store->approach().kind(), ApproachKind::kBslTS);
  EXPECT_FALSE(store->resharding());
  EXPECT_EQ(QueryFids(*store, kMbr, kT0, kT0 + kSpanMs),
            OracleFids(docs, kMbr, kT0, kT0 + kSpanMs));
  const StExplain explain =
      store->Explain({{23.4, 37.7}, {23.8, 38.0}}, kT0, kT0 + kSpanMs / 2);
  EXPECT_NE(explain.cluster.shard_key.find(kDateField), std::string::npos);
  EXPECT_EQ(explain.cluster.shard_key.find(kHilbertField), std::string::npos);
}

TEST(ReshardTest, RejectsSameKindAndSameShardKey) {
  const std::vector<TestDoc> docs = MakeDocs(120, 9, 0);
  auto store = LoadedStore(ApproachKind::kBslTS, docs, 2);
  // Same kind: nothing to do.
  EXPECT_EQ(store->Reshard(ApproachKind::kBslTS).code(),
            StatusCode::kInvalidArgument);
  // bslST shards on {date} too — a same-key "reshard" is rejected, it
  // would rebuild the identical chunk table under a different index order.
  EXPECT_EQ(store->Reshard(ApproachKind::kBslST).code(),
            StatusCode::kInvalidArgument);

  auto hil = LoadedStore(ApproachKind::kHil, docs, 2);
  EXPECT_EQ(hil->Reshard(ApproachKind::kHilStar).code(),
            StatusCode::kInvalidArgument);
  // The rejected calls left no transition state behind.
  EXPECT_FALSE(store->resharding());
  EXPECT_FALSE(hil->resharding());
  EXPECT_EQ(QueryFids(*store, kMbr, kT0, kT0 + kSpanMs),
            OracleFids(docs, kMbr, kT0, kT0 + kSpanMs));
}

TEST(ReshardTest, RejectsBucketedAndDurableStores) {
  StStoreOptions bucketed = Options(ApproachKind::kBslTS, 2);
  bucketed.bucket = storage::BucketLayout{};
  StStore bucket_store(bucketed);
  ASSERT_TRUE(bucket_store.Setup().ok());
  EXPECT_EQ(bucket_store.Reshard(ApproachKind::kHil).code(),
            StatusCode::kNotSupported);

  testing::TempDir dir("reshard_durable");
  StStoreOptions durable = Options(ApproachKind::kBslTS, 2);
  durable.cluster.durability.data_dir = dir.path();
  StStore durable_store(durable);
  ASSERT_TRUE(durable_store.Setup().ok());
  EXPECT_EQ(durable_store.Reshard(ApproachKind::kHil).code(),
            StatusCode::kNotSupported);
}

TEST(ReshardTest, ConcurrentReshardReturnsAlreadyExists) {
  const std::vector<TestDoc> docs = MakeDocs(1000, 77, 0);
  auto store = LoadedStore(ApproachKind::kBslTS, docs);

  // Stretch the migration window so the second call reliably overlaps.
  FailPoint* fp = FailPointRegistry::Instance().Find("reshardMoveChunk");
  ASSERT_NE(fp, nullptr);
  FailPoint::Config config;
  config.mode = FailPoint::Mode::kAlwaysOn;
  config.delay_ms = 15.0;
  fp->Enable(config);

  Status first;
  std::thread resharder(
      [&] { first = store->Reshard(ApproachKind::kHil); });
  while (!store->resharding()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(store->Reshard(ApproachKind::kBslST).code(),
            StatusCode::kAlreadyExists);
  resharder.join();
  fp->Disable();

  EXPECT_TRUE(first.ok()) << first.ToString();
  EXPECT_EQ(store->approach().kind(), ApproachKind::kHil);
  EXPECT_EQ(QueryFids(*store, kMbr, kT0, kT0 + kSpanMs),
            OracleFids(docs, kMbr, kT0, kT0 + kSpanMs));
}

TEST(ReshardTest, AbortedMigrationLeavesBroadcastButExact) {
  const std::vector<TestDoc> docs = MakeDocs(1000, 13, 0);
  auto store = LoadedStore(ApproachKind::kBslTS, docs);

  // Kill the first per-chunk move: the routing already flipped, so the
  // cluster is left mid-flight — permanently broadcasting, never wrong.
  FailPoint* fp = FailPointRegistry::Instance().Find("reshardMoveChunk");
  ASSERT_NE(fp, nullptr);
  FailPoint::Config config;
  config.mode = FailPoint::Mode::kTimes;
  config.count = 1;
  config.error_code = StatusCode::kInternal;
  config.error_message = "injected fault at reshardMoveChunk";
  fp->Enable(config);
  const Status aborted = store->Reshard(ApproachKind::kHil);
  fp->Disable();
  ASSERT_FALSE(aborted.ok());

  // The store stays resharding: the cluster keeps broadcasting reads and
  // enriching inserts for the target layout.
  EXPECT_TRUE(store->resharding());
  EXPECT_TRUE(store->cluster().resharding());

  // Reads and writes stay exact over the half-migrated data.
  std::vector<TestDoc> extended = docs;
  EXPECT_EQ(QueryFids(*store, kMbr, kT0, kT0 + kSpanMs),
            OracleFids(docs, kMbr, kT0, kT0 + kSpanMs));
  for (const TestDoc& d : MakeDocs(150, 14, 1000)) {
    ASSERT_TRUE(store->Insert(MakeDoc(d)).ok());
    extended.push_back(d);
  }
  const geo::Rect sub{{23.4, 37.7}, {24.0, 38.3}};
  EXPECT_EQ(QueryFids(*store, sub, kT0, kT0 + kSpanMs),
            OracleFids(extended, sub, kT0, kT0 + kSpanMs));

  // A retry is refused while the cluster sits mid-flight — resharding is
  // forward-only, never silently restarted over half-moved chunks.
  EXPECT_EQ(store->Reshard(ApproachKind::kHil).code(),
            StatusCode::kAlreadyExists);
}

TEST(ReshardTest, RacingUnenrichedInsertIsEnrichedByTheCluster) {
  // Models a writer that bypasses the store's own enrichment: the
  // document reaches Cluster::Insert without a hilbertIndex while the
  // migration runs. The cluster-held enrichment callback (the one target-
  // layout enrichment) must add the field before keying, or
  // the doc routes into the null-key chunk and vanishes from post-swap
  // Hilbert queries.
  const std::vector<TestDoc> docs = MakeDocs(800, 55, 0);
  auto store = LoadedStore(ApproachKind::kBslTS, docs);

  FailPoint* fp = FailPointRegistry::Instance().Find("reshardMoveChunk");
  ASSERT_NE(fp, nullptr);
  FailPoint::Config config;
  config.mode = FailPoint::Mode::kAlwaysOn;
  config.delay_ms = 10.0;
  fp->Enable(config);

  Status migrated;
  std::thread resharder(
      [&] { migrated = store->Reshard(ApproachKind::kHil); });
  while (!store->resharding()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Mid-flight, bypass StStore's enrichment entirely: raw cluster insert
  // of a bare location+date document.
  const TestDoc raced{23.71, 38.01, kT0 + kSpanMs / 2, 800};
  bson::Document bare = MakeDoc(raced);
  bare.Append("_id", bson::Value::Int64(999001));
  ASSERT_TRUE(store->cluster().Insert(std::move(bare)).ok());
  resharder.join();
  fp->Disable();
  ASSERT_TRUE(migrated.ok()) << migrated.ToString();

  std::vector<TestDoc> all = docs;
  all.push_back(raced);
  EXPECT_EQ(QueryFids(*store, kMbr, kT0, kT0 + kSpanMs),
            OracleFids(all, kMbr, kT0, kT0 + kSpanMs));
  const geo::Rect tight{{23.70, 38.00}, {23.72, 38.02}};
  EXPECT_EQ(QueryFids(*store, tight, kT0, kT0 + kSpanMs),
            OracleFids(all, tight, kT0, kT0 + kSpanMs));

  // Post-swap, the callback stays installed: even a writer stalled since
  // before the reshard began gets its document enriched.
  const TestDoc late{23.81, 38.11, kT0 + kSpanMs / 3, 801};
  bson::Document stale = MakeDoc(late);
  stale.Append("_id", bson::Value::Int64(999002));
  ASSERT_TRUE(store->cluster().Insert(std::move(stale)).ok());
  all.push_back(late);
  EXPECT_EQ(QueryFids(*store, kMbr, kT0, kT0 + kSpanMs),
            OracleFids(all, kMbr, kT0, kT0 + kSpanMs));
}

TEST(ReshardTest, MigrationUnderConcurrentWritersStaysExact) {
  const std::vector<TestDoc> base = MakeDocs(900, 21, 0);
  auto store = LoadedStore(ApproachKind::kBslTS, base);
  store->cluster().StartBalancer();

  constexpr int kWriters = 3;
  constexpr int kPerWriter = 120;
  std::vector<std::vector<TestDoc>> extra;
  std::vector<TestDoc> all = base;
  for (int w = 0; w < kWriters; ++w) {
    extra.push_back(
        MakeDocs(kPerWriter, 100 + static_cast<uint64_t>(w),
                 900 + w * kPerWriter));
    all.insert(all.end(), extra.back().begin(), extra.back().end());
  }

  std::atomic<bool> write_failed{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (const TestDoc& d : extra[static_cast<size_t>(w)]) {
        if (!store->Insert(MakeDoc(d)).ok()) {
          write_failed.store(true);
          return;
        }
      }
    });
  }
  const Status migrated = store->Reshard(ApproachKind::kHil);
  for (std::thread& w : writers) w.join();
  store->cluster().StopBalancer();

  EXPECT_FALSE(write_failed.load());
  ASSERT_TRUE(migrated.ok()) << migrated.ToString();
  EXPECT_EQ(store->approach().kind(), ApproachKind::kHil);
  EXPECT_EQ(QueryFids(*store, kMbr, kT0, kT0 + kSpanMs),
            OracleFids(all, kMbr, kT0, kT0 + kSpanMs));
  const geo::Rect sub{{23.45, 37.75}, {23.95, 38.25}};
  const int64_t t1 = kT0 + kSpanMs / 2;
  EXPECT_EQ(QueryFids(*store, sub, kT0, t1), OracleFids(all, sub, kT0, t1));
}

TEST(ReshardTest, EveryDocumentLandsOnItsChunkOwner) {
  // The placement invariant of the unified migration: after the reshard,
  // every document sits on the shard its new-key chunk names, however the
  // concurrent inserts and deletes interleaved with the chunk moves.
  const std::vector<TestDoc> base = MakeDocs(1200, 31, 0);
  auto store = LoadedStore(ApproachKind::kBslTS, base, 4);

  // Inserts land in the last half of the span, deletes cover the first
  // quarter, so the outcome does not depend on how they interleave.
  const int64_t delete_end = kT0 + kSpanMs / 4;
  std::vector<TestDoc> inserted = MakeDocs(300, 32, 1200);
  for (TestDoc& d : inserted) {
    d.t_ms = kT0 + kSpanMs / 2 + d.t_ms % (kSpanMs / 2);
  }

  // Stretch the copy so both writers overlap it.
  FailPoint* fp = FailPointRegistry::Instance().Find("reshardMoveChunk");
  ASSERT_NE(fp, nullptr);
  FailPoint::Config config;
  config.mode = FailPoint::Mode::kAlwaysOn;
  config.delay_ms = 2.0;
  fp->Enable(config);

  std::atomic<bool> write_failed{false};
  std::atomic<bool> reshard_done{false};
  std::thread inserter([&] {
    for (const TestDoc& d : inserted) {
      if (!store->Insert(MakeDoc(d)).ok()) write_failed.store(true);
    }
  });
  std::thread deleter([&] {
    // Delete while chunks move under the flipped table.
    while (!store->cluster().resharding() && !reshard_done.load()) {
      std::this_thread::yield();
    }
    if (!store->Delete(kMbr, kT0, delete_end).ok()) write_failed.store(true);
  });
  const Status migrated = store->Reshard(ApproachKind::kHil);
  reshard_done.store(true);
  inserter.join();
  deleter.join();
  fp->Disable();
  ASSERT_TRUE(migrated.ok()) << migrated.ToString();
  EXPECT_FALSE(write_failed.load());

  const cluster::Cluster& cluster = store->cluster();
  for (const auto& shard : cluster.shards()) {
    shard->records().ForEach(
        [&](storage::RecordId, const bson::Document& doc) {
          const std::string key = cluster.shard_key().KeyOf(doc);
          const cluster::ChunkManager& chunks = cluster.chunks();
          EXPECT_EQ(chunks.chunk(chunks.FindChunkIndex(key)).shard_id,
                    shard->id());
        });
  }
  uint64_t chunk_docs = 0;
  for (const cluster::Chunk& c : cluster.chunks().chunks()) {
    chunk_docs += c.docs;
  }
  EXPECT_EQ(chunk_docs, cluster.total_documents());

  std::vector<TestDoc> expected;
  for (const TestDoc& d : base) {
    if (d.t_ms > delete_end) expected.push_back(d);
  }
  expected.insert(expected.end(), inserted.begin(), inserted.end());
  EXPECT_EQ(cluster.total_documents(), expected.size());
  EXPECT_EQ(QueryFids(*store, kMbr, kT0, kT0 + kSpanMs),
            OracleFids(expected, kMbr, kT0, kT0 + kSpanMs));
  const geo::Rect sub{{23.5, 37.8}, {23.9, 38.2}};
  EXPECT_EQ(QueryFids(*store, sub, kT0, kT0 + kSpanMs),
            OracleFids(expected, sub, kT0, kT0 + kSpanMs));
}

}  // namespace
}  // namespace stix::st
