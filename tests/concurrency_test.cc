// Stress tests for the shard-level concurrency control layer: concurrent
// readers, writers and the online balancer on one cluster; interleaved
// getMore/insert on a single shard; and the background balancer's
// lifecycle. These are the tests the TSAN CI job runs — the assertions
// check correctness bounds, and the sanitizer checks the locking.

#include <atomic>
#include <chrono>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "keystring/keystring.h"
#include "query/expression.h"
#include "st/st_store.h"
#include "temp_dir.h"

namespace stix::cluster {
namespace {

using bson::Value;

bson::Document Doc(int id, double lon, double lat, int64_t date_ms) {
  bson::Document doc;
  doc.Append("_id", Value::Int64(id));
  doc.Append("location", Value::MakeDocument(bson::GeoJsonPoint(lon, lat)));
  doc.Append("date", Value::DateTime(date_ms));
  doc.Append("pad", Value::String(std::string(120, 'p')));
  return doc;
}

class ConcurrencyTest : public ::testing::Test {
 protected:
  ClusterOptions Options() {
    ClusterOptions opts;
    opts.num_shards = 4;
    opts.chunk_max_bytes = 8 * 1024;  // plenty of splits
    opts.balance_every_inserts = 200;
    opts.seed = 9;
    opts.balancer.background_interval_ms = 1;
    return opts;
  }

  void ShardOnDate(Cluster* cluster) {
    ASSERT_TRUE(
        cluster
            ->ShardCollection(ShardKeyPattern({"date"}, ShardingStrategy::kRange))
            .ok());
  }

  void Load(Cluster* cluster, int n) {
    Rng rng(77);
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(cluster
                      ->Insert(Doc(i, rng.NextDouble(0, 10),
                                   rng.NextDouble(0, 10), 60000LL * i))
                      .ok());
    }
  }
};

TEST_F(ConcurrencyTest, ReadersWritersAndBalancerRunConcurrently) {
  constexpr int kBase = 1200;
  constexpr int kWriters = 2;
  constexpr int kExtraPerWriter = 300;
  constexpr int kReaders = 3;
  constexpr int kReadsPerReader = 15;

  Cluster cluster(Options());
  ShardOnDate(&cluster);
  Load(&cluster, kBase);
  cluster.Balance();
  cluster.StartBalancer();

  // The query window covers base documents 100..1000; every concurrent
  // insert is dated far beyond it, so each drain must return exactly these
  // 901 ids no matter how the writers and the balancer interleave.
  const query::ExprPtr q = query::MakeRange(
      "date", Value::DateTime(60000LL * 100), Value::DateTime(60000LL * 1000));
  std::set<int64_t> expected;
  for (int64_t id = 100; id <= 1000; ++id) expected.insert(id);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&cluster, &failures, w] {
      Rng rng(1000 + static_cast<uint64_t>(w));
      for (int i = 0; i < kExtraPerWriter; ++i) {
        const int id = kBase + w * kExtraPerWriter + i;
        if (!cluster
                 .Insert(Doc(id, rng.NextDouble(0, 10), rng.NextDouble(0, 10),
                             60000LL * (3000 + id)))
                 .ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&cluster, &q, &expected, &failures] {
      for (int i = 0; i < kReadsPerReader; ++i) {
        CursorOptions copts;
        copts.batch_size = 31;
        const ClusterQueryResult result = cluster.OpenCursor(q, copts)->Drain();
        if (!result.status.ok() || result.docs.size() != expected.size()) {
          failures.fetch_add(1);
          return;
        }
        std::set<int64_t> got;
        for (const bson::Document& d : result.docs) {
          got.insert(d.Get("_id")->AsInt64());
        }
        if (got != expected) {  // set: also catches duplicates via the size
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  cluster.StopBalancer();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(cluster.total_documents(),
            static_cast<uint64_t>(kBase + kWriters * kExtraPerWriter));
  EXPECT_TRUE(cluster.chunks().CheckInvariants());
  const ClusterQueryResult quiesced = cluster.Query(q);
  EXPECT_TRUE(quiesced.status.ok());
  EXPECT_EQ(quiesced.docs.size(), expected.size());
}

TEST_F(ConcurrencyTest, ShardGetMoreAndInsertInterleaveSafely) {
  constexpr int kBase = 800;
  Shard shard(0);
  ASSERT_TRUE(shard.catalog()
                  .CreateIndex(index::IndexDescriptor(
                      "date_1", {{"date", index::IndexFieldKind::kAscending}}))
                  .ok());
  Rng rng(13);
  for (int i = 0; i < kBase; ++i) {
    ASSERT_TRUE(shard
                    .Insert(Doc(i, rng.NextDouble(0, 10), rng.NextDouble(0, 10),
                                60000LL * i))
                    .ok());
  }

  // Writer splits btree leaves beyond the scan bounds while the main thread
  // streams in small batches, yielding between them. The scan's
  // bounds exclude every inserted key, so the drain is exactly the 501
  // pre-existing matches.
  const query::ExprPtr q = query::MakeRange("date", Value::DateTime(0),
                                            Value::DateTime(60000LL * 500));
  std::atomic<bool> write_failed{false};
  std::thread writer([&shard, &write_failed] {
    Rng wrng(29);
    for (int i = 0; i < 400; ++i) {
      const int id = 10000 + i;
      if (!shard
               .Insert(Doc(id, wrng.NextDouble(0, 10), wrng.NextDouble(0, 10),
                           60000LL * id))
               .ok()) {
        write_failed.store(true);
        return;
      }
    }
  });

  std::set<int64_t> streamed;
  size_t total = 0;
  auto cursor = shard.OpenCursor(q, {});
  while (!cursor->exhausted()) {
    const ShardCursor::Batch batch = cursor->GetMore(/*batch_size=*/9);
    ASSERT_TRUE(batch.error.ok());
    for (const bson::Document& d : batch.docs) {
      streamed.insert(d.Get("_id")->AsInt64());
      ++total;
    }
  }
  writer.join();
  ASSERT_FALSE(write_failed.load());

  EXPECT_EQ(total, 501u);  // no duplicates across yield/restore boundaries
  EXPECT_EQ(streamed.size(), 501u);
  EXPECT_EQ(*streamed.begin(), 0);
  EXPECT_EQ(*streamed.rbegin(), 500);
}

TEST_F(ConcurrencyTest, BalancerLifecycleIsIdempotentAndRestartable) {
  Cluster cluster(Options());
  // Starting before the collection is sharded is safe: rounds no-op until a
  // chunk table exists.
  cluster.StartBalancer();
  cluster.StartBalancer();  // idempotent
  EXPECT_TRUE(cluster.balancer_running());
  cluster.StopBalancer();
  cluster.StopBalancer();  // idempotent
  EXPECT_FALSE(cluster.balancer_running());

  ShardOnDate(&cluster);
  Load(&cluster, 300);
  cluster.StartBalancer();
  EXPECT_TRUE(cluster.balancer_running());
  cluster.StopBalancer();
  EXPECT_FALSE(cluster.balancer_running());

  // Left running: the destructor must stop and join it.
  cluster.StartBalancer();
  EXPECT_TRUE(cluster.balancer_running());
}

// OS threads in this process, from /proc (Linux); -1 where unavailable.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST_F(ConcurrencyTest, BalancerIsTheOnlyThreadAClusterStarts) {
  const int before = ProcessThreads();
  if (before < 0) GTEST_SKIP() << "no /proc/self/status thread count";
  Cluster cluster(Options());
  ShardOnDate(&cluster);
  Load(&cluster, 300);
  ASSERT_GT(cluster.TargetShards(query::MakeAnd({})).size(), 1u);
  (void)cluster.Query(query::MakeAnd({}));  // a multi-shard fan-out
  EXPECT_EQ(ProcessThreads(), before);
  cluster.StartBalancer();
  EXPECT_EQ(ProcessThreads(), before + 1);
  cluster.StopBalancer();
  EXPECT_EQ(ProcessThreads(), before);
}

TEST_F(ConcurrencyTest, BackgroundBalancerCommitsMigrations) {
  ClusterOptions opts = Options();
  opts.balance_every_inserts = 0;  // only the background thread moves chunks
  Cluster cluster(opts);
  ShardOnDate(&cluster);
  Load(&cluster, 1500);  // splits pile every chunk onto shard 0

  Counter& committed =
      MetricsRegistry::Instance().GetCounter("balancer.migrations_committed");
  const uint64_t before = committed.value();
  cluster.StartBalancer();
  for (int i = 0; i < 5000 && committed.value() == before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cluster.StopBalancer();

  EXPECT_GT(committed.value(), before);
  EXPECT_EQ(cluster.total_documents(), 1500u);
  EXPECT_TRUE(cluster.chunks().CheckInvariants());
  int shards_with_data = 0;
  for (const auto& shard : cluster.shards()) {
    if (shard->num_documents() > 0) ++shards_with_data;
  }
  EXPECT_GE(shards_with_data, 2);
  const ClusterQueryResult all = cluster.Query(query::MakeRange(
      "date", Value::DateTime(0), Value::DateTime(60000LL * 1500)));
  EXPECT_TRUE(all.status.ok());
  EXPECT_EQ(all.docs.size(), 1500u);
}

// Targeting reads the published routing snapshot, not topology_mu_: a
// cursor on one shard completes while an insert into another shard sits
// inside its exclusive topology hold (stalled in its WAL commit).
TEST_F(ConcurrencyTest, ReaderDoesNotWaitForTopologyWriter) {
  const stix::testing::TempDir dir;
  ClusterOptions opts;
  opts.num_shards = 2;
  opts.balance_every_inserts = 0;  // the writer below only writes
  opts.durability.data_dir = dir.path();
  Cluster cluster(opts);
  ShardOnDate(&cluster);
  // Dates before minute 100 live on shard 0, the rest on shard 1.
  constexpr int64_t kMinute = 60000;
  bson::Document probe;
  probe.Append("date", Value::DateTime(100 * kMinute));
  const std::string split = cluster.shard_key().KeyOf(probe);
  ASSERT_TRUE(cluster
                  .SetZones({ZoneRange{keystring::MinKey(), split, 0},
                             ZoneRange{split, keystring::MaxKey(), 1}})
                  .ok());
  Load(&cluster, 200);
  const query::ExprPtr upper = query::MakeRange(
      "date", Value::DateTime(100 * kMinute), Value::DateTime(200 * kMinute));
  ASSERT_EQ(cluster.TargetShards(upper), std::vector<int>{1});

  constexpr double kStallMs = 400.0;
  FailPoint* stall = FailPointRegistry::Instance().Find("walBeforeCommit");
  ASSERT_NE(stall, nullptr);
  FailPoint::Config delay_only;
  delay_only.mode = FailPoint::Mode::kTimes;
  delay_only.count = 1;
  delay_only.delay_ms = kStallMs;
  stall->Enable(delay_only);

  std::atomic<bool> writer_done{false};
  Status write_status;
  std::thread writer([&] {
    // Minute 10 routes to shard 0; the commit stalls under the exclusive
    // topology hold and shard 0's data lock.
    write_status = cluster.Insert(Doc(10000, 1.0, 1.0, 10 * kMinute));
    writer_done.store(true);
  });
  while (stall->times_entered() == 0) std::this_thread::yield();

  Stopwatch timer;
  std::unique_ptr<ClusterCursor> cursor = cluster.OpenCursor(upper);
  size_t returned = 0;
  for (std::vector<bson::Document> batch = cursor->NextBatch(); !batch.empty();
       batch = cursor->NextBatch()) {
    for (const bson::Document& doc : batch) {
      const int64_t date = doc.Get("date")->AsDateTime();
      EXPECT_GE(date, 100 * kMinute);
      EXPECT_LE(date, 200 * kMinute);
    }
    returned += batch.size();
  }
  const double reader_ms = timer.ElapsedMillis();
  const bool writer_finished_first = writer_done.load();
  writer.join();
  stall->Disable();

  EXPECT_TRUE(cursor->status().ok());
  EXPECT_EQ(returned, 100u);  // minutes 100..199, exactly
  EXPECT_FALSE(writer_finished_first)
      << "the reader waited for the stalled insert";
  EXPECT_LT(reader_ms, kStallMs / 2);
  EXPECT_TRUE(write_status.ok()) << write_status.ToString();
  EXPECT_EQ(cluster.total_documents(), 201u);
}

// The StStore twin: a small-rectangle query decides its cover budget from
// the rectangle and reads no shard statistics and no topology lock before
// its cursor opens, so it completes on one shard while an insert into the
// other sits inside its exclusive topology hold.
TEST_F(ConcurrencyTest, StoreQueryDoesNotWaitForTopologyWriter) {
  const stix::testing::TempDir dir;
  st::StStoreOptions options;
  options.approach.kind = st::ApproachKind::kHil;
  options.cluster.num_shards = 2;
  options.cluster.balance_every_inserts = 0;  // the writer below only writes
  options.cluster.durability.data_dir = dir.path();
  st::StStore store(options);
  ASSERT_TRUE(store.Setup().ok());
  // Two fleets in opposite quadrants of the globe, so on opposite sides of
  // a hilbertIndex zone boundary: each fleet gets a shard of its own.
  const geo::Rect west{{-100.0, -40.0}, {-90.0, -30.0}};
  const geo::Rect east{{90.0, 30.0}, {100.0, 40.0}};
  constexpr int64_t kMinute = 60000;
  constexpr int kPerFleet = 150;
  const st::Approach& ap = store.approach();
  const auto hilbert_of = [&ap](double lon, double lat) {
    bson::Document doc;
    doc.Append(st::kLocationField,
               Value::MakeDocument(bson::GeoJsonPoint(lon, lat)));
    EXPECT_TRUE(ap.EnrichDocument(&doc).ok());
    return doc.Get(st::kHilbertField)->AsInt64();
  };
  const int64_t west_hil = hilbert_of(west.hi.lon, west.hi.lat);
  const int64_t east_hil = hilbert_of(east.lo.lon, east.lo.lat);
  bson::Document probe;
  probe.Append(st::kHilbertField, Value::Int64((west_hil + east_hil) / 2));
  probe.Append(st::kDateField, Value::DateTime(0));
  const std::string split = store.cluster().shard_key().KeyOf(probe);
  ASSERT_TRUE(store.cluster()
                  .SetZones({cluster::ZoneRange{keystring::MinKey(), split, 0},
                             cluster::ZoneRange{split, keystring::MaxKey(), 1}})
                  .ok());
  Rng rng(83);
  for (int i = 0; i < 2 * kPerFleet; ++i) {
    const geo::Rect& fleet = i % 2 == 0 ? west : east;
    bson::Document doc;
    doc.Append(st::kLocationField,
               Value::MakeDocument(bson::GeoJsonPoint(
                   rng.NextDouble(fleet.lo.lon, fleet.hi.lon),
                   rng.NextDouble(fleet.lo.lat, fleet.hi.lat))));
    doc.Append(st::kDateField, Value::DateTime(kMinute * i));
    ASSERT_TRUE(store.Insert(std::move(doc)).ok());
  }
  const int64_t t_end = kMinute * 2 * kPerFleet;
  const std::vector<int> east_shards = store.cluster().TargetShards(
      ap.TranslateQuery(east, 0, t_end).expr);
  const std::vector<int> west_shards = store.cluster().TargetShards(
      ap.TranslateQuery(west, 0, t_end).expr);
  ASSERT_EQ(east_shards.size(), 1u);
  ASSERT_EQ(west_shards.size(), 1u);
  ASSERT_NE(east_shards, west_shards);
  const size_t east_docs = store.Query(east, 0, t_end).cluster.docs.size();
  ASSERT_EQ(east_docs, static_cast<size_t>(kPerFleet));

  constexpr double kStallMs = 400.0;
  FailPoint* stall = FailPointRegistry::Instance().Find("walBeforeCommit");
  ASSERT_NE(stall, nullptr);
  FailPoint::Config delay_only;
  delay_only.mode = FailPoint::Mode::kTimes;
  delay_only.count = 1;
  delay_only.delay_ms = kStallMs;
  stall->Enable(delay_only);

  std::atomic<bool> writer_done{false};
  Status write_status;
  std::thread writer([&] {
    // A west point: its commit stalls under the exclusive topology hold
    // and the west shard's data lock.
    bson::Document doc;
    doc.Append(st::kLocationField,
               Value::MakeDocument(bson::GeoJsonPoint(-95.0, -35.0)));
    doc.Append(st::kDateField, Value::DateTime(kMinute));
    write_status = store.Insert(std::move(doc));
    writer_done.store(true);
  });
  while (stall->times_entered() == 0) std::this_thread::yield();

  Stopwatch timer;
  const st::StQueryResult res = store.Query(east, 0, t_end);
  const double reader_ms = timer.ElapsedMillis();
  const bool writer_finished_first = writer_done.load();
  writer.join();
  stall->Disable();

  EXPECT_TRUE(res.cluster.status.ok());
  EXPECT_EQ(res.cluster.docs.size(), east_docs);
  EXPECT_FALSE(writer_finished_first)
      << "the query waited for the stalled insert";
  EXPECT_LT(reader_ms, kStallMs / 2);
  EXPECT_TRUE(write_status.ok()) << write_status.ToString();
  EXPECT_EQ(store.cluster().total_documents(), 2u * kPerFleet + 1);
}

TEST_F(ConcurrencyTest, IntrospectionDuringReshardIsRaceFree) {
  // A reshard's prepare phase rewrites stored documents (Remove, then
  // RestoreAt) and creates indexes under each shard's data lock alone, so
  // the introspection readers must hold that lock too: ThreadSanitizer
  // flags any read of records or catalogs without it, and a count taken
  // mid-rewrite comes up one short.
  constexpr int kDocs = 3000;
  st::StStoreOptions options;
  options.approach.kind = st::ApproachKind::kBslTS;
  options.approach.dataset_mbr = geo::Rect{{0, 0}, {10, 10}};
  options.cluster.num_shards = 4;
  options.cluster.chunk_max_bytes = 16 * 1024;
  options.cluster.balance_every_inserts = 0;
  st::StStore store(options);
  ASSERT_TRUE(store.Setup().ok());
  Rng rng(31);
  for (int i = 0; i < kDocs; ++i) {
    bson::Document doc;
    doc.Append(st::kLocationField,
               Value::MakeDocument(bson::GeoJsonPoint(rng.NextDouble(0, 10),
                                                      rng.NextDouble(0, 10))));
    doc.Append(st::kDateField, Value::DateTime(60000LL * i));
    ASSERT_TRUE(store.Insert(std::move(doc)).ok());
  }
  ASSERT_TRUE(store.FinishLoad().ok());
  const Cluster& cluster = store.cluster();

  std::atomic<bool> done{false};
  std::atomic<int> rounds{0};
  std::atomic<int> miscounts{0};
  std::thread reader([&] {
    int nq = 0;
  bool printed = false;
  while (!done.load()) {
    ++nq;
    { Status fs = store.FlushBuckets(); if (!fs.ok() && !printed) { printed = true; fprintf(stderr, "DBG flush error: %s\n", fs.ToString().c_str()); } }
      if (cluster.total_documents() != kDocs) miscounts.fetch_add(1);
      if (cluster.ComputeDataStats().num_documents != kDocs) {
        miscounts.fetch_add(1);
      }
      (void)cluster.ComputeIndexSizes();
      rounds.fetch_add(1);
    }
  });
  while (rounds.load() == 0) std::this_thread::yield();
  const Status resharded = store.Reshard(st::ApproachKind::kHil);
  done.store(true);
  reader.join();

  ASSERT_TRUE(resharded.ok()) << resharded.ToString();
  EXPECT_EQ(miscounts.load(), 0);
  EXPECT_EQ(cluster.total_documents(), static_cast<uint64_t>(kDocs));
  EXPECT_GT(cluster.ComputeIndexSizes().count("hilbertIndex_1_date_1"), 0u);
}

// An auto-checkpoint replaces a shard's log under the shard's exclusive
// data lock, while a durable bucketed query's bucket flush syncs every
// shard's log (Cluster::SyncWals), so the sync takes the lock shared.
// Background-balancer migrations checkpoint outside the store's journal
// lock, beside the querying thread's flushes.
TEST_F(ConcurrencyTest, AutoCheckpointBesideBucketFlushes) {
  const stix::testing::TempDir dir;
  st::StStoreOptions options;
  options.approach.kind = st::ApproachKind::kHil;
  options.cluster.num_shards = 3;
  options.cluster.chunk_max_bytes = 4 * 1024;
  options.cluster.balance_every_inserts = 0;  // the background balancer
  options.cluster.balancer.background_interval_ms = 1;
  options.cluster.durability.data_dir = dir.path();
  options.cluster.durability.checkpoint_wal_bytes = 1024;
  storage::BucketLayout layout;
  layout.window_ms = 3600 * 1000;
  layout.max_points = 8;
  options.bucket = layout;
  st::StStore store(options);
  ASSERT_TRUE(store.Setup().ok());
  Counter& written =
      MetricsRegistry::Instance().GetCounter("checkpoint.written");
  const uint64_t written_before = written.value();
  store.cluster().StartBalancer();

  constexpr int kPoints = 600;
  const geo::Rect everywhere{{-1, -1}, {11, 11}};
  const int64_t t_end = 60000LL * kPoints;
  std::atomic<int> queries{0};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng rng(5);
    for (int i = 0; i < kPoints; ++i) {
      bson::Document doc;
      doc.Append(st::kLocationField,
                 Value::MakeDocument(bson::GeoJsonPoint(
                     rng.NextDouble(0, 10), rng.NextDouble(0, 10))));
      doc.Append(st::kDateField, Value::DateTime(60000LL * i));
      doc.Append("vehicleId", Value::Int32(i % 7));
      EXPECT_TRUE(store.Insert(std::move(doc)).ok()) << "point " << i;
      // Every 50 points, wait for one more query: its bucket flush moves
      // the buffered points into the shards while migrations run.
      if (i % 50 == 49) {
        const int seen = queries.load();
        while (queries.load() == seen) std::this_thread::yield();
      }
    }
    done.store(true);
  });
  while (!done.load()) {
    EXPECT_TRUE(store.Query(everywhere, 0, t_end).cluster.status.ok());
    queries.fetch_add(1);
  }
  writer.join();
  store.cluster().StopBalancer();
  EXPECT_GT(written.value(), written_before);
  EXPECT_EQ(store.Query(everywhere, 0, t_end).cluster.docs.size(),
            static_cast<size_t>(kPoints));
}

}  // namespace
}  // namespace stix::cluster
