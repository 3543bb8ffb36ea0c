// Tests for the streaming execution path: the pull-based PlanExecutor, the
// shard getMore protocol, the batched scatter-gather merge, limit pushdown,
// and the borrow guards that police zero-copy document lifetimes. The
// anchor invariant throughout: an unlimited cursor drain reproduces the
// classic run-to-completion Query() results and metrics exactly, at every
// batch size.

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "index/index_catalog.h"
#include "query/executor.h"
#include "query/expression.h"
#include "query/plan_cache.h"
#include "st/knn.h"
#include "st/st_store.h"
#include "storage/record_store.h"

// ---------- PlanExecutor: pull-based shard-local execution ----------

namespace stix::query {
namespace {

using bson::Value;

bson::Document PointDoc(int id, double lon, double lat, int64_t date_ms,
                        int64_t hilbert) {
  bson::Document doc;
  doc.Append("id", Value::Int32(id));
  doc.Append("location",
             Value::MakeDocument(bson::GeoJsonPoint(lon, lat)));
  doc.Append("date", Value::DateTime(date_ms));
  doc.Append("hilbertIndex", Value::Int64(hilbert));
  return doc;
}

// Same data and index layout as QueryExecTest: three candidate indexes so
// every execution exercises the multi-plan race / plan cache machinery.
class PlanExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(99);
    for (int i = 0; i < 2000; ++i) {
      const double lon = rng.NextDouble(0, 10);
      const double lat = rng.NextDouble(0, 10);
      const int64_t date = 60000LL * i;
      const int64_t h = static_cast<int64_t>(lon);
      records_.Insert(PointDoc(i, lon, lat, date, h));
    }
    ASSERT_TRUE(catalog_
                    .CreateIndex(index::IndexDescriptor(
                        "date_1",
                        {{"date", index::IndexFieldKind::kAscending}}))
                    .ok());
    ASSERT_TRUE(
        catalog_
            .CreateIndex(index::IndexDescriptor(
                "h_1_date_1",
                {{"hilbertIndex", index::IndexFieldKind::kAscending},
                 {"date", index::IndexFieldKind::kAscending}}))
            .ok());
    ASSERT_TRUE(
        catalog_
            .CreateIndex(index::IndexDescriptor(
                "loc_2dsphere_date_1",
                {{"location", index::IndexFieldKind::k2dsphere},
                 {"date", index::IndexFieldKind::kAscending}}))
            .ok());
    records_.ForEach([&](storage::RecordId rid, const bson::Document& doc) {
      ASSERT_TRUE(catalog_.OnInsert(doc, rid).ok());
    });
  }

  ExprPtr SpatioTemporalQuery() const {
    return MakeAnd(
        {MakeGeoWithinBox("location", {{2, 2}, {4, 6}}),
         MakeRange("date", Value::DateTime(0),
                   Value::DateTime(60000LL * 1500))});
  }

  std::set<int> NaiveIds(const ExprPtr& expr) const {
    std::set<int> ids;
    records_.ForEach([&](storage::RecordId, const bson::Document& doc) {
      if (expr->Matches(doc)) ids.insert(doc.Get("id")->AsInt32());
    });
    return ids;
  }

  // Ids in production order (order parity matters for the cursor path).
  static std::vector<int> OrderedIds(
      const std::vector<const bson::Document*>& docs) {
    std::vector<int> ids;
    ids.reserve(docs.size());
    for (const bson::Document* d : docs) ids.push_back(d->Get("id")->AsInt32());
    return ids;
  }

  // Drains a PlanExecutor pull by pull, collecting ids in stream order.
  static std::vector<int> DrainIds(PlanExecutor* exec) {
    std::vector<int> ids;
    storage::RecordId rid;
    const bson::Document* doc = nullptr;
    while (exec->Next(&rid, &doc)) ids.push_back(doc->Get("id")->AsInt32());
    return ids;
  }

  storage::RecordStore records_;
  index::IndexCatalog catalog_;
};

TEST_F(PlanExecutorTest, StreamMatchesBatchExecution) {
  const ExprPtr q = SpatioTemporalQuery();
  const ExecutionResult batch = ExecuteQuery(records_, catalog_, q);

  PlanExecutor exec(records_, catalog_, q);
  const std::vector<int> streamed = DrainIds(&exec);

  EXPECT_TRUE(exec.exhausted());
  EXPECT_EQ(streamed, OrderedIds(batch.docs));
  EXPECT_EQ(exec.winning_index(), batch.winning_index);
  EXPECT_EQ(exec.num_candidates(), batch.num_candidates);

  const ExecStats s = exec.CurrentStats();
  EXPECT_EQ(s.keys_examined, batch.stats.keys_examined);
  EXPECT_EQ(s.docs_examined, batch.stats.docs_examined);
  EXPECT_EQ(s.works, batch.stats.works);
  EXPECT_EQ(s.n_returned, batch.stats.n_returned);
  EXPECT_EQ(s.plan_summary, batch.stats.plan_summary);
  EXPECT_EQ(exec.n_returned(), batch.docs.size());
}

TEST_F(PlanExecutorTest, LimitStopsStreamAndExaminesStrictlyLess) {
  const ExprPtr q = SpatioTemporalQuery();
  const ExecutionResult full = ExecuteQuery(records_, catalog_, q);
  ASSERT_GT(full.docs.size(), 5u);

  PlanExecutor limited(records_, catalog_, q, {}, nullptr, /*limit=*/5);
  const std::vector<int> ids = DrainIds(&limited);

  EXPECT_EQ(ids.size(), 5u);
  EXPECT_TRUE(limited.exhausted());
  // The first five of the full stream, in order.
  const std::vector<int> full_ids = OrderedIds(full.docs);
  EXPECT_TRUE(std::equal(ids.begin(), ids.end(), full_ids.begin()));
  // Early termination is real: strictly less examined and worked.
  const ExecStats s = limited.CurrentStats();
  EXPECT_LT(s.docs_examined, full.stats.docs_examined);
  EXPECT_LT(s.works, full.stats.works);
}

TEST_F(PlanExecutorTest, CachedPlanStreamsWithoutRerace) {
  const ExprPtr q = SpatioTemporalQuery();
  PlanCache cache;
  const ExecutionResult first = ExecuteQuery(records_, catalog_, q, {}, &cache);
  ASSERT_EQ(cache.size(), 1u);

  PlanExecutor exec(records_, catalog_, q, {}, &cache);
  const std::vector<int> streamed = DrainIds(&exec);
  EXPECT_TRUE(exec.from_plan_cache());
  EXPECT_FALSE(exec.replanned());
  EXPECT_EQ(streamed, OrderedIds(first.docs));
  EXPECT_EQ(exec.winning_index(), first.winning_index);
  // The cached stream does not pay the losing plans' trial work.
  EXPECT_LE(exec.CurrentStats().works, first.stats.works);
}

TEST_F(PlanExecutorTest, LimitAbandonedStreamDoesNotPoisonCache) {
  // A limit-k stream ends before the winner reaches EOF, so its partial
  // works figure must not be stored — it would shrink the replan budget for
  // every later execution of the shape.
  const ExprPtr q = SpatioTemporalQuery();
  PlanCache cache;
  PlanExecutor limited(records_, catalog_, q, {}, &cache, /*limit=*/3);
  EXPECT_EQ(DrainIds(&limited).size(), 3u);
  EXPECT_EQ(cache.size(), 0u);

  // A full drain afterwards races and stores as if the limit run never
  // happened.
  const ExecutionResult full = ExecuteQuery(records_, catalog_, q, {}, &cache);
  EXPECT_FALSE(full.from_plan_cache);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(PlanExecutorTest, MidStreamReplanRecoversFromPoisonedCache) {
  // Poison the cache with the date index and a works figure of 1: the first
  // pulls drain the cached plan, blow the tiny budget, and the executor
  // must re-race mid-stream without disturbing the already-streamed state.
  const ExprPtr q = SpatioTemporalQuery();
  PlanCache cache;
  cache.Store(QueryShape(*q), "date_1", /*works=*/1);

  ExecutorOptions options;
  options.replan_min_works = 1;  // budget = max(1, 10 * 1) = 10 works
  PlanExecutor exec(records_, catalog_, q, options, &cache);
  std::vector<int> streamed = DrainIds(&exec);

  EXPECT_TRUE(exec.replanned());
  EXPECT_FALSE(exec.from_plan_cache());
  EXPECT_EQ(exec.winning_index(), "loc_2dsphere_date_1");
  EXPECT_EQ(std::set<int>(streamed.begin(), streamed.end()), NaiveIds(q));

  // The re-race refreshed the cache entry.
  const ExecutionResult again = ExecuteQuery(records_, catalog_, q, {}, &cache);
  EXPECT_TRUE(again.from_plan_cache);
  EXPECT_FALSE(again.replanned);
}

TEST_F(PlanExecutorTest, GenerationCounterTracksMutations) {
  storage::RecordStore store;
  const uint64_t g0 = store.generation();
  const storage::RecordId rid = store.Insert(PointDoc(1, 0, 0, 0, 0));
  EXPECT_EQ(store.generation(), g0 + 1);
  store.Insert(PointDoc(2, 0, 0, 0, 0));
  EXPECT_EQ(store.generation(), g0 + 2);
  ASSERT_TRUE(store.Remove(rid));
  EXPECT_EQ(store.generation(), g0 + 3);
}

TEST_F(PlanExecutorTest, BorrowGuardFlipsWhenStoreMutates) {
  const ExprPtr q =
      MakeRange("date", Value::DateTime(60000LL * 10),
                Value::DateTime(60000LL * 20));
  ExecutionResult r = ExecuteQuery(records_, catalog_, q);
  ASSERT_GT(r.docs.size(), 0u);
  EXPECT_EQ(r.borrow_source, &records_);
  EXPECT_TRUE(r.BorrowsValid());
  // Materializing while valid is fine.
  EXPECT_EQ(r.MaterializeDocs().size(), r.docs.size());

  records_.Insert(PointDoc(9999, 1, 1, 1, 1));
  EXPECT_FALSE(r.BorrowsValid());
}

}  // namespace
}  // namespace stix::query

// ---------- ShardCursor: the getMore protocol on one shard ----------

namespace stix::cluster {
namespace {

using bson::Value;
using query::CmpOp;
using query::ExprPtr;

bson::Document ShardDoc(int id, double lon, double lat, int64_t date_ms) {
  bson::Document doc;
  doc.Append("id", Value::Int32(id));
  doc.Append("location",
             Value::MakeDocument(bson::GeoJsonPoint(lon, lat)));
  doc.Append("date", Value::DateTime(date_ms));
  return doc;
}

class ShardCursorTest : public ::testing::Test {
 protected:
  static constexpr int kDocs = 1200;

  void SetUp() override {
    ASSERT_TRUE(shard_.catalog()
                    .CreateIndex(index::IndexDescriptor(
                        "date_1",
                        {{"date", index::IndexFieldKind::kAscending}}))
                    .ok());
    ASSERT_TRUE(
        shard_.catalog()
            .CreateIndex(index::IndexDescriptor(
                "loc_2dsphere_date_1",
                {{"location", index::IndexFieldKind::k2dsphere},
                 {"date", index::IndexFieldKind::kAscending}}))
            .ok());
    Rng rng(31);
    for (int i = 0; i < kDocs; ++i) {
      ASSERT_TRUE(shard_
                      .Insert(ShardDoc(i, rng.NextDouble(0, 10),
                                       rng.NextDouble(0, 10), 60000LL * i))
                      .ok());
    }
  }

  std::set<int> NaiveIds(const ExprPtr& expr) const {
    std::set<int> ids;
    shard_.collection().records().ForEach(
        [&](storage::RecordId, const bson::Document& doc) {
          if (expr->Matches(doc)) ids.insert(doc.Get("id")->AsInt32());
        });
    return ids;
  }

  Shard shard_{0};
};

TEST_F(ShardCursorTest, GetMoreBatchesReassembleTheFullResult) {
  const ExprPtr q =
      query::MakeRange("date", Value::DateTime(60000LL * 100),
                       Value::DateTime(60000LL * 400));
  // Reference: the same query drained in one unbounded getMore.
  const auto full = shard_.OpenCursor(q, {});
  const ShardCursor::Batch reference = full->GetMore(0);
  ASSERT_TRUE(full->exhausted());
  const std::set<int> expected = NaiveIds(q);
  ASSERT_EQ(expected.size(), 301u);

  auto cursor = shard_.OpenCursor(q, {});
  std::set<int> streamed;
  size_t batches = 0;
  while (!cursor->exhausted()) {
    const ShardCursor::Batch batch = cursor->GetMore(/*batch_size=*/7);
    EXPECT_LE(batch.docs.size(), 7u);
    ASSERT_EQ(batch.docs.size(), batch.rids.size());
    for (const bson::Document& d : batch.docs) {
      streamed.insert(d.Get("id")->AsInt32());
    }
    ++batches;
    if (batch.exhausted) {
      EXPECT_TRUE(cursor->exhausted());
    }
  }
  EXPECT_EQ(streamed, expected);
  EXPECT_GT(batches, 1u);
  EXPECT_EQ(cursor->n_returned(), reference.docs.size());
  EXPECT_EQ(cursor->winning_index(), full->winning_index());
  EXPECT_EQ(cursor->stats().n_returned, full->stats().n_returned);
  EXPECT_GT(cursor->exec_millis(), 0.0);
}

TEST_F(ShardCursorTest, ReplansMidStreamWhenCachedPlanBlowsBudget) {
  // Cache the compound geo plan with a tiny selective query, then stream
  // the same shape with a huge box and a narrow time window in small
  // batches: the cached plan blows its works budget mid-stream and the
  // cursor must re-race to the date index without dropping documents.
  const ExprPtr small_q = query::MakeAnd(
      {query::MakeGeoWithinBox("location", {{2.0, 2.0}, {2.3, 2.3}}),
       query::MakeRange("date", Value::DateTime(0),
                        Value::DateTime(60000LL * kDocs))});
  const auto small = shard_.OpenCursor(small_q, {});
  (void)small->GetMore(0);
  ASSERT_EQ(small->winning_index(), "loc_2dsphere_date_1");

  const ExprPtr big_q = query::MakeAnd(
      {query::MakeGeoWithinBox("location", {{-1, -1}, {11, 11}}),
       query::MakeRange("date", Value::DateTime(60000LL * 1000),
                        Value::DateTime(60000LL * 1010))});
  query::ExecutorOptions options;
  options.replan_min_works = 50;
  auto cursor = shard_.OpenCursor(big_q, options);
  std::set<int> streamed;
  while (!cursor->exhausted()) {
    for (const bson::Document& d : cursor->GetMore(/*batch_size=*/3).docs) {
      streamed.insert(d.Get("id")->AsInt32());
    }
  }
  EXPECT_TRUE(cursor->replanned());
  EXPECT_EQ(cursor->winning_index(), "date_1");
  EXPECT_EQ(streamed, NaiveIds(big_q));
}

// ---------- ClusterCursor: batched scatter-gather merge ----------

class ClusterCursorTest : public ::testing::Test {
 protected:
  static constexpr int kDocs = 1200;

  ClusterOptions Options() {
    ClusterOptions opts;
    opts.num_shards = 4;
    opts.chunk_max_bytes = 8 * 1024;
    opts.balance_every_inserts = 500;
    opts.seed = 5;
    return opts;
  }

  bson::Document Doc(int id, double lon, double lat, int64_t date_ms) {
    bson::Document doc;
    doc.Append("_id", Value::Int64(id));
    doc.Append("location",
               Value::MakeDocument(bson::GeoJsonPoint(lon, lat)));
    doc.Append("date", Value::DateTime(date_ms));
    doc.Append("pad", Value::String(std::string(120, 'p')));
    return doc;
  }

  void BuildAndLoad(Cluster* cluster) {
    ASSERT_TRUE(cluster
                    ->ShardCollection(ShardKeyPattern(
                        {"date"}, ShardingStrategy::kRange))
                    .ok());
    Rng rng(77);
    for (int i = 0; i < kDocs; ++i) {
      ASSERT_TRUE(cluster
                      ->Insert(Doc(i, rng.NextDouble(0, 10),
                                   rng.NextDouble(0, 10), 60000LL * i))
                      .ok());
    }
  }

  static std::multiset<int64_t> Ids(const std::vector<bson::Document>& docs) {
    std::multiset<int64_t> ids;
    for (const bson::Document& d : docs) ids.insert(d.Get("_id")->AsInt64());
    return ids;
  }

  ExprPtr WideQuery() const {
    return query::MakeRange("date", Value::DateTime(60000LL * 100),
                            Value::DateTime(60000LL * 1000));
  }
};

TEST_F(ClusterCursorTest, DrainMatchesExecuteAtEveryBatchSize) {
  Cluster cluster(Options());
  BuildAndLoad(&cluster);
  const ExprPtr q = WideQuery();
  const ClusterQueryResult reference = cluster.Query(q);
  ASSERT_EQ(reference.docs.size(), 901u);
  EXPECT_EQ(reference.n_returned, reference.docs.size());

  for (const size_t batch : {size_t{1}, size_t{7}, size_t{101}, size_t{0}}) {
    CursorOptions copts;
    copts.batch_size = batch;
    auto cursor = cluster.OpenCursor(q, copts);
    const ClusterQueryResult r = cursor->Drain();
    SCOPED_TRACE(testing::Message() << "batch_size=" << batch);

    EXPECT_EQ(Ids(r.docs), Ids(reference.docs));
    EXPECT_EQ(r.n_returned, reference.n_returned);
    EXPECT_EQ(r.nodes_contacted, reference.nodes_contacted);
    EXPECT_EQ(r.total_keys_examined, reference.total_keys_examined);
    EXPECT_EQ(r.total_docs_examined, reference.total_docs_examined);
    EXPECT_EQ(r.max_keys_examined, reference.max_keys_examined);
    EXPECT_EQ(r.max_docs_examined, reference.max_docs_examined);
    EXPECT_EQ(r.bytes_materialized, reference.bytes_materialized);
    EXPECT_GE(r.first_result_millis, 0.0);
    if (batch == 0) {
      EXPECT_EQ(r.num_batches, 1);
      // Cluster::Query is exactly open + drain with batch size 0, so even
      // the document order matches.
      EXPECT_EQ(r.docs.size(), reference.docs.size());
      for (size_t i = 0; i < r.docs.size(); ++i) {
        EXPECT_EQ(r.docs[i].Get("_id")->AsInt64(),
                  reference.docs[i].Get("_id")->AsInt64());
      }
    } else if (batch == 1) {
      EXPECT_GT(r.num_batches, 1);
    }
  }
}

TEST_F(ClusterCursorTest, LimitPushdownExaminesStrictlyFewerDocs) {
  Cluster cluster(Options());
  BuildAndLoad(&cluster);
  const ExprPtr q = WideQuery();
  const ClusterQueryResult full = cluster.Query(q);
  ASSERT_GT(full.docs.size(), 25u);

  CursorOptions copts;
  copts.batch_size = 101;
  copts.limit = 25;
  const ClusterQueryResult limited = cluster.OpenCursor(q, copts)->Drain();
  EXPECT_EQ(limited.docs.size(), 25u);
  EXPECT_EQ(limited.n_returned, 25u);
  EXPECT_LT(limited.total_docs_examined, full.total_docs_examined);
  EXPECT_LT(limited.bytes_materialized, full.bytes_materialized);
}

TEST_F(ClusterCursorTest, SummaryWhileStreamingThenFinal) {
  Cluster cluster(Options());
  BuildAndLoad(&cluster);
  auto cursor = cluster.OpenCursor(WideQuery(), CursorOptions{/*batch_size=*/50,
                                                              /*limit=*/0});
  std::vector<bson::Document> first = cursor->NextBatch();
  ASSERT_GT(first.size(), 0u);
  const ClusterQueryResult mid = cursor->Summary();
  EXPECT_EQ(mid.num_batches, 1);
  EXPECT_EQ(mid.n_returned, first.size());
  EXPECT_TRUE(mid.docs.empty());  // batches own the documents

  uint64_t total = first.size();
  while (!cursor->exhausted()) total += cursor->NextBatch().size();
  const ClusterQueryResult done = cursor->Summary();
  EXPECT_EQ(done.n_returned, total);
  EXPECT_EQ(done.n_returned, 901u);
  EXPECT_GE(done.num_batches, mid.num_batches);
}

// ---------- batch accounting: zero-result shards and mid-stream death ----

TEST_F(ClusterCursorTest, ZeroResultShardsKeepAccountingConsistent) {
  Cluster cluster(Options());
  BuildAndLoad(&cluster);

  // _id is not the shard key, so this broadcasts to all four shards — but
  // the matching documents carry early dates and live on a strict subset of
  // them: the other shards answer every getMore round with zero documents.
  const ExprPtr q = query::MakeRange("_id", Value::Int64(0),
                                     Value::Int64(99));
  const ClusterQueryResult full = cluster.Query(q);
  ASSERT_TRUE(full.status.ok());
  ASSERT_EQ(full.docs.size(), 100u);
  ASSERT_EQ(full.nodes_contacted, 4);
  ASSERT_EQ(full.shard_reports.size(), 4u);
  bool some_shard_empty = false;
  for (const ShardQueryReport& report : full.shard_reports) {
    if (report.stats.n_returned == 0) some_shard_empty = true;
  }
  ASSERT_TRUE(some_shard_empty);
  EXPECT_EQ(full.num_batches, 1);  // single unbounded round, never more

  // Batched streaming over the same query: empty per-shard batches must not
  // distort the merge, the document count, or the round count.
  CursorOptions copts;
  copts.batch_size = 7;
  const ClusterQueryResult streamed = cluster.OpenCursor(q, copts)->Drain();
  EXPECT_TRUE(streamed.status.ok());
  EXPECT_EQ(Ids(streamed.docs), Ids(full.docs));
  EXPECT_EQ(streamed.n_returned, 100u);
  EXPECT_EQ(streamed.total_keys_examined, full.total_keys_examined);
  // Rounds continue until the slowest shard is exhausted; with the largest
  // per-shard slice under 100 docs at 7/round, that is at most
  // ceil(100/7)+1 = 16 rounds and at least 2.
  EXPECT_GT(streamed.num_batches, 1);
  EXPECT_LE(streamed.num_batches, 16);
}

TEST_F(ClusterCursorTest, QueryMatchingNothingCountsOneRound) {
  Cluster cluster(Options());
  BuildAndLoad(&cluster);
  // Far beyond every stored date: the router still targets the last chunk's
  // shard, which answers one empty, exhausted round.
  const ExprPtr q = query::MakeRange("date", Value::DateTime(60000LL * 100000),
                                     Value::DateTime(60000LL * 100001));
  auto cursor = cluster.OpenCursor(q, CursorOptions{/*batch_size=*/7,
                                                    /*limit=*/0});
  EXPECT_TRUE(cursor->NextBatch().empty());
  EXPECT_TRUE(cursor->exhausted());
  const ClusterQueryResult r = cursor->Summary();
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.n_returned, 0u);
  EXPECT_EQ(r.num_batches, 1);
}

TEST_F(ClusterCursorTest, NextBatchAfterExhaustionAddsNoPhantomRound) {
  Cluster cluster(Options());
  BuildAndLoad(&cluster);
  auto cursor = cluster.OpenCursor(WideQuery(), CursorOptions{/*batch_size=*/50,
                                                              /*limit=*/0});
  uint64_t total = 0;
  while (!cursor->exhausted()) total += cursor->NextBatch().size();
  ASSERT_EQ(total, 901u);
  const int rounds = cursor->Summary().num_batches;

  EXPECT_TRUE(cursor->NextBatch().empty());
  EXPECT_TRUE(cursor->NextBatch().empty());
  EXPECT_EQ(cursor->Summary().num_batches, rounds);
  EXPECT_EQ(cursor->Summary().n_returned, 901u);
}

TEST_F(ClusterCursorTest, ShardDyingMidStreamSurfacesErrorAndStopsStream) {
  Cluster cluster(Options());
  BuildAndLoad(&cluster);
  const ExprPtr q = WideQuery();
  const std::vector<int> targets = cluster.TargetShards(q);
  ASSERT_GT(targets.size(), 1u);

  // Let every shard answer the first round, then kill the next getMore: the
  // shard "dies" between rounds two and one.
  FailPoint* fp = FailPointRegistry::Instance().Find("shardGetMore");
  ASSERT_NE(fp, nullptr);
  FailPoint::Config config;
  config.mode = FailPoint::Mode::kSkip;
  config.count = targets.size();
  config.error_code = StatusCode::kInternal;
  config.error_message = "shard host died mid-stream";
  fp->Enable(config);

  auto cursor = cluster.OpenCursor(q, CursorOptions{/*batch_size=*/50,
                                                    /*limit=*/0});
  const std::vector<bson::Document> first = cursor->NextBatch();
  EXPECT_FALSE(first.empty());
  EXPECT_TRUE(cursor->status().ok());

  const std::vector<bson::Document> second = cursor->NextBatch();
  EXPECT_TRUE(second.empty());  // the failed round's documents are dropped
  EXPECT_TRUE(cursor->exhausted());
  EXPECT_FALSE(cursor->status().ok());
  EXPECT_EQ(cursor->status().code(), StatusCode::kInternal);
  fp->Disable();

  const ClusterQueryResult summary = cursor->Summary();
  EXPECT_FALSE(summary.status.ok());
  // Only the delivered round counts: the faulted round produced no batch,
  // so it must not inflate num_batches (it used to, and drained-cursor
  // accounting diverged from one-shot Query() under fault injection).
  EXPECT_EQ(summary.num_batches, 1);
  EXPECT_EQ(summary.n_returned, first.size());

  // Further pulls stay empty and do not disturb the accounting.
  EXPECT_TRUE(cursor->NextBatch().empty());
  EXPECT_EQ(cursor->Summary().num_batches, 1);

  // A fresh cursor over the same cluster streams the full result cleanly.
  const ClusterQueryResult recovered = cluster.Query(q);
  EXPECT_TRUE(recovered.status.ok());
  EXPECT_EQ(recovered.docs.size(), 901u);
}

TEST_F(ClusterCursorTest, KillAndAbandonmentCloseEveryShardCursor) {
  Cluster cluster(Options());
  BuildAndLoad(&cluster);
  Gauge& open = MetricsRegistry::Instance().GetGauge("cluster.open_cursors");
  const int64_t baseline = open.value();

  // Kill mid-stream: every outstanding shard cursor must close immediately,
  // while the ClusterCursor object is still alive.
  auto cursor = cluster.OpenCursor(WideQuery(), CursorOptions{/*batch_size=*/50,
                                                              /*limit=*/0});
  ASSERT_FALSE(cursor->NextBatch().empty());
  EXPECT_GT(open.value(), baseline);
  cursor->Kill();
  EXPECT_EQ(open.value(), baseline);
  EXPECT_FALSE(cursor->status().ok());
  EXPECT_TRUE(cursor->exhausted());
  EXPECT_TRUE(cursor->NextBatch().empty());
  // Idempotent: killing again or destroying must not double-decrement.
  cursor->Kill();
  EXPECT_EQ(open.value(), baseline);
  cursor.reset();
  EXPECT_EQ(open.value(), baseline);

  // A cursor abandoned mid-stream closes its shard cursors in the
  // destructor.
  {
    auto abandoned = cluster.OpenCursor(
        WideQuery(), CursorOptions{/*batch_size=*/50, /*limit=*/0});
    ASSERT_FALSE(abandoned->NextBatch().empty());
    EXPECT_GT(open.value(), baseline);
  }
  EXPECT_EQ(open.value(), baseline);
}

TEST_F(ClusterCursorTest, ConcurrentSessionsKeepPerCursorAccountingExact) {
  Cluster cluster(Options());
  BuildAndLoad(&cluster);
  Gauge& open = MetricsRegistry::Instance().GetGauge("cluster.open_cursors");
  const int64_t baseline = open.value();
  const ExprPtr q = WideQuery();
  const ClusterQueryResult reference = cluster.Query(q);
  ASSERT_EQ(reference.docs.size(), 901u);
  const std::multiset<int64_t> expected = Ids(reference.docs);

  // Many sessions stream the same query concurrently at staggered batch
  // sizes; every third one walks away mid-stream via Kill(). Per-cursor
  // accounting must stay private to its session: batches delivered to
  // *this* cursor, documents returned by *this* cursor — never a
  // neighbour's.
  constexpr int kSessions = 9;
  std::vector<std::thread> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      CursorOptions copts;
      copts.batch_size = size_t(40 + 13 * s);
      auto cursor = cluster.OpenCursor(q, copts);
      std::vector<bson::Document> docs;
      int delivered = 0;
      bool killed = false;
      while (true) {
        std::vector<bson::Document> batch = cursor->NextBatch();
        if (batch.empty()) break;
        ++delivered;
        for (bson::Document& d : batch) docs.push_back(std::move(d));
        if (s % 3 == 2 && delivered == 2) {
          cursor->Kill();
          killed = true;
          break;
        }
      }
      const ClusterQueryResult summary = cursor->Summary();
      EXPECT_EQ(summary.num_batches, delivered);
      EXPECT_EQ(summary.n_returned, docs.size());
      EXPECT_GE(summary.first_result_millis, 0.0);
      if (killed) {
        EXPECT_FALSE(summary.status.ok());
        EXPECT_LT(docs.size(), expected.size());
      } else {
        EXPECT_TRUE(summary.status.ok()) << summary.status.ToString();
        EXPECT_EQ(Ids(docs), expected);
      }
    });
  }
  for (std::thread& t : sessions) t.join();
  EXPECT_EQ(open.value(), baseline);
}

TEST_F(ClusterCursorTest, ConcurrentSessionsUnderGetMoreFaultsReturnGaugeToBaseline) {
  Cluster cluster(Options());
  BuildAndLoad(&cluster);
  Gauge& open = MetricsRegistry::Instance().GetGauge("cluster.open_cursors");
  const int64_t baseline = open.value();
  const ExprPtr q = WideQuery();
  const std::multiset<int64_t> expected = Ids(cluster.Query(q).docs);

  // Arm a burst of getMore faults. Which concurrent session absorbs them is
  // a race by design — every session must either stream the exact result or
  // surface the fault, and either way its per-cursor accounting stays
  // consistent and its shard cursors close.
  FailPoint* fp = FailPointRegistry::Instance().Find("shardGetMore");
  ASSERT_NE(fp, nullptr);
  FailPoint::Config config;
  config.mode = FailPoint::Mode::kTimes;
  config.count = 6;
  config.error_code = StatusCode::kInternal;
  config.error_message = "injected getMore fault under concurrency";
  fp->Enable(config);

  constexpr int kSessions = 8;
  std::atomic<int> faulted{0};
  std::vector<std::thread> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      CursorOptions copts;
      copts.batch_size = size_t(30 + 7 * s);
      auto cursor = cluster.OpenCursor(q, copts);
      std::vector<bson::Document> docs;
      int delivered = 0;
      while (true) {
        std::vector<bson::Document> batch = cursor->NextBatch();
        if (batch.empty()) break;
        ++delivered;
        for (bson::Document& d : batch) docs.push_back(std::move(d));
      }
      const ClusterQueryResult summary = cursor->Summary();
      EXPECT_EQ(summary.num_batches, delivered);
      EXPECT_EQ(summary.n_returned, docs.size());
      EXPECT_TRUE(cursor->exhausted());
      if (summary.status.ok()) {
        EXPECT_EQ(Ids(docs), expected);
      } else {
        faulted.fetch_add(1);
        EXPECT_LE(docs.size(), expected.size());
      }
    });
  }
  for (std::thread& t : sessions) t.join();
  fp->Disable();

  EXPECT_GT(faulted.load(), 0);      // the burst hit someone
  EXPECT_LT(faulted.load(), kSessions);  // and someone streamed clean
  EXPECT_EQ(open.value(), baseline);

  // The cluster is unharmed: a fresh one-shot query is exact.
  EXPECT_EQ(Ids(cluster.Query(q).docs), expected);
}

}  // namespace
}  // namespace stix::cluster

// ---------- StCursor: streaming over the four approaches ----------

namespace stix::st {
namespace {

using bson::Value;

class StCursorParityTest : public ::testing::TestWithParam<ApproachKind> {
 protected:
  static constexpr int kDocs = 1500;
  static constexpr int64_t kSpanBegin = 1530403200000;
  static constexpr int64_t kStepMs = 60000;

  StStoreOptions Options() {
    StStoreOptions opts;
    opts.approach.kind = GetParam();
    opts.approach.dataset_mbr = geo::Rect{{23.0, 37.0}, {25.0, 39.0}};
    opts.cluster.num_shards = 4;
    opts.cluster.chunk_max_bytes = 16 * 1024;
    opts.cluster.balance_every_inserts = 300;
    opts.cluster.seed = 3;
    return opts;
  }

  void Load(StStore* store) {
    Rng rng(55);
    for (int i = 0; i < kDocs; ++i) {
      bson::Document doc;
      doc.Append("seq", Value::Int32(i));
      const double lon = rng.NextDouble(23.0, 25.0);
      const double lat = rng.NextDouble(37.0, 39.0);
      doc.Append(kLocationField,
                 Value::MakeDocument(bson::GeoJsonPoint(lon, lat)));
      doc.Append(kDateField, Value::DateTime(kSpanBegin + i * kStepMs));
      ASSERT_TRUE(store->Insert(std::move(doc)).ok());
    }
    ASSERT_TRUE(store->FinishLoad().ok());
  }

  static std::set<int> Ids(const std::vector<bson::Document>& docs) {
    std::set<int> ids;
    for (const bson::Document& doc : docs) {
      ids.insert(doc.Get("seq")->AsInt32());
    }
    return ids;
  }

  // (shard id, winning index) per contacted shard, in report order.
  static std::vector<std::pair<int, std::string>> Winners(
      const StQueryResult& r) {
    std::vector<std::pair<int, std::string>> w;
    for (const cluster::ShardQueryReport& rep : r.cluster.shard_reports) {
      w.emplace_back(rep.shard_id, rep.winning_index);
    }
    return w;
  }
};

TEST_P(StCursorParityTest, CursorDrainReproducesQueryAtEveryBatchSize) {
  StStore store(Options());
  ASSERT_TRUE(store.Setup().ok());
  Load(&store);

  const geo::Rect rect{{23.4, 37.4}, {24.6, 38.6}};
  const int64_t t0 = kSpanBegin + 100 * kStepMs;
  const int64_t t1 = kSpanBegin + 1200 * kStepMs;

  // One warm-up so plan caches and the covering cache are settled, then a
  // reference drain every batched run must reproduce exactly.
  (void)store.Query(rect, t0, t1);
  const StQueryResult reference = store.Query(rect, t0, t1);
  ASSERT_GT(reference.cluster.docs.size(), 0u);

  for (const size_t batch : {size_t{1}, size_t{101}, size_t{0}}) {
    SCOPED_TRACE(testing::Message() << "approach=" << store.approach().name()
                                    << " batch_size=" << batch);
    StCursorOptions copts;
    copts.batch_size = batch;
    StCursor cursor = store.OpenQuery(rect, t0, t1, copts);
    const StQueryResult r = cursor.Drain();

    EXPECT_EQ(Ids(r.cluster.docs), Ids(reference.cluster.docs));
    EXPECT_EQ(r.cluster.n_returned, reference.cluster.n_returned);
    EXPECT_EQ(r.cluster.nodes_contacted, reference.cluster.nodes_contacted);
    EXPECT_EQ(r.cluster.total_keys_examined,
              reference.cluster.total_keys_examined);
    EXPECT_EQ(r.cluster.total_docs_examined,
              reference.cluster.total_docs_examined);
    EXPECT_EQ(r.cluster.max_keys_examined,
              reference.cluster.max_keys_examined);
    EXPECT_EQ(r.cluster.max_docs_examined,
              reference.cluster.max_docs_examined);
    EXPECT_EQ(r.cluster.bytes_materialized,
              reference.cluster.bytes_materialized);
    EXPECT_EQ(Winners(r), Winners(reference));
    if (batch == 1) {
      EXPECT_GT(r.cluster.num_batches, 1);
    }
  }
}

TEST_P(StCursorParityTest, LimitKExaminesStrictlyFewerThanFullDrain) {
  StStore store(Options());
  ASSERT_TRUE(store.Setup().ok());
  Load(&store);

  // A wide window (~1000 matches) so the limit leaves most of it unread.
  const geo::Rect rect{{23.0, 37.0}, {25.0, 39.0}};
  const int64_t t0 = kSpanBegin;
  const int64_t t1 = kSpanBegin + 1000 * kStepMs;
  (void)store.Query(rect, t0, t1);  // warm plan + covering caches
  const StQueryResult full = store.Query(rect, t0, t1);
  ASSERT_GT(full.cluster.docs.size(), 500u);

  StCursorOptions copts;
  copts.batch_size = 101;
  copts.limit = 20;
  StCursor cursor = store.OpenQuery(rect, t0, t1, copts);
  const StQueryResult limited = cursor.Drain();

  EXPECT_EQ(limited.cluster.docs.size(), 20u);
  EXPECT_EQ(limited.cluster.n_returned, 20u);
  EXPECT_LT(limited.cluster.total_docs_examined,
            full.cluster.total_docs_examined);
  EXPECT_LT(limited.cluster.bytes_materialized,
            full.cluster.bytes_materialized);
  // Everything returned is a genuine match from the full result.
  const std::set<int> full_ids = Ids(full.cluster.docs);
  for (const int id : Ids(limited.cluster.docs)) {
    EXPECT_TRUE(full_ids.count(id)) << "id " << id;
  }
}

TEST_P(StCursorParityTest, PolygonQueryStreamsThroughCursor) {
  StStore store(Options());
  ASSERT_TRUE(store.Setup().ok());
  Load(&store);

  const geo::Polygon poly({{23.2, 37.3}, {24.8, 37.6}, {23.9, 38.8}});
  const int64_t t0 = kSpanBegin + 100 * kStepMs;
  const int64_t t1 = kSpanBegin + 1100 * kStepMs;
  const StQueryResult reference = store.QueryPolygon(poly, t0, t1);
  ASSERT_GT(reference.cluster.docs.size(), 0u);

  StCursorOptions copts;
  copts.batch_size = 50;
  StCursor cursor = store.OpenPolygonQuery(poly, t0, t1, copts);
  const StQueryResult r = cursor.Drain();
  EXPECT_EQ(Ids(r.cluster.docs), Ids(reference.cluster.docs));
  EXPECT_EQ(r.cluster.total_docs_examined,
            reference.cluster.total_docs_examined);
}

TEST_P(StCursorParityTest, KnnCandidateBudgetBoundsProbeWork) {
  StStore store(Options());
  ASSERT_TRUE(store.Setup().ok());
  Load(&store);

  const geo::Point center{24.0, 38.0};
  const int64_t t0 = kSpanBegin;
  const int64_t t1 = kSpanBegin + kDocs * kStepMs;
  KnnOptions options;
  options.k = 8;
  options.batch_size = 16;
  options.candidate_budget = 32;
  const KnnResult r = KnnQuery(store, center, t0, t1, options);

  // The budget is a hard per-probe cap: no ring merges more than
  // candidate_budget documents, so total candidates are bounded by the
  // number of probes issued.
  EXPECT_LE(r.candidates_examined,
            options.candidate_budget *
                static_cast<uint64_t>(r.queries_issued));
  ASSERT_EQ(r.neighbors.size(), options.k);
  for (size_t i = 1; i < r.neighbors.size(); ++i) {
    EXPECT_GE(r.neighbors[i].distance_m, r.neighbors[i - 1].distance_m);
  }
}

TEST_P(StCursorParityTest, YieldingCursorSurvivesInterleavedInsertsAndSplits) {
  StStore store(Options());
  ASSERT_TRUE(store.Setup().ok());
  Load(&store);

  const geo::Rect rect{{23.3, 37.3}, {24.7, 38.7}};
  const int64_t t0 = kSpanBegin + 50 * kStepMs;
  const int64_t t1 = kSpanBegin + 1300 * kStepMs;
  const StQueryResult reference = store.Query(rect, t0, t1);
  ASSERT_GT(reference.cluster.docs.size(), 100u);

  // Stream in small batches and, between getMore rounds, bulk-insert
  // documents dated beyond the query window: they split btree leaves under
  // the cursor's saved position (and periodically trigger the inline
  // balancer, whose commit must yield to this open cursor) without changing
  // the expected result. The shard cursor saves executor state
  // before each round's shard lock drops and reseeks afterwards, so the
  // drain must still equal the quiesced reference exactly.
  StCursorOptions copts;
  copts.batch_size = 25;
  StCursor cursor = store.OpenQuery(rect, t0, t1, copts);
  std::set<int> streamed;
  Rng rng(91);
  int next_seq = kDocs;
  while (!cursor.exhausted()) {
    for (const bson::Document& d : cursor.NextBatch()) {
      streamed.insert(d.Get("seq")->AsInt32());
    }
    for (int i = 0; i < 40; ++i) {
      bson::Document doc;
      doc.Append("seq", Value::Int32(next_seq));
      doc.Append(kLocationField,
                 Value::MakeDocument(bson::GeoJsonPoint(
                     rng.NextDouble(23.0, 25.0), rng.NextDouble(37.0, 39.0))));
      doc.Append(kDateField,
                 Value::DateTime(kSpanBegin + (5000 + next_seq) * kStepMs));
      ASSERT_TRUE(store.Insert(std::move(doc)).ok());
      ++next_seq;
    }
  }
  EXPECT_EQ(streamed, Ids(reference.cluster.docs));
  // The quiesced store agrees: the interleaved inserts were out of window.
  EXPECT_EQ(Ids(store.Query(rect, t0, t1).cluster.docs),
            Ids(reference.cluster.docs));
}

TEST_P(StCursorParityTest, FaultedStreamReturnsOpenCursorGaugeToBaseline) {
  StStore store(Options());
  ASSERT_TRUE(store.Setup().ok());
  Load(&store);
  Gauge& open =
      MetricsRegistry::Instance().GetGauge("cluster.open_cursors");
  const int64_t baseline = open.value();

  // Kill the second getMore round: the stream dies with a non-OK status and
  // every outstanding shard cursor must be released at that moment — the
  // gauge returns to baseline while the StCursor is still alive.
  const geo::Rect rect{{23.0, 37.0}, {25.0, 39.0}};
  const int64_t t0 = kSpanBegin;
  const int64_t t1 = kSpanBegin + 1400 * kStepMs;
  FailPoint* fp = FailPointRegistry::Instance().Find("shardGetMore");
  ASSERT_NE(fp, nullptr);
  FailPoint::Config config;
  config.mode = FailPoint::Mode::kSkip;
  config.count = 1;  // first shard answers, then the fault fires
  config.error_code = StatusCode::kInternal;
  config.error_message = "injected shard death";
  fp->Enable(config);

  StCursorOptions copts;
  copts.batch_size = 20;
  StCursor cursor = store.OpenQuery(rect, t0, t1, copts);
  while (!cursor.exhausted()) (void)cursor.NextBatch();
  fp->Disable();
  EXPECT_FALSE(cursor.Summary().cluster.status.ok());
  EXPECT_EQ(open.value(), baseline)
      << "a shard cursor leaked on the error path";

  // And the store recovers cleanly once the fault is cleared.
  EXPECT_TRUE(store.Query(rect, t0, t1).cluster.status.ok());
  EXPECT_EQ(open.value(), baseline);
}

INSTANTIATE_TEST_SUITE_P(
    AllApproaches, StCursorParityTest,
    ::testing::Values(ApproachKind::kBslST, ApproachKind::kBslTS,
                      ApproachKind::kHil, ApproachKind::kHilStar),
    [](const ::testing::TestParamInfo<ApproachKind>& info) {
      switch (info.param) {
        case ApproachKind::kBslST:
          return "bslST";
        case ApproachKind::kBslTS:
          return "bslTS";
        case ApproachKind::kHil:
          return "hil";
        case ApproachKind::kHilStar:
          return "hilStar";
      }
      return "unknown";
    });

}  // namespace
}  // namespace stix::st
