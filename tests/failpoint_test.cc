// Tests for the fail-point subsystem: registry + mode semantics, and one
// proof per injection site that an injected fault is either surfaced (error
// actions produce a non-OK status on a channel the caller sees) or tolerated
// (delay / branch-forcing actions leave results byte-identical).

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "index/index_catalog.h"
#include "query/executor.h"
#include "query/expression.h"
#include "query/plan_cache.h"
#include "storage/btree.h"
#include "storage/record_store.h"
#include "plan_drain.h"

namespace stix {
namespace {

using bson::Value;

class FailPointTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPointRegistry::Instance().DisableAll(); }
};

// ---------- registry + mode semantics ----------

TEST_F(FailPointTest, RegistryListsEveryInjectionSite) {
  const std::vector<std::string> names = FailPointRegistry::Instance().Names();
  const auto has = [&](const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_TRUE(has("btreeNodeSplit"));
  EXPECT_TRUE(has("btreeRemoveEntry"));
  EXPECT_TRUE(has("shardGetMore"));
  EXPECT_TRUE(has("clusterMergeBatch"));
  EXPECT_TRUE(has("planExecutorReplan"));
  EXPECT_TRUE(has("balancerMoveChunk"));
  EXPECT_GE(names.size(), 5u);
  for (const std::string& name : names) {
    FailPoint* fp = FailPointRegistry::Instance().Find(name);
    ASSERT_NE(fp, nullptr);
    EXPECT_EQ(fp->name(), name);
  }
  EXPECT_EQ(FailPointRegistry::Instance().Find("noSuchPoint"), nullptr);
}

TEST_F(FailPointTest, DisabledPointNeverFires) {
  // Function-local static: registered points must outlive the registry's
  // raw pointer, i.e. live for the process.
  static FailPoint fp("testDisabled");
  EXPECT_FALSE(fp.enabled());
  EXPECT_FALSE(fp.Evaluate().has_value());
  EXPECT_EQ(fp.times_fired(), 0u);
}

TEST_F(FailPointTest, AlwaysOnFiresUntilDisabled) {
  static FailPoint fp("testAlwaysOn");
  fp.Enable({});
  EXPECT_TRUE(fp.enabled());
  for (int i = 0; i < 3; ++i) {
    const auto fired = fp.Evaluate();
    ASSERT_TRUE(fired.has_value());
    EXPECT_TRUE(fired->ok());  // delay-only activation carries no error
  }
  EXPECT_EQ(fp.times_fired(), 3u);
  EXPECT_EQ(fp.times_entered(), 3u);
  fp.Disable();
  EXPECT_FALSE(fp.Evaluate().has_value());
  EXPECT_EQ(fp.times_fired(), 3u);
}

TEST_F(FailPointTest, TimesModeFiresExactlyNThenSelfDisables) {
  static FailPoint fp("testTimes");
  FailPoint::Config config;
  config.mode = FailPoint::Mode::kTimes;
  config.count = 3;
  fp.Enable(config);
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (fp.Evaluate().has_value()) ++fired;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(fp.times_fired(), 3u);
  EXPECT_FALSE(fp.enabled());  // exhausted => fully off, fast path restored
}

TEST_F(FailPointTest, SkipModeSkipsFirstNThenFiresAlways) {
  static FailPoint fp("testSkip");
  FailPoint::Config config;
  config.mode = FailPoint::Mode::kSkip;
  config.count = 2;
  fp.Enable(config);
  EXPECT_FALSE(fp.Evaluate().has_value());
  EXPECT_FALSE(fp.Evaluate().has_value());
  EXPECT_TRUE(fp.Evaluate().has_value());
  EXPECT_TRUE(fp.Evaluate().has_value());
  EXPECT_EQ(fp.times_entered(), 4u);
  EXPECT_EQ(fp.times_fired(), 2u);
}

TEST_F(FailPointTest, ErrorActionReturnsConfiguredStatus) {
  static FailPoint fp("testError");
  FailPoint::Config config;
  config.error_code = StatusCode::kCorruption;
  config.error_message = "boom";
  fp.Enable(config);
  const auto fired = fp.Evaluate();
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->code(), StatusCode::kCorruption);
  EXPECT_EQ(fired->message(), "boom");
  // CheckFailPoint maps fire-with-error to the error and off to OK.
  EXPECT_FALSE(CheckFailPoint(fp).ok());
  fp.Disable();
  EXPECT_TRUE(CheckFailPoint(fp).ok());
}

TEST_F(FailPointTest, EnableResetsCounters) {
  static FailPoint fp("testReset");
  fp.Enable({});
  (void)fp.Evaluate();
  EXPECT_EQ(fp.times_fired(), 1u);
  fp.Enable({});
  EXPECT_EQ(fp.times_fired(), 0u);
  EXPECT_EQ(fp.times_entered(), 0u);
}

// ---------- site: B+tree split / remove (delay-tolerated) ----------

TEST_F(FailPointTest, BtreeSplitSiteFiresAndTreeStaysCorrect) {
  FailPoint* fp = FailPointRegistry::Instance().Find("btreeNodeSplit");
  ASSERT_NE(fp, nullptr);
  FailPoint::Config config;
  config.delay_ms = 0.01;
  fp->Enable(config);

  storage::BTree tree;
  for (int i = 0; i < 400; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", i * 7919 % 100000);
    tree.Insert(key, static_cast<storage::RecordId>(i));
  }
  fp->Disable();

  // 400 entries over 128-entry leaves: at least two splits fired.
  EXPECT_GE(fp->times_fired(), 2u);
  EXPECT_EQ(tree.num_entries(), 400u);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST_F(FailPointTest, BtreeRemoveSiteFiresAndTreeStaysCorrect) {
  storage::BTree tree;
  for (int i = 0; i < 300; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", i);
    tree.Insert(key, static_cast<storage::RecordId>(i));
  }

  FailPoint* fp = FailPointRegistry::Instance().Find("btreeRemoveEntry");
  ASSERT_NE(fp, nullptr);
  fp->Enable({});
  for (int i = 0; i < 100; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", i * 3);
    EXPECT_TRUE(tree.Remove(key, static_cast<storage::RecordId>(i * 3)));
  }
  fp->Disable();

  EXPECT_EQ(fp->times_fired(), 100u);
  EXPECT_EQ(tree.num_entries(), 200u);
  EXPECT_TRUE(tree.CheckInvariants());
}

// ---------- sites on the cluster query path ----------

class ClusterFailPointTest : public FailPointTest {
 protected:
  static constexpr int kDocs = 600;

  void SetUp() override {
    cluster::ClusterOptions opts;
    opts.num_shards = 3;
    opts.chunk_max_bytes = 8 * 1024;
    opts.balance_every_inserts = 200;
    opts.seed = 11;
    cluster_ = std::make_unique<cluster::Cluster>(opts);
    ASSERT_TRUE(cluster_
                    ->ShardCollection(cluster::ShardKeyPattern(
                        {"date"}, cluster::ShardingStrategy::kRange))
                    .ok());
    Rng rng(13);
    for (int i = 0; i < kDocs; ++i) {
      bson::Document doc;
      doc.Append("_id", Value::Int64(i));
      doc.Append("date", Value::DateTime(60000LL * i));
      doc.Append("pad", Value::String(std::string(100, 'x')));
      ASSERT_TRUE(cluster_->Insert(std::move(doc)).ok());
    }
  }

  query::ExprPtr WideQuery() const {
    return query::MakeRange("date", Value::DateTime(60000LL * 50),
                            Value::DateTime(60000LL * 500));
  }

  static std::multiset<int64_t> Ids(const std::vector<bson::Document>& docs) {
    std::multiset<int64_t> ids;
    for (const bson::Document& d : docs) ids.insert(d.Get("_id")->AsInt64());
    return ids;
  }

  std::unique_ptr<cluster::Cluster> cluster_;
};

TEST_F(ClusterFailPointTest, ShardGetMoreErrorSurfacesAsClusterStatus) {
  const query::ExprPtr q = WideQuery();
  const cluster::ClusterQueryResult reference = cluster_->Query(q);
  ASSERT_TRUE(reference.status.ok());
  ASSERT_EQ(reference.docs.size(), 451u);

  FailPoint* fp = FailPointRegistry::Instance().Find("shardGetMore");
  ASSERT_NE(fp, nullptr);
  FailPoint::Config config;
  config.mode = FailPoint::Mode::kTimes;
  config.count = 1;
  config.error_code = StatusCode::kInternal;
  config.error_message = "shard host died";
  fp->Enable(config);
  const cluster::ClusterQueryResult faulted = cluster_->Query(q);
  EXPECT_FALSE(faulted.status.ok());
  EXPECT_EQ(faulted.status.code(), StatusCode::kInternal);
  EXPECT_TRUE(faulted.docs.empty());  // partial rounds are dropped
  fp->Disable();

  // The fault was transient: the next query is clean and complete.
  const cluster::ClusterQueryResult recovered = cluster_->Query(q);
  EXPECT_TRUE(recovered.status.ok());
  EXPECT_EQ(Ids(recovered.docs), Ids(reference.docs));
}

TEST_F(ClusterFailPointTest, ShardGetMoreDelayToleratedWithIdenticalResults) {
  const query::ExprPtr q = WideQuery();
  const cluster::ClusterQueryResult reference = cluster_->Query(q);

  FailPoint* fp = FailPointRegistry::Instance().Find("shardGetMore");
  FailPoint::Config config;
  config.delay_ms = 0.05;
  fp->Enable(config);
  const cluster::ClusterQueryResult delayed = cluster_->Query(q);
  fp->Disable();

  EXPECT_GE(fp->times_fired(), 1u);
  EXPECT_TRUE(delayed.status.ok());
  EXPECT_EQ(Ids(delayed.docs), Ids(reference.docs));
  EXPECT_EQ(delayed.total_keys_examined, reference.total_keys_examined);
}

TEST_F(ClusterFailPointTest, MergeBatchErrorKillsCursorWithStatus) {
  const query::ExprPtr q = WideQuery();
  FailPoint* fp = FailPointRegistry::Instance().Find("clusterMergeBatch");
  ASSERT_NE(fp, nullptr);
  FailPoint::Config config;
  config.mode = FailPoint::Mode::kTimes;
  config.count = 1;
  config.error_code = StatusCode::kInternal;
  fp->Enable(config);

  auto cursor = cluster_->OpenCursor(q, {});
  EXPECT_TRUE(cursor->NextBatch().empty());
  EXPECT_TRUE(cursor->exhausted());
  EXPECT_FALSE(cursor->status().ok());
  const cluster::ClusterQueryResult summary = cursor->Summary();
  EXPECT_FALSE(summary.status.ok());
  EXPECT_EQ(summary.num_batches, 0);  // the round never went out
  fp->Disable();

  EXPECT_TRUE(cluster_->Query(q).status.ok());
}

TEST_F(ClusterFailPointTest, MergeBatchDelayToleratedWithIdenticalResults) {
  const query::ExprPtr q = WideQuery();
  const cluster::ClusterQueryResult reference = cluster_->Query(q);

  FailPoint* fp = FailPointRegistry::Instance().Find("clusterMergeBatch");
  FailPoint::Config config;
  config.delay_ms = 0.05;
  fp->Enable(config);
  cluster::CursorOptions copts;
  copts.batch_size = 50;
  const cluster::ClusterQueryResult delayed =
      cluster_->OpenCursor(q, copts)->Drain();
  fp->Disable();

  EXPECT_GE(fp->times_fired(), 1u);
  EXPECT_TRUE(delayed.status.ok());
  EXPECT_EQ(Ids(delayed.docs), Ids(reference.docs));
}

TEST_F(ClusterFailPointTest, BalancerMoveChunkErrorSurfacesThroughInsert) {
  FailPoint* fp = FailPointRegistry::Instance().Find("balancerMoveChunk");
  ASSERT_NE(fp, nullptr);
  FailPoint::Config config;
  config.error_code = StatusCode::kInternal;
  config.error_message = "migration aborted";
  fp->Enable(config);

  // Keep loading: growth keeps splitting chunks on their current shards, so
  // the balancer keeps proposing migrations — each aborted by the fault and
  // surfaced through the inserting client.
  const uint64_t docs_before = cluster_->total_documents();
  bool surfaced = false;
  for (int i = 0; i < 2000 && !surfaced; ++i) {
    bson::Document doc;
    doc.Append("_id", Value::Int64(kDocs + i));
    doc.Append("date", Value::DateTime(60000LL * (kDocs + i)));
    doc.Append("pad", Value::String(std::string(100, 'x')));
    const Status s = cluster_->Insert(std::move(doc));
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kInternal);
      surfaced = true;
    }
  }
  EXPECT_TRUE(surfaced);
  EXPECT_GE(fp->times_fired(), 1u);
  fp->Disable();

  // The failed migration moved nothing: accounting still balances, and the
  // cluster keeps serving correct results.
  uint64_t chunk_docs = 0;
  for (size_t ci = 0; ci < cluster_->chunks().num_chunks(); ++ci) {
    chunk_docs += cluster_->chunks().chunk(ci).docs;
  }
  EXPECT_EQ(chunk_docs, cluster_->total_documents());
  EXPECT_GT(cluster_->total_documents(), docs_before);
  cluster_->Balance();  // fault cleared: pending migrations drain
  const cluster::ClusterQueryResult r = cluster_->Query(WideQuery());
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.docs.size(), 451u);
}

TEST_F(ClusterFailPointTest, BalancerMoveChunkDelayTolerated) {
  FailPoint* fp = FailPointRegistry::Instance().Find("balancerMoveChunk");
  FailPoint::Config config;
  config.delay_ms = 0.05;
  fp->Enable(config);
  cluster_->Balance();
  for (int i = 0; i < 400; ++i) {
    bson::Document doc;
    doc.Append("_id", Value::Int64(kDocs + i));
    doc.Append("date", Value::DateTime(60000LL * (kDocs + i)));
    doc.Append("pad", Value::String(std::string(100, 'x')));
    ASSERT_TRUE(cluster_->Insert(std::move(doc)).ok());
  }
  fp->Disable();
  EXPECT_EQ(cluster_->total_documents(), static_cast<uint64_t>(kDocs + 400));
  EXPECT_TRUE(cluster_->Query(WideQuery()).status.ok());
}

// ---------- site: plan-executor replan (branch-forcing) ----------

TEST_F(FailPointTest, PlanExecutorReplanForcedWithIdenticalResults) {
  storage::RecordStore records;
  index::IndexCatalog catalog;
  ASSERT_TRUE(catalog
                  .CreateIndex(index::IndexDescriptor(
                      "date_1", {{"date", index::IndexFieldKind::kAscending}}))
                  .ok());
  ASSERT_TRUE(catalog
                  .CreateIndex(index::IndexDescriptor(
                      "id_1_date_1",
                      {{"id", index::IndexFieldKind::kAscending},
                       {"date", index::IndexFieldKind::kAscending}}))
                  .ok());
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    bson::Document doc;
    doc.Append("id", Value::Int32(i));
    doc.Append("date", Value::DateTime(60000LL * i));
    const storage::RecordId rid = records.Insert(std::move(doc));
    ASSERT_TRUE(catalog.OnInsert(*records.Get(rid), rid).ok());
  }
  // Flat conjuncts with closed ranges: AnalyzeQuery only flattens one AND
  // level and only closed [lo, hi] ranges bound a leading index field, and
  // both indexes must see their leading field constrained for a plan race
  // (the cache only stores raced winners).
  const query::ExprPtr q = query::MakeAnd(
      {query::MakeCmp("id", query::CmpOp::kGte, Value::Int32(0)),
       query::MakeCmp("id", query::CmpOp::kLte, Value::Int32(1000)),
       query::MakeCmp("date", query::CmpOp::kGte,
                      Value::DateTime(60000LL * 100)),
       query::MakeCmp("date", query::CmpOp::kLte,
                      Value::DateTime(60000LL * 300))});

  query::PlanCache cache;
  query::PlanExecutor first(records, catalog, q, {}, &cache);
  const std::vector<int> first_ids = testing::DrainIds(&first);
  ASSERT_EQ(cache.size(), 1u);
  query::PlanExecutor cached(records, catalog, q, {}, &cache);
  testing::DrainIds(&cached);
  ASSERT_TRUE(cached.from_plan_cache());

  FailPoint* fp = FailPointRegistry::Instance().Find("planExecutorReplan");
  ASSERT_NE(fp, nullptr);
  fp->Enable({});
  query::PlanExecutor forced(records, catalog, q, {}, &cache);
  const std::vector<int> forced_ids = testing::DrainIds(&forced);
  fp->Disable();

  EXPECT_EQ(fp->times_fired(), 1u);
  EXPECT_TRUE(forced.replanned());
  EXPECT_FALSE(forced.from_plan_cache());
  EXPECT_EQ(forced.planned_by(), query::PlannedBy::kRace);
  EXPECT_EQ(forced_ids, first_ids);

  // The forced re-race refreshed the cache: the next run replays cleanly.
  query::PlanExecutor after(records, catalog, q, {}, &cache);
  testing::DrainIds(&after);
  EXPECT_TRUE(after.from_plan_cache());
}

}  // namespace
}  // namespace stix
