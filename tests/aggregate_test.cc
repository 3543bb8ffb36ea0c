#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "query/aggregate.h"

namespace stix::query {
namespace {

using bson::Value;

std::vector<bson::Document> SampleDocs() {
  std::vector<bson::Document> docs;
  const struct {
    const char* city;
    int32_t speed;
    double fuel;
  } rows[] = {
      {"athens", 40, 70.0}, {"athens", 60, 55.0},   {"athens", 20, 90.0},
      {"patras", 80, 30.0}, {"patras", 100, 20.0},  {"volos", 50, 60.0},
  };
  for (const auto& row : rows) {
    docs.push_back(bson::DocBuilder()
                       .Field("city", row.city)
                       .Field("speed", row.speed)
                       .Field("fuel", row.fuel)
                       .Build());
  }
  return docs;
}

TEST(PipelineTest, EmptyPipelinePassesThrough) {
  const Result<std::vector<bson::Document>> out =
      RunPipeline(SampleDocs(), Pipeline());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 6u);
}

TEST(PipelineTest, MatchFilters) {
  const Result<std::vector<bson::Document>> out = RunPipeline(
      SampleDocs(),
      Pipeline().Match(MakeCmp("city", CmpOp::kEq, Value::String("athens"))));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 3u);
}

TEST(PipelineTest, ProjectKeepsOnlyListedFields) {
  const Result<std::vector<bson::Document>> out =
      RunPipeline(SampleDocs(), Pipeline().Project({"city", "speed"}));
  ASSERT_TRUE(out.ok());
  for (const bson::Document& doc : *out) {
    EXPECT_TRUE(doc.Has("city"));
    EXPECT_TRUE(doc.Has("speed"));
    EXPECT_FALSE(doc.Has("fuel"));
  }
}

TEST(PipelineTest, SortAscendingAndDescending) {
  const Result<std::vector<bson::Document>> asc =
      RunPipeline(SampleDocs(), Pipeline().Sort("speed"));
  ASSERT_TRUE(asc.ok());
  for (size_t i = 1; i < asc->size(); ++i) {
    EXPECT_LE((*asc)[i - 1].Get("speed")->AsInt32(),
              (*asc)[i].Get("speed")->AsInt32());
  }
  const Result<std::vector<bson::Document>> desc =
      RunPipeline(SampleDocs(), Pipeline().Sort("speed", false));
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(desc->front().Get("speed")->AsInt32(), 100);
}

TEST(PipelineTest, LimitTruncates) {
  const Result<std::vector<bson::Document>> out =
      RunPipeline(SampleDocs(), Pipeline().Sort("speed").Limit(2));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
}

TEST(PipelineTest, GroupWithAllAccumulators) {
  GroupStage group;
  group.key_path = "city";
  group.accumulators = {
      {"n", AccumulatorOp::kCount, ""},
      {"total_speed", AccumulatorOp::kSum, "speed"},
      {"avg_speed", AccumulatorOp::kAvg, "speed"},
      {"min_fuel", AccumulatorOp::kMin, "fuel"},
      {"max_fuel", AccumulatorOp::kMax, "fuel"},
  };
  const Result<std::vector<bson::Document>> out =
      RunPipeline(SampleDocs(), Pipeline().Group(std::move(group)));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 3u);  // athens, patras, volos (sorted by key)
  const bson::Document& athens = (*out)[0];
  EXPECT_EQ(athens.Get("_id")->AsString(), "athens");
  EXPECT_EQ(athens.Get("n")->AsInt64(), 3);
  EXPECT_DOUBLE_EQ(athens.Get("total_speed")->AsDouble(), 120.0);
  EXPECT_DOUBLE_EQ(athens.Get("avg_speed")->AsDouble(), 40.0);
  EXPECT_DOUBLE_EQ(athens.Get("min_fuel")->AsDouble(), 55.0);
  EXPECT_DOUBLE_EQ(athens.Get("max_fuel")->AsDouble(), 90.0);
}

TEST(PipelineTest, GroupWithoutKeyMakesOneGroup) {
  GroupStage group;
  group.accumulators = {{"n", AccumulatorOp::kCount, ""}};
  const Result<std::vector<bson::Document>> out =
      RunPipeline(SampleDocs(), Pipeline().Group(std::move(group)));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->front().Get("n")->AsInt64(), 6);
  EXPECT_TRUE(out->front().Get("_id")->is_null());
}

TEST(PipelineTest, AvgOfMissingFieldIsNull) {
  GroupStage group;
  group.accumulators = {{"a", AccumulatorOp::kAvg, "nonexistent"}};
  const Result<std::vector<bson::Document>> out =
      RunPipeline(SampleDocs(), Pipeline().Group(std::move(group)));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->front().Get("a")->is_null());
}

TEST(BucketAutoTest, EquiCountBuckets) {
  std::vector<bson::Document> docs;
  for (int i = 0; i < 100; ++i) {
    docs.push_back(bson::DocBuilder().Field("x", i).Build());
  }
  const Result<std::vector<bson::Document>> out =
      RunPipeline(std::move(docs), Pipeline().BucketAuto("x", 4));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 4u);
  for (const bson::Document& bucket : *out) {
    EXPECT_EQ(bucket.Get("count")->AsInt64(), 25);
  }
  EXPECT_EQ((*out)[0].GetPath("_id.min")->AsInt32(), 0);
  EXPECT_EQ((*out)[1].GetPath("_id.min")->AsInt32(), 25);
  // Last bucket's max is the overall maximum.
  EXPECT_EQ((*out)[3].GetPath("_id.max")->AsInt32(), 99);
}

TEST(BucketAutoTest, DuplicatesStayInOneBucket) {
  std::vector<bson::Document> docs;
  for (int i = 0; i < 90; ++i) {
    docs.push_back(bson::DocBuilder().Field("x", 7).Build());
  }
  for (int i = 0; i < 10; ++i) {
    docs.push_back(bson::DocBuilder().Field("x", 100 + i).Build());
  }
  const Result<std::vector<bson::Document>> out =
      RunPipeline(std::move(docs), Pipeline().BucketAuto("x", 4));
  ASSERT_TRUE(out.ok());
  // The run of 90 equal values cannot be split.
  EXPECT_GE(out->front().Get("count")->AsInt64(), 90);
  EXPECT_LE(out->size(), 4u);
}

TEST(BucketAutoTest, FailsWithoutValues) {
  std::vector<bson::Document> docs;
  docs.push_back(bson::DocBuilder().Field("y", 1).Build());
  EXPECT_FALSE(
      RunPipeline(std::move(docs), Pipeline().BucketAuto("x", 2)).ok());
}

TEST(BucketAutoTest, RejectsZeroBuckets) {
  std::vector<bson::Document> docs;
  docs.push_back(bson::DocBuilder().Field("x", 1).Build());
  EXPECT_FALSE(
      RunPipeline(std::move(docs), Pipeline().BucketAuto("x", 0)).ok());
}

// ---------- cluster-level aggregation ----------

class ClusterAggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster::ClusterOptions options;
    options.num_shards = 3;
    options.chunk_max_bytes = 8 * 1024;
    cluster_ = std::make_unique<cluster::Cluster>(options);
    ASSERT_TRUE(cluster_
                    ->ShardCollection(cluster::ShardKeyPattern(
                        {"date"}, cluster::ShardingStrategy::kRange))
                    .ok());
    Rng rng(3);
    for (int i = 0; i < 900; ++i) {
      bson::Document doc;
      doc.Append("_id", Value::Int64(i));
      doc.Append("vehicle", Value::Int32(i % 9));
      doc.Append("date", Value::DateTime(60000LL * i));
      doc.Append("speed", Value::Double(rng.NextDouble(0, 120)));
      ASSERT_TRUE(cluster_->Insert(std::move(doc)).ok());
    }
    cluster_->Balance();
  }

  std::unique_ptr<cluster::Cluster> cluster_;
};

TEST_F(ClusterAggregateTest, MatchGroupAcrossShards) {
  GroupStage group;
  group.key_path = "vehicle";
  group.accumulators = {{"n", AccumulatorOp::kCount, ""},
                        {"avg_speed", AccumulatorOp::kAvg, "speed"}};
  const auto result = cluster_->Aggregate(
      Pipeline()
          .Match(MakeRange("date", Value::DateTime(0),
                           Value::DateTime(60000LL * 449)))
          .Group(std::move(group))
          .Sort("_id"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 9u);
  int64_t total = 0;
  for (const bson::Document& g : *result) {
    total += g.Get("n")->AsInt64();
    const double avg = g.Get("avg_speed")->AsDouble();
    EXPECT_GE(avg, 0.0);
    EXPECT_LE(avg, 120.0);
  }
  EXPECT_EQ(total, 450);
}

TEST_F(ClusterAggregateTest, NoMatchScansEverything) {
  GroupStage group;
  group.accumulators = {{"n", AccumulatorOp::kCount, ""}};
  const auto result =
      cluster_->Aggregate(Pipeline().Group(std::move(group)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->front().Get("n")->AsInt64(), 900);
}

TEST_F(ClusterAggregateTest, BucketAutoOverCluster) {
  const auto result =
      cluster_->Aggregate(Pipeline().BucketAuto("date", 3));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 3u);
  for (const bson::Document& bucket : *result) {
    EXPECT_EQ(bucket.Get("count")->AsInt64(), 300);
  }
}

// ---------- deletes ----------

TEST_F(ClusterAggregateTest, DeleteRemovesMatchingAndUpdatesAccounting) {
  const ExprPtr expr = MakeRange("date", Value::DateTime(60000LL * 100),
                                 Value::DateTime(60000LL * 199));
  const Result<uint64_t> deleted = cluster_->Delete(expr);
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(*deleted, 100u);
  EXPECT_EQ(cluster_->total_documents(), 800u);

  // The window is empty now; deleting again removes nothing.
  const Result<uint64_t> again = cluster_->Delete(expr);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);

  // Queries no longer see the deleted window.
  EXPECT_EQ(cluster_->Query(expr).docs.size(), 0u);
  // Neighbouring data is intact.
  const ExprPtr before = MakeRange("date", Value::DateTime(0),
                                   Value::DateTime(60000LL * 99));
  EXPECT_EQ(cluster_->Query(before).docs.size(), 100u);

  // Chunk accounting never goes negative and stays consistent.
  uint64_t chunk_docs = 0;
  for (const cluster::Chunk& c : cluster_->chunks().chunks()) {
    chunk_docs += c.docs;
  }
  EXPECT_EQ(chunk_docs, 800u);
}

// ---------- explain ----------

// True when some shard's winning plan has a `stage` node anywhere.
bool AnyWinningPlanHas(const cluster::ClusterExplain& explain,
                       const std::string& stage) {
  std::vector<const ExplainNode*> todo;
  for (const cluster::ShardExplain& shard : explain.shards) {
    todo.push_back(&shard.winning_plan);
  }
  while (!todo.empty()) {
    const ExplainNode* node = todo.back();
    todo.pop_back();
    if (node->stage == stage) return true;
    for (const ExplainNode& child : node->children) todo.push_back(&child);
  }
  return false;
}

TEST_F(ClusterAggregateTest, ExplainReportsTargetingAndCandidates) {
  const ExprPtr targeted = MakeRange("date", Value::DateTime(0),
                                     Value::DateTime(60000LL * 50));
  const cluster::ClusterExplain plan =
      cluster_->Explain(targeted, ExplainVerbosity::kQueryPlanner);
  EXPECT_EQ(plan.shard_key, "{date: 1}");
  EXPECT_FALSE(plan.broadcast);
  EXPECT_TRUE(AnyWinningPlanHas(plan, "IXSCAN"));
  for (const cluster::ShardExplain& shard : plan.shards) {
    EXPECT_GE(shard.num_candidates, 1);
  }

  const ExprPtr off_key = MakeCmp("vehicle", CmpOp::kEq, Value::Int32(1));
  const cluster::ClusterExplain broadcast_plan =
      cluster_->Explain(off_key, ExplainVerbosity::kQueryPlanner);
  EXPECT_TRUE(broadcast_plan.broadcast);
  EXPECT_TRUE(AnyWinningPlanHas(broadcast_plan, "COLLSCAN"));
}

}  // namespace
}  // namespace stix::query
