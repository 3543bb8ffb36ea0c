// Tests for multikey indexing (arrays, GeoJSON LineStrings) and the
// $geoIntersects predicate — the "polylines" half of the paper's complex-
// geometry future work.

#include <set>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "index/index_catalog.h"
#include "query/executor.h"
#include "query/expression.h"
#include "storage/record_store.h"
#include "plan_drain.h"

namespace stix::query {
namespace {

using bson::Value;
using testing::DrainIds;

bson::Document LineDoc(int id, std::vector<std::pair<double, double>> pts,
                       int64_t date_ms) {
  bson::Document doc;
  doc.Append("id", Value::Int32(id));
  doc.Append("location",
             Value::MakeDocument(bson::GeoJsonLineString(pts)));
  doc.Append("date", Value::DateTime(date_ms));
  return doc;
}

bson::Document PointDoc(int id, double lon, double lat, int64_t date_ms) {
  bson::Document doc;
  doc.Append("id", Value::Int32(id));
  doc.Append("location",
             Value::MakeDocument(bson::GeoJsonPoint(lon, lat)));
  doc.Append("date", Value::DateTime(date_ms));
  return doc;
}

// ---------- GeoJSON LineString model ----------

TEST(GeoJsonLineStringTest, RoundTrip) {
  const bson::Document line =
      bson::GeoJsonLineString({{23.7, 37.9}, {23.8, 38.0}, {23.9, 38.1}});
  std::vector<std::pair<double, double>> pts;
  ASSERT_TRUE(bson::ExtractGeoJsonLineString(
      Value::MakeDocument(line), &pts));
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_DOUBLE_EQ(pts[1].first, 23.8);
  EXPECT_DOUBLE_EQ(pts[1].second, 38.0);
}

TEST(GeoJsonLineStringTest, RejectsMalformed) {
  std::vector<std::pair<double, double>> pts;
  // A Point is not a LineString.
  EXPECT_FALSE(bson::ExtractGeoJsonLineString(
      Value::MakeDocument(bson::GeoJsonPoint(1, 2)), &pts));
  // One vertex is not a line.
  bson::Document one;
  one.Append("type", Value::String("LineString"));
  one.Append("coordinates",
             Value::MakeArray({Value::MakeArray(
                 {Value::Double(1), Value::Double(2)})}));
  EXPECT_FALSE(
      bson::ExtractGeoJsonLineString(Value::MakeDocument(one), &pts));
}

// ---------- multikey key generation ----------

TEST(MultikeyKeyGenTest, LineStringYieldsOneKeyPerCell) {
  const index::IndexDescriptor desc(
      "g", {{"location", index::IndexFieldKind::k2dsphere}}, 26);
  const index::KeyGenerator gen(desc);
  // A long diagonal across ~10 degrees crosses many 26-bit cells.
  const bson::Document doc = LineDoc(1, {{10, 10}, {20, 20}}, 0);
  const Result<std::vector<std::string>> keys = gen.MakeKeys(doc);
  ASSERT_TRUE(keys.ok()) << keys.status().ToString();
  EXPECT_GT(keys->size(), 100u);
  // Keys are deduplicated and sorted.
  for (size_t i = 1; i < keys->size(); ++i) {
    EXPECT_LT((*keys)[i - 1], (*keys)[i]);
  }
  // MakeKey refuses multikey documents.
  EXPECT_FALSE(gen.MakeKey(doc).ok());
}

TEST(MultikeyKeyGenTest, ArrayFieldYieldsOneKeyPerElement) {
  const index::IndexDescriptor desc(
      "tags", {{"tags", index::IndexFieldKind::kAscending}});
  const index::KeyGenerator gen(desc);
  bson::Document doc;
  doc.Append("tags", Value::MakeArray({Value::String("a"),
                                       Value::String("b"),
                                       Value::String("a")}));  // dup
  const Result<std::vector<std::string>> keys = gen.MakeKeys(doc);
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), 2u);  // deduplicated
}

TEST(MultikeyKeyGenTest, PointDocsStaySingleKey) {
  const index::IndexDescriptor desc(
      "g", {{"location", index::IndexFieldKind::k2dsphere},
            {"date", index::IndexFieldKind::kAscending}}, 26);
  const index::KeyGenerator gen(desc);
  const Result<std::vector<std::string>> keys =
      gen.MakeKeys(PointDoc(1, 23.7, 37.9, 1000));
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), 1u);
}

TEST(MultikeyKeyGenTest, AbsurdGeometryIsRejected) {
  const index::IndexDescriptor desc(
      "g", {{"location", index::IndexFieldKind::k2dsphere}}, 26);
  const index::KeyGenerator gen(desc);
  // A line spanning the whole globe covers far more cells than the cap.
  const bson::Document doc = LineDoc(1, {{-179, -80}, {179, 80}}, 0);
  EXPECT_FALSE(gen.MakeKeys(doc).ok());
}

TEST(MultikeyIndexTest, InsertRemoveBalances) {
  index::Index idx(index::IndexDescriptor(
      "g", {{"location", index::IndexFieldKind::k2dsphere}}, 26));
  const bson::Document doc = LineDoc(1, {{10, 10}, {11, 11}}, 0);
  ASSERT_TRUE(idx.InsertDocument(doc, 5).ok());
  EXPECT_TRUE(idx.is_multikey());
  EXPECT_GT(idx.btree().num_entries(), 1u);
  ASSERT_TRUE(idx.RemoveDocument(doc, 5).ok());
  EXPECT_EQ(idx.btree().num_entries(), 0u);
}

// ---------- $geoIntersects semantics ----------

TEST(GeoIntersectsTest, PointsAndLines) {
  const geo::Rect box{{5, 5}, {10, 10}};
  const ExprPtr q = MakeGeoIntersectsBox("location", box);
  EXPECT_TRUE(q->Matches(PointDoc(1, 7, 7, 0)));
  EXPECT_FALSE(q->Matches(PointDoc(1, 4, 7, 0)));
  // Line crossing the box without a vertex inside it.
  EXPECT_TRUE(q->Matches(LineDoc(1, {{0, 7}, {20, 8}}, 0)));
  // Line entirely inside.
  EXPECT_TRUE(q->Matches(LineDoc(1, {{6, 6}, {7, 7}}, 0)));
  // Line passing nearby.
  EXPECT_FALSE(q->Matches(LineDoc(1, {{0, 0}, {4, 4}}, 0)));
  // Missing / non-geometry field.
  bson::Document none;
  none.Append("x", Value::Int32(1));
  EXPECT_FALSE(q->Matches(none));
}

// ---------- end-to-end over a mixed collection ----------

class MixedGeometryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(123);
    int id = 0;
    // 300 points and 150 short trajectory polylines in [0,30]^2.
    for (int i = 0; i < 300; ++i) {
      Insert(PointDoc(id++, rng.NextDouble(0, 30), rng.NextDouble(0, 30),
                      60000LL * i));
    }
    for (int i = 0; i < 150; ++i) {
      const double lon = rng.NextDouble(0, 29);
      const double lat = rng.NextDouble(0, 29);
      Insert(LineDoc(id++,
                     {{lon, lat},
                      {lon + rng.NextDouble(0.1, 1.0),
                       lat + rng.NextDouble(0.1, 1.0)},
                      {lon + rng.NextDouble(0.1, 1.0),
                       lat + rng.NextDouble(0.2, 2.0)}},
                     60000LL * i));
    }
    ASSERT_TRUE(catalog_
                    .CreateIndex(index::IndexDescriptor(
                        "geo_date",
                        {{"location", index::IndexFieldKind::k2dsphere},
                         {"date", index::IndexFieldKind::kAscending}},
                        26))
                    .ok());
    records_.ForEach([&](storage::RecordId rid, const bson::Document& doc) {
      ASSERT_TRUE(catalog_.OnInsert(doc, rid).ok());
    });
  }

  void Insert(bson::Document doc) { records_.Insert(std::move(doc)); }

  std::set<int> NaiveIds(const ExprPtr& expr) const {
    std::set<int> ids;
    records_.ForEach([&](storage::RecordId, const bson::Document& doc) {
      if (expr->Matches(doc)) ids.insert(doc.Get("id")->AsInt32());
    });
    return ids;
  }

  storage::RecordStore records_;
  index::IndexCatalog catalog_;
};

TEST_F(MixedGeometryTest, GeoIntersectsMatchesNaiveViaIndex) {
  const ExprPtr q = MakeGeoIntersectsBox("location", {{10, 10}, {14, 14}});
  PlanExecutor exec(records_, catalog_, q);
  const std::vector<int> ids = DrainIds(&exec);
  EXPECT_EQ(exec.winning_index(), "geo_date");
  EXPECT_EQ(std::set<int>(ids.begin(), ids.end()), NaiveIds(q));
  EXPECT_GT(ids.size(), 0u);
}

TEST_F(MixedGeometryTest, MultikeyScanReturnsEachDocumentOnce) {
  // A box crossing many cells: a polyline inside it has several matching
  // index entries but must be returned exactly once.
  const ExprPtr q = MakeGeoIntersectsBox("location", {{0, 0}, {30, 30}});
  PlanExecutor exec(records_, catalog_, q);
  std::set<int> unique_ids;
  for (const int id : DrainIds(&exec)) {
    EXPECT_TRUE(unique_ids.insert(id).second)
        << "duplicate document in result set";
  }
  EXPECT_EQ(unique_ids.size(), 450u);
}

TEST(LineStringClusterTest, BaselineApproachStoresAndFindsTrajectorySegments) {
  // The paper's polyline future work, end to end: a date-sharded cluster
  // (the baseline layout — MongoDB forbids multikey shard keys, so the
  // Hilbert shard key stays point-only) with a 2dsphere compound index over
  // mixed points and trajectory segments.
  cluster::ClusterOptions options;
  options.num_shards = 3;
  cluster::Cluster cluster(options);
  ASSERT_TRUE(cluster
                  .ShardCollection(cluster::ShardKeyPattern(
                      {"date"}, cluster::ShardingStrategy::kRange))
                  .ok());
  ASSERT_TRUE(cluster
                  .CreateIndex(index::IndexDescriptor(
                      "location_2dsphere_date_1",
                      {{"location", index::IndexFieldKind::k2dsphere},
                       {"date", index::IndexFieldKind::kAscending}},
                      26))
                  .ok());
  Rng rng(9);
  for (int i = 0; i < 400; ++i) {
    const double lon = rng.NextDouble(23.0, 24.0);
    const double lat = rng.NextDouble(37.5, 38.5);
    bson::Document doc = rng.NextBool(0.5)
        ? PointDoc(i, lon, lat, 60000LL * i)
        : LineDoc(i, {{lon, lat}, {lon + 0.02, lat + 0.015}}, 60000LL * i);
    ASSERT_TRUE(cluster.Insert(std::move(doc)).ok());
  }
  cluster.Balance();

  const ExprPtr q = MakeAnd(
      {MakeGeoIntersectsBox("location", {{23.4, 37.8}, {23.6, 38.0}}),
       MakeRange("date", Value::DateTime(0),
                 Value::DateTime(60000LL * 400))});
  const cluster::ClusterQueryResult r = cluster.Query(q);

  size_t naive = 0;
  for (const auto& shard : cluster.shards()) {
    shard->records().ForEach(
        [&](storage::RecordId, const bson::Document& doc) {
          naive += q->Matches(doc);
        });
  }
  EXPECT_EQ(r.docs.size(), naive);
  EXPECT_GT(naive, 0u);
}

TEST_F(MixedGeometryTest, GeoWithinStillWorksOnPointsOnly) {
  // $geoWithin over the mixed collection: lines never match (a line is not
  // "within" unless all of it is; we implement point-within only), points do.
  const ExprPtr q = MakeGeoWithinBox("location", {{5, 5}, {25, 25}});
  PlanExecutor exec(records_, catalog_, q);
  storage::RecordId rid;
  const bson::Document* doc = nullptr;
  size_t returned = 0;
  while (exec.Next(&rid, &doc)) {
    ++returned;
    double lon, lat;
    EXPECT_TRUE(bson::ExtractGeoJsonPoint(*doc->Get("location"), &lon, &lat))
        << "a LineString leaked into $geoWithin results";
  }
  EXPECT_EQ(returned, NaiveIds(q).size());
}

}  // namespace
}  // namespace stix::query
