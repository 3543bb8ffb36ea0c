#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/index_catalog.h"
#include "query/executor.h"
#include "query/expression.h"
#include "query/plan_cache.h"
#include "query/planner.h"
#include "query/query_analysis.h"
#include "storage/record_store.h"
#include "plan_drain.h"

namespace stix::query {
namespace {

using bson::Value;
using testing::DrainIds;

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

// ---------- expression semantics ----------

TEST(ExprTest, CmpOperators) {
  const bson::Document doc = PointDoc(1, 0, 0, 100, 5);
  EXPECT_TRUE(MakeCmp("date", CmpOp::kGte, Value::DateTime(100))->Matches(doc));
  EXPECT_TRUE(MakeCmp("date", CmpOp::kLte, Value::DateTime(100))->Matches(doc));
  EXPECT_FALSE(MakeCmp("date", CmpOp::kGt, Value::DateTime(100))->Matches(doc));
  EXPECT_FALSE(MakeCmp("date", CmpOp::kLt, Value::DateTime(100))->Matches(doc));
  EXPECT_TRUE(MakeCmp("date", CmpOp::kEq, Value::DateTime(100))->Matches(doc));
  EXPECT_FALSE(MakeCmp("missing", CmpOp::kEq, Value::Int32(1))->Matches(doc));
}

TEST(ExprTest, CmpRespectsTypeBrackets) {
  const bson::Document doc = PointDoc(1, 0, 0, 100, 5);
  // A date bound never matches the numeric hilbertIndex field.
  EXPECT_FALSE(
      MakeCmp("hilbertIndex", CmpOp::kGte, Value::DateTime(0))->Matches(doc));
  // But numeric widths cross-match.
  EXPECT_TRUE(
      MakeCmp("hilbertIndex", CmpOp::kEq, Value::Double(5.0))->Matches(doc));
}

TEST(ExprTest, InMatchesAnyListed) {
  const bson::Document doc = PointDoc(1, 0, 0, 100, 7);
  EXPECT_TRUE(MakeIn("hilbertIndex",
                     {Value::Int64(3), Value::Int64(7)})->Matches(doc));
  EXPECT_FALSE(MakeIn("hilbertIndex",
                      {Value::Int64(3), Value::Int64(8)})->Matches(doc));
  EXPECT_FALSE(MakeIn("missing", {Value::Int64(3)})->Matches(doc));
}

TEST(ExprTest, AndOrCompose) {
  const bson::Document doc = PointDoc(1, 0, 0, 100, 7);
  const ExprPtr t = MakeCmp("id", CmpOp::kEq, Value::Int32(1));
  const ExprPtr f = MakeCmp("id", CmpOp::kEq, Value::Int32(2));
  EXPECT_TRUE(MakeAnd({t, t})->Matches(doc));
  EXPECT_FALSE(MakeAnd({t, f})->Matches(doc));
  EXPECT_TRUE(MakeAnd({})->Matches(doc));  // empty $and matches all
  EXPECT_TRUE(MakeOr({f, t})->Matches(doc));
  EXPECT_FALSE(MakeOr({f, f})->Matches(doc));
  EXPECT_FALSE(MakeOr({})->Matches(doc));
}

TEST(ExprTest, GeoWithinBoxExactBoundaries) {
  const geo::Rect box{{10, 10}, {20, 20}};
  EXPECT_TRUE(MakeGeoWithinBox("location", box)
                  ->Matches(PointDoc(1, 10, 20, 0, 0)));
  EXPECT_TRUE(MakeGeoWithinBox("location", box)
                  ->Matches(PointDoc(1, 15, 15, 0, 0)));
  EXPECT_FALSE(MakeGeoWithinBox("location", box)
                   ->Matches(PointDoc(1, 9.999, 15, 0, 0)));
  // Field missing / not a point.
  bson::Document no_loc;
  no_loc.Append("x", Value::Int32(1));
  EXPECT_FALSE(MakeGeoWithinBox("location", box)->Matches(no_loc));
}

TEST(ExprTest, RangeHelperIsClosedInterval) {
  const ExprPtr range =
      MakeRange("date", Value::DateTime(10), Value::DateTime(20));
  EXPECT_TRUE(range->Matches(PointDoc(1, 0, 0, 10, 0)));
  EXPECT_TRUE(range->Matches(PointDoc(1, 0, 0, 20, 0)));
  EXPECT_FALSE(range->Matches(PointDoc(1, 0, 0, 9, 0)));
  EXPECT_FALSE(range->Matches(PointDoc(1, 0, 0, 21, 0)));
}

TEST(ExprTest, DebugStringsRender) {
  EXPECT_EQ(MakeCmp("a", CmpOp::kGte, Value::Int32(3))->DebugString(),
            "{a: {$gte: 3}}");
  EXPECT_NE(MakeGeoWithinBox("location", {{0, 0}, {1, 1}})
                ->DebugString()
                .find("$geoWithin"),
            std::string::npos);
}

// ---------- RangeSetExpr ----------

ExprPtr MakeTestRangeSet() {
  std::vector<RangeSetExpr::Range> ranges;
  ranges.push_back({Value::Int64(5), Value::Int64(9)});
  ranges.push_back({Value::Int64(20), Value::Int64(20)});
  ranges.push_back({Value::Int64(30), Value::Int64(40)});
  return MakeRangeSet("hilbertIndex", std::move(ranges));
}

TEST(RangeSetExprTest, MatchesByBinarySearch) {
  const ExprPtr rs = MakeTestRangeSet();
  auto doc_with = [](int64_t h) {
    return PointDoc(1, 0, 0, 0, h);
  };
  EXPECT_FALSE(rs->Matches(doc_with(4)));
  EXPECT_TRUE(rs->Matches(doc_with(5)));
  EXPECT_TRUE(rs->Matches(doc_with(9)));
  EXPECT_FALSE(rs->Matches(doc_with(10)));
  EXPECT_TRUE(rs->Matches(doc_with(20)));
  EXPECT_FALSE(rs->Matches(doc_with(21)));
  EXPECT_TRUE(rs->Matches(doc_with(40)));
  EXPECT_FALSE(rs->Matches(doc_with(41)));
}

TEST(RangeSetExprTest, MissingFieldNeverMatches) {
  const ExprPtr rs = MakeTestRangeSet();
  bson::Document empty;
  EXPECT_FALSE(rs->Matches(empty));
}

TEST(RangeSetExprTest, EquivalentToExplicitOr) {
  // The RangeSet node is the efficient form of the paper's $or; it must
  // agree with the verbose expression on every value.
  const ExprPtr rs = MakeTestRangeSet();
  const ExprPtr verbose = MakeOr(
      {MakeRange("hilbertIndex", Value::Int64(5), Value::Int64(9)),
       MakeRange("hilbertIndex", Value::Int64(30), Value::Int64(40)),
       MakeIn("hilbertIndex", {Value::Int64(20)})});
  for (int64_t h = 0; h < 50; ++h) {
    const bson::Document doc = PointDoc(1, 0, 0, 0, h);
    EXPECT_EQ(rs->Matches(doc), verbose->Matches(doc)) << "h=" << h;
  }
}

TEST(RangeSetExprTest, AnalysisYieldsSameBoundsAsOr) {
  const auto rs_paths = AnalyzeQuery(MakeTestRangeSet());
  ASSERT_TRUE(rs_paths.count("hilbertIndex"));
  const index::FieldBounds fb =
      AscendingBounds(&rs_paths.at("hilbertIndex"));
  ASSERT_EQ(fb.intervals.size(), 3u);
  EXPECT_EQ(fb.intervals[1].lo.AsInt64(), 20);
}

TEST(RangeSetExprTest, DebugStringSummarises) {
  const std::string text = MakeTestRangeSet()->DebugString();
  EXPECT_NE(text.find("$or"), std::string::npos);
  EXPECT_NE(text.find("2 ranges"), std::string::npos);
  EXPECT_NE(text.find("1 $in"), std::string::npos);
}

// ---------- QueryShape / PlanCache ----------

TEST(QueryShapeTest, ConstantsAreErased) {
  const ExprPtr a = MakeAnd(
      {MakeGeoWithinBox("location", {{0, 0}, {1, 1}}),
       MakeRange("date", Value::DateTime(0), Value::DateTime(100))});
  const ExprPtr b = MakeAnd(
      {MakeGeoWithinBox("location", {{5, 5}, {9, 9}}),
       MakeRange("date", Value::DateTime(5000), Value::DateTime(999999))});
  EXPECT_EQ(QueryShape(*a), QueryShape(*b));
}

TEST(QueryShapeTest, DifferentPathsDiffer) {
  const ExprPtr a = MakeCmp("x", CmpOp::kGte, Value::Int32(1));
  const ExprPtr b = MakeCmp("y", CmpOp::kGte, Value::Int32(1));
  EXPECT_NE(QueryShape(*a), QueryShape(*b));
}

TEST(QueryShapeTest, OrArmCountDoesNotMatter) {
  // Coverings of different rectangles have different arm counts but are the
  // same query shape.
  const ExprPtr a = MakeOr(
      {MakeRange("h", Value::Int64(1), Value::Int64(2)),
       MakeRange("h", Value::Int64(5), Value::Int64(6))});
  const ExprPtr b = MakeOr(
      {MakeRange("h", Value::Int64(10), Value::Int64(20))});
  EXPECT_EQ(QueryShape(*a), QueryShape(*b));
}

TEST(QueryShapeTest, GteVsLteDiffer) {
  const ExprPtr a = MakeCmp("x", CmpOp::kGte, Value::Int32(1));
  const ExprPtr b = MakeCmp("x", CmpOp::kLte, Value::Int32(1));
  EXPECT_NE(QueryShape(*a), QueryShape(*b));
}

TEST(PlanCacheTest, StoreLookupEvict) {
  PlanCache cache;
  EXPECT_FALSE(cache.Lookup("shape").has_value());
  cache.Store("shape", "date_1", 42);
  ASSERT_TRUE(cache.Lookup("shape").has_value());
  EXPECT_EQ(cache.Lookup("shape")->index_name, "date_1");
  EXPECT_EQ(cache.Lookup("shape")->works, 42u);
  cache.Store("shape", "other", 7);
  EXPECT_EQ(cache.Lookup("shape")->index_name, "other");
  cache.Evict("shape");
  EXPECT_FALSE(cache.Lookup("shape").has_value());
  cache.Store("a", "x", 1);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

// ---------- query analysis ----------

TEST(QueryAnalysisTest, ExtractsBaseRange) {
  const ExprPtr q = MakeAnd(
      {MakeCmp("date", CmpOp::kGte, Value::DateTime(10)),
       MakeCmp("date", CmpOp::kLte, Value::DateTime(20))});
  const auto paths = AnalyzeQuery(q);
  ASSERT_TRUE(paths.count("date"));
  const index::FieldBounds fb = AscendingBounds(&paths.at("date"));
  ASSERT_EQ(fb.intervals.size(), 1u);
  EXPECT_EQ(fb.intervals[0].lo.AsDateTime(), 10);
  EXPECT_EQ(fb.intervals[0].hi.AsDateTime(), 20);
}

TEST(QueryAnalysisTest, TightensConflictingRanges) {
  const ExprPtr q = MakeAnd(
      {MakeCmp("x", CmpOp::kGte, Value::Int32(5)),
       MakeCmp("x", CmpOp::kGte, Value::Int32(8)),
       MakeCmp("x", CmpOp::kLte, Value::Int32(30)),
       MakeCmp("x", CmpOp::kLte, Value::Int32(20))});
  const auto paths = AnalyzeQuery(q);
  const index::FieldBounds fb = AscendingBounds(&paths.at("x"));
  ASSERT_EQ(fb.intervals.size(), 1u);
  EXPECT_EQ(fb.intervals[0].lo.AsInt32(), 8);
  EXPECT_EQ(fb.intervals[0].hi.AsInt32(), 20);
}

TEST(QueryAnalysisTest, RecognisesHilbertOrShape) {
  // $or: [{h: [a,b]}, {h: [c,d]}, {h: {$in: [x, y]}}] — the paper's query.
  const ExprPtr q = MakeOr(
      {MakeRange("h", Value::Int64(10), Value::Int64(20)),
       MakeRange("h", Value::Int64(40), Value::Int64(50)),
       MakeIn("h", {Value::Int64(70), Value::Int64(99)})});
  const auto paths = AnalyzeQuery(q);
  ASSERT_TRUE(paths.count("h"));
  const index::FieldBounds fb = AscendingBounds(&paths.at("h"));
  EXPECT_EQ(fb.intervals.size(), 4u);
}

TEST(QueryAnalysisTest, MixedPathOrStaysResidual) {
  const ExprPtr q = MakeOr(
      {MakeCmp("a", CmpOp::kEq, Value::Int32(1)),
       MakeCmp("b", CmpOp::kEq, Value::Int32(2))});
  const auto paths = AnalyzeQuery(q);
  EXPECT_FALSE(paths.count("a"));
  EXPECT_FALSE(paths.count("b"));
}

TEST(QueryAnalysisTest, HalfBoundedRangeFallsBackToFullRange) {
  const ExprPtr q = MakeCmp("x", CmpOp::kGte, Value::Int32(5));
  const auto paths = AnalyzeQuery(q);
  const index::FieldBounds fb = AscendingBounds(&paths.at("x"));
  EXPECT_TRUE(fb.full_range);
}

// ---------- execution fixture ----------

class QueryExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // 2000 points on a lon/lat grid over [0,10]^2, dates spread over 2000
    // minutes, hilbertIndex = a synthetic cell id (lon band).
    Rng rng(99);
    for (int i = 0; i < 2000; ++i) {
      const double lon = rng.NextDouble(0, 10);
      const double lat = rng.NextDouble(0, 10);
      const int64_t date = 60000LL * i;
      const int64_t h = static_cast<int64_t>(lon);  // 10 coarse cells
      rids_.push_back(
          records_.Insert(PointDoc(i, lon, lat, date, h)));
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

  std::set<int> NaiveIds(const ExprPtr& expr) const {
    std::set<int> ids;
    records_.ForEach([&](storage::RecordId, const bson::Document& doc) {
      if (expr->Matches(doc)) ids.insert(doc.Get("id")->AsInt32());
    });
    return ids;
  }

  // Drains `exec` and returns the result ids as a set.
  static std::set<int> DrainIdSet(PlanExecutor* exec) {
    const std::vector<int> ids = DrainIds(exec);
    return {ids.begin(), ids.end()};
  }

  storage::RecordStore records_;
  index::IndexCatalog catalog_;
  std::vector<storage::RecordId> rids_;
};

TEST_F(QueryExecTest, DateRangeMatchesNaive) {
  const ExprPtr q =
      MakeRange("date", Value::DateTime(60000LL * 500),
                Value::DateTime(60000LL * 700));
  PlanExecutor exec(records_, catalog_, q);
  EXPECT_EQ(DrainIdSet(&exec), NaiveIds(q));
  EXPECT_EQ(exec.CurrentStats().n_returned, 201u);
}

TEST_F(QueryExecTest, SpatioTemporalMatchesNaive) {
  const geo::Rect box{{2, 2}, {4, 6}};
  const ExprPtr q = MakeAnd(
      {MakeGeoWithinBox("location", box),
       MakeRange("date", Value::DateTime(0),
                 Value::DateTime(60000LL * 1500))});
  PlanExecutor exec(records_, catalog_, q);
  EXPECT_EQ(DrainIdSet(&exec), NaiveIds(q));
  EXPECT_GT(exec.CurrentStats().n_returned, 0u);
}

TEST_F(QueryExecTest, HilbertOrQueryMatchesNaive) {
  const geo::Rect box{{3, 0}, {5.5, 10}};
  const ExprPtr q = MakeAnd(
      {MakeGeoWithinBox("location", box),
       MakeRange("date", Value::DateTime(0),
                 Value::DateTime(60000LL * 2000)),
       MakeOr({MakeRange("hilbertIndex", Value::Int64(3), Value::Int64(5))})});
  PlanExecutor exec(records_, catalog_, q);
  EXPECT_EQ(DrainIdSet(&exec), NaiveIds(q));
}

TEST_F(QueryExecTest, CollScanWhenNoIndexUsable) {
  const ExprPtr q = MakeCmp("id", CmpOp::kEq, Value::Int32(77));
  PlanExecutor exec(records_, catalog_, q);
  EXPECT_EQ(DrainIds(&exec), std::vector<int>{77});
  EXPECT_EQ(exec.CurrentStats().plan_summary, "COLLSCAN");
  EXPECT_EQ(exec.CurrentStats().docs_examined, 2000u);
}

TEST_F(QueryExecTest, IndexScanExaminesFarFewerDocsThanCollScan) {
  const ExprPtr q =
      MakeRange("date", Value::DateTime(60000LL * 100),
                Value::DateTime(60000LL * 110));
  PlanExecutor exec(records_, catalog_, q);
  DrainIds(&exec);
  const ExecStats stats = exec.CurrentStats();
  EXPECT_NE(stats.plan_summary, "COLLSCAN");
  EXPECT_LE(stats.docs_examined, 12u);
  EXPECT_LE(stats.keys_examined, 20u);
}

TEST_F(QueryExecTest, CompoundPointPrefixUsesTightBounds) {
  // hilbertIndex == 4 (point interval) + narrow date range: the compound
  // scan should seek directly and examine ~matching keys only.
  const ExprPtr q = MakeAnd(
      {MakeOr({MakeRange("hilbertIndex", Value::Int64(4), Value::Int64(4))}),
       MakeRange("date", Value::DateTime(60000LL * 900),
                 Value::DateTime(60000LL * 1000))});
  PlanExecutor exec(records_, catalog_, q);
  EXPECT_EQ(DrainIdSet(&exec), NaiveIds(q));
  // About 10% lon band * 100 minutes of 2000 => ~10 docs.
  EXPECT_LE(exec.CurrentStats().keys_examined, 60u);
}

TEST_F(QueryExecTest, MultiPlannerPrefersSelectiveIndex) {
  // Tiny spatial box, whole time span: the 2dsphere compound index must
  // beat the date index (which would scan everything).
  const geo::Rect box{{2.0, 2.0}, {2.3, 2.3}};
  const ExprPtr q = MakeAnd(
      {MakeGeoWithinBox("location", box),
       MakeRange("date", Value::DateTime(0),
                 Value::DateTime(60000LL * 2000))});
  PlanExecutor exec(records_, catalog_, q);
  EXPECT_EQ(DrainIdSet(&exec), NaiveIds(q));
  EXPECT_EQ(exec.winning_index(), "loc_2dsphere_date_1");
  EXPECT_GE(exec.num_candidates(), 2);
}

TEST_F(QueryExecTest, MultiPlannerPrefersDateForTimeSelectiveHugeBox) {
  // Huge box (everything matches spatially), tiny time range: scanning the
  // date index returns results immediately; the geo compound index has to
  // wade through every cell. MongoDB picks date here (paper Table 7).
  const geo::Rect box{{-1, -1}, {11, 11}};
  const ExprPtr q = MakeAnd(
      {MakeGeoWithinBox("location", box),
       MakeRange("date", Value::DateTime(60000LL * 1000),
                 Value::DateTime(60000LL * 1010))});
  PlanExecutor exec(records_, catalog_, q);
  EXPECT_EQ(DrainIdSet(&exec), NaiveIds(q));
  EXPECT_EQ(exec.winning_index(), "date_1");
}

TEST_F(QueryExecTest, GeoLeadingIndexIgnoresTrailingDateBounds) {
  // MongoDB 4.0 semantics the paper's measurements depend on: with a
  // {location: 2dsphere, date: 1} index, the scan visits every key of the
  // covering's cells regardless of the date predicate (date filters at
  // FETCH). So the same box with a narrow or wide window examines the same
  // number of keys.
  const geo::Rect box{{2, 2}, {3, 3}};
  auto run = [&](int64_t t_hi) {
    const ExprPtr q = MakeAnd(
        {MakeGeoWithinBox("location", box),
         MakeRange("date", Value::DateTime(0), Value::DateTime(t_hi))});
    // Pin the plan to the geo compound index (bypass racing).
    const auto candidates = Planner::Plan(records_, catalog_, q);
    for (const auto& plan : candidates) {
      if (plan.index_name == "loc_2dsphere_date_1") {
        ExecStats stats;
        storage::RecordId rid;
        const bson::Document* doc;
        uint64_t works = 0;
        for (;;) {
          const PlanStage::State s = plan.root->Work(&rid, &doc);
          ++works;
          if (s == PlanStage::State::kEof) break;
        }
        plan.root->AccumulateStats(&stats);
        return stats.keys_examined;
      }
    }
    ADD_FAILURE() << "geo plan not generated";
    return uint64_t{0};
  };
  const uint64_t narrow = run(60000LL * 10);
  const uint64_t wide = run(60000LL * 2000);
  EXPECT_EQ(narrow, wide);
  EXPECT_GT(narrow, 0u);
}

TEST_F(QueryExecTest, InOnLeadingFieldUsesPointBounds) {
  const ExprPtr q = MakeIn("hilbertIndex", {Value::Int64(2), Value::Int64(7)});
  PlanExecutor exec(records_, catalog_, q);
  EXPECT_EQ(DrainIdSet(&exec), NaiveIds(q));
  EXPECT_EQ(exec.winning_index(), "h_1_date_1");
  // Roughly 2 of 10 lon bands -> ~400 docs; the scan must not visit other
  // bands' keys (plus a boundary key per band).
  const ExecStats stats = exec.CurrentStats();
  EXPECT_LE(stats.keys_examined, stats.n_returned + 8);
}

TEST_F(QueryExecTest, TrialResultsOptionShortensRace) {
  const geo::Rect box{{0, 0}, {10, 10}};
  const ExprPtr q = MakeAnd(
      {MakeGeoWithinBox("location", box),
       MakeRange("date", Value::DateTime(0),
                 Value::DateTime(60000LL * 2000))});
  ExecutorOptions options;
  options.trial_results = 5;  // decide after 5 documents
  PlanExecutor exec(records_, catalog_, q, options);
  EXPECT_EQ(DrainIds(&exec).size(), 2000u);  // full results regardless
}

TEST_F(QueryExecTest, EmptyResultStillTerminates) {
  const ExprPtr q =
      MakeRange("date", Value::DateTime(60000LL * 5000),
                Value::DateTime(60000LL * 6000));
  PlanExecutor exec(records_, catalog_, q);
  EXPECT_TRUE(DrainIds(&exec).empty());
  EXPECT_TRUE(exec.exhausted());
}

TEST_F(QueryExecTest, PlanCacheSkipsTheRaceOnRepeat) {
  const geo::Rect box{{2.0, 2.0}, {2.3, 2.3}};
  const ExprPtr q = MakeAnd(
      {MakeGeoWithinBox("location", box),
       MakeRange("date", Value::DateTime(0),
                 Value::DateTime(60000LL * 2000))});
  PlanCache cache;
  PlanExecutor first(records_, catalog_, q, {}, &cache);
  const std::set<int> first_ids = DrainIdSet(&first);
  EXPECT_FALSE(first.from_plan_cache());
  EXPECT_EQ(cache.size(), 1u);
  PlanExecutor second(records_, catalog_, q, {}, &cache);
  EXPECT_EQ(DrainIdSet(&second), first_ids);
  EXPECT_TRUE(second.from_plan_cache());
  EXPECT_EQ(second.winning_index(), first.winning_index());
  // The cached run does not pay the losing plan's trial work.
  EXPECT_LE(second.CurrentStats().works, first.CurrentStats().works);
}

TEST_F(QueryExecTest, ReplanningRecoversFromPoisonedCache) {
  // Cache a plan with a tiny selective query (compound geo index wins),
  // then issue the same *shape* with a huge box and a narrow time window:
  // the cached geo plan blows its works budget, is evicted, and the date
  // index wins the re-race — the mechanism behind the paper's Table 7.
  PlanCache cache;
  const ExprPtr small_q = MakeAnd(
      {MakeGeoWithinBox("location", {{2.0, 2.0}, {2.3, 2.3}}),
       MakeRange("date", Value::DateTime(0),
                 Value::DateTime(60000LL * 2000))});
  PlanExecutor small_exec(records_, catalog_, small_q, {}, &cache);
  DrainIds(&small_exec);
  EXPECT_EQ(small_exec.winning_index(), "loc_2dsphere_date_1");

  const ExprPtr big_q = MakeAnd(
      {MakeGeoWithinBox("location", {{-1, -1}, {11, 11}}),
       MakeRange("date", Value::DateTime(60000LL * 1000),
                 Value::DateTime(60000LL * 1010))});
  ExecutorOptions options;
  options.replan_min_works = 50;  // small enough to trigger at this scale
  PlanExecutor big_exec(records_, catalog_, big_q, options, &cache);
  EXPECT_EQ(DrainIdSet(&big_exec), NaiveIds(big_q));
  EXPECT_TRUE(big_exec.replanned());
  EXPECT_EQ(big_exec.winning_index(), "date_1");
  // The re-raced winner replaced the cache entry.
  ASSERT_EQ(cache.size(), 1u);
}

TEST_F(QueryExecTest, ReplanRaceUsesFreshPlanStages) {
  // Regression test for the replan path: when a cached plan blows its works
  // budget mid-drain, the executor must discard the partially-consumed
  // stages and re-race freshly planned candidates (a stale pointer into the
  // replaced candidate vector would corrupt the race). Poison the cache
  // directly with a deliberately bad entry — the date index with a works
  // figure of 1 — so the very first execution takes the replan branch.
  PlanCache cache;
  const ExprPtr q = MakeAnd(
      {MakeGeoWithinBox("location", {{2.0, 2.0}, {2.3, 2.3}}),
       MakeRange("date", Value::DateTime(0),
                 Value::DateTime(60000LL * 2000))});
  cache.Store(QueryShape(*q), "date_1", /*works=*/1);

  ExecutorOptions options;
  options.replan_min_works = 1;  // budget = max(1, 10 * 1) = 10 works
  PlanExecutor exec(records_, catalog_, q, options, &cache);
  EXPECT_EQ(DrainIdSet(&exec), NaiveIds(q));
  EXPECT_TRUE(exec.replanned());
  EXPECT_FALSE(exec.from_plan_cache());
  EXPECT_EQ(exec.winning_index(), "loc_2dsphere_date_1");

  // The re-race overwrote the poisoned entry; a rerun with the default
  // budget trusts the refreshed cache and returns the same documents.
  PlanExecutor again(records_, catalog_, q, {}, &cache);
  EXPECT_EQ(DrainIdSet(&again), NaiveIds(q));
  EXPECT_TRUE(again.from_plan_cache());
  EXPECT_FALSE(again.replanned());
}

TEST_F(QueryExecTest, PlanCacheReusedAcrossDifferentConstants) {
  PlanCache cache;
  const auto query_for = [&](int64_t day) {
    return MakeAnd(
        {MakeGeoWithinBox("location", {{2.0, 2.0}, {2.3, 2.3}}),
         MakeRange("date", Value::DateTime(60000LL * day),
                   Value::DateTime(60000LL * (day + 100)))});
  };
  PlanExecutor first(records_, catalog_, query_for(0), {}, &cache);
  DrainIds(&first);
  PlanExecutor exec(records_, catalog_, query_for(700), {}, &cache);
  DrainIds(&exec);
  EXPECT_TRUE(exec.from_plan_cache());
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(QueryExecTest, RemovedDocsAreInvisible) {
  // Remove half the matching window from the record store and indexes.
  const ExprPtr q =
      MakeRange("date", Value::DateTime(60000LL * 100),
                Value::DateTime(60000LL * 120));
  for (int i = 100; i <= 110; ++i) {
    const bson::Document* doc = records_.Get(rids_[i]);
    ASSERT_TRUE(catalog_.OnRemove(*doc, rids_[i]).ok());
    records_.Remove(rids_[i]);
  }
  PlanExecutor exec(records_, catalog_, q);
  const std::set<int> ids = DrainIdSet(&exec);
  EXPECT_EQ(ids.size(), 10u);  // 121 - 111
  EXPECT_EQ(ids, NaiveIds(q));
}

}  // namespace
}  // namespace stix::query
