// Cost-based plan selection: histogram-backed picks vs the trial race,
// the confidence-margin fallback, plan-cache invalidation on migration
// (the balancer-move regression), explain's estimated-vs-actual reporting,
// the ServerStatus planner section, and adaptive covering budgets.

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "st/st_store.h"

namespace stix::st {
namespace {

using cluster::ClusterExplain;
using cluster::ShardExplain;

constexpr int64_t kT0 = 1538352000000;
constexpr int64_t kDayMs = 86400000;

bson::Document PointDoc(double lon, double lat, int64_t t_ms, int32_t fid) {
  bson::Document doc;
  doc.Append(kLocationField,
             bson::Value::MakeDocument(bson::GeoJsonPoint(lon, lat)));
  doc.Append(kDateField, bson::Value::DateTime(t_ms));
  doc.Append("fid", bson::Value::Int32(fid));
  return doc;
}

StStoreOptions BaseOptions(ApproachKind kind) {
  StStoreOptions options;
  options.approach.kind = kind;
  options.approach.hilbert_order = 6;
  options.approach.dataset_mbr = geo::Rect{{0.0, 0.0}, {10.0, 10.0}};
  options.cluster.num_shards = 3;
  options.cluster.chunk_max_bytes = 16 * 1024;
  return options;
}

void LoadUniform(StStore* store, int count, uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    // Sequence the draws explicitly: argument evaluation order is
    // unspecified, and the covering-budget oracle replays this stream.
    const double lon = rng.NextDouble(0.0, 10.0);
    const double lat = rng.NextDouble(0.0, 10.0);
    const int64_t t = kT0 + static_cast<int64_t>(rng.NextBounded(kDayMs));
    ASSERT_TRUE(store->Insert(PointDoc(lon, lat, t, i)).ok());
  }
  ASSERT_TRUE(store->FinishLoad().ok());
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Instance().GetCounter(name).value();
}

// Shards the explain actually planned (contacted with at least one
// candidate; untouched shards report "none").
std::vector<const ShardExplain*> PlannedShards(const ClusterExplain& ce) {
  std::vector<const ShardExplain*> out;
  for (const ShardExplain& se : ce.shards) {
    if (se.planned_by != "none") out.push_back(&se);
  }
  return out;
}

// ---------- Selection modes ----------

// Baselines expose two candidate plans; with fresh histograms the cost
// model must pick outright, and the explain tree must carry the estimate.
TEST(PlannerCostTest, CostModePicksWithoutRacing) {
  StStore store(BaseOptions(ApproachKind::kBslST));
  ASSERT_TRUE(store.Setup().ok());
  LoadUniform(&store, 800, 7);

  const uint64_t estimated_before = CounterValue("planner.plans_estimated");
  const uint64_t raced_before = CounterValue("planner.plans_raced");
  // Selective rect + unselective time window: the date_1 plan must touch
  // every key while the 2dsphere plan touches ~1% — an asymmetry far past
  // the confidence margin, so the pick is decisive on every shard.
  const StExplain explain = store.Explain(
      geo::Rect{{2.0, 2.0}, {3.0, 3.0}}, kT0, kT0 + kDayMs);
  const std::vector<const ShardExplain*> planned =
      PlannedShards(explain.cluster);
  ASSERT_FALSE(planned.empty());
  int cost_planned = 0;
  for (const ShardExplain* se : planned) {
    EXPECT_TRUE(se->planned_by == "cost" || se->planned_by == "race" ||
                se->planned_by == "cache")
        << se->planned_by;
    if (se->planned_by == "cost") {
      ++cost_planned;
      EXPECT_GE(se->estimated_keys, 0.0);
      EXPECT_GE(se->estimated_docs, 0.0);
    }
  }
  EXPECT_GT(cost_planned, 0);
  EXPECT_GT(CounterValue("planner.plans_estimated"), estimated_before);
  EXPECT_EQ(CounterValue("planner.plans_raced"), raced_before);

  const std::string json = explain.cluster.ToJson();
  EXPECT_NE(json.find("\"plannedBy\": \"cost\""), std::string::npos);
  EXPECT_NE(json.find("\"estimatedKeysExamined\""), std::string::npos);
  EXPECT_NE(json.find("\"estimatedDocsExamined\""), std::string::npos);
}

TEST(PlannerCostTest, RaceModeAlwaysRaces) {
  StStoreOptions options = BaseOptions(ApproachKind::kBslST);
  options.cluster.exec.plan_selection = query::PlanSelectionMode::kRace;
  StStore store(options);
  ASSERT_TRUE(store.Setup().ok());
  LoadUniform(&store, 400, 11);

  const StExplain explain = store.Explain(
      geo::Rect{{2.0, 2.0}, {5.0, 5.0}}, kT0, kT0 + kDayMs);
  for (const ShardExplain* se : PlannedShards(explain.cluster)) {
    EXPECT_EQ(se->planned_by, "race");
    EXPECT_LT(se->estimated_keys, 0.0);  // no estimate recorded
  }
}

// An absurd confidence margin means no estimate is ever decisive: every
// multi-candidate plan falls back to the race and the fallback counter
// moves.
TEST(PlannerCostTest, IndecisiveEstimatesFallBackToRace) {
  StStoreOptions options = BaseOptions(ApproachKind::kBslST);
  options.cluster.exec.cost_confidence_margin = 1e18;
  StStore store(options);
  ASSERT_TRUE(store.Setup().ok());
  LoadUniform(&store, 400, 13);

  const uint64_t fallbacks_before = CounterValue("planner.estimate_fallbacks");
  const StExplain explain = store.Explain(
      geo::Rect{{2.0, 2.0}, {5.0, 5.0}}, kT0, kT0 + kDayMs);
  const std::vector<const ShardExplain*> planned =
      PlannedShards(explain.cluster);
  ASSERT_FALSE(planned.empty());
  for (const ShardExplain* se : planned) {
    EXPECT_EQ(se->planned_by, "race");
  }
  EXPECT_GT(CounterValue("planner.estimate_fallbacks"), fallbacks_before);
}

// Hilbert approaches expose a single candidate: nothing to choose.
TEST(PlannerCostTest, SingleCandidateSkipsSelection) {
  StStore store(BaseOptions(ApproachKind::kHil));
  ASSERT_TRUE(store.Setup().ok());
  LoadUniform(&store, 300, 17);
  const StExplain explain = store.Explain(
      geo::Rect{{2.0, 2.0}, {5.0, 5.0}}, kT0, kT0 + kDayMs);
  for (const ShardExplain* se : PlannedShards(explain.cluster)) {
    EXPECT_TRUE(se->planned_by == "single" || se->planned_by == "cache")
        << se->planned_by;
  }
}

// Cost selection and the race must agree on results (the fuzzer's
// byte-parity oracle, pinned here on one fixed workload).
TEST(PlannerCostTest, CostAndRaceReturnIdenticalResults) {
  StStoreOptions cost_opts = BaseOptions(ApproachKind::kBslTS);
  StStoreOptions race_opts = cost_opts;
  race_opts.cluster.exec.plan_selection = query::PlanSelectionMode::kRace;
  StStore cost_store(cost_opts), race_store(race_opts);
  ASSERT_TRUE(cost_store.Setup().ok());
  ASSERT_TRUE(race_store.Setup().ok());
  Rng rng(23);
  for (int i = 0; i < 500; ++i) {
    const bson::Document doc = PointDoc(
        rng.NextDouble(0.0, 10.0), rng.NextDouble(0.0, 10.0),
        kT0 + static_cast<int64_t>(rng.NextBounded(kDayMs)), i);
    ASSERT_TRUE(cost_store.Insert(doc).ok());
    ASSERT_TRUE(race_store.Insert(doc).ok());
  }
  ASSERT_TRUE(cost_store.FinishLoad().ok());
  ASSERT_TRUE(race_store.FinishLoad().ok());

  Rng qrng(29);
  for (int i = 0; i < 10; ++i) {
    const double lon = qrng.NextDouble(0.0, 8.0);
    const double lat = qrng.NextDouble(0.0, 8.0);
    const geo::Rect rect{{lon, lat},
                         {lon + qrng.NextDouble(0.2, 2.0),
                          lat + qrng.NextDouble(0.2, 2.0)}};
    const int64_t t1 =
        kT0 + static_cast<int64_t>(qrng.NextBounded(kDayMs)) + 1;
    const StQueryResult a = cost_store.Query(rect, kT0, t1);
    const StQueryResult b = race_store.Query(rect, kT0, t1);
    ASSERT_TRUE(a.cluster.status.ok());
    ASSERT_TRUE(b.cluster.status.ok());
    EXPECT_EQ(a.cluster.docs.size(), b.cluster.docs.size()) << "query " << i;
  }
}

// ---------- Estimation accuracy (acceptance bound) ----------

// On a seeded uniform dataset the cost model's keys+docs prediction must
// land within a mean absolute relative error of 0.5 of the measured
// counters.
TEST(PlannerCostTest, EstimatesTrackActualsWithinHalfRelativeError) {
  // A fresh store per probe: the plan cache is shape-keyed (all rect
  // queries share one shape), so on a warm store only the first explain
  // would cost-plan — fresh stores make every probe contribute estimates.
  double err_sum = 0.0;
  int err_count = 0;
  Rng rng(37);
  for (int i = 0; i < 5; ++i) {
    StStore store(BaseOptions(ApproachKind::kBslTS));
    ASSERT_TRUE(store.Setup().ok());
    LoadUniform(&store, 1500, 31 + static_cast<uint64_t>(i));
    // Selective rects over the full day: cost asymmetry keeps the pick
    // decisive (see CostModePicksWithoutRacing), so every shard
    // contributes a cost-planned estimate to measure.
    const double lon = rng.NextDouble(0.0, 8.0);
    const double lat = rng.NextDouble(0.0, 8.0);
    const geo::Rect rect{{lon, lat}, {lon + 2.0, lat + 2.0}};
    const StExplain explain = store.Explain(rect, kT0, kT0 + kDayMs);
    for (const ShardExplain& se : explain.cluster.shards) {
      if (se.planned_by != "cost" || se.estimated_keys < 0.0) continue;
      const double actual = static_cast<double>(se.stats.keys_examined +
                                                se.stats.docs_examined);
      const double predicted = se.estimated_keys + se.estimated_docs;
      if (actual < 1.0) continue;  // relative error undefined near zero
      err_sum += std::abs(predicted - actual) / actual;
      ++err_count;
    }
  }
  ASSERT_GT(err_count, 0);
  EXPECT_LE(err_sum / err_count, 0.5);
}

// ---------- Plan-cache staleness (balancer-move regression) ----------

// A cached plan must be re-planned after a chunk migration: the moved data
// invalidates both the statistics and the plan cache on the affected
// shards, so the post-migration explain may not serve any stale cached
// plan from a shard whose distribution changed.
TEST(PlannerCostTest, CachedPlanReplannedAfterBalancerMove) {
  StStore store(BaseOptions(ApproachKind::kBslST));
  ASSERT_TRUE(store.Setup().ok());
  LoadUniform(&store, 900, 41);

  const geo::Rect rect{{0.0, 0.0}, {10.0, 10.0}};  // broadcast: all shards
  (void)store.Query(rect, kT0, kT0 + kDayMs);
  const StExplain cached = store.Explain(rect, kT0, kT0 + kDayMs);
  std::vector<int> cached_shards;
  for (const ShardExplain& se : cached.cluster.shards) {
    if (se.from_plan_cache) cached_shards.push_back(se.shard_id);
  }
  ASSERT_FALSE(cached_shards.empty());

  const uint64_t invalidations_before =
      CounterValue("planner.cache_invalidations");
  ASSERT_TRUE(store.ConfigureZones().ok());  // migrates chunks
  ASSERT_GT(CounterValue("planner.cache_invalidations"), invalidations_before)
      << "zone migration must invalidate at least one shard's plan cache";

  // Invalidated shards plan fresh; since the broadcast query touches every
  // shard, at least one previously-cached shard must now re-plan.
  const StExplain after = store.Explain(rect, kT0, kT0 + kDayMs);
  int replanned = 0;
  for (const ShardExplain& se : after.cluster.shards) {
    for (const int id : cached_shards) {
      if (se.shard_id == id && !se.from_plan_cache) ++replanned;
    }
  }
  EXPECT_GT(replanned, 0);
}

// ---------- ServerStatus planner section + profiler wiring ----------

TEST(PlannerCostTest, ServerStatusReportsPlannerSection) {
  StStoreOptions options = BaseOptions(ApproachKind::kBslST);
  options.cluster.profiler.enabled = true;
  options.cluster.profiler.slow_millis = 0.0;  // record every op
  StStore store(options);
  ASSERT_TRUE(store.Setup().ok());
  LoadUniform(&store, 600, 43);
  (void)store.Query(geo::Rect{{1.0, 1.0}, {3.0, 3.0}}, kT0, kT0 + kDayMs);
  (void)store.Query(geo::Rect{{1.0, 1.0}, {3.0, 3.0}}, kT0, kT0 + kDayMs);

  const std::string status = store.cluster().ServerStatus();
  EXPECT_NE(status.find("\"planner\""), std::string::npos);
  for (const char* key :
       {"\"plans_total\"", "\"plans_estimated\"", "\"plans_raced\"",
        "\"estimate_fallbacks\"", "\"estimate_misses\"",
        "\"cache_invalidations\"", "\"estimates_measured\"",
        "\"mean_abs_estimation_error\""}) {
    EXPECT_NE(status.find(key), std::string::npos) << key;
  }

  // The slow-op profiler retains full explain trees: the recorded ops carry
  // the planner's plannedBy verdict.
  const std::string profiler_json = status.substr(status.find("\"profiler\""));
  EXPECT_NE(profiler_json.find("\"plannedBy\""), std::string::npos);
}

// ---------- Adaptive covering budgets ----------

TEST(AdaptiveCoverBudgetTest, PickCoverBudgetThresholds) {
  ApproachConfig config;
  config.kind = ApproachKind::kHil;
  config.hilbert_order = 6;
  const Approach hil(config);
  EXPECT_EQ(hil.PickCoverBudget(-1.0), 0u);  // unknown: exact
  EXPECT_EQ(hil.PickCoverBudget(0.001), 0u);
  EXPECT_EQ(hil.PickCoverBudget(0.5), config.coarse_cover_max_ranges);

  config.adaptive_cover_budget = false;
  const Approach off(config);
  EXPECT_EQ(off.PickCoverBudget(0.5), 0u);

  config.adaptive_cover_budget = true;
  config.kind = ApproachKind::kBslST;
  const Approach baseline(config);
  EXPECT_EQ(baseline.PickCoverBudget(0.5), 0u);  // no covering at all
}

// A broad query over a Hilbert store gets a coarse (capped) covering once
// histograms exist, while a tiny query keeps the exact covering — and both
// still return exactly the right documents.
TEST(AdaptiveCoverBudgetTest, BroadQueriesCoverCoarselyAfterStatsBuild) {
  StStore store(BaseOptions(ApproachKind::kHilStar));
  ASSERT_TRUE(store.Setup().ok());
  LoadUniform(&store, 1200, 47);

  const geo::Rect broad{{0.5, 0.5}, {9.5, 9.5}};
  // First pass: no histograms yet -> unknown selectivity -> exact covering.
  const StExplain first = store.Explain(broad, kT0, kT0 + kDayMs);
  EXPECT_EQ(first.cover_budget, 0u);

  // Histograms now exist (the explain executed a query): the same broad
  // rect is recognized as low-selectivity and covered coarsely.
  const StExplain second = store.Explain(broad, kT0, kT0 + kDayMs);
  EXPECT_EQ(second.cover_budget,
            store.approach().config().coarse_cover_max_ranges);
  EXPECT_LE(second.num_ranges + second.num_singletons,
            store.approach().config().coarse_cover_max_ranges);

  // A tiny rect stays exact.
  const StExplain tiny =
      store.Explain(geo::Rect{{5.0, 5.0}, {5.05, 5.05}}, kT0, kT0 + 60000);
  EXPECT_EQ(tiny.cover_budget, 0u);

  // Coarse covering is a superset refined at FETCH: results stay exact.
  const StQueryResult res = store.Query(broad, kT0, kT0 + kDayMs);
  ASSERT_TRUE(res.cluster.status.ok());
  size_t oracle = 0;
  Rng rng(47);
  for (int i = 0; i < 1200; ++i) {
    const double lon = rng.NextDouble(0.0, 10.0);
    const double lat = rng.NextDouble(0.0, 10.0);
    (void)rng.NextBounded(kDayMs);
    if (broad.Contains({lon, lat})) ++oracle;
  }
  EXPECT_EQ(res.cluster.docs.size(), oracle);
}

// The rect decides first: a rect at most 2% of the curve domain covers
// exactly without asking for the time window's selectivity; a larger one
// asks, and a broad window then makes it coarse.
TEST(AdaptiveCoverBudgetTest, SmallRectDecidesWithoutStatistics) {
  ApproachConfig config;
  config.kind = ApproachKind::kHilStar;
  config.hilbert_order = 6;
  config.dataset_mbr = geo::Rect{{0.0, 0.0}, {10.0, 10.0}};
  const Approach hil_star(config);
  const geo::Rect domain = hil_star.curve()->grid().domain();
  // Share 0.1 of the width times `height` of the height.
  const auto rect_of_share = [&domain](double height) {
    return geo::Rect{domain.lo,
                     {domain.lo.lon + 0.1 * domain.width(),
                      domain.lo.lat + height * domain.height()}};
  };
  const geo::Rect under = rect_of_share(0.199);  // 1.99% of the domain
  const geo::Rect over = rect_of_share(0.201);   // 2.01%

  int reads = 0;
  const auto broad_window = [&reads] {
    ++reads;
    return 1.0;
  };
  EXPECT_EQ(hil_star.CoverBudget(under, broad_window), 0u);
  EXPECT_EQ(reads, 0) << "a small rect must not read statistics";
  EXPECT_EQ(hil_star.CoverBudget(over, broad_window),
            config.coarse_cover_max_ranges);
  EXPECT_EQ(reads, 1);
  // Unknown selectivity stays exact; so does a narrow window.
  EXPECT_EQ(hil_star.CoverBudget(over, [] { return -1.0; }), 0u);
  EXPECT_EQ(hil_star.CoverBudget(over, [] { return 0.5; }), 0u);

  // A rect reaching outside the domain counts only its clipped part.
  geo::Rect spilling = under;
  spilling.lo.lon -= 100.0;
  EXPECT_EQ(hil_star.CoverBudget(spilling, broad_window), 0u);
  EXPECT_EQ(reads, 1);

  config.kind = ApproachKind::kBslST;
  const Approach baseline(config);
  EXPECT_EQ(baseline.CoverBudget(over, broad_window), 0u);
  EXPECT_EQ(reads, 1) << "a baseline has no covering to budget";
}

// Through the store: with histograms built and a window over every stored
// date, a rect just over 2% of hil*'s domain covers coarsely and one just
// under covers exactly.
TEST(AdaptiveCoverBudgetTest, StoreBudgetFollowsTheRectShare) {
  StStore store(BaseOptions(ApproachKind::kHilStar));
  ASSERT_TRUE(store.Setup().ok());
  LoadUniform(&store, 1200, 53);
  const int64_t t_lo = kT0 - kDayMs;
  const int64_t t_hi = kT0 + 2 * kDayMs;
  const geo::Rect domain = store.approach().curve()->grid().domain();
  const auto rect_of_share = [&domain](double height) {
    return geo::Rect{domain.lo,
                     {domain.lo.lon + 0.1 * domain.width(),
                      domain.lo.lat + height * domain.height()}};
  };
  (void)store.Query(rect_of_share(1.0), t_lo, t_hi);  // builds histograms

  EXPECT_EQ(store.Explain(rect_of_share(0.199), t_lo, t_hi).cover_budget, 0u);
  EXPECT_EQ(store.Explain(rect_of_share(0.22), t_lo, t_hi).cover_budget,
            store.approach().config().coarse_cover_max_ranges);
}

// Broad hil* queries estimate their time selectivity from every shard's
// statistics, with no topology lock, while another thread inserts (and so
// updates those statistics): the thread sanitizer checks the locking, and
// every query still answers exactly for the points present throughout.
TEST(AdaptiveCoverBudgetTest, BroadQueriesEstimateBesideInserts) {
  constexpr int kBase = 900;
  constexpr int kExtra = 300;
  StStore store(BaseOptions(ApproachKind::kHilStar));
  ASSERT_TRUE(store.Setup().ok());
  LoadUniform(&store, kBase, 59);
  const geo::Rect broad{{0.5, 0.5}, {9.5, 9.5}};
  const StQueryResult before = store.Query(broad, kT0, kT0 + kDayMs);
  ASSERT_TRUE(before.cluster.status.ok());

  std::atomic<bool> insert_failed{false};
  std::thread writer([&] {
    Rng rng(61);
    for (int i = 0; i < kExtra; ++i) {
      // Later than the query window: the answer must not change.
      const double lon = rng.NextDouble(0.0, 10.0);
      const double lat = rng.NextDouble(0.0, 10.0);
      if (!store.Insert(PointDoc(lon, lat, kT0 + 2 * kDayMs + i, kBase + i))
               .ok()) {
        insert_failed.store(true);
      }
    }
  });
  size_t coarse = 0;
  for (int q = 0; q < 20; ++q) {
    const StExplain explain = store.Explain(broad, kT0, kT0 + kDayMs);
    coarse += explain.cover_budget > 0;
    const StQueryResult res = store.Query(broad, kT0, kT0 + kDayMs);
    ASSERT_TRUE(res.cluster.status.ok());
    EXPECT_EQ(res.cluster.docs.size(), before.cluster.docs.size());
  }
  writer.join();
  EXPECT_FALSE(insert_failed.load());
  EXPECT_GT(coarse, 0u) << "the broad queries never reached the estimate";
}

}  // namespace
}  // namespace stix::st
