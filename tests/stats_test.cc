// Online statistics layer: equi-depth histogram invariants under skewed
// builds, incremental inserts/deletes and rebuilds; ShardStatistics
// lifecycle (observe, drift, staleness, generation-guarded rebuilds); and
// golden estimation-accuracy bounds on fixed seeds.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "bson/document.h"
#include "common/rng.h"
#include "query/stats/shard_stats.h"
#include "st/st_store.h"

namespace stix::query::stats {
namespace {

// ---------- Equi-depth histogram invariants ----------

// Counts must sum to the population, uppers must strictly increase, and
// every value must fall inside [min, max].
void CheckStructure(const EquiDepthHistogram& h,
                    const std::vector<int64_t>& values) {
  uint64_t sum = 0;
  int64_t prev = std::numeric_limits<int64_t>::min();
  for (const EquiDepthHistogram::Bucket& b : h.buckets()) {
    EXPECT_GT(b.upper, prev);
    prev = b.upper;
    sum += b.count;
  }
  EXPECT_EQ(sum, values.size());
  EXPECT_EQ(h.total(), values.size());
  if (!values.empty()) {
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    EXPECT_EQ(h.min_value(), *lo);
    EXPECT_EQ(h.max_value(), *hi);
  }
}

// Largest duplicate run in a sorted copy of `values` — the slack the
// equi-depth bound must grant (a boundary value is never split).
uint64_t LargestRun(std::vector<int64_t> values) {
  std::sort(values.begin(), values.end());
  uint64_t best = 0, run = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    run = (i > 0 && values[i] == values[i - 1]) ? run + 1 : 1;
    best = std::max(best, run);
  }
  return best;
}

// The equi-depth invariant under max-diff refinement: no bucket exceeds
// twice the ideal depth plus its largest duplicate run (cuts shift at most
// a quarter-bucket each way, and hot values are absorbed whole).
void CheckEquiDepth(const EquiDepthHistogram& h,
                    const std::vector<int64_t>& values, size_t max_buckets) {
  const double depth =
      static_cast<double>(values.size()) / static_cast<double>(max_buckets);
  const uint64_t slack = LargestRun(values);
  for (const EquiDepthHistogram::Bucket& b : h.buckets()) {
    EXPECT_LE(b.count, static_cast<uint64_t>(2.0 * depth) + slack + 1)
        << "bucket upper=" << b.upper;
  }
}

std::vector<int64_t> SkewedValues(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<int64_t> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextBool(0.3)) {
      // Hot cluster: a tight Gaussian ball with heavy duplicates.
      values.push_back(500000 +
                       static_cast<int64_t>(rng.NextGaussian() * 50.0));
    } else if (rng.NextBool(0.1)) {
      values.push_back(static_cast<int64_t>(rng.NextBounded(100)));  // dups
    } else {
      values.push_back(static_cast<int64_t>(rng.NextBounded(1000000)));
    }
  }
  return values;
}

TEST(EquiDepthHistogramTest, BuildInvariantsUnderSkew) {
  for (const uint64_t seed : {1ull, 7ull, 42ull, 1234ull}) {
    for (const size_t n : {size_t{10}, size_t{1000}, size_t{20000}}) {
      const std::vector<int64_t> values = SkewedValues(seed, n);
      EquiDepthHistogram h;
      h.Build(values, 64);
      CheckStructure(h, values);
      CheckEquiDepth(h, values, 64);
      EXPECT_TRUE(h.built());
      EXPECT_EQ(h.mutations_since_build(), 0u);
      EXPECT_EQ(h.Drift(), 0.0);
    }
  }
}

TEST(EquiDepthHistogramTest, BuildEdgeCases) {
  EquiDepthHistogram h;
  h.Build({}, 64);
  EXPECT_TRUE(h.built());
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.EstimateRange(0, 100), 0.0);

  // All-identical population: one bucket, never split.
  h.Build(std::vector<int64_t>(1000, 7), 64);
  EXPECT_EQ(h.num_buckets(), 1u);
  EXPECT_EQ(h.total(), 1000u);
  EXPECT_DOUBLE_EQ(h.EstimateRange(7, 7), 1000.0);
  EXPECT_DOUBLE_EQ(h.EstimateRange(8, 100), 0.0);

  // Fewer values than buckets.
  h.Build({3, 1, 2}, 64);
  CheckStructure(h, {1, 2, 3});
}

TEST(EquiDepthHistogramTest, EstimateRangeExactOnFullSpanAndMonotone) {
  const std::vector<int64_t> values = SkewedValues(99, 5000);
  EquiDepthHistogram h;
  h.Build(values, 64);
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  EXPECT_DOUBLE_EQ(h.EstimateRange(*lo, *hi), 5000.0);
  EXPECT_DOUBLE_EQ(
      h.EstimateRange(std::numeric_limits<int64_t>::min(),
                      std::numeric_limits<int64_t>::max()),
      5000.0);
  // Widening a range can only grow the estimate.
  double prev = 0.0;
  for (int64_t width = 1000; width <= 1000000; width *= 4) {
    const double est = h.EstimateRange(400000, 400000 + width);
    EXPECT_GE(est, prev - 1e-9);
    prev = est;
  }
  EXPECT_EQ(h.EstimateRange(10, 5), 0.0);  // inverted range
}

TEST(EquiDepthHistogramTest, IncrementalAddRemoveTracksTotalsAndDrift) {
  std::vector<int64_t> values = SkewedValues(5, 2000);
  EquiDepthHistogram h;
  h.Build(values, 64);

  Rng rng(17);
  for (int i = 0; i < 300; ++i) {
    const int64_t v = static_cast<int64_t>(rng.NextBounded(1200000));
    h.Add(v);
    values.push_back(v);
  }
  EXPECT_EQ(h.total(), 2300u);
  EXPECT_EQ(h.mutations_since_build(), 300u);
  EXPECT_NEAR(h.Drift(), 300.0 / 2000.0, 1e-12);
  // Adds past the old max stretch the top bucket: full-span estimates stay
  // exact.
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  EXPECT_DOUBLE_EQ(h.EstimateRange(*lo, *hi), 2300.0);

  for (int i = 0; i < 300; ++i) {
    h.Remove(values[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(h.total(), 2000u);
  EXPECT_NEAR(h.Drift(), 600.0 / 2000.0, 1e-12);
}

TEST(EquiDepthHistogramTest, UnbuiltWithDataReportsInfiniteDrift) {
  EquiDepthHistogram h;
  EXPECT_EQ(h.Drift(), 0.0);  // empty and unbuilt: nothing to do
  h.Add(5);
  EXPECT_TRUE(std::isinf(h.Drift()));
  h.Build({5}, 8);
  EXPECT_EQ(h.Drift(), 0.0);
}

// Golden accuracy bound on fixed seeds: uniform and skewed populations,
// random closed ranges; the estimate must land within 15% of the truth
// plus a small absolute slack (narrow ranges round to bucket fractions).
TEST(EquiDepthHistogramTest, GoldenEstimatesOnFixedSeeds) {
  for (const uint64_t seed : {11ull, 23ull, 808ull}) {
    std::vector<int64_t> values = SkewedValues(seed, 20000);
    EquiDepthHistogram h;
    h.Build(values, 64);
    std::sort(values.begin(), values.end());
    Rng rng(seed ^ 0xfeed);
    for (int i = 0; i < 50; ++i) {
      const int64_t a = static_cast<int64_t>(rng.NextBounded(1000000));
      const int64_t b = static_cast<int64_t>(rng.NextBounded(1000000));
      const int64_t lo = std::min(a, b), hi = std::max(a, b);
      const double truth = static_cast<double>(
          std::upper_bound(values.begin(), values.end(), hi) -
          std::lower_bound(values.begin(), values.end(), lo));
      const double est = h.EstimateRange(lo, hi);
      EXPECT_NEAR(est, truth, 0.15 * truth + 0.02 * 20000)
          << "seed=" << seed << " range=[" << lo << "," << hi << "]";
    }
  }
}

// ---------- ShardStatistics lifecycle ----------

ObservedValues RowValue(int64_t date, int64_t hilbert) {
  ObservedValues v;
  v.date = date;
  v.hilbert = hilbert;
  v.points = 1;
  return v;
}

RebuildSample SampleOf(const std::vector<int64_t>& dates) {
  RebuildSample sample;
  sample.dates = dates;
  sample.num_docs = dates.size();
  sample.num_points = dates.size();
  return sample;
}

TEST(ShardStatisticsTest, EmptyShardIsReliableAndEstimatesZero) {
  ShardStatistics stats;
  EXPECT_FALSE(stats.NeedsRebuild());
  EXPECT_TRUE(stats.ReliableForEstimation());
  EXPECT_EQ(stats.EstimateRange(ShardStatistics::kDatePath, 0, 100), 0.0);
  EXPECT_EQ(stats.total_docs(), 0u);
}

TEST(ShardStatisticsTest, ObserveBeforeFirstBuildForcesRebuild) {
  ShardStatistics stats;
  stats.Observe(RowValue(1000, 5), +1);
  EXPECT_TRUE(stats.NeedsRebuild());
  EXPECT_FALSE(stats.ReliableForEstimation());
  EXPECT_EQ(stats.total_docs(), 1u);

  const uint64_t gen = stats.rebuild_generation();
  stats.Rebuild(SampleOf({1000}), gen);
  EXPECT_FALSE(stats.NeedsRebuild());
  EXPECT_TRUE(stats.ReliableForEstimation());
  EXPECT_EQ(stats.rebuilds(), 1u);
  EXPECT_DOUBLE_EQ(stats.EstimateRange(ShardStatistics::kDatePath, 0, 2000),
                   1.0);
  // No hilbert histogram was sampled: unknown path reports negative.
  EXPECT_LT(stats.EstimateRange(ShardStatistics::kHilbertPath, 0, 10), 0.0);
}

TEST(ShardStatisticsTest, DriftPastThresholdTriggersRebuild) {
  ShardStatistics stats;
  std::vector<int64_t> dates;
  for (int64_t i = 0; i < 1000; ++i) {
    dates.push_back(i * 100);
    stats.Observe(RowValue(i * 100, i), +1);
  }
  RebuildSample sample = SampleOf(dates);
  for (int64_t i = 0; i < 1000; ++i) sample.hilberts.push_back(i);
  stats.Rebuild(std::move(sample), stats.rebuild_generation());
  EXPECT_FALSE(stats.NeedsRebuild());

  // Mutations up to (but not past) kMaxDrift stay fresh.
  const int below = static_cast<int>(ShardStatistics::kMaxDrift * 1000) - 1;
  for (int i = 0; i < below; ++i) stats.Observe(RowValue(50, 3), +1);
  EXPECT_FALSE(stats.NeedsRebuild());
  for (int i = 0; i < 10; ++i) stats.Observe(RowValue(50, 3), +1);
  EXPECT_TRUE(stats.NeedsRebuild());
  EXPECT_FALSE(stats.ReliableForEstimation());
}

TEST(ShardStatisticsTest, DeletesCountTowardDrift) {
  ShardStatistics stats;
  std::vector<int64_t> dates;
  for (int64_t i = 0; i < 100; ++i) dates.push_back(i);
  stats.Rebuild(SampleOf(dates), stats.rebuild_generation());
  for (int64_t i = 0; i < 30; ++i) stats.Observe(RowValue(i, 0), -1);
  EXPECT_TRUE(stats.NeedsRebuild());  // 30/100 > kMaxDrift
}

TEST(ShardStatisticsTest, MarkStaleForcesRebuildAndGenerationGuards) {
  ShardStatistics stats;
  stats.Rebuild(SampleOf({1, 2, 3}), stats.rebuild_generation());
  EXPECT_FALSE(stats.NeedsRebuild());
  stats.MarkStale();
  EXPECT_TRUE(stats.NeedsRebuild());

  // A racing rebuild that read its generation before ours commits is
  // discarded: generation moved when we rebuilt first.
  const uint64_t stale_gen = stats.rebuild_generation();
  stats.Rebuild(SampleOf({1, 2, 3}), stale_gen);  // wins, ++generation
  EXPECT_EQ(stats.rebuilds(), 2u);
  stats.Rebuild(SampleOf({9}), stale_gen);  // stale: discarded
  EXPECT_EQ(stats.rebuilds(), 2u);
  EXPECT_EQ(stats.total_docs(), 3u);
}

TEST(ShardStatisticsTest, BucketDocumentsTrackPointsAndAvgFill) {
  ShardStatistics stats;
  ObservedValues bucket;
  bucket.date = 0;
  bucket.hilbert = 4;
  bucket.points = 50;
  bucket.is_bucket = true;
  stats.Observe(bucket, +1);
  bucket.points = 30;
  stats.Observe(bucket, +1);
  EXPECT_EQ(stats.total_docs(), 2u);
  EXPECT_EQ(stats.total_points(), 80u);
  EXPECT_DOUBLE_EQ(stats.avg_points_per_doc(), 40.0);
  stats.Observe(bucket, -1);
  EXPECT_EQ(stats.total_docs(), 1u);
  EXPECT_EQ(stats.total_points(), 50u);
}

TEST(ShardStatisticsTest, IntervalSumMatchesPerRangeEstimates) {
  ShardStatistics stats;
  std::vector<int64_t> dates;
  for (int64_t i = 0; i < 1000; ++i) dates.push_back(i);
  stats.Rebuild(SampleOf(dates), stats.rebuild_generation());
  const std::vector<std::pair<int64_t, int64_t>> ranges = {
      {0, 99}, {500, 599}, {900, 999}};
  double sum = 0.0;
  for (const auto& [lo, hi] : ranges) {
    sum += stats.EstimateRange(ShardStatistics::kDatePath, lo, hi);
  }
  EXPECT_NEAR(stats.EstimateIntervalSum(ShardStatistics::kDatePath, ranges),
              sum, 1e-9);
}

// ---------- ExtractStatsValues over real document shapes ----------

TEST(ExtractStatsValuesTest, RowDocumentYieldsDateHilbertAndGeoCell) {
  bson::Document doc;
  doc.Append("location",
             bson::Value::MakeDocument(bson::GeoJsonPoint(10.0, 20.0)));
  doc.Append("date", bson::Value::DateTime(123456));
  doc.Append("hilbertIndex", bson::Value::Int64(42));
  const geo::GeoHash geohash(26);
  const ObservedValues v = ExtractStatsValues(doc, &geohash);
  ASSERT_TRUE(v.date.has_value());
  EXPECT_EQ(*v.date, 123456);
  ASSERT_TRUE(v.hilbert.has_value());
  EXPECT_EQ(*v.hilbert, 42);
  ASSERT_TRUE(v.geocell.has_value());
  EXPECT_EQ(*v.geocell, static_cast<int64_t>(geohash.Encode(10.0, 20.0)));
  EXPECT_EQ(v.points, 1u);
  EXPECT_FALSE(v.is_bucket);
}

TEST(ExtractStatsValuesTest, MissingFieldsYieldEmptyOptionals) {
  bson::Document doc;
  doc.Append("other", bson::Value::Int32(1));
  const ObservedValues v = ExtractStatsValues(doc, nullptr);
  EXPECT_FALSE(v.date.has_value());
  EXPECT_FALSE(v.hilbert.has_value());
  EXPECT_FALSE(v.geocell.has_value());
}

}  // namespace
}  // namespace stix::query::stats

// ---------- Store-level integration: live maintenance + bucket seals +
// mid-run migrations ----------

namespace stix::st {
namespace {

bson::Document PointDoc(double lon, double lat, int64_t t_ms, int32_t fid) {
  bson::Document doc;
  doc.Append(kLocationField,
             bson::Value::MakeDocument(bson::GeoJsonPoint(lon, lat)));
  doc.Append(kDateField, bson::Value::DateTime(t_ms));
  doc.Append("fid", bson::Value::Int32(fid));
  return doc;
}

constexpr int64_t kT0 = 1538352000000;

StStoreOptions SmallStoreOptions(ApproachKind kind, bool bucketed) {
  StStoreOptions options;
  options.approach.kind = kind;
  options.approach.hilbert_order = 6;
  options.approach.dataset_mbr = geo::Rect{{0.0, 0.0}, {10.0, 10.0}};
  options.cluster.num_shards = 3;
  options.cluster.chunk_max_bytes = 16 * 1024;
  if (bucketed) {
    storage::BucketLayout layout;
    layout.window_ms = 3600000;
    layout.max_points = 32;
    options.bucket = layout;
  }
  return options;
}

void LoadUniform(StStore* store, int count, uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    // Sequence the draws explicitly: argument evaluation order is
    // unspecified, and oracles replay this stream.
    const double lon = rng.NextDouble(0.0, 10.0);
    const double lat = rng.NextDouble(0.0, 10.0);
    const int64_t t = kT0 + static_cast<int64_t>(rng.NextBounded(86400000));
    ASSERT_TRUE(store->Insert(PointDoc(lon, lat, t, i)).ok());
  }
  ASSERT_TRUE(store->FinishLoad().ok());
}

uint64_t TotalStatsDocs(const StStore& store) {
  uint64_t total = 0;
  for (const auto& shard : store.cluster().shards()) {
    total += shard->statistics().total_docs();
  }
  return total;
}

TEST(StoreStatsTest, InsertsMaintainPerShardCountsAcrossLayouts) {
  for (const bool bucketed : {false, true}) {
    StStore store(SmallStoreOptions(ApproachKind::kHil, bucketed));
    ASSERT_TRUE(store.Setup().ok());
    LoadUniform(&store, 500, 3);
    ASSERT_TRUE(store.FlushBuckets().ok());
    uint64_t docs = 0, points = 0;
    for (const auto& shard : store.cluster().shards()) {
      docs += shard->statistics().total_docs();
      points += shard->statistics().total_points();
    }
    EXPECT_EQ(points, 500u) << (bucketed ? "bucket" : "row");
    if (bucketed) {
      EXPECT_LT(docs, 500u);  // sealed buckets hold many points each
    } else {
      EXPECT_EQ(docs, 500u);
    }
    EXPECT_EQ(docs, store.cluster().total_documents());
  }
}

TEST(StoreStatsTest, DeleteMaintainsCounts) {
  StStore store(SmallStoreOptions(ApproachKind::kHil, false));
  ASSERT_TRUE(store.Setup().ok());
  LoadUniform(&store, 400, 9);
  const geo::Rect half{{0.0, 0.0}, {5.0, 10.0}};
  const Result<uint64_t> removed =
      store.Delete(half, kT0, kT0 + 86400000);
  ASSERT_TRUE(removed.ok());
  EXPECT_GT(*removed, 0u);
  EXPECT_EQ(TotalStatsDocs(store), 400u - *removed);
}

TEST(StoreStatsTest, QueriesBuildHistogramsLazily) {
  StStore store(SmallStoreOptions(ApproachKind::kBslST, false));
  ASSERT_TRUE(store.Setup().ok());
  LoadUniform(&store, 300, 21);
  // Before any query: observed but never built.
  bool any_unreliable = false;
  for (const auto& shard : store.cluster().shards()) {
    if (shard->statistics().total_docs() > 0 &&
        !shard->statistics().ReliableForEstimation()) {
      any_unreliable = true;
    }
  }
  EXPECT_TRUE(any_unreliable);

  (void)store.Query(geo::Rect{{2.0, 2.0}, {8.0, 8.0}}, kT0,
                    kT0 + 86400000);
  for (const auto& shard : store.cluster().shards()) {
    EXPECT_TRUE(shard->statistics().ReliableForEstimation());
    if (shard->statistics().total_docs() > 0) {
      EXPECT_GE(shard->statistics().rebuilds(), 1u);
    }
  }
}

TEST(StoreStatsTest, EstimateFractionAggregatesShards) {
  StStore store(SmallStoreOptions(ApproachKind::kHil, false));
  ASSERT_TRUE(store.Setup().ok());
  LoadUniform(&store, 1000, 33);
  // Build the histograms.
  (void)store.Query(geo::Rect{{0.0, 0.0}, {10.0, 10.0}}, kT0,
                    kT0 + 86400000);
  const double all = store.cluster().EstimateFraction(
      kDateField, kT0, kT0 + 86400000);
  EXPECT_NEAR(all, 1.0, 0.05);
  const double half = store.cluster().EstimateFraction(
      kDateField, kT0, kT0 + 43200000);
  EXPECT_NEAR(half, 0.5, 0.15);
  const double none = store.cluster().EstimateFraction(
      kDateField, kT0 - 200000, kT0 - 100000);
  EXPECT_LE(none, 0.05);
}

// Mid-run migrations: re-zoning moves chunks between shards; the stats of
// both ends are marked stale and the next query rebuilds them to exact
// per-shard counts again.
TEST(StoreStatsTest, MigrationMarksStaleAndRebuildRestoresCounts) {
  StStore store(SmallStoreOptions(ApproachKind::kHil, false));
  ASSERT_TRUE(store.Setup().ok());
  LoadUniform(&store, 600, 55);
  (void)store.Query(geo::Rect{{0.0, 0.0}, {10.0, 10.0}}, kT0,
                    kT0 + 86400000);  // build everywhere

  ASSERT_TRUE(store.ConfigureZones().ok());  // migrates chunks

  bool any_stale = false;
  for (const auto& shard : store.cluster().shards()) {
    if (shard->statistics().NeedsRebuild()) any_stale = true;
  }
  EXPECT_TRUE(any_stale);
  EXPECT_EQ(TotalStatsDocs(store), 600u);  // incremental counts never lie

  (void)store.Query(geo::Rect{{0.0, 0.0}, {10.0, 10.0}}, kT0,
                    kT0 + 86400000);
  for (const auto& shard : store.cluster().shards()) {
    EXPECT_TRUE(shard->statistics().ReliableForEstimation());
    EXPECT_EQ(shard->statistics().total_docs(),
              shard->records().num_records());
  }
}

}  // namespace
}  // namespace stix::st
