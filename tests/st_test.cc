#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "st/st_store.h"
#include "workload/query_workload.h"
#include "workload/trajectory_generator.h"

namespace stix::st {
namespace {

using bson::Value;

// ---------- Approach unit behaviour ----------

TEST(ApproachTest, Names) {
  EXPECT_STREQ(ApproachName(ApproachKind::kBslST), "bslST");
  EXPECT_STREQ(ApproachName(ApproachKind::kBslTS), "bslTS");
  EXPECT_STREQ(ApproachName(ApproachKind::kHil), "hil");
  EXPECT_STREQ(ApproachName(ApproachKind::kHilStar), "hil*");
}

TEST(ApproachTest, BaselineShardsOnDate) {
  ApproachConfig config;
  config.kind = ApproachKind::kBslST;
  const Approach a(config);
  EXPECT_EQ(a.shard_key().paths(),
            (std::vector<std::string>{kDateField}));
  EXPECT_EQ(a.zone_path(), kDateField);
  EXPECT_EQ(a.secondary_indexes().size(), 1u);
  EXPECT_EQ(a.secondary_indexes()[0].fields()[0].path, kLocationField);
  EXPECT_EQ(a.curve(), nullptr);
}

TEST(ApproachTest, BslTSIndexOrderIsTimeFirst) {
  ApproachConfig config;
  config.kind = ApproachKind::kBslTS;
  const Approach a(config);
  const auto indexes = a.secondary_indexes();
  ASSERT_EQ(indexes.size(), 1u);
  EXPECT_EQ(indexes[0].fields()[0].path, kDateField);
  EXPECT_EQ(indexes[0].fields()[1].path, kLocationField);
}

TEST(ApproachTest, HilbertShardsOnHilbertAndDate) {
  ApproachConfig config;
  config.kind = ApproachKind::kHil;
  const Approach a(config);
  EXPECT_EQ(a.shard_key().paths(),
            (std::vector<std::string>{kHilbertField, kDateField}));
  EXPECT_EQ(a.zone_path(), kHilbertField);
  EXPECT_TRUE(a.secondary_indexes().empty());
  ASSERT_NE(a.curve(), nullptr);
  EXPECT_EQ(a.curve()->order(), 13);
}

TEST(ApproachTest, HilUsesGlobeHilStarUsesMbr) {
  const geo::Rect mbr{{23.3, 37.6}, {24.3, 38.5}};
  ApproachConfig hil_config;
  hil_config.kind = ApproachKind::kHil;
  hil_config.dataset_mbr = mbr;
  const Approach hil(hil_config);
  EXPECT_DOUBLE_EQ(hil.curve()->grid().domain().lo.lon, -180.0);

  ApproachConfig star_config = hil_config;
  star_config.kind = ApproachKind::kHilStar;
  const Approach star(star_config);
  EXPECT_DOUBLE_EQ(star.curve()->grid().domain().lo.lon, 23.3);

  // Same point, much finer effective resolution for hil*: nearby points
  // that share a hil cell get distinct hil* cells.
  const uint64_t hil_a = hil.curve()->PointToD(23.75, 37.99);
  const uint64_t hil_b = hil.curve()->PointToD(23.7504, 37.9904);
  const uint64_t star_a = star.curve()->PointToD(23.75, 37.99);
  const uint64_t star_b = star.curve()->PointToD(23.7504, 37.9904);
  EXPECT_EQ(hil_a, hil_b);
  EXPECT_NE(star_a, star_b);
}

TEST(ApproachTest, EnrichmentAddsHilbertIndex) {
  ApproachConfig config;
  config.kind = ApproachKind::kHil;
  const Approach a(config);
  bson::Document doc;
  doc.Append(kLocationField,
             Value::MakeDocument(bson::GeoJsonPoint(23.7275, 37.9838)));
  doc.Append(kDateField, Value::DateTime(1000));
  ASSERT_TRUE(a.EnrichDocument(&doc).ok());
  const Value* h = doc.Get(kHilbertField);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->AsInt64(),
            static_cast<int64_t>(a.curve()->PointToD(23.7275, 37.9838)));
}

TEST(ApproachTest, EnrichmentFailsWithoutLocation) {
  ApproachConfig config;
  config.kind = ApproachKind::kHil;
  const Approach a(config);
  bson::Document doc;
  doc.Append(kDateField, Value::DateTime(1));
  EXPECT_FALSE(a.EnrichDocument(&doc).ok());
}

TEST(ApproachTest, BaselineEnrichmentIsNoop) {
  ApproachConfig config;
  config.kind = ApproachKind::kBslST;
  const Approach a(config);
  bson::Document doc;
  doc.Append(kDateField, Value::DateTime(1));
  ASSERT_TRUE(a.EnrichDocument(&doc).ok());
  EXPECT_FALSE(doc.Has(kHilbertField));
}

TEST(ApproachTest, BaselineQueryHasNoHilbertConstraint) {
  ApproachConfig config;
  config.kind = ApproachKind::kBslST;
  const Approach a(config);
  const TranslatedQuery t =
      a.TranslateQuery(geo::Rect{{0, 0}, {1, 1}}, 100, 200);
  EXPECT_EQ(t.num_ranges + t.num_singletons, 0u);
  EXPECT_EQ(t.cover_millis, 0.0);
  EXPECT_EQ(t.expr->DebugString().find("hilbertIndex"), std::string::npos);
}

TEST(ApproachTest, HilbertQueryCarriesOrOfRangesAndIn) {
  ApproachConfig config;
  config.kind = ApproachKind::kHil;
  const Approach a(config);
  const geo::Rect rect{{23.606039, 38.023982}, {24.032754, 38.353926}};
  const TranslatedQuery t = a.TranslateQuery(rect, 100, 200);
  EXPECT_GT(t.num_ranges + t.num_singletons, 0u);
  const std::string text = t.expr->DebugString();
  EXPECT_NE(text.find("$or"), std::string::npos);
  EXPECT_NE(text.find("hilbertIndex"), std::string::npos);
  EXPECT_NE(text.find("$geoWithin"), std::string::npos);
}

TEST(ApproachTest, HilbertQueryConstraintCoversExactlyTheRectCells) {
  ApproachConfig config;
  config.kind = ApproachKind::kHil;
  const Approach a(config);
  const geo::Rect rect{{23.606039, 38.023982}, {24.032754, 38.353926}};
  const TranslatedQuery t = a.TranslateQuery(rect, 0, 1000);
  Rng rng(44);
  for (int i = 0; i < 200; ++i) {
    const double lon = rng.NextDouble(rect.lo.lon, rect.hi.lon);
    const double lat = rng.NextDouble(rect.lo.lat, rect.hi.lat);
    bson::Document doc;
    doc.Append(kLocationField,
               Value::MakeDocument(bson::GeoJsonPoint(lon, lat)));
    doc.Append(kDateField, Value::DateTime(500));
    ASSERT_TRUE(a.EnrichDocument(&doc).ok());
    EXPECT_TRUE(t.expr->Matches(doc));
  }
}

// ---------- pluggable curves behind hilbertIndex ----------

TEST(ApproachTest, CurveKindSelectsTheLinearization) {
  for (const geo::CurveKind kind : geo::AllCurveKinds()) {
    ApproachConfig config;
    config.kind = ApproachKind::kHil;
    config.curve_kind = kind;
    const Approach a(config);
    const auto curve = a.curve();
    ASSERT_NE(curve, nullptr);
    EXPECT_STREQ(curve->name(), geo::CurveKindName(kind));

    bson::Document doc;
    doc.Append(kLocationField,
               Value::MakeDocument(bson::GeoJsonPoint(23.7275, 37.9838)));
    doc.Append(kDateField, Value::DateTime(1));
    ASSERT_TRUE(a.EnrichDocument(&doc).ok());
    EXPECT_EQ(doc.Get(kHilbertField)->AsInt64(),
              static_cast<int64_t>(curve->PointToD(23.7275, 37.9838)));
  }
  ApproachConfig baseline;
  baseline.kind = ApproachKind::kBslST;
  baseline.curve_kind = geo::CurveKind::kOnion;  // ignored by baselines
  EXPECT_EQ(Approach(baseline).curve(), nullptr);
}

TEST(ApproachTest, QueryConstraintCoversRectCellsForEveryCurve) {
  // The HilbertQueryConstraintCoversExactlyTheRectCells contract holds for
  // every registered curve: any enriched in-rect document matches the
  // translated expression (covering soundness through the full query path).
  const geo::Rect rect{{23.606039, 38.023982}, {24.032754, 38.353926}};
  Rng rng(45);
  std::vector<geo::Point> sample;
  for (int i = 0; i < 400; ++i) {
    sample.push_back({rng.NextDouble(23.0, 25.0), rng.NextDouble(37.0, 39.0)});
  }
  for (const geo::CurveKind kind : geo::AllCurveKinds()) {
    ApproachConfig config;
    config.kind = ApproachKind::kHilStar;
    config.dataset_mbr = geo::Rect{{23.0, 37.0}, {25.0, 39.0}};
    config.curve_kind = kind;
    config.curve_fit_sample = sample;
    const Approach a(config);
    const TranslatedQuery t = a.TranslateQuery(rect, 0, 1000);
    EXPECT_GT(t.num_ranges + t.num_singletons, 0u)
        << geo::CurveKindName(kind);
    for (int i = 0; i < 150; ++i) {
      const double lon = rng.NextDouble(rect.lo.lon, rect.hi.lon);
      const double lat = rng.NextDouble(rect.lo.lat, rect.hi.lat);
      bson::Document doc;
      doc.Append(kLocationField,
                 Value::MakeDocument(bson::GeoJsonPoint(lon, lat)));
      doc.Append(kDateField, Value::DateTime(500));
      ASSERT_TRUE(a.EnrichDocument(&doc).ok());
      EXPECT_TRUE(t.expr->Matches(doc))
          << geo::CurveKindName(kind) << " (" << lon << "," << lat << ")";
    }
  }
}

// ---------- StStore end-to-end over all four approaches ----------

class StStoreParamTest : public ::testing::TestWithParam<ApproachKind> {
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

  // Deterministic points inside [23,25]x[37,39] over kDocs minutes.
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
      lons_.push_back(lon);
      lats_.push_back(lat);
      ASSERT_TRUE(store->Insert(std::move(doc)).ok());
    }
    ASSERT_TRUE(store->FinishLoad().ok());
  }

  std::set<int> NaiveIds(const geo::Rect& rect, int64_t t0, int64_t t1) {
    std::set<int> ids;
    for (int i = 0; i < kDocs; ++i) {
      const int64_t t = kSpanBegin + i * kStepMs;
      if (t >= t0 && t <= t1 && rect.Contains({lons_[i], lats_[i]})) {
        ids.insert(i);
      }
    }
    return ids;
  }

  static std::set<int> ResultIds(const StQueryResult& r) {
    std::set<int> ids;
    for (const bson::Document& doc : r.cluster.docs) {
      ids.insert(doc.Get("seq")->AsInt32());
    }
    return ids;
  }

  std::vector<double> lons_, lats_;
};

TEST_P(StStoreParamTest, SetupCreatesExpectedIndexes) {
  StStore store(Options());
  ASSERT_TRUE(store.Setup().ok());
  const auto& shard0 = *store.cluster().shards()[0];
  EXPECT_NE(shard0.catalog().Get("_id_"), nullptr);
  if (GetParam() == ApproachKind::kHil ||
      GetParam() == ApproachKind::kHilStar) {
    EXPECT_NE(shard0.catalog().Get("hilbertIndex_1_date_1"), nullptr);
    EXPECT_EQ(shard0.catalog().indexes().size(), 2u);
  } else {
    EXPECT_NE(shard0.catalog().Get("date_1"), nullptr);
    EXPECT_EQ(shard0.catalog().indexes().size(), 3u);
  }
}

TEST_P(StStoreParamTest, QueriesMatchNaiveWithDefaultSharding) {
  StStore store(Options());
  ASSERT_TRUE(store.Setup().ok());
  Load(&store);

  const geo::Rect small{{23.5, 37.5}, {23.8, 37.9}};
  const geo::Rect big{{23.2, 37.2}, {24.8, 38.8}};
  struct Case {
    geo::Rect rect;
    int64_t t0, t1;
  };
  const Case cases[] = {
      {small, kSpanBegin, kSpanBegin + 400 * kStepMs},
      {big, kSpanBegin + 100 * kStepMs, kSpanBegin + 200 * kStepMs},
      {big, kSpanBegin, kSpanBegin + kDocs * kStepMs},
      {small, kSpanBegin + 1200 * kStepMs, kSpanBegin + 1210 * kStepMs},
  };
  for (const Case& c : cases) {
    const StQueryResult r = store.Query(c.rect, c.t0, c.t1);
    EXPECT_EQ(ResultIds(r), NaiveIds(c.rect, c.t0, c.t1))
        << "approach=" << store.approach().name();
    EXPECT_GT(r.cluster.nodes_contacted, 0);
  }
}

TEST_P(StStoreParamTest, CoveringCacheServesRepeatedTranslations) {
  StStoreOptions options = Options();
  // Pin the covering budget: with adaptive budgets on, the cold query's
  // execution builds histograms, so the warm repeat would translate under
  // a different (coarse) budget — a distinct cache key by design.
  options.approach.adaptive_cover_budget = false;
  StStore store(options);
  ASSERT_TRUE(store.Setup().ok());
  Load(&store);

  const geo::Rect rect{{23.4, 37.4}, {24.1, 38.2}};
  const int64_t t0 = kSpanBegin;
  const int64_t t1 = kSpanBegin + 500 * kStepMs;
  const StQueryResult cold = store.Query(rect, t0, t1);
  EXPECT_FALSE(cold.translated.cache_hit);
  const StQueryResult warm = store.Query(rect, t0, t1);
  EXPECT_TRUE(warm.translated.cache_hit);
  // The memoized covering is byte-for-byte the one computed cold.
  EXPECT_EQ(warm.translated.num_ranges, cold.translated.num_ranges);
  EXPECT_EQ(warm.translated.num_singletons, cold.translated.num_singletons);
  EXPECT_EQ(ResultIds(warm), ResultIds(cold));

  const CoverCacheStats stats = store.approach().cover_cache_stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.misses, 1u);
  EXPECT_GT(stats.HitRate(), 0.0);

  // A different time window is a distinct cache entry.
  const StQueryResult other = store.Query(rect, t0, t1 + kStepMs);
  EXPECT_FALSE(other.translated.cache_hit);
  EXPECT_EQ(store.approach().cover_cache_size(), 2u);
}

TEST_P(StStoreParamTest, QueriesMatchNaiveWithZones) {
  StStore store(Options());
  ASSERT_TRUE(store.Setup().ok());
  Load(&store);
  ASSERT_TRUE(store.ConfigureZones().ok());
  EXPECT_EQ(store.cluster().total_documents(),
            static_cast<uint64_t>(kDocs));

  const geo::Rect big{{23.2, 37.2}, {24.8, 38.8}};
  const StQueryResult r =
      store.Query(big, kSpanBegin, kSpanBegin + kDocs * kStepMs);
  EXPECT_EQ(ResultIds(r),
            NaiveIds(big, kSpanBegin, kSpanBegin + kDocs * kStepMs));
}

TEST_P(StStoreParamTest, PolygonQueriesMatchNaive) {
  StStore store(Options());
  ASSERT_TRUE(store.Setup().ok());
  Load(&store);

  // A triangle inside the data MBR; compare against exact point-in-polygon
  // over the generator's record of positions.
  const geo::Polygon poly({{23.2, 37.3}, {24.8, 37.6}, {23.9, 38.8}});
  const int64_t t0 = kSpanBegin + 100 * kStepMs;
  const int64_t t1 = kSpanBegin + 1100 * kStepMs;
  const StQueryResult r = store.QueryPolygon(poly, t0, t1);

  std::set<int> naive;
  for (int i = 0; i < kDocs; ++i) {
    const int64_t t = kSpanBegin + i * kStepMs;
    if (t >= t0 && t <= t1 && poly.Contains({lons_[i], lats_[i]})) {
      naive.insert(i);
    }
  }
  EXPECT_EQ(ResultIds(r), naive) << "approach=" << store.approach().name();
  EXPECT_GT(r.cluster.docs.size(), 0u);
}

TEST_P(StStoreParamTest, InsertedDocsGetDriverStyleIds) {
  StStore store(Options());
  ASSERT_TRUE(store.Setup().ok());
  bson::Document doc;
  doc.Append(kLocationField,
             Value::MakeDocument(bson::GeoJsonPoint(23.5, 37.5)));
  doc.Append(kDateField, Value::DateTime(kSpanBegin));
  ASSERT_TRUE(store.Insert(std::move(doc)).ok());
  uint64_t found = 0;
  for (const auto& shard : store.cluster().shards()) {
    shard->records().ForEach(
        [&](storage::RecordId, const bson::Document& d) {
          ++found;
          ASSERT_TRUE(d.Has("_id"));
          EXPECT_EQ(d.Get("_id")->type(), bson::Type::kObjectId);
        });
  }
  EXPECT_EQ(found, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllApproaches, StStoreParamTest,
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

// ---------- end-to-end sweep over every registered curve ----------

TEST(StCurveSweepTest, EveryCurveMatchesNaiveAndSurfacesItsName) {
  // The full store path — enrichment, sharding, covering translation,
  // scatter/gather — under each registered curve kind, checked against a
  // naive scan and against explain()'s reported curve name.
  const geo::Rect mbr{{23.0, 37.0}, {25.0, 39.0}};
  constexpr int kDocs = 800;
  constexpr int64_t kBegin = 1530403200000;
  constexpr int64_t kStep = 60000;

  for (const geo::CurveKind kind : geo::AllCurveKinds()) {
    StStoreOptions opts;
    opts.approach.kind = ApproachKind::kHilStar;
    opts.approach.dataset_mbr = mbr;
    opts.approach.curve_kind = kind;
    opts.cluster.num_shards = 4;
    opts.cluster.chunk_max_bytes = 16 * 1024;
    opts.cluster.seed = 3;

    Rng sample_rng(77);
    for (int i = 0; i < 300; ++i) {
      opts.approach.curve_fit_sample.push_back(
          {23.6 + sample_rng.NextGaussian() * 0.2,
           38.0 + sample_rng.NextGaussian() * 0.2});
    }

    StStore store(opts);
    ASSERT_TRUE(store.Setup().ok());
    Rng rng(55);
    std::vector<double> lons, lats;
    for (int i = 0; i < kDocs; ++i) {
      bson::Document doc;
      doc.Append("seq", Value::Int32(i));
      // Hotspot-skewed load, so egeohash's warp actually matters.
      const double lon = rng.NextBool(0.7)
                             ? 23.6 + rng.NextGaussian() * 0.15
                             : rng.NextDouble(23.0, 25.0);
      const double lat = rng.NextBool(0.7)
                             ? 38.0 + rng.NextGaussian() * 0.15
                             : rng.NextDouble(37.0, 39.0);
      doc.Append(kLocationField,
                 Value::MakeDocument(bson::GeoJsonPoint(lon, lat)));
      doc.Append(kDateField, Value::DateTime(kBegin + i * kStep));
      lons.push_back(lon);
      lats.push_back(lat);
      ASSERT_TRUE(store.Insert(std::move(doc)).ok());
    }
    ASSERT_TRUE(store.FinishLoad().ok());

    const geo::Rect queries[] = {{{23.5, 37.8}, {23.8, 38.2}},
                                 {{23.1, 37.1}, {24.9, 38.9}},
                                 {{24.5, 38.5}, {26.0, 40.0}}};
    for (const geo::Rect& q : queries) {
      const int64_t t0 = kBegin, t1 = kBegin + kDocs * kStep;
      std::set<int> expected;
      for (int i = 0; i < kDocs; ++i) {
        if (q.Contains({lons[i], lats[i]})) expected.insert(i);
      }
      const StQueryResult r = store.Query(q, t0, t1);
      std::set<int> got;
      for (const bson::Document& doc : r.cluster.docs) {
        got.insert(doc.Get("seq")->AsInt32());
      }
      EXPECT_EQ(got, expected) << "curve=" << geo::CurveKindName(kind);
    }

    const StExplain explain =
        store.Explain(queries[0], kBegin, kBegin + kDocs * kStep);
    EXPECT_EQ(explain.curve, geo::CurveKindName(kind));
    EXPECT_NE(explain.ToJson().find(
                  std::string("\"curve\": \"") + geo::CurveKindName(kind)),
              std::string::npos);
  }
}

// The headline claim at test scale: for a big spatial query with a short
// time window, hil touches fewer nodes and examines fewer keys on its
// hottest node than bslST does.
TEST(StBehaviourTest, HilBeatsBaselineOnBigSpatialShortTimeQueries) {
  auto make_options = [](ApproachKind kind) {
    StStoreOptions opts;
    opts.approach.kind = kind;
    opts.approach.dataset_mbr = geo::Rect{{23.0, 37.0}, {25.0, 39.0}};
    opts.cluster.num_shards = 6;
    opts.cluster.chunk_max_bytes = 16 * 1024;
    opts.cluster.balance_every_inserts = 300;
    opts.cluster.seed = 3;
    return opts;
  };
  StStore hil(make_options(ApproachKind::kHil));
  StStore bsl(make_options(ApproachKind::kBslST));
  ASSERT_TRUE(hil.Setup().ok());
  ASSERT_TRUE(bsl.Setup().ok());

  // The paper's data regime: Greece-wide fleet trajectories with urban
  // hotspots (the R set substitute).
  workload::TrajectoryOptions traj;
  traj.num_records = 30000;
  traj.num_vehicles = 150;
  workload::TrajectoryGenerator gen(traj);
  bson::Document doc;
  while (gen.Next(&doc)) {
    bson::Document copy = doc;
    ASSERT_TRUE(hil.Insert(std::move(doc)).ok());
    ASSERT_TRUE(bsl.Insert(std::move(copy)).ok());
  }
  ASSERT_TRUE(hil.FinishLoad().ok());
  ASSERT_TRUE(bsl.FinishLoad().ok());

  // The paper's Q2^b: the big rectangle (around Athens) with a one-day
  // temporal constraint — big in space, selective in time.
  const geo::Rect big = workload::BigQueryRect();
  const int64_t t0 = traj.t_begin_ms + 40LL * 24 * 3600 * 1000;
  const int64_t t1 = t0 + 24LL * 3600 * 1000;
  const StQueryResult hr = hil.Query(big, t0, t1);
  const StQueryResult br = bsl.Query(big, t0, t1);
  ASSERT_EQ(hr.cluster.docs.size(), br.cluster.docs.size());
  EXPECT_LT(hr.cluster.max_keys_examined, br.cluster.max_keys_examined);
}

}  // namespace
}  // namespace stix::st
