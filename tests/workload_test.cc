#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "st/st_store.h"
#include "workload/query_workload.h"
#include "workload/traffic.h"
#include "workload/trajectory_generator.h"
#include "workload/uniform_generator.h"

namespace stix::workload {
namespace {

// ---------- trajectory generator (R substitute) ----------

TEST(TrajectoryGeneratorTest, EmitsExactlyRequestedRecords) {
  TrajectoryOptions opts;
  opts.num_records = 5000;
  opts.num_vehicles = 20;
  TrajectoryGenerator gen(opts);
  bson::Document doc;
  uint64_t n = 0;
  while (gen.Next(&doc)) ++n;
  EXPECT_EQ(n, 5000u);
  EXPECT_FALSE(gen.Next(&doc));
}

TEST(TrajectoryGeneratorTest, RecordsHaveSchemaAndStayInMbr) {
  TrajectoryOptions opts;
  opts.num_records = 2000;
  opts.num_vehicles = 10;
  TrajectoryGenerator gen(opts);
  bson::Document doc;
  while (gen.Next(&doc)) {
    double lon, lat;
    ASSERT_TRUE(
        bson::ExtractGeoJsonPoint(*doc.Get("location"), &lon, &lat));
    EXPECT_TRUE(opts.mbr.Contains({lon, lat}));
    ASSERT_TRUE(doc.Has("date"));
    const int64_t t = doc.Get("date")->AsDateTime();
    EXPECT_GE(t, opts.t_begin_ms);
    EXPECT_LT(t, opts.t_end_ms);
    EXPECT_TRUE(doc.Has("vehicleId"));
    EXPECT_TRUE(doc.Has("speed"));
    EXPECT_TRUE(doc.Has("payload"));
    EXPECT_EQ(doc.Get("payload")->AsString().size(), opts.payload_bytes);
  }
}

TEST(TrajectoryGeneratorTest, EmitsInGlobalTimeOrder) {
  TrajectoryOptions opts;
  opts.num_records = 3000;
  opts.num_vehicles = 25;
  TrajectoryGenerator gen(opts);
  bson::Document doc;
  int64_t prev = opts.t_begin_ms - 1;
  while (gen.Next(&doc)) {
    const int64_t t = doc.Get("date")->AsDateTime();
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(TrajectoryGeneratorTest, DeterministicForSameSeed) {
  TrajectoryOptions opts;
  opts.num_records = 500;
  TrajectoryGenerator a(opts), b(opts);
  bson::Document da, db;
  while (a.Next(&da)) {
    ASSERT_TRUE(b.Next(&db));
    EXPECT_EQ(Compare(da, db), 0);
  }
}

TEST(TrajectoryGeneratorTest, SpatiallySkewedTowardHotspots) {
  TrajectoryOptions opts;
  opts.num_records = 20000;
  opts.num_vehicles = 100;
  TrajectoryGenerator gen(opts);
  bson::Document doc;
  uint64_t near_athens = 0, total = 0;
  const geo::Rect athens{{23.4, 37.7}, {24.0, 38.3}};
  while (gen.Next(&doc)) {
    double lon, lat;
    bson::ExtractGeoJsonPoint(*doc.Get("location"), &lon, &lat);
    near_athens += athens.Contains({lon, lat});
    ++total;
  }
  // Athens box is ~0.7% of the MBR area but must hold a large share of the
  // records (the R set's skew).
  EXPECT_GT(static_cast<double>(near_athens) / static_cast<double>(total),
            0.10);
}

TEST(TrajectoryGeneratorTest, UsesManyVehicles) {
  TrajectoryOptions opts;
  opts.num_records = 5000;
  opts.num_vehicles = 50;
  TrajectoryGenerator gen(opts);
  bson::Document doc;
  std::map<int, int> per_vehicle;
  while (gen.Next(&doc)) {
    per_vehicle[doc.Get("vehicleId")->AsInt32()]++;
  }
  EXPECT_EQ(per_vehicle.size(), 50u);
}

// ---------- uniform generator (S set) ----------

TEST(UniformGeneratorTest, MatchesPaperDefinition) {
  UniformOptions opts;
  opts.num_records = 3000;
  UniformGenerator gen(opts);
  bson::Document doc;
  uint64_t n = 0;
  while (gen.Next(&doc)) {
    double lon, lat;
    ASSERT_TRUE(
        bson::ExtractGeoJsonPoint(*doc.Get("location"), &lon, &lat));
    EXPECT_TRUE(UniformGenerator::PaperMbr().Contains({lon, lat}));
    const int64_t t = doc.Get("date")->AsDateTime();
    EXPECT_GE(t, opts.t_begin_ms);
    EXPECT_LT(t, opts.t_end_ms);
    // Only the paper's four columns: id, location(lon, lat), date.
    EXPECT_EQ(doc.size(), 3u);
    ++n;
  }
  EXPECT_EQ(n, 3000u);
}

TEST(UniformGeneratorTest, RoughlyUniformQuadrants) {
  UniformOptions opts;
  opts.num_records = 40000;
  UniformGenerator gen(opts);
  bson::Document doc;
  const double mid_lon = (opts.mbr.lo.lon + opts.mbr.hi.lon) / 2;
  const double mid_lat = (opts.mbr.lo.lat + opts.mbr.hi.lat) / 2;
  int quad[4] = {0, 0, 0, 0};
  while (gen.Next(&doc)) {
    double lon, lat;
    bson::ExtractGeoJsonPoint(*doc.Get("location"), &lon, &lat);
    quad[(lon >= mid_lon) * 2 + (lat >= mid_lat)]++;
  }
  for (int q : quad) EXPECT_NEAR(q, 10000, 500);
}

TEST(UniformGeneratorTest, DatesAreNotTimeOrdered) {
  UniformOptions opts;
  opts.num_records = 1000;
  UniformGenerator gen(opts);
  bson::Document doc;
  int inversions = 0;
  int64_t prev = 0;
  bool first = true;
  while (gen.Next(&doc)) {
    const int64_t t = doc.Get("date")->AsDateTime();
    if (!first && t < prev) ++inversions;
    prev = t;
    first = false;
  }
  EXPECT_GT(inversions, 300);  // random order, ~half inverted
}

// ---------- query workload ----------

TEST(QueryWorkloadTest, PaperRectangles) {
  const geo::Rect small = SmallQueryRect();
  const geo::Rect big = BigQueryRect();
  EXPECT_DOUBLE_EQ(small.lo.lon, 23.757495);
  EXPECT_DOUBLE_EQ(big.hi.lat, 38.353926);
  // Paper: the big rect is ~2603x the small one (planar areas).
  EXPECT_NEAR(big.AreaDeg2() / small.AreaDeg2(), 2609.0, 30.0);
  // Both lie inside the S MBR so both data sets can answer them.
  EXPECT_TRUE(geo::Rect({{23.3, 37.6}, {24.3, 38.5}}).ContainsRect(small));
  EXPECT_TRUE(geo::Rect({{23.3, 37.6}, {24.3, 38.5}}).ContainsRect(big));
}

TEST(QueryWorkloadTest, FourDisjointGrowingWindows) {
  const int64_t begin = 1530403200000;
  const int64_t end = 1543622400000;  // 5 months
  for (bool big : {false, true}) {
    const auto qs = MakeQuerySet(big, begin, end);
    ASSERT_EQ(qs.size(), 4u);
    EXPECT_NEAR(qs[0].duration_hours(), 1.0, 1e-9);
    EXPECT_NEAR(qs[1].duration_hours(), 24.0, 1e-9);
    EXPECT_NEAR(qs[2].duration_hours(), 7 * 24.0, 1e-9);
    EXPECT_NEAR(qs[3].duration_hours(), 30 * 24.0, 1e-9);
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_GE(qs[i].t_begin_ms, begin);
      EXPECT_LE(qs[i].t_end_ms, end);
      if (i > 0) {
        EXPECT_GE(qs[i].t_begin_ms, qs[i - 1].t_end_ms);
      }
    }
  }
}

TEST(QueryWorkloadTest, FitsInShortSpanToo) {
  // The S set's 2.5-month span must still fit all four windows.
  const int64_t begin = 1530403200000;
  const int64_t end = 1537012800000;
  const auto qs = MakeQuerySet(true, begin, end);
  EXPECT_NEAR(qs[3].duration_hours(), 30 * 24.0, 1e-9);
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_GE(qs[i].t_begin_ms, qs[i - 1].t_end_ms);
  }
  EXPECT_LE(qs[3].t_end_ms, end);
}

TEST(QueryWorkloadTest, NamesFollowPaperNotation) {
  const auto qs = MakeQuerySet(false, 0, 40LL * 24 * 3600 * 1000);
  EXPECT_EQ(qs[0].name, "Q1^s");
  const auto qb = MakeQuerySet(true, 0, 40LL * 24 * 3600 * 1000);
  EXPECT_EQ(qb[3].name, "Q4^b");
}

// ---------- open-loop traffic harness ----------

TrafficConfig SmallTrafficConfig(uint64_t seed) {
  TrafficConfig config;
  config.seed = seed;
  config.num_sessions = 60;
  config.total_ops = 600;
  config.preload_per_session = 2;
  config.arrivals_per_sec = 3000.0;
  return config;
}

TEST(TrafficTest, SameSeedYieldsByteIdenticalPlan) {
  const TrafficConfig config = SmallTrafficConfig(12345);
  const TrafficPlan a = GenerateTrafficPlan(config);
  const TrafficPlan b = GenerateTrafficPlan(config);
  EXPECT_EQ(a.SerializeOps(), b.SerializeOps());
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());

  TrafficConfig other = config;
  other.seed = 12346;
  const TrafficPlan c = GenerateTrafficPlan(other);
  EXPECT_NE(a.Fingerprint(), c.Fingerprint());
  EXPECT_NE(a.SerializeOps(), c.SerializeOps());
}

TEST(TrafficTest, PlanRespectsStructuralInvariants) {
  const TrafficPlan plan = GenerateTrafficPlan(SmallTrafficConfig(7));
  ASSERT_EQ(plan.ops.size(), size_t(plan.config.total_ops));
  ASSERT_EQ(plan.sessions.size(), size_t(plan.config.num_sessions));
  ASSERT_EQ(plan.preload.size(),
            size_t(plan.config.num_sessions * plan.config.preload_per_session));

  double prev_arrival = 0.0;
  for (const TrafficOp& op : plan.ops) {
    EXPECT_GE(op.arrival_ms, prev_arrival);
    prev_arrival = op.arrival_ms;
    ASSERT_GE(op.session, 0);
    ASSERT_LT(op.session, plan.config.num_sessions);
    const TrafficSession& session = plan.sessions[size_t(op.session)];
    switch (op.op_class) {
      case TrafficOpClass::kUpdate:
        EXPECT_GE(op.del_fid, 0);
        EXPECT_TRUE(session.cell.Contains({op.del_lon, op.del_lat}));
        [[fallthrough]];
      case TrafficOpClass::kInsert:
        // Every write lands inside the session's private cell — the
        // invariant the parity oracle stands on.
        EXPECT_GE(op.fid, 0);
        EXPECT_TRUE(session.cell.Contains({op.lon, op.lat}));
        break;
      case TrafficOpClass::kRectQuery:
      case TrafficOpClass::kPolygonQuery:
        EXPECT_LE(op.t_begin_ms, op.t_end_ms);
        break;
      case TrafficOpClass::kKnnQuery:
        EXPECT_GT(op.k, 0u);
        break;
    }
  }

  // Session cells are pairwise disjoint (shrunken grid cells), so one
  // session's writes can never leak into another session's oracle query.
  for (size_t i = 0; i < plan.sessions.size(); ++i) {
    for (size_t j = i + 1; j < plan.sessions.size(); ++j) {
      EXPECT_FALSE(plan.sessions[i].cell.Intersects(plan.sessions[j].cell))
          << "sessions " << i << " and " << j << " overlap";
    }
    // Ground truth is sorted — VerifyTrafficParity compares sorted fids.
    EXPECT_TRUE(std::is_sorted(plan.sessions[i].live_fids.begin(),
                               plan.sessions[i].live_fids.end()));
  }
}

TEST(TrafficTest, ZipfSamplerConcentratesOnLowRanks) {
  ZipfSampler zipf(64, 1.1);
  ASSERT_EQ(zipf.size(), 64u);
  Rng rng(99);
  std::vector<int> counts(64, 0);
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const size_t rank = zipf.Sample(&rng);
    ASSERT_LT(rank, 64u);
    ++counts[rank];
  }
  // Rank 0 is the hottest key by a wide margin, and the head dominates the
  // tail — the defining Zipf properties, tested loosely enough to never
  // flake on a fixed seed.
  EXPECT_GT(counts[0], counts[16] * 4);
  const int head = counts[0] + counts[1] + counts[2] + counts[3];
  int tail = 0;
  for (size_t i = 32; i < 64; ++i) tail += counts[size_t(i)];
  EXPECT_GT(head, tail);
}

TEST(TrafficTest, SaturationIsThePeakAmongPointsThatFellShort) {
  // Every point keeps up (>= 90% of offered): the sweep never saturated.
  EXPECT_FALSE(
      SaturationOpsPerSec({{750, 749, 0}, {1500, 1400, 0}, {3000, 2700, 0}})
          .has_value());
  EXPECT_FALSE(SaturationOpsPerSec({}).has_value());

  // One point falls short: it alone sets the figure, even though a point
  // that kept up achieved more.
  const std::optional<double> one =
      SaturationOpsPerSec({{1000, 990, 0}, {3000, 2000, 0}, {2500, 2400, 0}});
  ASSERT_TRUE(one.has_value());
  EXPECT_DOUBLE_EQ(*one, 2000.0);

  // The sweep committed in BENCH_traffic.json: x1 keeps up (743.303 of
  // 750), the other three saturate and x4 peaks.
  const std::optional<double> committed = SaturationOpsPerSec(
      {{750, 743.303, 2492.91},
       {1500, 792.792, 27037.4},
       {3000, 854.134, 34859.4},
       {6000, 791.085, 43188.3}});
  ASSERT_TRUE(committed.has_value());
  EXPECT_DOUBLE_EQ(*committed, 854.134);
}

TEST(TrafficTest, ReshardMidwayRunKeepsExactParity) {
  TrafficConfig config = SmallTrafficConfig(31337);
  const TrafficPlan plan = GenerateTrafficPlan(config);

  st::StStoreOptions options;
  options.approach.kind = st::ApproachKind::kBslTS;
  options.approach.dataset_mbr = config.region;
  options.cluster.num_shards = 4;
  options.cluster.chunk_max_bytes = 16 * 1024;
  options.cluster.seed = 5;
  st::StStore store(options);
  ASSERT_TRUE(store.Setup().ok());
  ASSERT_TRUE(PreloadTraffic(&store, plan).ok());

  TrafficRunOptions run;
  run.threads = 4;
  run.time_scale = 8.0;  // compress the schedule; this is a regression test
  run.reshard_midway = true;
  run.reshard_to = st::ApproachKind::kHil;
  const TrafficReport report = RunTraffic(&store, plan, run);

  EXPECT_EQ(report.total_ops, uint64_t(config.total_ops));
  EXPECT_EQ(report.total_errors, 0u);
  EXPECT_TRUE(report.reshard_ran);
  EXPECT_TRUE(report.reshard_status.ok()) << report.reshard_status.ToString();
  // Every target chunk takes one reshard move (later inserts may split
  // them further); the report carries the migration outcomes beside the
  // latencies.
  EXPECT_GT(report.reshard_chunks_migrated, 0u);
  EXPECT_LE(report.reshard_chunks_migrated,
            store.cluster().chunks().num_chunks());
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"migrations_committed\": "), std::string::npos);
  EXPECT_NE(json.find("\"chunks_migrated\": "), std::string::npos);
  EXPECT_NE(json.find("\"docs_moved\": "), std::string::npos);
  EXPECT_EQ(store.approach().kind(), st::ApproachKind::kHil);
  EXPECT_FALSE(store.resharding());
  EXPECT_EQ(VerifyTrafficParity(store, plan), 0u);
}

}  // namespace
}  // namespace stix::workload
