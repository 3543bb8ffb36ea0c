#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bson/codec.h"
#include "bson/object_id.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "query/aggregate.h"
#include "query/bucket_unpack.h"
#include "query/expression.h"
#include "st/knn.h"
#include "st/st_store.h"
#include "workload/trajectory_generator.h"

namespace stix::st {
namespace {

constexpr int64_t kHourMs = 3600 * 1000;

StStoreOptions BaseOptions(ApproachKind kind, bool bucket) {
  StStoreOptions options;
  options.approach.kind = kind;
  options.approach.dataset_mbr = workload::TrajectoryGenerator::GreeceMbr();
  options.cluster.num_shards = 3;
  options.cluster.seed = 11;
  if (bucket) {
    storage::BucketLayout layout;
    layout.window_ms = 6 * kHourMs;
    options.bucket = layout;
  }
  return options;
}

std::unique_ptr<StStore> LoadedStore(ApproachKind kind, bool bucket,
                                     uint64_t docs) {
  auto store = std::make_unique<StStore>(BaseOptions(kind, bucket));
  EXPECT_TRUE(store->Setup().ok());
  workload::TrajectoryOptions traj;
  traj.num_records = docs;
  traj.num_vehicles = 20;
  traj.seed = 1234;
  workload::TrajectoryGenerator gen(traj);
  bson::Document doc;
  while (gen.Next(&doc)) {
    EXPECT_TRUE(store->Insert(std::move(doc)).ok());
  }
  return store;
}

// Canonical sorted rendering of a result set, for order-insensitive
// equality between layouts.
std::multiset<std::string> Canon(const std::vector<bson::Document>& docs) {
  std::multiset<std::string> out;
  for (const bson::Document& d : docs) out.insert(bson::EncodeBson(d));
  return out;
}

TEST(BucketQueryTest, RowAndBucketAnswerIdentically) {
  const workload::TrajectoryOptions traj;
  const int64_t t0 = traj.t_begin_ms;
  const int64_t span = traj.t_end_ms - traj.t_begin_ms;
  for (const ApproachKind kind : {ApproachKind::kBslTS, ApproachKind::kHil}) {
    const auto row = LoadedStore(kind, false, 2000);
    const auto bucket = LoadedStore(kind, true, 2000);
    const geo::Rect rects[] = {
        {{23.0, 37.5}, {24.4, 38.5}},    // Athens-ish
        {{19.0, 34.0}, {29.0, 42.0}},    // everything
        {{26.9, 40.9}, {27.0, 41.0}},    // almost nothing
    };
    const std::pair<int64_t, int64_t> windows[] = {
        {t0, t0 + span},                  // full span
        {t0 + span / 3, t0 + span / 2},   // inner window
        {t0 - 10 * span, t0 - span},      // empty window
    };
    for (const geo::Rect& rect : rects) {
      for (const auto& [a, b] : windows) {
        const StQueryResult rr = row->Query(rect, a, b);
        const StQueryResult br = bucket->Query(rect, a, b);
        ASSERT_TRUE(rr.cluster.status.ok());
        ASSERT_TRUE(br.cluster.status.ok());
        EXPECT_EQ(Canon(rr.cluster.docs), Canon(br.cluster.docs))
            << ApproachName(kind) << " rect [" << rect.lo.lon << ","
            << rect.hi.lon << "] window " << a << ".." << b;
      }
    }
  }
}

TEST(BucketQueryTest, PolygonAndKnnAnswerIdentically) {
  const workload::TrajectoryOptions traj;
  const auto row = LoadedStore(ApproachKind::kHil, false, 1500);
  const auto bucket = LoadedStore(ApproachKind::kHil, true, 1500);

  const geo::Polygon triangle{{
      {22.0, 36.5}, {25.5, 37.0}, {23.8, 40.0}}};
  const StQueryResult rp = row->QueryPolygon(triangle, traj.t_begin_ms,
                                             traj.t_end_ms);
  const StQueryResult bp = bucket->QueryPolygon(triangle, traj.t_begin_ms,
                                                traj.t_end_ms);
  ASSERT_TRUE(rp.cluster.status.ok());
  ASSERT_TRUE(bp.cluster.status.ok());
  EXPECT_FALSE(rp.cluster.docs.empty());
  EXPECT_EQ(Canon(rp.cluster.docs), Canon(bp.cluster.docs));

  const geo::Point center{23.7275, 37.9838};
  KnnOptions knn;
  knn.k = 10;
  const KnnResult rk =
      KnnQuery(*row, center, traj.t_begin_ms, traj.t_end_ms, knn);
  const KnnResult bk =
      KnnQuery(*bucket, center, traj.t_begin_ms, traj.t_end_ms, knn);
  ASSERT_EQ(rk.neighbors.size(), bk.neighbors.size());
  for (size_t i = 0; i < rk.neighbors.size(); ++i) {
    EXPECT_DOUBLE_EQ(rk.neighbors[i].distance_m, bk.neighbors[i].distance_m)
        << "neighbor " << i;
  }
}

// ---------- explain: BUCKET_UNPACK stage-tree invariants ----------

const query::ExplainNode* FindStage(const query::ExplainNode& node,
                                    const std::string& stage) {
  if (node.stage == stage) return &node;
  for (const query::ExplainNode& child : node.children) {
    if (const query::ExplainNode* hit = FindStage(child, stage)) return hit;
  }
  return nullptr;
}

TEST(BucketQueryTest, ExplainShowsBucketUnpackWithConsistentCounters) {
  const workload::TrajectoryOptions traj;
  const auto bucket = LoadedStore(ApproachKind::kBslTS, true, 2000);
  const geo::Rect athens{{23.0, 37.5}, {24.4, 38.5}};
  const int64_t mid = traj.t_begin_ms + (traj.t_end_ms - traj.t_begin_ms) / 2;
  const StExplain explain = bucket->Explain(athens, traj.t_begin_ms, mid);

  uint64_t total_unpacked = 0;
  uint64_t total_returned = 0;
  for (const cluster::ShardExplain& shard : explain.cluster.shards) {
    const query::ExplainNode* unpack =
        FindStage(shard.winning_plan, "BUCKET_UNPACK");
    ASSERT_NE(unpack, nullptr) << "shard " << shard.shard_id;
    // The unpack stage consumes bucket documents its child already
    // counted; its own counters are points_unpacked / buckets_pruned.
    EXPECT_EQ(unpack->docs_examined, 0u);
    ASSERT_EQ(unpack->children.size(), 1u);
    const query::ExplainNode& child = unpack->children[0];
    EXPECT_TRUE(child.stage == "FETCH" || child.stage == "COLLSCAN")
        << child.stage;
    // Buckets the child surfaced either got pruned or unpacked; a pruned
    // bucket contributes no unpacked points, so unpacked points >= docs
    // the stage advanced (every output point came from a decoded bucket).
    EXPECT_LE(unpack->advanced, unpack->points_unpacked);
    EXPECT_LE(unpack->buckets_pruned, child.advanced);
    total_unpacked += unpack->points_unpacked;
    total_returned += shard.stats.n_returned;
  }
  EXPECT_EQ(total_returned, explain.cluster.result.n_returned);
  EXPECT_GE(total_unpacked, total_returned);

  // Stage-tree sum invariant holds with BUCKET_UNPACK in the tree.
  EXPECT_EQ(explain.cluster.SumStageDocsExamined(),
            explain.cluster.result.total_docs_examined);
  EXPECT_EQ(explain.cluster.SumStageKeysExamined(),
            explain.cluster.result.total_keys_examined);
}

// ---------- pruning spec: widening and coverage ----------

TEST(BucketPruneSpecTest, CoversOnlyWhenExactAndContained) {
  storage::BucketLayout layout;
  layout.window_ms = 6 * kHourMs;
  const int64_t t0 = 1530403200000;
  std::vector<query::ExprPtr> conjuncts;
  conjuncts.push_back(query::MakeCmp(
      storage::kTimeField, query::CmpOp::kGte, bson::Value::DateTime(t0)));
  conjuncts.push_back(query::MakeCmp(storage::kTimeField, query::CmpOp::kLte,
                                     bson::Value::DateTime(t0 + kHourMs)));
  conjuncts.push_back(query::MakeGeoWithinBox(
      storage::kLocationField, geo::Rect{{23.0, 37.0}, {24.0, 38.0}}));
  const query::ExprPtr expr = query::MakeAnd(std::move(conjuncts));
  const query::BucketPruneSpec spec =
      query::ExtractBucketPredicates(expr, layout);
  EXPECT_TRUE(spec.exact);

  storage::BucketMeta inside;
  inside.min_ts = t0 + 1000;
  inside.max_ts = t0 + kHourMs - 1000;
  inside.has_mbr = true;
  inside.mbr = {{23.2, 37.2}, {23.8, 37.8}};
  EXPECT_TRUE(spec.MayContain(inside));
  EXPECT_TRUE(spec.Covers(inside));

  // Time extent pokes out of the bounds: may contain, but not covered.
  storage::BucketMeta straddling = inside;
  straddling.max_ts = t0 + 2 * kHourMs;
  EXPECT_TRUE(spec.MayContain(straddling));
  EXPECT_FALSE(spec.Covers(straddling));

  // MBR partially outside the rect: same.
  storage::BucketMeta overhang = inside;
  overhang.mbr = {{23.5, 37.5}, {24.5, 38.5}};
  EXPECT_TRUE(spec.MayContain(overhang));
  EXPECT_FALSE(spec.Covers(overhang));

  // Disjoint in space: prunable.
  storage::BucketMeta far = inside;
  far.mbr = {{27.0, 40.0}, {28.0, 41.0}};
  EXPECT_FALSE(spec.MayContain(far));

  // No MBR recorded (some point had a non-canonical location): the rect
  // can neither prune nor cover.
  storage::BucketMeta opaque = inside;
  opaque.has_mbr = false;
  EXPECT_TRUE(spec.MayContain(opaque));
  EXPECT_FALSE(spec.Covers(opaque));

  // A polygon captures only its bounding box — never exact, never covers.
  const query::ExprPtr poly_expr = query::MakeGeoWithinPolygon(
      storage::kLocationField,
      geo::Polygon{{{23.0, 37.0}, {24.0, 37.0}, {23.5, 38.0}}});
  const query::BucketPruneSpec poly_spec =
      query::ExtractBucketPredicates(poly_expr, layout);
  EXPECT_FALSE(poly_spec.exact);
  EXPECT_FALSE(poly_spec.Covers(inside));
}

// ---------- bucket predicate kernel vs DecodeBucket + Matches ----------

// Encoding variants a random bucket is drawn from.
struct KernelBucketShape {
  bool mixed_schema;   // "res" residuals instead of "cols"
  bool canonical_loc;  // false: one point has int coordinates, no lon/lat
  bool full_hil;       // false: one point lacks hilbertIndex, no hil column
};

// Coordinates and timestamps sit on a coarse lattice so that query rects
// and time bounds drawn from the same lattice hit points exactly on their
// edges.
double Lattice(Rng& rng, double origin) {
  return origin + 0.25 * static_cast<double>(rng.NextBounded(5));
}

std::vector<bson::Document> RandomKernelPoints(Rng& rng, int64_t base,
                                               const KernelBucketShape& shape) {
  static bson::ObjectIdGenerator oid_gen(7);
  const int n = 1 + static_cast<int>(rng.NextBounded(60));
  const int odd_one = static_cast<int>(rng.NextBounded(n));
  std::vector<bson::Document> points;
  for (int i = 0; i < n; ++i) {
    const int64_t ts = base + 1000 * static_cast<int64_t>(rng.NextBounded(40));
    bson::Document p;
    p.Append("vehicleId", bson::Value::Int32(5));
    if (!shape.canonical_loc && i == odd_one) {
      // Valid GeoJSON the matcher accepts, but not the canonical double
      // form the codec lifts into columns.
      bson::Document loc;
      loc.Append("type", bson::Value::String("Point"));
      bson::Array coords;
      coords.push_back(bson::Value::Int32(23));
      coords.push_back(bson::Value::Int32(37));
      loc.Append("coordinates", bson::Value::MakeArray(std::move(coords)));
      p.Append("location", bson::Value::MakeDocument(std::move(loc)));
    } else {
      p.Append("location", bson::Value::MakeDocument(bson::GeoJsonPoint(
                               Lattice(rng, 23.0), Lattice(rng, 37.0))));
    }
    p.Append("date", bson::Value::DateTime(ts));
    if (shape.full_hil || i != odd_one) {
      p.Append("hilbertIndex",
               bson::Value::Int64(static_cast<int64_t>(rng.NextBounded(64))));
    }
    p.Append("speed", bson::Value::Double(static_cast<double>(i % 7)));
    if (shape.mixed_schema && i % 3 == 0) {
      p.Append("extra", bson::Value::Int32(i));
    }
    p.Append("_id", bson::Value::Id(oid_gen.Generate(
                        static_cast<uint32_t>(ts / 1000))));
    points.push_back(std::move(p));
  }
  return points;
}

// Point-level expressions over one bucket's lattice: exact rect/time/hil
// conjunctions plus the inexact shapes (polygon, $or, other fields,
// geoIntersects) and an empty intersected rect.
std::vector<query::ExprPtr> KernelExpressions(Rng& rng, int64_t base) {
  const auto ts_at = [&](int64_t step) {
    return bson::Value::DateTime(base + 1000 * step);
  };
  const int64_t a = static_cast<int64_t>(rng.NextBounded(40));
  const int64_t b = a + static_cast<int64_t>(rng.NextBounded(40 - a));
  const double lon0 = Lattice(rng, 23.0), lat0 = Lattice(rng, 37.0);
  const geo::Rect rect{{lon0, lat0},
                       {lon0 + 0.25 * static_cast<double>(rng.NextBounded(4)),
                        lat0 + 0.25 * static_cast<double>(rng.NextBounded(4))}};
  const auto date_window = [&] {
    return std::vector<query::ExprPtr>{
        query::MakeCmp("date", query::CmpOp::kGte, ts_at(a)),
        query::MakeCmp("date", query::CmpOp::kLte, ts_at(b))};
  };
  std::vector<query::RangeSetExpr::Range> ranges;
  for (int64_t lo = static_cast<int64_t>(rng.NextBounded(8)); lo < 64;
       lo += 4 + static_cast<int64_t>(rng.NextBounded(12))) {
    const int64_t hi = lo + static_cast<int64_t>(rng.NextBounded(4));
    ranges.push_back({bson::Value::Int64(lo), bson::Value::Int64(hi)});
  }

  std::vector<query::ExprPtr> out;
  std::vector<query::ExprPtr> c = date_window();
  c.push_back(query::MakeGeoWithinBox("location", rect));
  out.push_back(query::MakeAnd(c));  // the hil/bslTS rect query minus hil
  c.push_back(query::MakeRangeSet("hilbertIndex", ranges));
  out.push_back(query::MakeAnd(c));  // the full hil rect query
  out.push_back(query::MakeAnd(
      {query::MakeCmp("date", query::CmpOp::kGt, ts_at(a)),
       query::MakeCmp("date", query::CmpOp::kLt, ts_at(b))}));
  out.push_back(query::MakeCmp("date", query::CmpOp::kEq, ts_at(a)));
  // Two disjoint boxes: the intersected rect is empty.
  out.push_back(query::MakeAnd(
      {query::MakeGeoWithinBox("location", {{23.0, 37.0}, {23.25, 37.25}}),
       query::MakeGeoWithinBox("location", {{23.5, 37.5}, {24.0, 38.0}}),
       query::MakeCmp("date", query::CmpOp::kGte, ts_at(a))}));
  c = date_window();
  c.push_back(query::MakeGeoWithinPolygon(
      "location", geo::Polygon{{{23.0, 37.0}, {24.0, 37.0}, {23.5, 38.0}}}));
  out.push_back(query::MakeAnd(c));
  out.push_back(query::MakeOr(
      {query::MakeGeoWithinBox("location", rect),
       query::MakeCmp("date", query::CmpOp::kLte, ts_at(a))}));
  c = date_window();
  c.push_back(query::MakeOr({query::MakeGeoWithinBox("location", rect),
                             query::MakeCmp("speed", query::CmpOp::kGt,
                                            bson::Value::Double(3.0))}));
  out.push_back(query::MakeAnd(c));
  c = date_window();
  c.push_back(query::MakeGeoIntersectsBox("location", rect));
  out.push_back(query::MakeAnd(c));
  out.push_back(query::MakeAnd(
      {query::MakeGeoWithinBox("location", rect),
       query::MakeCmp("speed", query::CmpOp::kLte, bson::Value::Double(2.0))}));
  return out;
}

TEST(BucketKernelTest, SelectionAndBuiltRowsEqualDecodePlusMatches) {
  Rng rng(0x5e1ec7);
  storage::BucketLayout layout;
  layout.window_ms = 6 * kHourMs;
  const int64_t base = layout.WindowBase(1530403200000);
  uint64_t exact = 0, inexact = 0, pruned = 0, covered = 0, nonempty = 0;
  uint64_t no_loc = 0, no_hil = 0, res = 0;
  for (int trial = 0; trial < 240; ++trial) {
    const KernelBucketShape shape{rng.NextBounded(2) == 0,
                                  rng.NextBounded(4) != 0,
                                  rng.NextBounded(4) != 0};
    const std::vector<bson::Document> points =
        RandomKernelPoints(rng, base, shape);
    const Result<bson::Document> bucket =
        storage::EncodeBucket(points, layout);
    ASSERT_TRUE(bucket.ok()) << bucket.status().ToString();
    storage::BucketReader reader;
    ASSERT_TRUE(reader.Reset(*bucket).ok());
    no_loc += reader.column(storage::BucketColumn::kLon).empty();
    no_hil += reader.column(storage::BucketColumn::kHil).empty();
    res += !reader.uniform_residuals();
    const Result<std::vector<bson::Document>> all =
        storage::DecodeBucket(*bucket);
    ASSERT_TRUE(all.ok()) << all.status().ToString();

    for (const query::ExprPtr& expr : KernelExpressions(rng, base)) {
      std::vector<std::string> want;
      for (const bson::Document& p : *all) {
        if (expr->Matches(p)) want.push_back(bson::EncodeBson(p));
      }

      // One reader across the expressions, as a scan holds one: Reset
      // must leave no state of the previous selection behind.
      ASSERT_TRUE(reader.Reset(*bucket).ok());
      storage::BucketSelection selection;
      const Status s = reader.Select(
          query::ExtractBucketPredicates(expr, layout), &selection);
      ASSERT_TRUE(s.ok()) << s.ToString();
      std::vector<std::string> got;
      if (!selection.rows.empty()) {
        std::vector<bson::Document> built;
        const Status b = reader.Build(&selection.rows, &built);
        ASSERT_TRUE(b.ok()) << b.ToString();
        ASSERT_EQ(built.size(), selection.rows.size());
        for (size_t k = 0; k < built.size(); ++k) {
          // Each built row is byte-identical to DecodeBucket's.
          ASSERT_EQ(bson::EncodeBson(built[k]),
                    bson::EncodeBson((*all)[selection.rows[k]]));
          if (selection.exact || expr->Matches(built[k])) {
            got.push_back(bson::EncodeBson(built[k]));
          }
        }
      }
      ASSERT_EQ(got, want) << "trial " << trial << " expr "
                           << expr->DebugString();

      exact += selection.exact;
      inexact += !selection.exact;
      pruned += selection.pruned;
      covered += !selection.pruned && selection.scanned == 0;
      nonempty += !want.empty();
    }
  }
  // Every branch of the kernel was exercised.
  EXPECT_GT(exact, 0u);
  EXPECT_GT(inexact, 0u);
  EXPECT_GT(pruned, 0u);
  EXPECT_GT(covered, 0u);
  EXPECT_GT(nonempty, 0u);
  EXPECT_GT(no_loc, 0u);
  EXPECT_GT(no_hil, 0u);
  EXPECT_GT(res, 0u);
}

TEST(BucketQueryTest, RegistryCountersMoveAfterBucketedQuery) {
  const workload::TrajectoryOptions traj;
  const auto bucket = LoadedStore(ApproachKind::kBslTS, true, 2000);
  ASSERT_TRUE(bucket->FlushBuckets().ok());
  MetricsRegistry& registry = MetricsRegistry::Instance();
  const uint64_t pruned_before =
      registry.GetCounter("bucket.buckets_pruned").value();
  const uint64_t unpacked_before =
      registry.GetCounter("bucket.points_unpacked").value();
  const int64_t span = traj.t_end_ms - traj.t_begin_ms;
  const StQueryResult r =
      bucket->Query(geo::Rect{{23.0, 37.5}, {24.4, 38.5}},
                    traj.t_begin_ms + span / 3, traj.t_begin_ms + span / 2);
  ASSERT_TRUE(r.cluster.status.ok());
  ASSERT_FALSE(r.cluster.docs.empty());
  EXPECT_GT(registry.GetCounter("bucket.buckets_pruned").value(),
            pruned_before);
  EXPECT_GE(registry.GetCounter("bucket.points_unpacked").value(),
            unpacked_before + r.cluster.docs.size());
}

TEST(BucketQueryTest, DamagedBucketFailsQueryWithCorruption) {
  // A stored bucket whose blob no longer decodes must fail the query — the
  // same Corruption a delete over it reports — not silently drop its
  // points from an OK result.
  const workload::TrajectoryOptions traj;
  const geo::Rect everything{{19.0, 34.0}, {29.0, 42.0}};
  for (const ApproachKind kind : {ApproachKind::kBslTS, ApproachKind::kHil}) {
    SCOPED_TRACE(ApproachName(kind));
    const auto store = LoadedStore(kind, true, 1000);
    ASSERT_TRUE(store->FlushBuckets().ok());
    std::optional<bson::Document> damaged;
    store->cluster().shards().front()->records().ForEach(
        [&](storage::RecordId, const bson::Document& doc) {
          if (!damaged && storage::BucketBlob(doc) != nullptr) damaged = doc;
        });
    ASSERT_TRUE(damaged.has_value());
    const std::string blob = *storage::BucketBlob(*damaged);
    storage::ReplaceBucketBlob(&*damaged, blob.substr(0, blob.size() / 2));
    ASSERT_TRUE(store->cluster().Insert(std::move(*damaged)).ok());

    const StQueryResult r =
        store->Query(everything, traj.t_begin_ms, traj.t_end_ms);
    EXPECT_EQ(r.cluster.status.code(), StatusCode::kCorruption)
        << r.cluster.status.ToString();
    EXPECT_TRUE(r.cluster.docs.empty());

    const Result<uint64_t> removed = store->cluster().Delete(
        query::MakeCmp("date", query::CmpOp::kGte,
                       bson::Value::DateTime(traj.t_begin_ms)));
    EXPECT_EQ(removed.status().code(), StatusCode::kCorruption);
  }
}

TEST(BucketQueryTest, AggregateWithoutMatchSeesPoints) {
  const auto bucket = LoadedStore(ApproachKind::kHil, true, 1500);
  ASSERT_TRUE(bucket->FlushBuckets().ok());
  query::GroupStage group;
  group.accumulators = {{"n", query::AccumulatorOp::kCount, ""}};
  const auto out =
      bucket->cluster().Aggregate(query::Pipeline().Group(std::move(group)));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->front().Get("n")->AsInt64(), 1500);
}

TEST(BucketQueryTest, DeleteRemovesPointsUnderBucketLayout) {
  const workload::TrajectoryOptions traj;
  const auto store = LoadedStore(ApproachKind::kBslTS, true, 1000);
  const geo::Rect everything{{19.0, 34.0}, {29.0, 42.0}};
  const StQueryResult before =
      store->Query(everything, traj.t_begin_ms, traj.t_end_ms);
  ASSERT_EQ(before.cluster.docs.size(), 1000u);

  // Delete the first half of the time span (bucketed deletes unpack,
  // filter and re-encode partially-hit buckets), then verify survivors.
  const int64_t span = traj.t_end_ms - traj.t_begin_ms;
  const int64_t cut = traj.t_begin_ms + span / 2;
  uint64_t expected_survivors = 0;
  for (const bson::Document& d : before.cluster.docs) {
    if (d.Get("date")->AsDateTime() > cut) ++expected_survivors;
  }
  std::vector<query::ExprPtr> conjuncts;
  conjuncts.push_back(query::MakeCmp("date", query::CmpOp::kGte,
                                     bson::Value::DateTime(traj.t_begin_ms)));
  conjuncts.push_back(query::MakeCmp("date", query::CmpOp::kLte,
                                     bson::Value::DateTime(cut)));
  ASSERT_TRUE(store->FlushBuckets().ok());
  const Result<uint64_t> removed =
      store->cluster().Delete(query::MakeAnd(std::move(conjuncts)));
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(*removed, 1000u - expected_survivors);
  const StQueryResult after =
      store->Query(everything, traj.t_begin_ms, traj.t_end_ms);
  EXPECT_EQ(after.cluster.docs.size(), expected_survivors);
}

TEST(BucketQueryTest, DeleteAgreesWithRowLayout) {
  // Bucketed deletes select with the bucket predicate kernel: an exact
  // rect + window expression deletes straight off the selection, a polygon
  // (inexact) refines the selected rows with Matches. Both must leave the
  // same points as the row layout.
  const workload::TrajectoryOptions traj;
  const auto row = LoadedStore(ApproachKind::kBslTS, false, 1500);
  const auto bucket = LoadedStore(ApproachKind::kBslTS, true, 1500);
  ASSERT_TRUE(bucket->FlushBuckets().ok());
  const int64_t span = traj.t_end_ms - traj.t_begin_ms;
  const auto window = [&](std::vector<query::ExprPtr> c) {
    c.push_back(query::MakeCmp(
        "date", query::CmpOp::kGte,
        bson::Value::DateTime(traj.t_begin_ms + span / 4)));
    c.push_back(query::MakeCmp(
        "date", query::CmpOp::kLte,
        bson::Value::DateTime(traj.t_begin_ms + span * 3 / 4)));
    return query::MakeAnd(std::move(c));
  };
  const query::ExprPtr deletes[] = {
      window({query::MakeGeoWithinBox("location",
                                      {{23.0, 37.5}, {24.4, 38.5}})}),
      window({query::MakeGeoWithinPolygon(
          "location",
          geo::Polygon{{{22.0, 36.5}, {25.5, 37.0}, {23.8, 40.0}}})}),
  };
  const geo::Rect everything{{19.0, 34.0}, {29.0, 42.0}};
  for (const query::ExprPtr& expr : deletes) {
    const Result<uint64_t> row_removed = row->cluster().Delete(expr);
    const Result<uint64_t> bucket_removed = bucket->cluster().Delete(expr);
    ASSERT_TRUE(row_removed.ok()) << row_removed.status().ToString();
    ASSERT_TRUE(bucket_removed.ok()) << bucket_removed.status().ToString();
    EXPECT_GT(*row_removed, 0u) << expr->DebugString();
    EXPECT_EQ(*bucket_removed, *row_removed) << expr->DebugString();
    const StQueryResult rr =
        row->Query(everything, traj.t_begin_ms, traj.t_end_ms);
    const StQueryResult br =
        bucket->Query(everything, traj.t_begin_ms, traj.t_end_ms);
    EXPECT_EQ(Canon(rr.cluster.docs), Canon(br.cluster.docs))
        << expr->DebugString();
  }
}

}  // namespace
}  // namespace stix::st
