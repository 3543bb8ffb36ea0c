#include <atomic>
#include <numeric>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "cluster/balancer.h"
#include "cluster/cluster.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "keystring/keystring.h"
#include "temp_dir.h"

namespace stix::cluster {
namespace {

using bson::Value;

bson::Document Doc(int id, double lon, double lat, int64_t date_ms,
                   int64_t hilbert) {
  bson::Document doc;
  doc.Append("_id", Value::Int64(id));
  doc.Append("location",
             Value::MakeDocument(bson::GeoJsonPoint(lon, lat)));
  doc.Append("date", Value::DateTime(date_ms));
  doc.Append("hilbertIndex", Value::Int64(hilbert));
  doc.Append("pad", Value::String(std::string(120, 'p')));
  return doc;
}

// ---------- ShardKeyPattern ----------

TEST(ShardKeyPatternTest, RangeKeyIsKeyStringOfFields) {
  const ShardKeyPattern pattern({"hilbertIndex", "date"},
                                ShardingStrategy::kRange);
  const bson::Document doc = Doc(1, 0, 0, 777, 42);
  EXPECT_EQ(pattern.KeyOf(doc),
            keystring::Encode({Value::Int64(42), Value::DateTime(777)}));
  EXPECT_EQ(pattern.DebugString(), "{hilbertIndex: 1, date: 1}");
}

TEST(ShardKeyPatternTest, MissingFieldKeysAsNull) {
  const ShardKeyPattern pattern({"nope"}, ShardingStrategy::kRange);
  EXPECT_EQ(pattern.KeyOf(Doc(1, 0, 0, 0, 0)),
            keystring::Encode(Value::Null()));
}

TEST(ShardKeyPatternTest, HashedKeysSpread) {
  const ShardKeyPattern pattern({"date"}, ShardingStrategy::kHashed);
  std::set<std::string> keys;
  for (int i = 0; i < 100; ++i) {
    keys.insert(pattern.KeyOf(Doc(i, 0, 0, i, 0)));
  }
  EXPECT_EQ(keys.size(), 100u);
  // Consecutive dates should not produce consecutive hashed keys: check the
  // keys are not in date order.
  const std::string k0 = pattern.KeyOf(Doc(0, 0, 0, 0, 0));
  const std::string k1 = pattern.KeyOf(Doc(1, 0, 0, 1, 0));
  const std::string k2 = pattern.KeyOf(Doc(2, 0, 0, 2, 0));
  EXPECT_FALSE(k0 < k1 && k1 < k2);
}

// ---------- ChunkManager ----------

TEST(ChunkManagerTest, InitialChunkCoversEverything) {
  const ChunkManager cm(3);
  EXPECT_EQ(cm.num_chunks(), 1u);
  EXPECT_TRUE(cm.CheckInvariants());
  EXPECT_EQ(cm.chunk(cm.FindChunkIndex(keystring::Encode(Value::Int64(5))))
                .shard_id,
            3);
}

TEST(ChunkManagerTest, SplitAndFind) {
  ChunkManager cm(0);
  const std::string k10 = keystring::Encode(Value::Int64(10));
  const std::string k20 = keystring::Encode(Value::Int64(20));
  ASSERT_TRUE(cm.MultiSplit(0, {k10}).ok());
  ASSERT_TRUE(cm.MultiSplit(1, {k20}).ok());
  EXPECT_EQ(cm.num_chunks(), 3u);
  EXPECT_TRUE(cm.CheckInvariants());
  EXPECT_EQ(cm.FindChunkIndex(keystring::Encode(Value::Int64(5))), 0u);
  EXPECT_EQ(cm.FindChunkIndex(k10), 1u);  // min is inclusive
  EXPECT_EQ(cm.FindChunkIndex(keystring::Encode(Value::Int64(15))), 1u);
  EXPECT_EQ(cm.FindChunkIndex(keystring::Encode(Value::Int64(99))), 2u);
}

TEST(ChunkManagerTest, SplitRejectsOutOfRangeKeys) {
  ChunkManager cm(0);
  const std::string k = keystring::Encode(Value::Int64(10));
  ASSERT_TRUE(cm.MultiSplit(0, {k}).ok());
  EXPECT_FALSE(cm.MultiSplit(1, {k}).ok());  // equals chunk 1's min
  EXPECT_FALSE(cm.MultiSplit(0, {keystring::MinKey()}).ok());
}

TEST(ChunkManagerTest, IntersectingChunks) {
  ChunkManager cm(0);
  for (int v : {10, 20, 30}) {
    cm.MultiSplit(cm.FindChunkIndex(keystring::Encode(Value::Int64(v))),
                  {keystring::Encode(Value::Int64(v))});
  }
  // Range [15, 25] touches chunks [10,20) and [20,30); targeting asks the
  // routing snapshot of the table.
  const RoutingTable routing =
      RoutingTable::Of(ShardKeyPattern(), &cm, /*resharding=*/false);
  const auto hits = routing.ChunksIntersecting(
      keystring::Encode(Value::Int64(15)), keystring::Encode(Value::Int64(25)));
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], 1u);
  EXPECT_EQ(hits[1], 2u);
}

TEST(ChunkManagerTest, SplitAccountingHalves) {
  ChunkManager cm(0);
  cm.chunk(0).bytes = 1000;
  cm.chunk(0).docs = 10;
  cm.MultiSplit(0, {keystring::Encode(Value::Int64(0))});
  EXPECT_EQ(cm.chunk(0).bytes + cm.chunk(1).bytes, 1000u);
  EXPECT_EQ(cm.chunk(0).docs + cm.chunk(1).docs, 10u);
}

// ---------- zones ----------

TEST(ZonesTest, ZoneForKeyLookup) {
  std::vector<ZoneRange> zones;
  zones.push_back({keystring::MinKey(), keystring::Encode(Value::Int64(10)), 0});
  zones.push_back({keystring::Encode(Value::Int64(10)),
                   keystring::Encode(Value::Int64(20)), 1});
  zones.push_back({keystring::Encode(Value::Int64(20)), keystring::MaxKey(), 2});
  EXPECT_TRUE(ZonesCoverWholeSpace(zones));
  EXPECT_EQ(ZoneForKey(zones, keystring::Encode(Value::Int64(5))), 0);
  EXPECT_EQ(ZoneForKey(zones, keystring::Encode(Value::Int64(10))), 1);
  EXPECT_EQ(ZoneForKey(zones, keystring::Encode(Value::Int64(25))), 2);
}

TEST(ZonesTest, GapsAreDetected) {
  std::vector<ZoneRange> gap;
  gap.push_back({keystring::MinKey(), keystring::Encode(Value::Int64(10)), 0});
  gap.push_back({keystring::Encode(Value::Int64(15)), keystring::MaxKey(), 1});
  EXPECT_FALSE(ZonesCoverWholeSpace(gap));
  EXPECT_EQ(ZoneForKey(gap, keystring::Encode(Value::Int64(12))), -1);
}

// ---------- balancer policy ----------

TEST(BalancerTest, NoMoveWhenBalanced) {
  ChunkManager cm(0);
  cm.MultiSplit(0, {keystring::Encode(Value::Int64(10))});
  cm.chunk(1).shard_id = 1;
  Rng rng(1);
  EXPECT_FALSE(PickNextMigration(cm, 2, {}, /*weigh_by_points=*/false, &rng)
                   .has_value());
}

TEST(BalancerTest, MovesFromLoadedToEmpty) {
  ChunkManager cm(0);
  for (int v : {10, 20, 30}) {
    cm.MultiSplit(cm.FindChunkIndex(keystring::Encode(Value::Int64(v))),
                  {keystring::Encode(Value::Int64(v))});
  }
  // All 4 chunks on shard 0, 2 shards total.
  Rng rng(1);
  const auto m = PickNextMigration(cm, 2, {}, /*weigh_by_points=*/false, &rng);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->to_shard, 1);
}

TEST(BalancerTest, ZoneViolationsComeFirst) {
  ChunkManager cm(0);
  cm.MultiSplit(0, {keystring::Encode(Value::Int64(10))});
  std::vector<ZoneRange> zones;
  zones.push_back({keystring::MinKey(), keystring::Encode(Value::Int64(10)), 0});
  zones.push_back({keystring::Encode(Value::Int64(10)), keystring::MaxKey(), 1});
  // Chunk 1 belongs to zone of shard 1 but sits on shard 0.
  Rng rng(1);
  const auto m =
      PickNextMigration(cm, 2, zones, /*weigh_by_points=*/false, &rng);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->chunk_index, 1u);
  EXPECT_EQ(m->to_shard, 1);
}

TEST(BalancerTest, StraddlingChunkIsPinnedByOverlapNotMinKey) {
  // Chunks [Min,10) [10,30) [30,Max); zone [20,Max) -> shard 1. The middle
  // chunk straddles the zone boundary: its min key lies outside the zone
  // (min-key classification saw no violation and left it stranded) but its
  // range overlaps the zone, so it is pinned to shard 1.
  ChunkManager cm(0);
  cm.MultiSplit(0, {keystring::Encode(Value::Int64(10))});
  cm.MultiSplit(1, {keystring::Encode(Value::Int64(30))});
  cm.chunk(2).shard_id = 1;  // [30,Max) already compliant
  std::vector<ZoneRange> zones;
  zones.push_back(
      {keystring::Encode(Value::Int64(20)), keystring::MaxKey(), 1});
  EXPECT_EQ(ZoneForKey(zones, cm.chunk(1).min), -1);
  EXPECT_EQ(ZoneForChunk(zones, cm.chunk(1)), 1);
  Rng rng(1);
  const auto m =
      PickNextMigration(cm, 2, zones, /*weigh_by_points=*/false, &rng);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->chunk_index, 1u);
  EXPECT_EQ(m->to_shard, 1);
}

TEST(BalancerTest, PinnedChunksDoNotMaskMovableImbalance) {
  // Shard 2 carries four pinned (zone-compliant) chunks; shard 1 carries
  // three movable chunks; shard 0 is empty. Counting all chunks elected the
  // pinned-heavy shard 2 as donor, found nothing movable on it and stalled,
  // hiding the real 3-vs-0 movable imbalance between shards 1 and 0. Counts
  // over movable chunks only must find that move.
  ChunkManager cm(2);
  for (int v : {10, 20, 30, 40, 50, 60}) {
    cm.MultiSplit(cm.FindChunkIndex(keystring::Encode(Value::Int64(v))),
                  {keystring::Encode(Value::Int64(v))});
  }
  // Chunks: [Min,10) [10,20) [20,30) [30,40) on shard 2 (pinned);
  //         [40,50) [50,60) [60,Max) on shard 1 (movable).
  for (size_t i = 4; i < 7; ++i) cm.chunk(i).shard_id = 1;
  std::vector<ZoneRange> zones;
  zones.push_back(
      {keystring::MinKey(), keystring::Encode(Value::Int64(40)), 2});
  Rng rng(1);
  const auto m =
      PickNextMigration(cm, 3, zones, /*weigh_by_points=*/false, &rng);
  ASSERT_TRUE(m.has_value());
  EXPECT_GE(m->chunk_index, 4u);
  EXPECT_EQ(cm.chunk(m->chunk_index).shard_id, 1);
  EXPECT_EQ(m->to_shard, 0);
}

// Chunks [Min,10) [10,20) [20,30) [30,Max) on shard 0 of two, with very
// different point counts; the last is pinned to shard 0 by a zone.
ChunkManager UnevenPointChunks(std::vector<ZoneRange>* zones) {
  ChunkManager cm(0);
  for (int v : {10, 20, 30}) {
    cm.MultiSplit(cm.FindChunkIndex(keystring::Encode(Value::Int64(v))),
                  {keystring::Encode(Value::Int64(v))});
  }
  const uint64_t points[] = {5, 900, 40, 5000};
  for (size_t i = 0; i < 4; ++i) cm.chunk(i).points = points[i];
  zones->push_back(
      {keystring::Encode(Value::Int64(30)), keystring::MaxKey(), 0});
  return cm;
}

TEST(BalancerTest, BucketedPickMovesHeaviestMovableChunk) {
  std::vector<ZoneRange> zones;
  const ChunkManager cm = UnevenPointChunks(&zones);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const auto m =
        PickNextMigration(cm, 2, zones, /*weigh_by_points=*/true, &rng);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->chunk_index, 1u) << "seed " << seed;
    EXPECT_EQ(m->to_shard, 1);
  }
}

TEST(BalancerTest, RowPickStaysSeededRandom) {
  std::vector<ZoneRange> zones;
  const ChunkManager cm = UnevenPointChunks(&zones);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const auto m =
        PickNextMigration(cm, 2, zones, /*weigh_by_points=*/false, &rng);
    ASSERT_TRUE(m.has_value());
    // Movable chunks 0..2: the pick is the seeded Rng's first draw.
    Rng expected(seed);
    EXPECT_EQ(m->chunk_index, expected.NextBounded(3)) << "seed " << seed;
    EXPECT_EQ(m->to_shard, 1);
  }
}

// ---------- Cluster end-to-end ----------

class ClusterTest : public ::testing::Test {
 protected:
  ClusterOptions SmallOptions() {
    ClusterOptions opts;
    opts.num_shards = 4;
    opts.chunk_max_bytes = 8 * 1024;  // force plenty of splits
    opts.balance_every_inserts = 500;
    opts.seed = 5;
    return opts;
  }

  void Load(Cluster* cluster, int n) {
    Rng rng(77);
    for (int i = 0; i < n; ++i) {
      const double lon = rng.NextDouble(0, 10);
      const int64_t date = 60000LL * i;
      const int64_t h = static_cast<int64_t>(lon * 10);  // 100 cells
      ASSERT_TRUE(cluster
                      ->Insert(Doc(i, lon, rng.NextDouble(0, 10), date, h))
                      .ok());
    }
  }
};

TEST_F(ClusterTest, RequiresShardingFirst) {
  Cluster cluster(SmallOptions());
  EXPECT_FALSE(cluster.Insert(Doc(1, 0, 0, 0, 0)).ok());
  EXPECT_FALSE(
      cluster
          .CreateIndex(index::IndexDescriptor(
              "x", {{"date", index::IndexFieldKind::kAscending}}))
          .ok());
}

TEST_F(ClusterTest, ShardingCreatesMandatoryIndexes) {
  Cluster cluster(SmallOptions());
  ASSERT_TRUE(cluster
                  .ShardCollection(ShardKeyPattern(
                      {"date"}, ShardingStrategy::kRange))
                  .ok());
  for (const auto& shard : cluster.shards()) {
    EXPECT_NE(shard->catalog().Get("_id_"), nullptr);
    EXPECT_NE(shard->catalog().Get("date_1"), nullptr);
  }
  EXPECT_EQ(cluster.shard_key_index_name(), "date_1");
  // Double sharding fails.
  EXPECT_FALSE(cluster
                   .ShardCollection(ShardKeyPattern(
                       {"date"}, ShardingStrategy::kRange))
                   .ok());
}

TEST_F(ClusterTest, LoadSplitsAndBalances) {
  Cluster cluster(SmallOptions());
  ASSERT_TRUE(cluster
                  .ShardCollection(ShardKeyPattern(
                      {"date"}, ShardingStrategy::kRange))
                  .ok());
  Load(&cluster, 3000);
  cluster.Balance();

  EXPECT_EQ(cluster.total_documents(), 3000u);
  EXPECT_GT(cluster.chunks().num_chunks(), 8u);
  EXPECT_TRUE(cluster.chunks().CheckInvariants());

  const std::vector<int> counts =
      cluster.chunks().CountsPerShard(cluster.num_shards());
  const int max = *std::max_element(counts.begin(), counts.end());
  const int min = *std::min_element(counts.begin(), counts.end());
  EXPECT_LE(max - min, 1) << "balancer left the cluster uneven";
  // Every shard holds data after balancing.
  for (const auto& shard : cluster.shards()) {
    EXPECT_GT(shard->num_documents(), 0u);
  }
}

TEST_F(ClusterTest, DocumentsLiveOnTheirChunksShard) {
  Cluster cluster(SmallOptions());
  ASSERT_TRUE(cluster
                  .ShardCollection(ShardKeyPattern(
                      {"hilbertIndex", "date"}, ShardingStrategy::kRange))
                  .ok());
  Load(&cluster, 2000);
  cluster.Balance();

  // Re-derive each document's chunk and confirm it is stored there.
  for (const auto& shard : cluster.shards()) {
    shard->records().ForEach(
        [&](storage::RecordId, const bson::Document& doc) {
          const std::string key = cluster.shard_key().KeyOf(doc);
          const Chunk& chunk =
              cluster.chunks().chunk(cluster.chunks().FindChunkIndex(key));
          EXPECT_EQ(chunk.shard_id, shard->id());
        });
  }
}

TEST_F(ClusterTest, QueryMatchesNaiveAcrossShards) {
  Cluster cluster(SmallOptions());
  ASSERT_TRUE(cluster
                  .ShardCollection(ShardKeyPattern(
                      {"date"}, ShardingStrategy::kRange))
                  .ok());
  Load(&cluster, 2000);
  cluster.Balance();

  const query::ExprPtr q = query::MakeRange(
      "date", Value::DateTime(60000LL * 300), Value::DateTime(60000LL * 600));
  const ClusterQueryResult r = cluster.Query(q);
  EXPECT_EQ(r.docs.size(), 301u);
  EXPECT_GT(r.nodes_contacted, 0);
  EXPECT_LE(r.nodes_contacted, cluster.num_shards());
  EXPECT_GE(r.max_keys_examined, 1u);
  EXPECT_LE(r.max_keys_examined, r.total_keys_examined);
}

TEST_F(ClusterTest, RouterTargetsSubsetForRangeOnShardKey) {
  Cluster cluster(SmallOptions());
  ASSERT_TRUE(cluster
                  .ShardCollection(ShardKeyPattern(
                      {"date"}, ShardingStrategy::kRange))
                  .ok());
  Load(&cluster, 3000);
  cluster.Balance();

  // Narrow date range: a strict subset of shards.
  const query::ExprPtr narrow = query::MakeRange(
      "date", Value::DateTime(60000LL * 100), Value::DateTime(60000LL * 140));
  EXPECT_LT(cluster.TargetShards(narrow).size(),
            static_cast<size_t>(cluster.num_shards()));

  // No shard-key constraint: broadcast.
  const query::ExprPtr off_key =
      query::MakeCmp("hilbertIndex", query::CmpOp::kEq, Value::Int64(3));
  EXPECT_EQ(cluster.TargetShards(off_key).size(),
            static_cast<size_t>(cluster.num_shards()));
}

TEST_F(ClusterTest, CompoundShardKeyTargetsByLeadingField) {
  Cluster cluster(SmallOptions());
  ASSERT_TRUE(cluster
                  .ShardCollection(ShardKeyPattern(
                      {"hilbertIndex", "date"}, ShardingStrategy::kRange))
                  .ok());
  Load(&cluster, 3000);
  cluster.Balance();

  const query::ExprPtr q = query::MakeOr(
      {query::MakeRange("hilbertIndex", Value::Int64(10), Value::Int64(15))});
  // Default chunk placement scatters contiguous ranges (the paper's point),
  // so with few shards the narrow range may still touch all of them; zoning
  // on the leading field restores locality and must shrink the target set.
  const size_t default_targets = cluster.TargetShards(q).size();
  ASSERT_TRUE(cluster.SetZonesByBucketAuto("hilbertIndex").ok());
  const size_t zoned_targets = cluster.TargetShards(q).size();
  EXPECT_LE(zoned_targets, default_targets);
  EXPECT_LT(zoned_targets, static_cast<size_t>(cluster.num_shards()));

  const ClusterQueryResult r = cluster.Query(query::MakeAnd(
      {q, query::MakeRange("date", Value::DateTime(0),
                           Value::DateTime(60000LL * 3000))}));
  // Verify against a cross-shard naive count.
  size_t naive = 0;
  for (const auto& shard : cluster.shards()) {
    shard->records().ForEach(
        [&](storage::RecordId, const bson::Document& doc) {
          const int64_t h = doc.Get("hilbertIndex")->AsInt64();
          if (h >= 10 && h <= 15) ++naive;
        });
  }
  EXPECT_EQ(r.docs.size(), naive);
}

TEST_F(ClusterTest, ZonesEnforcePlacementAndPreserveData) {
  Cluster cluster(SmallOptions());
  ASSERT_TRUE(cluster
                  .ShardCollection(ShardKeyPattern(
                      {"hilbertIndex", "date"}, ShardingStrategy::kRange))
                  .ok());
  Load(&cluster, 2000);
  cluster.Balance();

  ASSERT_TRUE(cluster.SetZonesByBucketAuto("hilbertIndex").ok());
  EXPECT_EQ(cluster.total_documents(), 2000u);
  EXPECT_FALSE(cluster.zones().empty());

  // Every chunk now sits on its zone's shard.
  for (const Chunk& chunk : cluster.chunks().chunks()) {
    const int zone_shard = ZoneForKey(cluster.zones(), chunk.min);
    if (zone_shard >= 0) {
      EXPECT_EQ(chunk.shard_id, zone_shard);
    }
  }

  // Queries still correct after migration.
  const query::ExprPtr q = query::MakeOr(
      {query::MakeRange("hilbertIndex", Value::Int64(0), Value::Int64(30))});
  const ClusterQueryResult r = cluster.Query(q);
  size_t naive = 0;
  for (const auto& shard : cluster.shards()) {
    shard->records().ForEach(
        [&](storage::RecordId, const bson::Document& doc) {
          const int64_t h = doc.Get("hilbertIndex")->AsInt64();
          if (h >= 0 && h <= 30) ++naive;
        });
  }
  EXPECT_EQ(r.docs.size(), naive);

  // Zoning on the leading shard-key field shrinks (or keeps) the number of
  // nodes a spatially narrow query touches.
  EXPECT_LE(cluster.TargetShards(q).size(),
            static_cast<size_t>(cluster.num_shards()));
}

TEST_F(ClusterTest, HashedShardingBroadcastsRangeQueries) {
  Cluster cluster(SmallOptions());
  ASSERT_TRUE(cluster
                  .ShardCollection(ShardKeyPattern(
                      {"date"}, ShardingStrategy::kHashed))
                  .ok());
  Load(&cluster, 1000);
  const query::ExprPtr range_q = query::MakeRange(
      "date", Value::DateTime(0), Value::DateTime(60000LL * 100));
  EXPECT_EQ(cluster.TargetShards(range_q).size(),
            static_cast<size_t>(cluster.num_shards()));
  // Equality targets a single shard.
  const query::ExprPtr eq_q =
      query::MakeCmp("date", query::CmpOp::kEq, Value::DateTime(60000LL * 5));
  EXPECT_EQ(cluster.TargetShards(eq_q).size(), 1u);
  // Results still correct under broadcast.
  EXPECT_EQ(cluster.Query(range_q).docs.size(), 101u);
}

TEST_F(ClusterTest, IndexSizeReportCoversAllIndexes) {
  Cluster cluster(SmallOptions());
  ASSERT_TRUE(cluster
                  .ShardCollection(ShardKeyPattern(
                      {"date"}, ShardingStrategy::kRange))
                  .ok());
  ASSERT_TRUE(cluster
                  .CreateIndex(index::IndexDescriptor(
                      "location_2dsphere_date_1",
                      {{"location", index::IndexFieldKind::k2dsphere},
                       {"date", index::IndexFieldKind::kAscending}}))
                  .ok());
  Load(&cluster, 500);
  const auto sizes = cluster.ComputeIndexSizes();
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_GT(sizes.at("_id_"), 0u);
  EXPECT_GT(sizes.at("date_1"), 0u);
  EXPECT_GT(sizes.at("location_2dsphere_date_1"), 0u);
}

TEST_F(ClusterTest, DataStatsAggregate) {
  Cluster cluster(SmallOptions());
  ASSERT_TRUE(cluster
                  .ShardCollection(ShardKeyPattern(
                      {"date"}, ShardingStrategy::kRange))
                  .ok());
  Load(&cluster, 400);
  const storage::CollectionStats stats = cluster.ComputeDataStats();
  EXPECT_EQ(stats.num_documents, 400u);
  EXPECT_GT(stats.logical_bytes, 0u);
  EXPECT_LT(stats.compressed_bytes, stats.logical_bytes);
}

TEST_F(ClusterTest, ConcurrentQueriesAreExact) {
  Cluster cluster(SmallOptions());
  ASSERT_TRUE(cluster
                  .ShardCollection(ShardKeyPattern(
                      {"date"}, ShardingStrategy::kRange))
                  .ok());
  Load(&cluster, 2000);
  cluster.Balance();

  const query::ExprPtr q = query::MakeRange(
      "date", Value::DateTime(60000LL * 300), Value::DateTime(60000LL * 600));
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&cluster, &q, &wrong] {
      for (int i = 0; i < 5; ++i) {
        if (cluster.Query(q).docs.size() != 301u) wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST_F(ClusterTest, JumboChunkWhenOneKeyDominates) {
  ClusterOptions opts = SmallOptions();
  opts.chunk_max_bytes = 4 * 1024;
  opts.balance_every_inserts = 0;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster
                  .ShardCollection(ShardKeyPattern(
                      {"hilbertIndex"}, ShardingStrategy::kRange))
                  .ok());
  // Everything has the same single-field shard key value -> cannot split.
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(cluster.Insert(Doc(i, 0, 0, i * 1000, /*hilbert=*/7)).ok());
  }
  bool has_jumbo = false;
  for (const Chunk& chunk : cluster.chunks().chunks()) {
    has_jumbo |= chunk.jumbo;
  }
  EXPECT_TRUE(has_jumbo);
}

TEST_F(ClusterTest, CompoundKeySplitsOnTemporalDimensionForHotCell) {
  // Paper Section 4.2.2: a hot Hilbert cell splits on date.
  ClusterOptions opts = SmallOptions();
  opts.chunk_max_bytes = 4 * 1024;
  opts.balance_every_inserts = 0;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster
                  .ShardCollection(ShardKeyPattern(
                      {"hilbertIndex", "date"}, ShardingStrategy::kRange))
                  .ok());
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(cluster.Insert(Doc(i, 0, 0, i * 1000, /*hilbert=*/7)).ok());
  }
  EXPECT_GT(cluster.chunks().num_chunks(), 1u);
  for (const Chunk& chunk : cluster.chunks().chunks()) {
    EXPECT_FALSE(chunk.jumbo);
  }
}

// The published routing snapshot equals the writer-side chunk table and
// shard key; it broadcasts exactly while a reshard is in flight.
void ExpectRoutingMatches(const Cluster& cluster, bool resharding) {
  const std::shared_ptr<const RoutingTable> routing = cluster.routing();
  ASSERT_NE(routing, nullptr);
  EXPECT_EQ(routing->pattern.paths(), cluster.shard_key().paths());
  EXPECT_EQ(routing->pattern.strategy(), cluster.shard_key().strategy());
  EXPECT_EQ(routing->broadcast(), resharding);
  EXPECT_EQ(cluster.resharding(), resharding);
  const std::vector<Chunk>& chunks = cluster.chunks().chunks();
  ASSERT_EQ(routing->bounds.size(), chunks.size());
  ASSERT_EQ(routing->owners.size(), chunks.size());
  for (size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(routing->bounds[i], chunks[i].min) << "chunk " << i;
    EXPECT_EQ(routing->owners[i], chunks[i].shard_id) << "chunk " << i;
  }
}

TEST_F(ClusterTest, PublishedRoutingMatchesChunkTable) {
  MetricsRegistry& metrics = MetricsRegistry::Instance();
  Counter& committed = metrics.GetCounter("balancer.migrations_committed");
  Counter& aborted = metrics.GetCounter("balancer.migrations_aborted");
  ClusterOptions opts = SmallOptions();
  opts.balance_every_inserts = 0;  // migrations only where the test asks
  Cluster cluster(opts);
  // Before sharding every query broadcasts.
  EXPECT_TRUE(cluster.routing()->broadcast());
  EXPECT_TRUE(cluster.routing()->bounds.empty());

  ASSERT_TRUE(cluster
                  .ShardCollection(ShardKeyPattern(
                      {"date"}, ShardingStrategy::kRange))
                  .ok());
  ExpectRoutingMatches(cluster, false);

  Load(&cluster, 1500);  // splits
  ASSERT_GT(cluster.chunks().num_chunks(), 1u);
  ExpectRoutingMatches(cluster, false);

  const uint64_t committed_before = committed.value();
  cluster.Balance();  // committed migrations
  ASSERT_GT(committed.value(), committed_before);
  ExpectRoutingMatches(cluster, false);

  // New dates pile onto the last chunk's shard; an open cursor holds the
  // migration latch shared, so every commit attempt aborts.
  for (int i = 1500; i < 2000; ++i) {
    ASSERT_TRUE(cluster.Insert(Doc(i, 1, 1, 60000LL * i, 1)).ok());
  }
  {
    const std::unique_ptr<ClusterCursor> open =
        cluster.OpenCursor(query::MakeAnd({}));
    const uint64_t committed_mid = committed.value();
    const uint64_t aborted_before = aborted.value();
    cluster.Balance();
    EXPECT_GT(aborted.value(), aborted_before);
    EXPECT_EQ(committed.value(), committed_mid);
  }
  ExpectRoutingMatches(cluster, false);

  bson::Document probe;
  probe.Append("date", Value::DateTime(60000LL * 700));
  const std::string mid = cluster.shard_key().KeyOf(probe);
  ASSERT_TRUE(cluster
                  .SetZones({ZoneRange{keystring::MinKey(), mid, 0},
                             ZoneRange{mid, keystring::MaxKey(), 1}})
                  .ok());
  ExpectRoutingMatches(cluster, false);

  // Reshard install: a fault in the first chunk move leaves the cluster
  // in its flipped, broadcast-routing state for good.
  FailPoint* move = FailPointRegistry::Instance().Find("reshardMoveChunk");
  ASSERT_NE(move, nullptr);
  FailPoint::Config once;
  once.mode = FailPoint::Mode::kTimes;
  once.count = 1;
  once.error_code = StatusCode::kInternal;
  move->Enable(once);
  const ShardKeyPattern target({"hilbertIndex", "date"},
                               ShardingStrategy::kRange);
  EXPECT_FALSE(cluster.Reshard(target, {}).ok());
  move->Disable();
  ExpectRoutingMatches(cluster, true);

  // Reshard swap, on a fresh cluster.
  Cluster other(opts);
  ASSERT_TRUE(other
                  .ShardCollection(ShardKeyPattern(
                      {"date"}, ShardingStrategy::kRange))
                  .ok());
  Load(&other, 1000);
  ASSERT_TRUE(other.Reshard(target, {}).ok());
  EXPECT_EQ(other.shard_key().paths(), target.paths());
  ExpectRoutingMatches(other, false);

  // Recovery installs the journaled table.
  const stix::testing::TempDir dir;
  ClusterOptions durable = opts;
  durable.durability.data_dir = dir.path();
  {
    Cluster source(durable);
    ASSERT_TRUE(source
                    .ShardCollection(ShardKeyPattern(
                        {"date"}, ShardingStrategy::kRange))
                    .ok());
    Load(&source, 1500);
    source.Balance();
  }
  const Result<std::unique_ptr<Cluster>> recovered = RecoverCluster(durable);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_GT((*recovered)->chunks().num_chunks(), 1u);
  ExpectRoutingMatches(**recovered, false);
}

}  // namespace
}  // namespace stix::cluster
