#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bson/codec.h"
#include "bson/object_id.h"
#include "common/rng.h"
#include "storage/bucket.h"
#include "storage/bucket_catalog.h"

namespace stix::storage {
namespace {

// One trajectory-shaped point, same field set and order as the workload
// generator (plus the _id the store appends).
bson::Document MakePoint(int vehicle, int64_t ts, double lon, double lat,
                         int i) {
  static bson::ObjectIdGenerator oid_gen(42);
  bson::Document doc;
  doc.Append("vehicleId", bson::Value::Int32(vehicle));
  doc.Append("location",
             bson::Value::MakeDocument(bson::GeoJsonPoint(lon, lat)));
  doc.Append("date", bson::Value::DateTime(ts));
  doc.Append("speed", bson::Value::Double(40.0 + i));
  doc.Append("roadType",
             bson::Value::String(i % 2 == 0 ? "primary" : "service"));
  doc.Append("payload", bson::Value::String(std::string(64, 'p')));
  doc.Append("_id", bson::Value::Id(oid_gen.Generate(
      static_cast<uint32_t>(ts / 1000))));
  return doc;
}

std::vector<bson::Document> MakeWindowPoints(const BucketLayout& layout,
                                             int n) {
  std::vector<bson::Document> points;
  const int64_t base = layout.WindowBase(1530403200000);
  for (int i = 0; i < n; ++i) {
    points.push_back(MakePoint(7, base + i * 1000, 23.7 + i * 1e-4,
                               37.9 + i * 1e-4, i));
  }
  return points;
}

void ExpectBitExact(const std::vector<bson::Document>& original,
                    const std::vector<bson::Document>& decoded) {
  ASSERT_EQ(decoded.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    // Byte-level BSON equality: field order, types and every value.
    EXPECT_EQ(bson::EncodeBson(decoded[i]), bson::EncodeBson(original[i]))
        << "point " << i;
  }
}

TEST(BucketCodecTest, RoundTripIsBitExact) {
  const BucketLayout layout;
  const std::vector<bson::Document> points = MakeWindowPoints(layout, 64);
  const Result<bson::Document> bucket = EncodeBucket(points, layout);
  ASSERT_TRUE(bucket.ok()) << bucket.status().ToString();
  EXPECT_TRUE(IsBucketDocument(*bucket));
  const Result<std::vector<bson::Document>> back =
      DecodeBucket(*bucket, layout);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectBitExact(points, *back);
}

TEST(BucketCodecTest, UniformSchemaUsesColumnarResiduals) {
  // All points share a residual schema -> the "cols" encoding; mixed
  // schemas (every other point lacks a field) must fall back to "res".
  // Both decode bit-exactly.
  const BucketLayout layout;
  const std::vector<bson::Document> uniform = MakeWindowPoints(layout, 32);
  const Result<bson::Document> cols_bucket = EncodeBucket(uniform, layout);
  ASSERT_TRUE(cols_bucket.ok());
  const bson::Value* data = cols_bucket->Get(kBucketDataField);
  ASSERT_NE(data, nullptr);
  EXPECT_NE(data->AsDocument().Get("cols"), nullptr);
  EXPECT_EQ(data->AsDocument().Get("res"), nullptr);

  std::vector<bson::Document> mixed = MakeWindowPoints(layout, 32);
  for (size_t i = 0; i < mixed.size(); i += 2) {
    mixed[i].Append("extra", bson::Value::Int32(static_cast<int32_t>(i)));
  }
  const Result<bson::Document> res_bucket = EncodeBucket(mixed, layout);
  ASSERT_TRUE(res_bucket.ok());
  const bson::Value* mixed_data = res_bucket->Get(kBucketDataField);
  ASSERT_NE(mixed_data, nullptr);
  EXPECT_EQ(mixed_data->AsDocument().Get("cols"), nullptr);
  EXPECT_NE(mixed_data->AsDocument().Get("res"), nullptr);

  const Result<std::vector<bson::Document>> back_cols =
      DecodeBucket(*cols_bucket, layout);
  ASSERT_TRUE(back_cols.ok());
  ExpectBitExact(uniform, *back_cols);
  const Result<std::vector<bson::Document>> back_res =
      DecodeBucket(*res_bucket, layout);
  ASSERT_TRUE(back_res.ok()) << back_res.status().ToString();
  ExpectBitExact(mixed, *back_res);
}

TEST(BucketCodecTest, MetaMatchesPoints) {
  const BucketLayout layout;
  const std::vector<bson::Document> points = MakeWindowPoints(layout, 48);
  const Result<bson::Document> bucket = EncodeBucket(points, layout);
  ASSERT_TRUE(bucket.ok());
  const Result<BucketMeta> meta = ParseBucketMeta(*bucket);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta->num_points, 48u);
  const int64_t base = layout.WindowBase(1530403200000);
  EXPECT_EQ(meta->min_ts, base);
  EXPECT_EQ(meta->max_ts, base + 47 * 1000);
  ASSERT_TRUE(meta->has_mbr);
  // Tight MBR over the generated drift.
  EXPECT_DOUBLE_EQ(meta->mbr.lo.lon, 23.7);
  EXPECT_DOUBLE_EQ(meta->mbr.hi.lon, 23.7 + 47 * 1e-4);
  EXPECT_DOUBLE_EQ(meta->mbr.lo.lat, 37.9);
  EXPECT_DOUBLE_EQ(meta->mbr.hi.lat, 37.9 + 47 * 1e-4);
}

TEST(BucketCodecTest, TimeLocColumnsAreBitExactWithDecodedPoints) {
  const BucketLayout layout;
  const std::vector<bson::Document> points = MakeWindowPoints(layout, 48);
  const Result<bson::Document> bucket = EncodeBucket(points, layout);
  ASSERT_TRUE(bucket.ok());
  Result<BucketReader> cols = BucketReader::Open(*bucket);
  ASSERT_TRUE(cols.ok()) << cols.status().ToString();
  // A whole-world rect selects every row and decodes ts/lon/lat.
  BucketPruneSpec spec;
  spec.rect = geo::Rect{{-180.0, -90.0}, {180.0, 90.0}};
  const Result<BucketSelection> selection = cols->Select(spec);
  ASSERT_TRUE(selection.ok()) << selection.status().ToString();
  EXPECT_EQ(selection->rows.size(), points.size());
  ASSERT_EQ(cols->ts().size(), points.size());
  ASSERT_EQ(cols->lon().size(), points.size());
  ASSERT_EQ(cols->lat().size(), points.size());
  const Result<std::vector<bson::Document>> back =
      DecodeBucket(*bucket, layout);
  ASSERT_TRUE(back.ok());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(cols->ts()[i], (*back)[i].Get(layout.time_field)->AsDateTime());
    double lon = 0, lat = 0;
    ASSERT_TRUE(bson::ExtractGeoJsonPoint(
        *(*back)[i].Get(layout.location_field), &lon, &lat));
    // Bit-exact, not just approximately equal: a columnar predicate must
    // agree with one evaluated on the reconstructed documents.
    EXPECT_EQ(std::memcmp(&cols->lon()[i], &lon, sizeof lon), 0);
    EXPECT_EQ(std::memcmp(&cols->lat()[i], &lat, sizeof lat), 0);
  }
}

TEST(BucketCodecTest, RejectsPointsAcrossWindows) {
  const BucketLayout layout;
  std::vector<bson::Document> points = MakeWindowPoints(layout, 4);
  const int64_t base = layout.WindowBase(1530403200000);
  points.push_back(MakePoint(7, base + layout.window_ms, 23.7, 37.9, 4));
  EXPECT_FALSE(EncodeBucket(points, layout).ok());
}

TEST(BucketCodecTest, CorruptedColumnsFailCleanly) {
  // Truncate / flip bytes inside the data payloads: decode must return
  // Corruption, never crash or fabricate points.
  const BucketLayout layout;
  const std::vector<bson::Document> points = MakeWindowPoints(layout, 16);
  const Result<bson::Document> bucket = EncodeBucket(points, layout);
  ASSERT_TRUE(bucket.ok());
  const bson::Document& data = bucket->Get(kBucketDataField)->AsDocument();
  for (const auto& [name, value] : data) {
    if (value.type() != bson::Type::kString) continue;
    const std::string& column = value.AsString();
    for (const size_t cut : {size_t{0}, column.size() / 2}) {
      if (cut > column.size()) continue;
      bson::Document mutated = *bucket;
      bson::Document mutated_data = data;
      mutated_data.Set(name, bson::Value::String(column.substr(0, cut)));
      mutated.Set(kBucketDataField,
                  bson::Value::MakeDocument(std::move(mutated_data)));
      const auto result = DecodeBucket(mutated, layout);
      EXPECT_FALSE(result.ok()) << "column " << name << " cut " << cut;
    }
  }
}

TEST(BucketCodecTest, RandomizedRoundTrip) {
  Rng rng(0xb0c4e7);
  const BucketLayout layout;
  const int64_t base = layout.WindowBase(1530403200000);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<bson::Document> points;
    const int n = 1 + static_cast<int>(rng.NextBounded(100));
    int64_t ts = base;
    for (int i = 0; i < n; ++i) {
      bson::Document p;
      p.Append("vehicleId", bson::Value::Int32(3));
      p.Append("location",
               bson::Value::MakeDocument(bson::GeoJsonPoint(
                   rng.NextDouble(19.0, 29.0), rng.NextDouble(34.0, 42.0))));
      p.Append("date", bson::Value::DateTime(ts));
      // Adversarial residuals: bit-pattern doubles, negative ints, strings
      // of varying length — uniform schema, hostile values.
      const uint64_t bits = rng.Next();
      double d;
      static_assert(sizeof(d) == sizeof(bits));
      __builtin_memcpy(&d, &bits, 8);
      p.Append("noise", bson::Value::Double(d));
      p.Append("count", bson::Value::Int64(rng.NextInt(-1000000, 1000000)));
      p.Append("tag", bson::Value::String(std::string(
                          rng.NextBounded(40), static_cast<char>(
                                                   'a' + rng.NextBounded(26)))));
      points.push_back(std::move(p));
      ts += static_cast<int64_t>(rng.NextBounded(1000));
      if (ts >= base + layout.window_ms) ts = base + layout.window_ms - 1;
    }
    const Result<bson::Document> bucket = EncodeBucket(points, layout);
    ASSERT_TRUE(bucket.ok()) << bucket.status().ToString();
    const Result<std::vector<bson::Document>> back =
        DecodeBucket(*bucket, layout);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ExpectBitExact(points, *back);
  }
}

TEST(BucketCodecTest, GoldenBucketShape) {
  // Pins the bucket document's structure (not full bytes — ObjectIds are
  // per-run): top-level fields, meta layout and the version stamp. A
  // change here is a storage format break.
  const BucketLayout layout;
  const std::vector<bson::Document> points = MakeWindowPoints(layout, 8);
  const Result<bson::Document> bucket = EncodeBucket(points, layout);
  ASSERT_TRUE(bucket.ok());
  EXPECT_NE(bucket->Get("_id"), nullptr);
  const bson::Value* time = bucket->Get(layout.time_field);
  ASSERT_NE(time, nullptr);
  EXPECT_EQ(time->AsDateTime(), layout.WindowBase(1530403200000));
  const bson::Value* meta = bucket->Get(kBucketMetaField);
  ASSERT_NE(meta, nullptr);
  for (const char* field : {"minTs", "maxTs", "n", "mbr"}) {
    EXPECT_NE(meta->AsDocument().Get(field), nullptr) << field;
  }
  const bson::Value* data = bucket->Get(kBucketDataField);
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->AsDocument().Get("v")->AsInt32(), 1);
  for (const char* field : {"ts", "lon", "lat", "ids", "cols"}) {
    EXPECT_NE(data->AsDocument().Get(field), nullptr) << field;
  }
}

// ---------- BucketCatalog ----------

TEST(BucketCatalogTest, SealsOnMaxPoints) {
  BucketLayout layout;
  layout.max_points = 10;
  std::vector<bson::Document> flushed;
  BucketCatalog catalog(layout, {}, [&](bson::Document bucket) {
    flushed.push_back(std::move(bucket));
    return Status::OK();
  });
  const int64_t base = layout.WindowBase(1530403200000);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(catalog.Add(MakePoint(1, base + i, 23.7, 37.9, i)).ok());
  }
  EXPECT_EQ(flushed.size(), 2u);  // two full seals, 5 points buffered
  EXPECT_EQ(catalog.points_buffered(), 5u);
  ASSERT_TRUE(catalog.FlushAll().ok());
  EXPECT_EQ(flushed.size(), 3u);
  EXPECT_EQ(catalog.points_buffered(), 0u);
  uint64_t total = 0;
  for (const bson::Document& bucket : flushed) {
    const Result<BucketMeta> meta = ParseBucketMeta(bucket);
    ASSERT_TRUE(meta.ok());
    total += meta->num_points;
  }
  EXPECT_EQ(total, 25u);
}

TEST(BucketCatalogTest, KeysByVehicleAndWindow) {
  BucketLayout layout;
  layout.window_ms = 1000;
  std::vector<bson::Document> flushed;
  BucketCatalog catalog(layout, {}, [&](bson::Document bucket) {
    flushed.push_back(std::move(bucket));
    return Status::OK();
  });
  const int64_t base = layout.WindowBase(1530403200000);
  // Two vehicles, two windows each -> four buckets.
  for (const int vehicle : {1, 2}) {
    for (const int64_t t : {base, base + 1, base + 1000, base + 1001}) {
      ASSERT_TRUE(catalog.Add(MakePoint(vehicle, t, 23.7, 37.9, 0)).ok());
    }
  }
  EXPECT_EQ(catalog.open_buckets(), 4u);
  ASSERT_TRUE(catalog.FlushAll().ok());
  EXPECT_EQ(flushed.size(), 4u);
  EXPECT_EQ(catalog.open_buckets(), 0u);
}

TEST(BucketCatalogTest, FailedFlushKeepsPointsAndRetries) {
  BucketLayout layout;
  bool fail = true;
  std::vector<bson::Document> flushed;
  BucketCatalog catalog(layout, {}, [&](bson::Document bucket) {
    if (fail) return Status::Internal("flush rejected");
    flushed.push_back(std::move(bucket));
    return Status::OK();
  });
  const int64_t base = layout.WindowBase(1530403200000);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(catalog.Add(MakePoint(1, base + i, 23.7, 37.9, i)).ok());
  }
  EXPECT_FALSE(catalog.FlushAll().ok());
  EXPECT_EQ(catalog.points_buffered(), 5u);  // nothing lost
  fail = false;
  ASSERT_TRUE(catalog.FlushAll().ok());
  ASSERT_EQ(flushed.size(), 1u);
  const Result<BucketMeta> meta = ParseBucketMeta(flushed[0]);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->num_points, 5u);
  EXPECT_EQ(catalog.points_buffered(), 0u);
}

TEST(BucketCatalogTest, HilbertCellSplitsBuckets) {
  BucketLayout layout;
  layout.use_hilbert = true;
  layout.hilbert_shift = 4;
  std::vector<bson::Document> flushed;
  BucketCatalog catalog(layout, {}, [&](bson::Document bucket) {
    flushed.push_back(std::move(bucket));
    return Status::OK();
  });
  const int64_t base = layout.WindowBase(1530403200000);
  // Same vehicle and window, two far-apart hilbert cells.
  for (const int64_t hil : {int64_t{0}, int64_t{1} << 20}) {
    for (int i = 0; i < 3; ++i) {
      bson::Document p = MakePoint(1, base + i, 23.7, 37.9, i);
      p.Append(layout.hilbert_field, bson::Value::Int64(hil + i));
      ASSERT_TRUE(catalog.Add(std::move(p)).ok());
    }
  }
  EXPECT_EQ(catalog.open_buckets(), 2u);
  ASSERT_TRUE(catalog.FlushAll().ok());
  ASSERT_EQ(flushed.size(), 2u);
  for (const bson::Document& bucket : flushed) {
    const Result<BucketMeta> meta = ParseBucketMeta(bucket);
    ASSERT_TRUE(meta.ok());
    EXPECT_EQ(meta->num_points, 3u);
    EXPECT_EQ(meta->hil_ranges.size(), 1u);  // 3 consecutive values
  }
}

}  // namespace
}  // namespace stix::storage
