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
      DecodeBucket(*bucket);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectBitExact(points, *back);
}

TEST(BucketCodecTest, UniformSchemaUsesColumnarResiduals) {
  // All points share a residual schema -> the per-field ("cols") encoding;
  // mixed schemas (every other point lacks a field) must fall back to
  // per-point BSON ("res"). Both decode bit-exactly.
  const BucketLayout layout;
  const std::vector<bson::Document> uniform = MakeWindowPoints(layout, 32);
  const Result<bson::Document> cols_bucket = EncodeBucket(uniform, layout);
  ASSERT_TRUE(cols_bucket.ok());
  BucketReader reader;
  ASSERT_TRUE(reader.Reset(*cols_bucket).ok());
  EXPECT_TRUE(reader.uniform_residuals());
  EXPECT_FALSE(reader.column(BucketColumn::kResidual).empty());

  std::vector<bson::Document> mixed = MakeWindowPoints(layout, 32);
  for (size_t i = 0; i < mixed.size(); i += 2) {
    mixed[i].Append("extra", bson::Value::Int32(static_cast<int32_t>(i)));
  }
  const Result<bson::Document> res_bucket = EncodeBucket(mixed, layout);
  ASSERT_TRUE(res_bucket.ok());
  ASSERT_TRUE(reader.Reset(*res_bucket).ok());
  EXPECT_FALSE(reader.uniform_residuals());
  EXPECT_FALSE(reader.column(BucketColumn::kResidual).empty());

  const Result<std::vector<bson::Document>> back_cols =
      DecodeBucket(*cols_bucket);
  ASSERT_TRUE(back_cols.ok());
  ExpectBitExact(uniform, *back_cols);
  const Result<std::vector<bson::Document>> back_res =
      DecodeBucket(*res_bucket);
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
  BucketReader reader;
  ASSERT_TRUE(reader.Reset(*bucket).ok());
  const BucketReader* cols = &reader;
  // A whole-world rect selects every row and decodes ts/lon/lat.
  BucketPruneSpec spec;
  spec.rect = geo::Rect{{-180.0, -90.0}, {180.0, 90.0}};
  BucketSelection selection;
  const Status s = reader.Select(spec, &selection);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(selection.rows.size(), points.size());
  ASSERT_EQ(cols->ts().size(), points.size());
  ASSERT_EQ(cols->lon().size(), points.size());
  ASSERT_EQ(cols->lat().size(), points.size());
  const Result<std::vector<bson::Document>> back =
      DecodeBucket(*bucket);
  ASSERT_TRUE(back.ok());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(cols->ts()[i], (*back)[i].Get(kTimeField)->AsDateTime());
    double lon = 0, lat = 0;
    ASSERT_TRUE(bson::ExtractGeoJsonPoint(
        *(*back)[i].Get(kLocationField), &lon, &lat));
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

// ---------- codec v2 blob layout ----------

// Byte offsets of the blob's fixed header; GoldenBucketShape pins them.
constexpr size_t kFixedHeaderSize = 58;
constexpr size_t kNumHilOffset = 5;

uint64_t LoadLe(const std::string& blob, size_t off, size_t width) {
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(blob[off + i])) << (8 * i);
  }
  return v;
}

double LoadDouble(const std::string& blob, size_t off) {
  const uint64_t bits = LoadLe(blob, off, 8);
  double d;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

// Offset of the column-length table: after the fixed header and the hil
// ranges.
size_t ColumnTableOffset(const std::string& blob) {
  return kFixedHeaderSize +
         16 * static_cast<uint8_t>(blob[kNumHilOffset]);
}

// Byte offset of each column inside the blob, from the length table.
std::vector<std::pair<size_t, size_t>> ColumnSpans(const std::string& blob) {
  const size_t table = ColumnTableOffset(blob);
  size_t off = table + 4 * kNumBucketColumns;
  std::vector<std::pair<size_t, size_t>> spans;
  for (size_t c = 0; c < kNumBucketColumns; ++c) {
    const size_t len = LoadLe(blob, table + 4 * c, 4);
    spans.emplace_back(off, len);
    off += len;
  }
  return spans;
}

bson::Document WithBlob(const bson::Document& bucket, std::string blob) {
  bson::Document out = bucket;
  ReplaceBucketBlob(&out, std::move(blob));
  return out;
}

void ExpectCorruption(const bson::Document& bucket, const std::string& what) {
  const Result<std::vector<bson::Document>> result = DecodeBucket(bucket);
  ASSERT_FALSE(result.ok()) << what;
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption)
      << what << ": " << result.status().ToString();
}

std::vector<bson::Document> MakeHilbertPoints(const BucketLayout& layout,
                                              int n) {
  std::vector<bson::Document> points = MakeWindowPoints(layout, n);
  for (int i = 0; i < n; ++i) {
    // Two runs of consecutive values: two hil ranges in the header.
    points[static_cast<size_t>(i)].Append(
        kHilbertField, bson::Value::Int64(4096 + i + (i >= n / 2) * 9));
  }
  return points;
}

TEST(BucketCodecTest, CorruptedColumnsFailCleanly) {
  // Truncate the blob, cut single columns short and flip bytes at every
  // header field and every column boundary: decode must return
  // Corruption, never crash or fabricate points.
  BucketLayout layout;
  layout.use_hilbert = true;
  const std::vector<bson::Document> points = MakeHilbertPoints(layout, 16);
  const Result<bson::Document> bucket = EncodeBucket(points, layout);
  ASSERT_TRUE(bucket.ok());
  const std::string blob = *BucketBlob(*bucket);
  ASSERT_TRUE(DecodeBucket(*bucket).ok());
  ASSERT_EQ(static_cast<uint8_t>(blob[kNumHilOffset]), 2);

  for (size_t cut = 0; cut < blob.size(); ++cut) {
    ExpectCorruption(WithBlob(*bucket, blob.substr(0, cut)),
                     "blob cut at " + std::to_string(cut));
  }

  // Every present column cut to nothing and to half, the length table
  // patched to match, so the damage is inside the column.
  const size_t table = ColumnTableOffset(blob);
  const auto spans = ColumnSpans(blob);
  for (size_t c = 0; c < kNumBucketColumns; ++c) {
    const auto [off, len] = spans[c];
    if (len == 0) continue;
    for (const size_t keep : {size_t{0}, len / 2}) {
      std::string mutated = blob.substr(0, off + keep) + blob.substr(off + len);
      for (size_t b = 0; b < 4; ++b) {
        mutated[table + 4 * c + b] = static_cast<char>(keep >> (8 * b));
      }
      ExpectCorruption(WithBlob(*bucket, std::move(mutated)),
                       "column " + std::to_string(c) + " cut to " +
                           std::to_string(keep));
    }
  }

  // Every byte of the header (fixed fields, hil ranges, length table) and
  // the first byte of every column.
  std::vector<size_t> flips;
  for (size_t i = 0; i < table + 4 * kNumBucketColumns; ++i) {
    flips.push_back(i);
  }
  for (const auto& [off, len] : spans) {
    if (len > 0) flips.push_back(off);
  }
  for (const size_t at : flips) {
    std::string mutated = blob;
    mutated[at] = static_cast<char>(~static_cast<uint8_t>(mutated[at]));
    ExpectCorruption(WithBlob(*bucket, std::move(mutated)),
                     "byte " + std::to_string(at) + " flipped");
  }
}

TEST(BucketCodecTest, PointCountIsCheckedBeforeAnyColumn) {
  // A damaged n must never be trusted: 0 used to select no rows as an
  // exact answer (points vanished), -1 escaped as bad_alloc and 2^30 sized
  // a 4 GB row vector before the columns disagreed.
  const BucketLayout layout;
  const Result<bson::Document> bucket =
      EncodeBucket(MakeWindowPoints(layout, 8), layout);
  ASSERT_TRUE(bucket.ok());
  BucketPruneSpec covering;  // exact with no bounds: covers every bucket
  covering.exact = true;
  for (const int64_t n : {int64_t{0}, int64_t{-1}, int64_t{1} << 30}) {
    std::string blob = *BucketBlob(*bucket);
    for (size_t b = 0; b < 4; ++b) {
      blob[6 + b] = static_cast<char>(static_cast<uint64_t>(n) >> (8 * b));
    }
    const bson::Document mutated = WithBlob(*bucket, std::move(blob));
    BucketReader reader;
    const Status reset = reader.Reset(mutated);
    EXPECT_EQ(reset.code(), StatusCode::kCorruption) << "n = " << n;
    BucketSelection selection;
    EXPECT_EQ(reader.Select(covering, &selection).code(),
              StatusCode::kCorruption)
        << "n = " << n;
    EXPECT_EQ(ParseBucketMeta(mutated).status().code(),
              StatusCode::kCorruption)
        << "n = " << n;
    ExpectCorruption(mutated, "n = " + std::to_string(n));
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
        DecodeBucket(*bucket);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ExpectBitExact(points, *back);
  }
}

TEST(BucketCodecTest, GoldenBucketShape) {
  // Pins the bucket document's structure and the blob's header layout (not
  // full bytes — ObjectIds are per-run): top-level fields, the version
  // stamp, flags, n, time extent, MBR, hil ranges and the column-length
  // table. A change here is a storage format break.
  BucketLayout layout;
  layout.use_hilbert = true;
  const std::vector<bson::Document> points = MakeHilbertPoints(layout, 8);
  const Result<bson::Document> bucket = EncodeBucket(points, layout);
  ASSERT_TRUE(bucket.ok());
  EXPECT_TRUE(IsBucketDocument(*bucket));
  ASSERT_EQ(bucket->size(), 4u);  // _id, date, hilbertIndex, blob
  EXPECT_EQ(bucket->field(0).first, "_id");
  const bson::Value* time = bucket->Get(kTimeField);
  ASSERT_NE(time, nullptr);
  EXPECT_EQ(time->AsDateTime(), layout.WindowBase(1530403200000));
  const bson::Value* cell = bucket->Get(kHilbertField);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->AsInt64(), 4096);  // the cell base, 4096 >> 12 << 12

  const std::string* blob_ptr = BucketBlob(*bucket);
  ASSERT_NE(blob_ptr, nullptr);
  const std::string& blob = *blob_ptr;
  EXPECT_EQ(blob.substr(0, 3), "STB");                    // magic
  EXPECT_EQ(static_cast<uint8_t>(blob[3]), 2);            // version
  EXPECT_EQ(static_cast<uint8_t>(blob[4]), 1 | 2 | 4 | 8);  // loc hil ids cols
  EXPECT_EQ(static_cast<uint8_t>(blob[5]), 2);            // hil ranges
  EXPECT_EQ(LoadLe(blob, 6, 4), 8u);                      // n
  const int64_t base = layout.WindowBase(1530403200000);
  EXPECT_EQ(static_cast<int64_t>(LoadLe(blob, 10, 8)), base);
  EXPECT_EQ(static_cast<int64_t>(LoadLe(blob, 18, 8)), base + 7 * 1000);
  EXPECT_EQ(LoadDouble(blob, 26), 23.7);
  EXPECT_EQ(LoadDouble(blob, 34), 37.9);
  EXPECT_EQ(LoadDouble(blob, 42), 23.7 + 7 * 1e-4);
  EXPECT_EQ(LoadDouble(blob, 50), 37.9 + 7 * 1e-4);
  // Values 4096..4099 and 4109..4112: two exact runs.
  EXPECT_EQ(LoadLe(blob, 58, 8), 4096u);
  EXPECT_EQ(LoadLe(blob, 66, 8), 4099u);
  EXPECT_EQ(LoadLe(blob, 74, 8), 4109u);
  EXPECT_EQ(LoadLe(blob, 82, 8), 4112u);
  ASSERT_EQ(ColumnTableOffset(blob), 90u);

  // Every column present, back to back, ending the blob.
  const auto spans = ColumnSpans(blob);
  EXPECT_EQ(spans[0].first, 90u + 4 * kNumBucketColumns);
  for (const auto& [off, len] : spans) EXPECT_GT(len, 0u) << off;
  EXPECT_EQ(spans.back().first + spans.back().second, blob.size());

  // The reader sees the same header and columns.
  BucketReader reader;
  ASSERT_TRUE(reader.Reset(*bucket).ok());
  EXPECT_EQ(reader.meta().num_points, 8u);
  EXPECT_EQ(reader.meta().hil_ranges.size(), 2u);
  EXPECT_TRUE(reader.uniform_residuals());
  for (size_t c = 0; c < kNumBucketColumns; ++c) {
    EXPECT_EQ(reader.column(static_cast<BucketColumn>(c)).data(),
              blob.data() + spans[c].first);
  }
  ExpectBitExact(points, *DecodeBucket(*bucket));

  // Without hilbert values: no hil flag, ranges or column.
  const Result<bson::Document> plain =
      EncodeBucket(MakeWindowPoints(layout, 8), layout);
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(plain->size(), 3u);  // _id, date, blob
  const std::string& plain_blob = *BucketBlob(*plain);
  EXPECT_EQ(static_cast<uint8_t>(plain_blob[4]), 1 | 4 | 8);
  EXPECT_EQ(static_cast<uint8_t>(plain_blob[5]), 0);
  EXPECT_EQ(ColumnSpans(plain_blob)[3].second, 0u);
}

// ---------- BucketCatalog ----------

TEST(BucketCatalogTest, SealsOnMaxPoints) {
  BucketLayout layout;
  layout.max_points = 10;
  std::vector<bson::Document> flushed;
  BucketCatalog catalog(layout, [&](bson::Document bucket) {
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
  BucketCatalog catalog(layout, [&](bson::Document bucket) {
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
  BucketCatalog catalog(layout, [&](bson::Document bucket) {
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
  BucketCatalog catalog(layout, [&](bson::Document bucket) {
    flushed.push_back(std::move(bucket));
    return Status::OK();
  });
  const int64_t base = layout.WindowBase(1530403200000);
  // Same vehicle and window, two far-apart hilbert cells.
  for (const int64_t hil : {int64_t{0}, int64_t{1} << 20}) {
    for (int i = 0; i < 3; ++i) {
      bson::Document p = MakePoint(1, base + i, 23.7, 37.9, i);
      p.Append(kHilbertField, bson::Value::Int64(hil + i));
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
