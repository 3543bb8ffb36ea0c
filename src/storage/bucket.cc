#include "storage/bucket.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <numeric>
#include <type_traits>

#include "bson/codec.h"
#include "bson/simple8b.h"
#include "common/lz.h"

namespace stix::storage {
namespace {

/// Hilbert range lists are capped: past this the closest-gap ranges merge,
/// trading pruning precision for metadata size (like an s2 covering cap).
constexpr size_t kMaxBucketHilRanges = 16;

// Codec v2: a bucket document is `_id`, the indexed time (window base) and
// hilbert (cell base) fields, `wlsns` on durable stores, and one binary
// string field, the blob:
//
//   [0, 3)    magic "STB"          [3]       version (2)
//   [4]       flags (kFlag*)       [5]       hil range count r (<= 16)
//   [6, 10)   n, int32             [10, 18)  minTs, int64
//   [18, 26)  maxTs, int64         [26, 58)  MBR lo.lon lo.lat hi.lon
//                                            hi.lat, 4 doubles (zero
//                                            without kFlagLoc)
//   [58, 58 + 16r)   hil ranges, (lo, hi) int64 pairs
//   then 7 uint32 column lengths, then the columns in BucketColumn order.
//
// All integers are little-endian; an absent column has length 0. One blob
// instead of nested meta/data sub-documents keeps a bucket visit to one
// chain of dependent loads (document -> field -> blob bytes).
constexpr char kBlobField[] = "data";
constexpr char kMagic[3] = {'S', 'T', 'B'};
constexpr uint8_t kCodecVersion = 2;
constexpr size_t kOffFlags = 4;
constexpr size_t kOffNumHil = 5;
constexpr size_t kOffN = 6;
constexpr size_t kOffMinTs = 10;
constexpr size_t kOffMaxTs = 18;
constexpr size_t kOffMbr = 26;
constexpr size_t kFixedHeaderSize = 58;

constexpr uint8_t kFlagLoc = 1;      ///< lon/lat columns and the MBR.
constexpr uint8_t kFlagHil = 2;      ///< hil column and ranges.
constexpr uint8_t kFlagIds = 4;      ///< ids column.
constexpr uint8_t kFlagUniform = 8;  ///< Residual is per-field columns.
constexpr uint8_t kAllFlags = kFlagLoc | kFlagHil | kFlagIds | kFlagUniform;

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
void PutDouble(double d, std::string* out) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  PutU64(bits, out);
}
uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}
uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}
double GetDouble(const char* p) {
  const uint64_t bits = GetU64(p);
  double d;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

/// Per-point extraction slots, in position-column order.
enum ExtractSlot { kSlotTs = 0, kSlotLoc, kSlotId, kSlotHil, kNumSlots };

/// Strict structural check that `v` is exactly the sub-document
/// GeoJsonPoint() builds — field order, names and value types included —
/// so re-synthesizing it from the (lon, lat) columns is byte-identical.
bool IsCanonicalGeoPoint(const bson::Value& v, double* lon, double* lat) {
  if (v.type() != bson::Type::kDocument) return false;
  const bson::Document& d = v.AsDocument();
  if (d.size() != 2) return false;
  const auto& type_field = d.field(0);
  if (type_field.first != "type" ||
      type_field.second.type() != bson::Type::kString ||
      type_field.second.AsString() != "Point") {
    return false;
  }
  const auto& coords_field = d.field(1);
  if (coords_field.first != "coordinates" ||
      coords_field.second.type() != bson::Type::kArray) {
    return false;
  }
  const bson::Array& coords = coords_field.second.AsArray();
  if (coords.size() != 2 || coords[0].type() != bson::Type::kDouble ||
      coords[1].type() != bson::Type::kDouble) {
    return false;
  }
  *lon = coords[0].AsDouble();
  *lat = coords[1].AsDouble();
  return true;
}

/// Merges sorted hilbert values into at most kMaxBucketHilRanges closed
/// ranges: exact consecutive runs first, then closest-gap merging.
std::vector<std::pair<int64_t, int64_t>> BuildHilRanges(
    std::vector<int64_t> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  std::vector<std::pair<int64_t, int64_t>> runs;
  for (const int64_t v : values) {
    if (!runs.empty() && v == runs.back().second + 1) {
      runs.back().second = v;
    } else {
      runs.emplace_back(v, v);
    }
  }
  while (runs.size() > kMaxBucketHilRanges) {
    size_t best = 0;
    int64_t best_gap = std::numeric_limits<int64_t>::max();
    for (size_t i = 0; i + 1 < runs.size(); ++i) {
      const int64_t gap = runs[i + 1].first - runs[i].second;
      if (gap < best_gap) {
        best_gap = gap;
        best = i;
      }
    }
    runs[best].second = runs[best + 1].second;
    runs.erase(runs.begin() + static_cast<ptrdiff_t>(best) + 1);
  }
  return runs;
}

/// Types the uniform-schema residual encoding can put in a column of its
/// own; documents, arrays and ObjectIds stay on the per-point BSON path.
bool IsColumnarType(bson::Type t) {
  switch (t) {
    case bson::Type::kNull:
    case bson::Type::kBool:
    case bson::Type::kInt32:
    case bson::Type::kInt64:
    case bson::Type::kDouble:
    case bson::Type::kString:
    case bson::Type::kDateTime:
      return true;
    default:
      return false;
  }
}

/// Parses a blob's header and column-length table into *meta, *flags and
/// the column views, checking the framing and that n agrees with the ts
/// column's own count (an O(1) read) before anyone sizes a buffer by n.
Status ParseHeader(std::string_view blob, BucketMeta* meta, uint8_t* flags,
                   std::string_view* columns) {
  const char* p = blob.data();
  *flags = static_cast<uint8_t>(p[kOffFlags]);
  const size_t num_hil = static_cast<uint8_t>(p[kOffNumHil]);
  const int32_t n = static_cast<int32_t>(GetU32(p + kOffN));
  if ((*flags & ~kAllFlags) != 0 || num_hil > kMaxBucketHilRanges ||
      (num_hil > 0) != ((*flags & kFlagHil) != 0) || n < 1) {
    return Status::Corruption("bucket header is malformed");
  }
  meta->num_points = static_cast<uint32_t>(n);
  meta->min_ts = static_cast<int64_t>(GetU64(p + kOffMinTs));
  meta->max_ts = static_cast<int64_t>(GetU64(p + kOffMaxTs));
  meta->has_mbr = (*flags & kFlagLoc) != 0;
  meta->mbr = {{GetDouble(p + kOffMbr), GetDouble(p + kOffMbr + 8)},
               {GetDouble(p + kOffMbr + 16), GetDouble(p + kOffMbr + 24)}};
  const size_t table = kFixedHeaderSize + 16 * num_hil;
  const size_t data = table + 4 * kNumBucketColumns;
  if (blob.size() < data || meta->min_ts > meta->max_ts) {
    return Status::Corruption("bucket header is malformed");
  }
  meta->hil_ranges.resize(num_hil);
  for (size_t i = 0; i < num_hil; ++i) {
    auto& r = meta->hil_ranges[i];
    r.first = static_cast<int64_t>(GetU64(p + kFixedHeaderSize + 16 * i));
    r.second = static_cast<int64_t>(GetU64(p + kFixedHeaderSize + 16 * i + 8));
    // Sorted and disjoint: MayContain/Covers sweep them in order.
    if (r.first > r.second ||
        (i > 0 && r.first <= meta->hil_ranges[i - 1].second)) {
      return Status::Corruption("bucket hil ranges are malformed");
    }
  }

  // Which columns the flags promise; ts, pos and the residual always exist.
  const auto present = [f = *flags](size_t c) {
    switch (static_cast<BucketColumn>(c)) {
      case BucketColumn::kLon:
      case BucketColumn::kLat:
        return (f & kFlagLoc) != 0;
      case BucketColumn::kHil:
        return (f & kFlagHil) != 0;
      case BucketColumn::kIds:
        return (f & kFlagIds) != 0;
      default:
        return true;
    }
  };
  size_t off = data;
  for (size_t c = 0; c < kNumBucketColumns; ++c) {
    const size_t len = GetU32(p + table + 4 * c);
    if ((len > 0) != present(c) || len > blob.size() - off) {
      return Status::Corruption("bucket column table is malformed");
    }
    columns[c] = blob.substr(off, len);
    off += len;
  }
  if (off != blob.size()) {
    return Status::Corruption("bucket column table is malformed");
  }
  const Result<uint64_t> ts_count = bson::Int64ColumnCount(
      columns[static_cast<size_t>(BucketColumn::kTs)]);
  if (!ts_count.ok()) return ts_count.status();
  if (*ts_count != meta->num_points) {
    return Status::Corruption("bucket point count disagrees with its ts column");
  }
  return Status::OK();
}

/// Consumes one packed column, which must hold n values, from the front of
/// *in into *out (resized to n; its capacity is reused).
template <typename T>
Status TakeColumn(std::string_view* in, size_t n, std::vector<T>* out) {
  out->resize(n);
  if constexpr (std::is_same_v<T, double>) {
    return bson::DecodeDoubleColumnInto(in, n, out->data());
  } else {
    return bson::DecodeInt64ColumnInto(in, n, out->data());
  }
}

/// TakeColumn over a whole column: nothing may follow its n values.
template <typename T>
Status DecodeColumn(std::string_view col, size_t n, std::vector<T>* out) {
  const Status s = TakeColumn(&col, n, out);
  if (s.ok() && !col.empty()) {
    return Status::Corruption("bucket column has trailing bytes");
  }
  return s;
}

}  // namespace

const std::string* BucketBlob(const bson::Document& bucket) {
  const bson::Value* v = bucket.Get(kBlobField);
  if (v == nullptr || v->type() != bson::Type::kString) return nullptr;
  const std::string& blob = v->AsString();
  if (blob.size() < kFixedHeaderSize ||
      std::memcmp(blob.data(), kMagic, sizeof kMagic) != 0 ||
      static_cast<uint8_t>(blob[sizeof kMagic]) != kCodecVersion) {
    return nullptr;
  }
  return &blob;
}

bool IsBucketDocument(const bson::Document& doc) {
  return BucketBlob(doc) != nullptr;
}

void ReplaceBucketBlob(bson::Document* bucket, std::string blob) {
  bucket->Set(kBlobField, bson::Value::String(std::move(blob)));
}

Result<BucketKey> ComputeBucketKey(const bson::Document& point,
                                   const BucketLayout& layout) {
  const bson::Value* ts = point.Get(kTimeField);
  if (ts == nullptr || ts->type() != bson::Type::kDateTime) {
    return Status::InvalidArgument(
        std::string("bucketed store requires a DateTime '") + kTimeField +
        "' field on every document");
  }
  BucketKey key;
  key.window = layout.WindowBase(ts->AsDateTime());
  if (const bson::Value* v = point.Get(kVehicleField)) {
    if (v->type() == bson::Type::kInt32) key.vehicle = v->AsInt32();
    if (v->type() == bson::Type::kInt64) key.vehicle = v->AsInt64();
  }
  if (layout.use_hilbert) {
    if (const bson::Value* h = point.Get(kHilbertField);
        h != nullptr && h->type() == bson::Type::kInt64) {
      key.cell = h->AsInt64() >> layout.hilbert_shift;
    }
  }
  return key;
}

Result<bson::Document> EncodeBucket(const std::vector<bson::Document>& points,
                                    const BucketLayout& layout) {
  if (points.empty() ||
      points.size() > static_cast<size_t>(
                          std::numeric_limits<int32_t>::max() / kNumSlots)) {
    return Status::InvalidArgument("bucket point count out of range");
  }
  const size_t n = points.size();

  std::vector<int64_t> ts(n), hil(n);
  std::vector<double> lon(n), lat(n);
  std::string ids;
  ids.reserve(n * bson::ObjectId::kSize);
  // Field position of each extracted slot inside its point (-1 = the slot's
  // column was not extracted); interleaved kNumSlots per point.
  std::vector<int64_t> positions(n * kNumSlots, -1);
  bool has_loc = true, has_id = true, has_hil = true;

  for (size_t i = 0; i < n; ++i) {
    const bson::Document& p = points[i];
    bool got_ts = false, got_loc = false, got_id = false, got_hil = false;
    for (size_t fi = 0; fi < p.size(); ++fi) {
      const auto& [name, value] = p.field(fi);
      if (!got_ts && name == kTimeField &&
          value.type() == bson::Type::kDateTime) {
        ts[i] = value.AsDateTime();
        positions[i * kNumSlots + kSlotTs] = static_cast<int64_t>(fi);
        got_ts = true;
      } else if (!got_loc && name == kLocationField &&
                 IsCanonicalGeoPoint(value, &lon[i], &lat[i])) {
        positions[i * kNumSlots + kSlotLoc] = static_cast<int64_t>(fi);
        got_loc = true;
      } else if (!got_id && name == "_id" &&
                 value.type() == bson::Type::kObjectId) {
        const auto& bytes = value.AsObjectId().bytes();
        ids.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
        positions[i * kNumSlots + kSlotId] = static_cast<int64_t>(fi);
        got_id = true;
      } else if (!got_hil && name == kHilbertField &&
                 value.type() == bson::Type::kInt64) {
        hil[i] = value.AsInt64();
        positions[i * kNumSlots + kSlotHil] = static_cast<int64_t>(fi);
        got_hil = true;
      }
    }
    if (!got_ts) {
      return Status::InvalidArgument(
          std::string("bucketed point lacks a DateTime '") + kTimeField +
          "' field");
    }
    has_loc = has_loc && got_loc;
    has_id = has_id && got_id;
    has_hil = has_hil && got_hil;
  }
  // A column is extracted only when every point qualifies; otherwise those
  // fields stay in the per-point residuals and the slot's positions reset
  // to -1 (mixed-presence columns would need a validity bitmap for nothing
  // the workload produces).
  for (size_t i = 0; i < n; ++i) {
    if (!has_loc) positions[i * kNumSlots + kSlotLoc] = -1;
    if (!has_id) positions[i * kNumSlots + kSlotId] = -1;
    if (!has_hil) positions[i * kNumSlots + kSlotHil] = -1;
  }

  const int64_t window_base = layout.WindowBase(ts[0]);
  int64_t min_ts = ts[0], max_ts = ts[0];
  for (size_t i = 0; i < n; ++i) {
    if (layout.WindowBase(ts[i]) != window_base) {
      return Status::InvalidArgument("bucket spans more than one time window");
    }
    min_ts = std::min(min_ts, ts[i]);
    max_ts = std::max(max_ts, ts[i]);
  }
  if (layout.use_hilbert && has_hil) {
    const int64_t cell = hil[0] >> layout.hilbert_shift;
    for (size_t i = 0; i < n; ++i) {
      if ((hil[i] >> layout.hilbert_shift) != cell) {
        return Status::InvalidArgument(
            "bucket spans more than one hilbert cell");
      }
    }
  }

  // The fields not lifted into the four special columns. Two encodings:
  // when every point carries the same scalar schema (names, types and order
  // all equal — the steady state of telemetry streams), each field becomes
  // its own column ("cols"), so field names and BSON framing are stored
  // once per bucket instead of once per point and numeric streams get the
  // delta transforms. Mixed-schema buckets fall back to per-point BSON
  // sub-documents LZ-compressed together ("res").
  std::vector<std::vector<const std::pair<std::string, bson::Value>*>>
      res_fields(n);
  for (size_t i = 0; i < n; ++i) {
    const bson::Document& p = points[i];
    for (size_t fi = 0; fi < p.size(); ++fi) {
      bool extracted = false;
      for (int slot = 0; slot < kNumSlots; ++slot) {
        if (positions[i * kNumSlots + slot] == static_cast<int64_t>(fi)) {
          extracted = true;
          break;
        }
      }
      if (!extracted) res_fields[i].push_back(&p.field(fi));
    }
  }

  bool uniform = true;
  for (const auto* field : res_fields[0]) {
    if (!IsColumnarType(field->second.type())) {
      uniform = false;
      break;
    }
  }
  for (size_t i = 1; uniform && i < n; ++i) {
    if (res_fields[i].size() != res_fields[0].size()) {
      uniform = false;
      break;
    }
    for (size_t f = 0; f < res_fields[i].size(); ++f) {
      if (res_fields[i][f]->first != res_fields[0][f]->first ||
          res_fields[i][f]->second.type() != res_fields[0][f]->second.type()) {
        uniform = false;
        break;
      }
    }
  }

  std::string residual_col;
  if (uniform) {
    const auto& schema = res_fields[0];
    bson::PutVarint(schema.size(), &residual_col);
    for (const auto* field : schema) {
      bson::PutVarint(field->first.size(), &residual_col);
      residual_col.append(field->first);
      residual_col.push_back(
          static_cast<char>(static_cast<uint8_t>(field->second.type())));
    }
    for (size_t f = 0; f < schema.size(); ++f) {
      switch (schema[f]->second.type()) {
        case bson::Type::kNull:
          break;  // The (name, type) pair is the whole encoding.
        case bson::Type::kBool:
        case bson::Type::kInt32:
        case bson::Type::kInt64:
        case bson::Type::kDateTime: {
          std::vector<int64_t> v(n);
          for (size_t i = 0; i < n; ++i) {
            const bson::Value& val = res_fields[i][f]->second;
            switch (val.type()) {
              case bson::Type::kBool:
                v[i] = val.AsBool() ? 1 : 0;
                break;
              case bson::Type::kInt32:
                v[i] = val.AsInt32();
                break;
              case bson::Type::kInt64:
                v[i] = val.AsInt64();
                break;
              default:
                v[i] = val.AsDateTime();
                break;
            }
          }
          bson::EncodeInt64Column(v, &residual_col);
          break;
        }
        case bson::Type::kDouble: {
          std::vector<double> v(n);
          for (size_t i = 0; i < n; ++i) {
            v[i] = res_fields[i][f]->second.AsDouble();
          }
          bson::EncodeDoubleColumn(v, &residual_col);
          break;
        }
        case bson::Type::kString: {
          std::vector<int64_t> lens(n);
          std::string blob;
          for (size_t i = 0; i < n; ++i) {
            const std::string& s = res_fields[i][f]->second.AsString();
            lens[i] = static_cast<int64_t>(s.size());
            blob.append(s);
          }
          bson::EncodeInt64Column(lens, &residual_col);
          const std::string z = LzCompress(blob);
          bson::PutVarint(z.size(), &residual_col);
          residual_col.append(z);
          break;
        }
        default:
          return Status::Internal("non-columnar type in uniform schema");
      }
    }
  } else {
    std::string residuals;
    for (size_t i = 0; i < n; ++i) {
      bson::Document res;
      for (const auto* field : res_fields[i]) {
        res.Append(field->first, field->second);
      }
      const std::string bytes = bson::EncodeBson(res);
      bson::PutVarint(bytes.size(), &residuals);
      residuals.append(bytes);
    }
    residual_col = LzCompress(residuals);
  }

  std::string columns[kNumBucketColumns];
  const auto col = [&columns](BucketColumn c) {
    return &columns[static_cast<size_t>(c)];
  };
  bson::EncodeInt64Column(ts, col(BucketColumn::kTs));
  if (has_loc) {
    bson::EncodeDoubleColumn(lon, col(BucketColumn::kLon));
    bson::EncodeDoubleColumn(lat, col(BucketColumn::kLat));
  }
  if (has_hil) bson::EncodeInt64Column(hil, col(BucketColumn::kHil));
  if (has_id) {
    // ObjectIds inside one bucket share their timestamp/machine prefix;
    // LZ'ing the concatenation keeps roughly the per-point counter bytes.
    *col(BucketColumn::kIds) = LzCompress(ids);
  }
  bson::EncodeInt64Column(positions, col(BucketColumn::kPos));
  *col(BucketColumn::kResidual) = std::move(residual_col);

  std::vector<std::pair<int64_t, int64_t>> hil_ranges;
  if (has_hil) hil_ranges = BuildHilRanges(hil);
  geo::Rect mbr{{0, 0}, {0, 0}};
  if (has_loc) {
    const auto [lon_lo, lon_hi] = std::minmax_element(lon.begin(), lon.end());
    const auto [lat_lo, lat_hi] = std::minmax_element(lat.begin(), lat.end());
    mbr = {{*lon_lo, *lat_lo}, {*lon_hi, *lat_hi}};
  }
  const uint8_t flags = (has_loc ? kFlagLoc : 0) | (has_hil ? kFlagHil : 0) |
                        (has_id ? kFlagIds : 0) |
                        (uniform ? kFlagUniform : 0);
  std::string blob(kMagic, sizeof kMagic);
  blob.push_back(static_cast<char>(kCodecVersion));
  blob.push_back(static_cast<char>(flags));
  blob.push_back(static_cast<char>(hil_ranges.size()));
  PutU32(static_cast<uint32_t>(n), &blob);
  PutU64(static_cast<uint64_t>(min_ts), &blob);
  PutU64(static_cast<uint64_t>(max_ts), &blob);
  PutDouble(mbr.lo.lon, &blob);
  PutDouble(mbr.lo.lat, &blob);
  PutDouble(mbr.hi.lon, &blob);
  PutDouble(mbr.hi.lat, &blob);
  for (const auto& [r_lo, r_hi] : hil_ranges) {
    PutU64(static_cast<uint64_t>(r_lo), &blob);
    PutU64(static_cast<uint64_t>(r_hi), &blob);
  }
  for (const std::string& c : columns) {
    PutU32(static_cast<uint32_t>(c.size()), &blob);
  }
  for (const std::string& c : columns) blob.append(c);

  bson::Document bucket;
  if (has_id) {
    // The first point's _id doubles as the bucket's _id (unique: a point is
    // in exactly one bucket).
    bucket.Append("_id", *points[0].Get("_id"));
  }
  bucket.Append(kTimeField, bson::Value::DateTime(window_base));
  if (layout.use_hilbert && has_hil) {
    bucket.Append(kHilbertField,
                  bson::Value::Int64((hil[0] >> layout.hilbert_shift)
                                     << layout.hilbert_shift));
  }
  bucket.Append(kBlobField, bson::Value::String(std::move(blob)));
  return bucket;
}

Result<BucketMeta> ParseBucketMeta(const bson::Document& bucket) {
  const std::string* blob = BucketBlob(bucket);
  if (blob == nullptr) return Status::Corruption("not a bucket document");
  BucketMeta meta;
  uint8_t flags = 0;
  std::string_view columns[kNumBucketColumns];
  if (Status s = ParseHeader(*blob, &meta, &flags, columns); !s.ok()) {
    return s;
  }
  return meta;
}

uint64_t StoredPointCount(const bson::Document& doc) {
  if (!IsBucketDocument(doc)) return 1;
  const Result<BucketMeta> meta = ParseBucketMeta(doc);
  return meta.ok() ? meta->num_points : 1;
}

bool BucketPruneSpec::MayContain(const BucketMeta& meta) const {
  if (min_ts.has_value() && meta.max_ts < *min_ts) return false;
  if (max_ts.has_value() && meta.min_ts > *max_ts) return false;
  if (rect.has_value() && meta.has_mbr && !rect->Intersects(meta.mbr)) {
    return false;
  }
  if (!hil_ranges.empty() && !meta.hil_ranges.empty()) {
    // Both sides sorted and disjoint: two-pointer overlap test.
    size_t i = 0, j = 0;
    bool overlap = false;
    while (i < hil_ranges.size() && j < meta.hil_ranges.size()) {
      const auto& a = hil_ranges[i];
      const auto& b = meta.hil_ranges[j];
      if (a.second < b.first) {
        ++i;
      } else if (b.second < a.first) {
        ++j;
      } else {
        overlap = true;
        break;
      }
    }
    if (!overlap) return false;
  }
  return true;
}

bool BucketPruneSpec::Covers(const BucketMeta& meta) const {
  if (!exact) return false;
  if (min_ts.has_value() && meta.min_ts < *min_ts) return false;
  if (max_ts.has_value() && meta.max_ts > *max_ts) return false;
  if (rect.has_value()) {
    // has_mbr guarantees every point carries a canonical GeoJSON location,
    // so MBR containment implies each point matches the geo leaf.
    if (!meta.has_mbr || !rect->ContainsRect(meta.mbr)) return false;
  }
  if (!hil_ranges.empty()) {
    if (meta.hil_ranges.empty()) return false;
    // Every meta range must lie inside one spec range (both sides sorted
    // and disjoint, so a single forward sweep suffices).
    size_t i = 0;
    for (const auto& m : meta.hil_ranges) {
      while (i < hil_ranges.size() && hil_ranges[i].second < m.first) ++i;
      if (i == hil_ranges.size() || hil_ranges[i].first > m.first ||
          hil_ranges[i].second < m.second) {
        return false;
      }
    }
  }
  return true;
}

Status BucketReader::Reset(const bson::Document& bucket) {
  return Reset(BucketBlob(bucket));
}

Status BucketReader::Reset(const std::string* blob) {
  loaded_ = 0;
  Status s = blob != nullptr
                 ? ParseHeader(*blob, &meta_, &flags_, columns_)
                 : Status::Corruption("not a bucket document");
  if (!s.ok()) {
    // Hold no bucket (n = 0): Select and Build then fail.
    meta_.num_points = 0;
    for (std::string_view& c : columns_) c = {};
  }
  return s;
}

bool BucketReader::uniform_residuals() const {
  return (flags_ & kFlagUniform) != 0;
}

template <typename T>
Status BucketReader::LoadColumn(BucketColumn c, std::vector<T>* out) {
  const uint8_t bit = uint8_t{1} << static_cast<uint8_t>(c);
  if ((loaded_ & bit) != 0) return Status::OK();
  // ParseHeader checked the column table against the flags, so an absent
  // column is exactly an empty one; its buffer stays empty.
  Status s;
  if (column(c).empty()) {
    out->clear();
  } else {
    s = DecodeColumn(column(c), meta_.num_points, out);
  }
  if (s.ok()) loaded_ |= bit;
  return s;
}

Status BucketReader::Select(const BucketPruneSpec& spec, BucketSelection* out) {
  BucketSelection& sel = *out;
  sel.rows.clear();
  sel.scanned = 0;
  const uint32_t n = meta_.num_points;
  if (n == 0) return Status::Corruption("bucket reader holds no bucket");
  sel.pruned = !spec.MayContain(meta_);
  if (sel.pruned || spec.Covers(meta_)) {
    sel.rows.resize(sel.pruned ? 0 : n);
    std::iota(sel.rows.begin(), sel.rows.end(), 0u);
    sel.exact = true;
    return Status::OK();
  }
  // One column at a time, each over the previous column's survivors; a
  // column decodes only while a row survives. The compaction is
  // branch-free: every row is written, and the cursor advances on a match.
  const auto keep_rows = [&rows = sel.rows](auto keep) {
    size_t k = 0;
    for (const uint32_t i : rows) {
      rows[k] = i;
      k += keep(i);
    }
    rows.resize(k);
  };
  if (Status s = LoadColumn(BucketColumn::kTs, &ts_); !s.ok()) return s;
  const int64_t t_lo =
      spec.min_ts.value_or(std::numeric_limits<int64_t>::min());
  const int64_t t_hi =
      spec.max_ts.value_or(std::numeric_limits<int64_t>::max());
  sel.rows.resize(n);
  size_t k = 0;
  for (uint32_t i = 0; i < n; ++i) {
    sel.rows[k] = i;
    k += (ts_[i] >= t_lo) & (ts_[i] <= t_hi);
  }
  sel.rows.resize(k);
  sel.scanned = n;

  const bool use_rect = spec.rect.has_value() && meta_.has_mbr;
  if (use_rect && !sel.rows.empty()) {
    if (Status s = LoadColumn(BucketColumn::kLon, &lon_); !s.ok()) return s;
    keep_rows([&, lo = spec.rect->lo.lon, hi = spec.rect->hi.lon](uint32_t i) {
      return (lon_[i] >= lo) & (lon_[i] <= hi);
    });
  }
  if (use_rect && !sel.rows.empty()) {
    if (Status s = LoadColumn(BucketColumn::kLat, &lat_); !s.ok()) return s;
    keep_rows([&, lo = spec.rect->lo.lat, hi = spec.rect->hi.lat](uint32_t i) {
      return (lat_[i] >= lo) & (lat_[i] <= hi);
    });
  }

  bool use_hil = false;
  if (!spec.hil_ranges.empty() && !sel.rows.empty()) {
    if (Status s = LoadColumn(BucketColumn::kHil, &hil_); !s.ok()) return s;
    use_hil = !hil_.empty();
  }
  if (use_hil) {
    // RangeSetExpr's test: v is inside iff the first range with hi >= v
    // starts at or below v.
    keep_rows([&ranges = spec.hil_ranges, this](uint32_t i) {
      const auto it = std::partition_point(
          ranges.begin(), ranges.end(),
          [v = hil_[i]](const auto& r) { return r.second < v; });
      return it != ranges.end() && it->first <= hil_[i];
    });
  }
  // No row can match when none passed the bounds, whatever was checked.
  sel.exact = sel.rows.empty() ||
              (spec.exact && use_rect == spec.rect.has_value() &&
               use_hil == !spec.hil_ranges.empty());
  return Status::OK();
}

Status BucketReader::VerifyHeader() const {
  const auto [ts_lo, ts_hi] = std::minmax_element(ts_.begin(), ts_.end());
  if (*ts_lo != meta_.min_ts || *ts_hi != meta_.max_ts) {
    return Status::Corruption("bucket time extent disagrees with its points");
  }
  if (!lon_.empty()) {
    // The encoder's own reduction, compared bit for bit.
    const auto [lon_lo, lon_hi] = std::minmax_element(lon_.begin(), lon_.end());
    const auto [lat_lo, lat_hi] = std::minmax_element(lat_.begin(), lat_.end());
    const double want[4] = {*lon_lo, *lat_lo, *lon_hi, *lat_hi};
    const double got[4] = {meta_.mbr.lo.lon, meta_.mbr.lo.lat,
                           meta_.mbr.hi.lon, meta_.mbr.hi.lat};
    if (std::memcmp(want, got, sizeof want) != 0) {
      return Status::Corruption("bucket MBR disagrees with its points");
    }
  }
  if (!hil_.empty()) {
    // Every value lies in a range and every range endpoint is a value: the
    // ranges BuildHilRanges makes, with no decode-side sort.
    const auto& ranges = meta_.hil_ranges;  // 1..kMaxBucketHilRanges
    // The range holding v is the first whose end is >= v, so its index is
    // the count of ends below v: a fixed, branch-free count over the ends,
    // padded with ends no value exceeds.
    int64_t ends[kMaxBucketHilRanges];
    for (size_t j = 0; j < kMaxBucketHilRanges; ++j) {
      ends[j] = j < ranges.size() ? ranges[j].second
                                  : std::numeric_limits<int64_t>::max();
    }
    uint64_t endpoints = 0;
    for (const int64_t v : hil_) {
      size_t r = 0;
      for (const int64_t end : ends) r += end < v;
      if (r == ranges.size() || ranges[r].first > v) {
        return Status::Corruption("bucket hil ranges miss a point");
      }
      endpoints |= uint64_t{v == ranges[r].first} << (2 * r);
      endpoints |= uint64_t{v == ranges[r].second} << (2 * r + 1);
    }
    if (endpoints != (uint64_t{1} << (2 * ranges.size())) - 1) {
      return Status::Corruption("bucket hil ranges are not tight");
    }
  }
  return Status::OK();
}

bson::Value BucketReader::ResidualField::ValueAt(size_t i) const {
  switch (type) {
    case bson::Type::kBool:
      return bson::Value::Bool(ints[i] != 0);
    case bson::Type::kInt32:
      return bson::Value::Int32(static_cast<int32_t>(ints[i]));
    case bson::Type::kInt64:
      return bson::Value::Int64(ints[i]);
    case bson::Type::kDateTime:
      return bson::Value::DateTime(ints[i]);
    case bson::Type::kDouble:
      return bson::Value::Double(doubles[i]);
    case bson::Type::kString: {
      const size_t begin = i == 0 ? 0 : static_cast<size_t>(ints[i - 1]);
      return bson::Value::String(
          strings.substr(begin, static_cast<size_t>(ints[i]) - begin));
    }
    default:
      return bson::Value::Null();
  }
}

Status BucketReader::DecodeResidualColumns(std::string_view in) {
  const size_t n = meta_.num_points;
  Result<uint64_t> nfields = bson::GetVarint(&in);
  if (!nfields.ok()) return nfields.status();
  if (*nfields > in.size()) {
    return Status::Corruption("bucket residual schema is truncated");
  }
  num_res_fields_ = static_cast<size_t>(*nfields);
  if (res_fields_.size() < num_res_fields_) res_fields_.resize(num_res_fields_);
  for (size_t fi = 0; fi < num_res_fields_; ++fi) {
    ResidualField& f = res_fields_[fi];
    Result<uint64_t> name_len = bson::GetVarint(&in);
    if (!name_len.ok()) return name_len.status();
    if (*name_len >= in.size()) {
      return Status::Corruption("bucket residual schema is truncated");
    }
    f.name = in.substr(0, *name_len);
    in.remove_prefix(*name_len);
    f.type = static_cast<bson::Type>(static_cast<uint8_t>(in.front()));
    in.remove_prefix(1);
    if (!IsColumnarType(f.type)) {
      return Status::Corruption("bucket residual schema has a bad type");
    }
  }
  for (size_t fi = 0; fi < num_res_fields_; ++fi) {
    ResidualField& f = res_fields_[fi];
    switch (f.type) {
      case bson::Type::kNull:
        break;
      case bson::Type::kBool:
      case bson::Type::kInt32:
      case bson::Type::kInt64:
      case bson::Type::kDateTime:
        if (Status s = TakeColumn(&in, n, &f.ints); !s.ok()) return s;
        break;
      case bson::Type::kDouble:
        if (Status s = TakeColumn(&in, n, &f.doubles); !s.ok()) return s;
        break;
      case bson::Type::kString: {
        // Row lengths become running end offsets in place.
        if (Status s = TakeColumn(&in, n, &f.ints); !s.ok()) return s;
        uint64_t total = 0;
        for (int64_t& len : f.ints) {
          if (len < 0 ||
              static_cast<uint64_t>(len) > f.strings.max_size() - total) {
            return Status::Corruption("bucket residual blob is truncated");
          }
          total += static_cast<uint64_t>(len);
          len = static_cast<int64_t>(total);
        }
        Result<uint64_t> zlen = bson::GetVarint(&in);
        if (!zlen.ok()) return zlen.status();
        if (*zlen > in.size()) {
          return Status::Corruption("bucket residual blob is truncated");
        }
        if (Status s = LzDecompressInto(in.substr(0, *zlen), total, &f.strings);
            !s.ok()) {
          return s;
        }
        in.remove_prefix(*zlen);
        if (f.strings.size() != total) {
          return Status::Corruption("bucket residual blob length mismatch");
        }
        break;
      }
      default:
        return Status::Corruption("bucket residual schema has a bad type");
    }
  }
  if (!in.empty()) {
    return Status::Corruption("bucket residual column has trailing bytes");
  }
  return Status::OK();
}

Status BucketReader::LoadRowColumns() {
  const size_t n = meta_.num_points;
  if (Status s = DecodeColumn(column(BucketColumn::kPos), n * kNumSlots, &pos_);
      !s.ok()) {
    return s;
  }
  ids_.clear();
  if ((flags_ & kFlagIds) != 0) {
    const size_t want = n * bson::ObjectId::kSize;
    if (Status s = LzDecompressInto(column(BucketColumn::kIds), want, &ids_);
        !s.ok()) {
      return s;
    }
    if (ids_.size() != want) {
      return Status::Corruption("bucket ids column is short");
    }
  }

  const std::string_view residual = column(BucketColumn::kResidual);
  if (uniform_residuals()) {
    if (Status s = DecodeResidualColumns(residual); !s.ok()) return s;
  } else {
    // Per-point BSON: find every row's slice by its length prefix; only
    // the built rows' slices are parsed.
    num_res_fields_ = 0;
    if (Status s = LzDecompressInto(residual, residuals_.max_size(),
                                    &residuals_);
        !s.ok()) {
      return s;
    }
    res_rows_.resize(n);
    std::string_view view = residuals_;
    for (size_t i = 0; i < n; ++i) {
      Result<uint64_t> len = bson::GetVarint(&view);
      if (!len.ok()) return len.status();
      if (view.size() < *len) {
        return Status::Corruption("bucket residuals are truncated");
      }
      res_rows_[i] = view.substr(0, *len);
      view.remove_prefix(*len);
    }
    if (!view.empty()) {
      return Status::Corruption("bucket residuals have trailing bytes");
    }
  }

  // Every row's extracted fields must sit at distinct positions of columns
  // the bucket has; with uniform residuals the field count is known, so the
  // positions must also fall inside the row.
  const bool slot_present[kNumSlots] = {true, !lon_.empty(), !ids_.empty(),
                                        !hil_.empty()};
  for (size_t i = 0; i < n; ++i) {
    const int64_t* pos = &pos_[i * kNumSlots];
    // A row positioned like the previous one passes the same checks.
    if (i > 0 && std::equal(pos, pos + kNumSlots, pos - kNumSlots)) continue;
    size_t fields = num_res_fields_;
    for (int slot = 0; slot < kNumSlots; ++slot) fields += pos[slot] >= 0;
    for (int slot = 0; slot < kNumSlots; ++slot) {
      if (pos[slot] < 0) continue;
      bool ok = slot_present[slot];
      if (uniform_residuals()) ok &= static_cast<size_t>(pos[slot]) < fields;
      for (int other = 0; other < slot; ++other) ok &= pos[other] != pos[slot];
      if (!ok) return Status::Corruption("bucket field positions are malformed");
    }
    if (pos[kSlotTs] < 0) {
      return Status::Corruption("bucket row lacks its time field");
    }
  }
  return Status::OK();
}

Status BucketReader::Build(const std::vector<uint32_t>* rows,
                           std::vector<bson::Document>* out) {
  out->clear();
  const size_t n = meta_.num_points;
  if (n == 0) return Status::Corruption("bucket reader holds no bucket");
  Status s = LoadColumn(BucketColumn::kTs, &ts_);
  if (s.ok()) s = LoadColumn(BucketColumn::kLon, &lon_);
  if (s.ok()) s = LoadColumn(BucketColumn::kLat, &lat_);
  if (s.ok()) s = LoadColumn(BucketColumn::kHil, &hil_);
  if (s.ok()) s = VerifyHeader();
  if (s.ok()) s = LoadRowColumns();
  if (!s.ok()) return s;

  const size_t count = rows != nullptr ? rows->size() : n;
  out->reserve(count);
  for (size_t k = 0; k < count; ++k) {
    const size_t i = rows != nullptr ? (*rows)[k] : k;
    if (i >= n || (rows != nullptr && k > 0 && i <= (*rows)[k - 1])) {
      out->clear();
      return Status::InvalidArgument("bucket rows must ascend within n");
    }
    bson::Document res;
    size_t res_count = num_res_fields_;
    if (!uniform_residuals()) {
      Result<bson::Document> parsed = bson::DecodeBson(res_rows_[i]);
      if (!parsed.ok()) {
        out->clear();
        return parsed.status();
      }
      res = std::move(*parsed);
      res_count = res.size();
    }

    const int64_t* pos = &pos_[i * kNumSlots];
    size_t total_fields = res_count;
    for (int slot = 0; slot < kNumSlots; ++slot) total_fields += pos[slot] >= 0;
    bson::Document point;
    point.Reserve(total_fields);
    size_t res_next = 0;
    for (size_t fi = 0; fi < total_fields; ++fi) {
      if (pos[kSlotTs] == static_cast<int64_t>(fi)) {
        point.Append(kTimeField, bson::Value::DateTime(ts_[i]));
      } else if (pos[kSlotLoc] == static_cast<int64_t>(fi)) {
        point.Append(kLocationField,
                     bson::Value::MakeDocument(
                         bson::GeoJsonPoint(lon_[i], lat_[i])));
      } else if (pos[kSlotId] == static_cast<int64_t>(fi)) {
        std::array<uint8_t, bson::ObjectId::kSize> bytes;
        std::memcpy(bytes.data(), ids_.data() + i * bson::ObjectId::kSize,
                    bytes.size());
        point.Append("_id", bson::Value::Id(bson::ObjectId(bytes)));
      } else if (pos[kSlotHil] == static_cast<int64_t>(fi)) {
        point.Append(kHilbertField, bson::Value::Int64(hil_[i]));
      } else {
        if (res_next >= res_count) {
          out->clear();
          return Status::Corruption("bucket residual fields are short");
        }
        if (uniform_residuals()) {
          const ResidualField& f = res_fields_[res_next];
          point.Append(std::string(f.name), f.ValueAt(i));
        } else {
          point.Append(res.field(res_next).first, res.field(res_next).second);
        }
        ++res_next;
      }
    }
    out->push_back(std::move(point));
  }
  return Status::OK();
}

Result<std::vector<bson::Document>> DecodeBucket(const bson::Document& bucket) {
  BucketReader reader;
  if (Status s = reader.Reset(bucket); !s.ok()) return s;
  std::vector<bson::Document> points;
  if (Status s = reader.Build(nullptr, &points); !s.ok()) return s;
  return points;
}

}  // namespace stix::storage
