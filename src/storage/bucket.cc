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

constexpr int32_t kBucketFormatVersion = 1;
/// Hilbert range lists are capped: past this the closest-gap ranges merge,
/// trading pruning precision for metadata size (like an s2 covering cap).
constexpr size_t kMaxBucketHilRanges = 16;

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

const bson::Value* GetSubField(const bson::Document& doc,
                               std::string_view outer,
                               std::string_view inner) {
  const bson::Value* sub = doc.Get(outer);
  if (sub == nullptr || sub->type() != bson::Type::kDocument) return nullptr;
  return sub->AsDocument().Get(inner);
}

/// The `data` sub-document's column `name`, or nullptr.
const std::string* Column(const bson::Document& data, std::string_view name) {
  const bson::Value* v = data.Get(name);
  if (v == nullptr || v->type() != bson::Type::kString) return nullptr;
  return &v->AsString();
}

/// Consumes one packed int64 or double column, which must hold n values,
/// from the front of *in.
template <typename T>
Status DecodeColumn(std::string_view* in, size_t n, std::vector<T>* out) {
  Result<std::vector<T>> v = [in] {
    if constexpr (std::is_same_v<T, double>) {
      return bson::DecodeDoubleColumn(in);
    } else {
      return bson::DecodeInt64Column(in);
    }
  }();
  if (!v.ok()) return v.status();
  if (v->size() != n) {
    return Status::Corruption("bucket column length disagrees with meta.n");
  }
  *out = std::move(*v);
  return Status::OK();
}

/// Decoded "cols" residual: one column per schema field, materialized as a
/// whole so point reconstruction is column reads, not per-point parsing.
struct ResidualColumns {
  struct Field {
    std::string name;
    bson::Type type = bson::Type::kNull;
    std::vector<int64_t> ints;        ///< kBool/kInt32/kInt64/kDateTime.
    std::vector<double> doubles;      ///< kDouble.
    std::vector<size_t> str_offsets;  ///< n+1 prefix offsets into blob.
    std::string blob;                 ///< kString bytes, concatenated.

    bson::Value ValueAt(size_t i) const {
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
        case bson::Type::kString:
          return bson::Value::String(
              blob.substr(str_offsets[i], str_offsets[i + 1] - str_offsets[i]));
        default:
          return bson::Value::Null();
      }
    }
  };
  std::vector<Field> fields;
};

Result<ResidualColumns> DecodeResidualColumns(std::string_view in, size_t n) {
  ResidualColumns out;
  Result<uint64_t> nfields = bson::GetVarint(&in);
  if (!nfields.ok()) return nfields.status();
  if (*nfields > in.size()) {
    return Status::Corruption("bucket residual schema is truncated");
  }
  out.fields.resize(*nfields);
  for (ResidualColumns::Field& f : out.fields) {
    Result<uint64_t> name_len = bson::GetVarint(&in);
    if (!name_len.ok()) return name_len.status();
    if (*name_len >= in.size()) {
      return Status::Corruption("bucket residual schema is truncated");
    }
    f.name.assign(in.data(), *name_len);
    in.remove_prefix(*name_len);
    f.type = static_cast<bson::Type>(static_cast<uint8_t>(in.front()));
    in.remove_prefix(1);
    if (!IsColumnarType(f.type)) {
      return Status::Corruption("bucket residual schema has a bad type");
    }
  }
  for (ResidualColumns::Field& f : out.fields) {
    switch (f.type) {
      case bson::Type::kNull:
        break;
      case bson::Type::kBool:
      case bson::Type::kInt32:
      case bson::Type::kInt64:
      case bson::Type::kDateTime:
        if (Status s = DecodeColumn(&in, n, &f.ints); !s.ok()) return s;
        break;
      case bson::Type::kDouble:
        if (Status s = DecodeColumn(&in, n, &f.doubles); !s.ok()) return s;
        break;
      case bson::Type::kString: {
        std::vector<int64_t> lens;
        if (Status s = DecodeColumn(&in, n, &lens); !s.ok()) return s;
        Result<uint64_t> zlen = bson::GetVarint(&in);
        if (!zlen.ok()) return zlen.status();
        if (*zlen > in.size()) {
          return Status::Corruption("bucket residual blob is truncated");
        }
        Result<std::string> blob = LzDecompress(in.substr(0, *zlen));
        if (!blob.ok()) return blob.status();
        in.remove_prefix(*zlen);
        f.blob = std::move(*blob);
        f.str_offsets.resize(n + 1);
        size_t off = 0;
        for (size_t i = 0; i < n; ++i) {
          f.str_offsets[i] = off;
          if (lens[i] < 0 ||
              static_cast<uint64_t>(lens[i]) > f.blob.size() - off) {
            return Status::Corruption("bucket residual blob is truncated");
          }
          off += static_cast<size_t>(lens[i]);
        }
        f.str_offsets[n] = off;
        if (off != f.blob.size()) {
          return Status::Corruption("bucket residual blob length mismatch");
        }
        break;
      }
      default:
        return Status::Corruption("bucket residual schema has a bad type");
    }
  }
  return out;
}

}  // namespace

bool IsBucketDocument(const bson::Document& doc) {
  const bson::Value* v = GetSubField(doc, kBucketDataField, "v");
  return v != nullptr && v->type() == bson::Type::kInt32 &&
         v->AsInt32() == kBucketFormatVersion &&
         doc.Get(kBucketMetaField) != nullptr;
}

Result<BucketKey> ComputeBucketKey(const bson::Document& point,
                                   const BucketLayout& layout) {
  const bson::Value* ts = point.Get(layout.time_field);
  if (ts == nullptr || ts->type() != bson::Type::kDateTime) {
    return Status::InvalidArgument(
        "bucketed store requires a DateTime '" + layout.time_field +
        "' field on every document");
  }
  BucketKey key;
  key.window = layout.WindowBase(ts->AsDateTime());
  if (const bson::Value* v = point.Get(layout.vehicle_field)) {
    if (v->type() == bson::Type::kInt32) key.vehicle = v->AsInt32();
    if (v->type() == bson::Type::kInt64) key.vehicle = v->AsInt64();
  }
  if (layout.use_hilbert) {
    if (const bson::Value* h = point.Get(layout.hilbert_field);
        h != nullptr && h->type() == bson::Type::kInt64) {
      key.cell = h->AsInt64() >> layout.hilbert_shift;
    }
  }
  return key;
}

Result<bson::Document> EncodeBucket(const std::vector<bson::Document>& points,
                                    const BucketLayout& layout) {
  if (points.empty()) {
    return Status::InvalidArgument("cannot encode an empty bucket");
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
      if (!got_ts && name == layout.time_field &&
          value.type() == bson::Type::kDateTime) {
        ts[i] = value.AsDateTime();
        positions[i * kNumSlots + kSlotTs] = static_cast<int64_t>(fi);
        got_ts = true;
      } else if (!got_loc && name == layout.location_field &&
                 IsCanonicalGeoPoint(value, &lon[i], &lat[i])) {
        positions[i * kNumSlots + kSlotLoc] = static_cast<int64_t>(fi);
        got_loc = true;
      } else if (!got_id && name == "_id" &&
                 value.type() == bson::Type::kObjectId) {
        const auto& bytes = value.AsObjectId().bytes();
        ids.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
        positions[i * kNumSlots + kSlotId] = static_cast<int64_t>(fi);
        got_id = true;
      } else if (!got_hil && name == layout.hilbert_field &&
                 value.type() == bson::Type::kInt64) {
        hil[i] = value.AsInt64();
        positions[i * kNumSlots + kSlotHil] = static_cast<int64_t>(fi);
        got_hil = true;
      }
    }
    if (!got_ts) {
      return Status::InvalidArgument(
          "bucketed point lacks a DateTime '" + layout.time_field + "' field");
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

  std::string ts_col, lon_col, lat_col, hil_col, pos_col;
  bson::EncodeInt64Column(ts, &ts_col);
  if (has_loc) {
    bson::EncodeDoubleColumn(lon, &lon_col);
    bson::EncodeDoubleColumn(lat, &lat_col);
  }
  if (has_hil) bson::EncodeInt64Column(hil, &hil_col);
  bson::EncodeInt64Column(positions, &pos_col);

  bson::Document meta;
  meta.Append("minTs", bson::Value::DateTime(min_ts));
  meta.Append("maxTs", bson::Value::DateTime(max_ts));
  meta.Append("n", bson::Value::Int32(static_cast<int32_t>(n)));
  if (has_loc) {
    const auto [lon_lo, lon_hi] = std::minmax_element(lon.begin(), lon.end());
    const auto [lat_lo, lat_hi] = std::minmax_element(lat.begin(), lat.end());
    bson::Array mbr;
    mbr.push_back(bson::Value::Double(*lon_lo));
    mbr.push_back(bson::Value::Double(*lat_lo));
    mbr.push_back(bson::Value::Double(*lon_hi));
    mbr.push_back(bson::Value::Double(*lat_hi));
    meta.Append("mbr", bson::Value::MakeArray(std::move(mbr)));
  }
  if (has_hil) {
    bson::Array ranges;
    for (const auto& [r_lo, r_hi] : BuildHilRanges(hil)) {
      ranges.push_back(bson::Value::Int64(r_lo));
      ranges.push_back(bson::Value::Int64(r_hi));
    }
    meta.Append("hil", bson::Value::MakeArray(std::move(ranges)));
  }

  bson::Document data;
  data.Append("v", bson::Value::Int32(kBucketFormatVersion));
  data.Append("ts", bson::Value::String(std::move(ts_col)));
  if (has_loc) {
    data.Append("lon", bson::Value::String(std::move(lon_col)));
    data.Append("lat", bson::Value::String(std::move(lat_col)));
  }
  if (has_hil) data.Append("hil", bson::Value::String(std::move(hil_col)));
  if (has_id) {
    // ObjectIds inside one bucket share their timestamp/machine prefix;
    // LZ'ing the concatenation keeps roughly the per-point counter bytes.
    data.Append("ids", bson::Value::String(LzCompress(ids)));
  }
  data.Append("pos", bson::Value::String(std::move(pos_col)));
  data.Append(uniform ? "cols" : "res",
              bson::Value::String(std::move(residual_col)));

  bson::Document bucket;
  if (has_id) {
    // The first point's _id doubles as the bucket's _id (unique: a point is
    // in exactly one bucket).
    bucket.Append("_id", *points[0].Get("_id"));
  }
  bucket.Append(layout.time_field, bson::Value::DateTime(window_base));
  if (layout.use_hilbert && has_hil) {
    bucket.Append(layout.hilbert_field,
                  bson::Value::Int64((hil[0] >> layout.hilbert_shift)
                                     << layout.hilbert_shift));
  }
  bucket.Append(kBucketMetaField, bson::Value::MakeDocument(std::move(meta)));
  bucket.Append(kBucketDataField, bson::Value::MakeDocument(std::move(data)));
  return bucket;
}

Result<BucketMeta> ParseBucketMeta(const bson::Document& bucket) {
  const bson::Value* meta_v = bucket.Get(kBucketMetaField);
  if (meta_v == nullptr || meta_v->type() != bson::Type::kDocument) {
    return Status::Corruption("bucket document lacks meta");
  }
  const bson::Document& meta = meta_v->AsDocument();
  BucketMeta out;
  const bson::Value* min_ts = meta.Get("minTs");
  const bson::Value* max_ts = meta.Get("maxTs");
  const bson::Value* n = meta.Get("n");
  if (min_ts == nullptr || min_ts->type() != bson::Type::kDateTime ||
      max_ts == nullptr || max_ts->type() != bson::Type::kDateTime ||
      n == nullptr || n->type() != bson::Type::kInt32) {
    return Status::Corruption("bucket meta is malformed");
  }
  out.min_ts = min_ts->AsDateTime();
  out.max_ts = max_ts->AsDateTime();
  out.num_points = static_cast<uint32_t>(n->AsInt32());
  if (const bson::Value* mbr = meta.Get("mbr");
      mbr != nullptr && mbr->type() == bson::Type::kArray) {
    const bson::Array& a = mbr->AsArray();
    if (a.size() != 4) return Status::Corruption("bucket mbr is malformed");
    for (const bson::Value& v : a) {
      if (v.type() != bson::Type::kDouble) {
        return Status::Corruption("bucket mbr is malformed");
      }
    }
    out.has_mbr = true;
    out.mbr = {{a[0].AsDouble(), a[1].AsDouble()},
               {a[2].AsDouble(), a[3].AsDouble()}};
  }
  if (const bson::Value* hil = meta.Get("hil");
      hil != nullptr && hil->type() == bson::Type::kArray) {
    const bson::Array& a = hil->AsArray();
    if (a.size() % 2 != 0) {
      return Status::Corruption("bucket hil ranges are malformed");
    }
    out.hil_ranges.reserve(a.size() / 2);
    for (size_t i = 0; i < a.size(); i += 2) {
      if (a[i].type() != bson::Type::kInt64 ||
          a[i + 1].type() != bson::Type::kInt64) {
        return Status::Corruption("bucket hil ranges are malformed");
      }
      out.hil_ranges.emplace_back(a[i].AsInt64(), a[i + 1].AsInt64());
    }
  }
  return out;
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

Result<BucketReader> BucketReader::Open(const bson::Document& bucket) {
  if (!IsBucketDocument(bucket)) {
    return Status::Corruption("not a bucket document");
  }
  Result<BucketMeta> meta = ParseBucketMeta(bucket);
  if (!meta.ok()) return meta.status();
  BucketReader reader;
  reader.data_ = &bucket.Get(kBucketDataField)->AsDocument();
  reader.meta_ = std::move(*meta);
  return reader;
}

Status BucketReader::LoadColumns(bool hil) {
  // Decodes the named column into *out; an absent column leaves it empty.
  const auto load = [this](std::string_view name, auto* out) {
    const std::string* col = Column(*data_, name);
    if (col == nullptr) return Status::OK();
    std::string_view view = *col;
    return DecodeColumn(&view, meta_.num_points, out);
  };
  if (!ts_loaded_) {
    if (Column(*data_, "ts") == nullptr ||
        (Column(*data_, "lon") == nullptr) !=
            (Column(*data_, "lat") == nullptr)) {
      return Status::Corruption("bucket data columns are missing");
    }
    Status s = load("ts", &ts_);
    if (s.ok()) s = load("lon", &lon_);
    if (s.ok()) s = load("lat", &lat_);
    if (!s.ok()) return s;
    ts_loaded_ = true;
  }
  if (hil && !hil_loaded_) {
    if (Status s = load("hil", &hil_); !s.ok()) return s;
    hil_loaded_ = true;
  }
  return Status::OK();
}

Result<BucketSelection> BucketReader::Select(const BucketPruneSpec& spec) {
  BucketSelection sel;
  const uint32_t n = meta_.num_points;
  sel.pruned = !spec.MayContain(meta_);
  if (sel.pruned || spec.Covers(meta_)) {
    sel.rows.resize(sel.pruned ? 0 : n);
    std::iota(sel.rows.begin(), sel.rows.end(), 0u);
    sel.exact = true;
    return sel;
  }
  if (Status s = LoadColumns(false); !s.ok()) return s;
  const bool use_rect = spec.rect.has_value() && !lon_.empty();
  const int64_t t_lo =
      spec.min_ts.value_or(std::numeric_limits<int64_t>::min());
  const int64_t t_hi =
      spec.max_ts.value_or(std::numeric_limits<int64_t>::max());
  const geo::Rect box = use_rect ? *spec.rect : geo::Rect{};
  sel.rows.resize(n);
  size_t k = 0;
  for (uint32_t i = 0; i < n; ++i) {
    // Non-short-circuit &: the time and rect tests compile branch-free.
    bool keep = (ts_[i] >= t_lo) & (ts_[i] <= t_hi);
    if (use_rect) {
      keep &= (lon_[i] >= box.lo.lon) & (lon_[i] <= box.hi.lon) &
              (lat_[i] >= box.lo.lat) & (lat_[i] <= box.hi.lat);
    }
    sel.rows[k] = i;
    k += keep;
  }
  sel.rows.resize(k);
  sel.scanned = n;

  // The hil ranges refine the survivors, so a bucket with none never
  // decodes its hil column.
  bool use_hil = false;
  if (!spec.hil_ranges.empty() && k > 0) {
    if (Status s = LoadColumns(true); !s.ok()) return s;
    use_hil = !hil_.empty();
  }
  if (use_hil) {
    // RangeSetExpr's test: v is inside iff the first range with hi >= v
    // starts at or below v.
    const auto outside = [&ranges = spec.hil_ranges, this](uint32_t i) {
      const auto it = std::partition_point(
          ranges.begin(), ranges.end(),
          [v = hil_[i]](const auto& r) { return r.second < v; });
      return it == ranges.end() || it->first > hil_[i];
    };
    sel.rows.erase(std::remove_if(sel.rows.begin(), sel.rows.end(), outside),
                   sel.rows.end());
  }
  // No row can match when none passed the bounds, whatever was checked.
  sel.exact = sel.rows.empty() ||
              (spec.exact && use_rect == spec.rect.has_value() &&
               use_hil == !spec.hil_ranges.empty());
  return sel;
}

Result<std::vector<bson::Document>> BucketReader::Build(
    const BucketLayout& layout, const std::vector<uint32_t>* rows) {
  const size_t n = meta_.num_points;
  const std::string* pos_col = Column(*data_, "pos");
  const std::string* res_col = Column(*data_, "res");
  const std::string* cols_col = Column(*data_, "cols");
  if (pos_col == nullptr || (res_col == nullptr) == (cols_col == nullptr)) {
    return Status::Corruption("bucket data columns are missing");
  }
  if (Status s = LoadColumns(true); !s.ok()) return s;
  std::vector<int64_t> positions;
  std::string_view pos_view = *pos_col;
  if (Status s = DecodeColumn(&pos_view, n * kNumSlots, &positions);
      !s.ok()) {
    return s;
  }

  std::string ids;
  bool has_ids = false;
  if (const std::string* ids_col = Column(*data_, "ids")) {
    Result<std::string> raw = LzDecompress(*ids_col);
    if (!raw.ok()) return raw.status();
    if (raw->size() != n * bson::ObjectId::kSize) {
      return Status::Corruption("bucket ids column is short");
    }
    ids = std::move(*raw);
    has_ids = true;
  }

  std::string residuals;
  std::string_view res_view;
  ResidualColumns rescols;
  if (res_col != nullptr) {
    Result<std::string> raw = LzDecompress(*res_col);
    if (!raw.ok()) return raw.status();
    residuals = std::move(*raw);
    res_view = residuals;
  } else {
    Result<ResidualColumns> rc = DecodeResidualColumns(*cols_col, n);
    if (!rc.ok()) return rc.status();
    rescols = std::move(*rc);
  }

  const size_t count = rows != nullptr ? rows->size() : n;
  std::vector<bson::Document> points;
  points.reserve(count);
  size_t res_row = 0;  // Per-point residual blobs consumed from res_view.
  for (size_t k = 0; k < count; ++k) {
    const size_t i = rows != nullptr ? (*rows)[k] : k;
    if (i >= n || (rows != nullptr && k > 0 && i <= (*rows)[k - 1])) {
      return Status::InvalidArgument("bucket rows must ascend within n");
    }
    bson::Document res;
    size_t res_count = rescols.fields.size();
    if (res_col != nullptr) {
      // Skip the unselected rows' blobs by their length prefix; only row
      // i's blob is parsed.
      for (; res_row <= i; ++res_row) {
        Result<uint64_t> res_len = bson::GetVarint(&res_view);
        if (!res_len.ok()) return res_len.status();
        if (res_view.size() < *res_len) {
          return Status::Corruption("bucket residuals are truncated");
        }
        if (res_row == i) {
          Result<bson::Document> parsed =
              bson::DecodeBson(res_view.substr(0, *res_len));
          if (!parsed.ok()) return parsed.status();
          res = std::move(*parsed);
        }
        res_view.remove_prefix(*res_len);
      }
      res_count = res.size();
    }

    const int64_t* pos = &positions[i * kNumSlots];
    const size_t total_fields =
        res_count + static_cast<size_t>(pos[kSlotTs] >= 0) +
        static_cast<size_t>(pos[kSlotLoc] >= 0) +
        static_cast<size_t>(pos[kSlotId] >= 0) +
        static_cast<size_t>(pos[kSlotHil] >= 0);
    bson::Document point;
    point.Reserve(total_fields);
    size_t res_next = 0;
    for (size_t fi = 0; fi < total_fields; ++fi) {
      if (pos[kSlotTs] == static_cast<int64_t>(fi)) {
        point.Append(layout.time_field, bson::Value::DateTime(ts_[i]));
      } else if (pos[kSlotLoc] == static_cast<int64_t>(fi)) {
        if (lon_.empty()) {
          return Status::Corruption("bucket location columns are missing");
        }
        point.Append(layout.location_field,
                     bson::Value::MakeDocument(
                         bson::GeoJsonPoint(lon_[i], lat_[i])));
      } else if (pos[kSlotId] == static_cast<int64_t>(fi)) {
        if (!has_ids) {
          return Status::Corruption("bucket ids column is missing");
        }
        std::array<uint8_t, bson::ObjectId::kSize> bytes;
        std::memcpy(bytes.data(), ids.data() + i * bson::ObjectId::kSize,
                    bytes.size());
        point.Append("_id", bson::Value::Id(bson::ObjectId(bytes)));
      } else if (pos[kSlotHil] == static_cast<int64_t>(fi)) {
        if (hil_.empty()) {
          return Status::Corruption("bucket hilbert column is missing");
        }
        point.Append(layout.hilbert_field, bson::Value::Int64(hil_[i]));
      } else {
        if (res_next >= res_count) {
          return Status::Corruption("bucket residual fields are short");
        }
        if (res_col != nullptr) {
          point.Append(res.field(res_next).first, res.field(res_next).second);
        } else {
          const ResidualColumns::Field& f = rescols.fields[res_next];
          point.Append(f.name, f.ValueAt(i));
        }
        ++res_next;
      }
    }
    points.push_back(std::move(point));
  }
  return points;
}

Result<std::vector<bson::Document>> DecodeBucket(const bson::Document& bucket,
                                                 const BucketLayout& layout) {
  Result<BucketReader> reader = BucketReader::Open(bucket);
  if (!reader.ok()) return reader.status();
  return reader->Build(layout, nullptr);
}

}  // namespace stix::storage
