#ifndef STIX_STORAGE_BUCKET_H_
#define STIX_STORAGE_BUCKET_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bson/document.h"
#include "common/status.h"
#include "geo/geo.h"

namespace stix::storage {

/// The point fields the bucketed layout reads and writes: a point's time
/// (a bucket's carries its window start), location, hilbertIndex (a
/// bucket's carries its cell base) and vehicle.
inline constexpr char kTimeField[] = "date";
inline constexpr char kLocationField[] = "location";
inline constexpr char kHilbertField[] = "hilbertIndex";
inline constexpr char kVehicleField[] = "vehicleId";

/// Shape of the bucketed time-series collection layout (MongoDB's
/// time-series buckets, specialised to the paper's trajectory workload):
/// one stored document per (vehicle, time window[, Hilbert cell]) holding
/// Simple8b-compressed delta-of-delta columns plus bucket-level pruning
/// metadata. Immutable once a store is set up — the widening rewrite, the
/// catalog keys and the codec must all agree on it.
struct BucketLayout {
  /// Time-window width per bucket. Every point in a bucket satisfies
  /// ts in [bucket date, bucket date + window_ms), where the bucket's
  /// time field carries the window's start — the invariant the query
  /// rewrite widens time bounds by.
  int64_t window_ms = 6 * 3600 * 1000;

  /// Seal threshold: an open bucket flushes once it holds this many points.
  uint32_t max_points = 1000;

  /// Points in one bucket share hilbert >> hilbert_shift when use_hilbert
  /// is set, and the bucket's hilbert field carries the cell base — the
  /// invariant the hilbertIndex range widening relies on.
  int hilbert_shift = 12;
  bool use_hilbert = false;

  /// Start of the window containing `ts` (floor to window_ms, correct for
  /// negative timestamps).
  int64_t WindowBase(int64_t ts) const {
    int64_t q = ts / window_ms;
    if (ts % window_ms < 0) --q;
    return q * window_ms;
  }
};

/// Bucket identity inside the BucketCatalog: which open bucket a point
/// belongs to.
struct BucketKey {
  int64_t vehicle = 0;
  int64_t window = 0;  ///< Window start, ms.
  int64_t cell = 0;    ///< hilbert >> shift, or 0 when not applicable.

  friend bool operator<(const BucketKey& a, const BucketKey& b) {
    if (a.vehicle != b.vehicle) return a.vehicle < b.vehicle;
    if (a.window != b.window) return a.window < b.window;
    return a.cell < b.cell;
  }
  friend bool operator==(const BucketKey& a, const BucketKey& b) {
    return a.vehicle == b.vehicle && a.window == b.window && a.cell == b.cell;
  }
};

/// Pruning metadata of one sealed bucket, decoded without touching the
/// columns: exact time extent, point count, tight MBR and the covering set
/// of hilbertIndex ranges of the points inside.
struct BucketMeta {
  int64_t min_ts = 0;
  int64_t max_ts = 0;
  uint32_t num_points = 0;
  bool has_mbr = false;
  geo::Rect mbr = {{0, 0}, {0, 0}};
  /// Sorted, disjoint closed [lo, hi] ranges of point hilbertIndex values;
  /// empty when the points carried no hilbert field.
  std::vector<std::pair<int64_t, int64_t>> hil_ranges;
};

/// Durable stores only: Int64 array of the catalog-journal LSNs of the
/// points packed into this bucket. Recovery intersects it with the catalog
/// journal to find points that were acknowledged but never reached a
/// flushed bucket. Absent on non-durable stores; ignored by the codec.
inline constexpr char kBucketWalLsnsField[] = "wlsns";

/// True iff this stored document is a bucket: it carries the codec's blob
/// field with the codec's magic and version.
bool IsBucketDocument(const bson::Document& doc);

/// The codec's one binary field of a bucket document (header, column-length
/// table and columns; DESIGN.md §5g has the layout), or nullptr when
/// `bucket` is not a bucket document.
const std::string* BucketBlob(const bson::Document& bucket);

/// Replaces the blob of `bucket` (which must be a bucket document) with
/// `blob`, unchecked: the way format tests build damaged buckets.
void ReplaceBucketBlob(bson::Document* bucket, std::string blob);

/// Computes the catalog key of one point. Fails when the time field is
/// missing or not a DateTime (bucketed stores require it). A missing
/// vehicle/hilbert field keys as 0.
Result<BucketKey> ComputeBucketKey(const bson::Document& point,
                                   const BucketLayout& layout);

/// Encodes points (all of one BucketKey — same window, same cell) into one
/// bucket document. Reconstruction via DecodeBucket is byte-identical: the
/// original field order and value types of every point are preserved.
Result<bson::Document> EncodeBucket(const std::vector<bson::Document>& points,
                                    const BucketLayout& layout);

/// Reverses EncodeBucket, reproducing the original point documents in
/// insertion order (BucketReader::Build over every row).
Result<std::vector<bson::Document>> DecodeBucket(const bson::Document& bucket);

/// Decodes only the pruning metadata from the blob's header (no column
/// access).
Result<BucketMeta> ParseBucketMeta(const bson::Document& bucket);

/// Logical data points a stored document carries: a bucket's point count,
/// 1 for a row document (and for a bucket whose header does not parse).
uint64_t StoredPointCount(const bson::Document& doc);

/// The per-point bounds a point query implies, in the terms a bucket can
/// check: on its metadata (whole-bucket pruning) and on its predicate
/// columns (per-row selection). Built by query::ExtractBucketPredicates.
struct BucketPruneSpec {
  /// Closed time bounds on the points (from kTimeField comparisons).
  std::optional<int64_t> min_ts;
  std::optional<int64_t> max_ts;
  /// Spatial bound: the query rect, or a polygon's bounding box.
  std::optional<geo::Rect> rect;
  /// Sorted disjoint closed hilbertIndex ranges (from a RangeSet).
  std::vector<std::pair<int64_t, int64_t>> hil_ranges;

  /// True iff this spec IS the whole point expression — every leaf was a
  /// conjunct the extraction captured losslessly (time cmp, rect on point
  /// locations, one hilbert RangeSet). Polygons capture only their bounding
  /// box, $or captures nothing; both leave exact false.
  bool exact = false;

  /// True iff a bucket with this metadata may contain a matching point.
  bool MayContain(const BucketMeta& meta) const;

  /// True iff every point of a bucket with this metadata matches: the spec
  /// is exact and the metadata lies entirely inside its bounds (the
  /// whole-bucket analogue of an index range's covered interior).
  bool Covers(const BucketMeta& meta) const;
};

/// The rows of one bucket a BucketPruneSpec selects.
struct BucketSelection {
  /// Ascending row indices (insertion order).
  std::vector<uint32_t> rows;
  /// Rows checked on the predicate columns: 0 when the metadata alone
  /// pruned or covered the bucket.
  uint64_t scanned = 0;
  /// True iff the metadata pruned the whole bucket (rows is empty).
  bool pruned = false;
  /// True iff `rows` are exactly the points the spec's expression matches:
  /// always when `rows` is empty (the spec's bounds are implied by its
  /// expression), otherwise when the spec is exact and the bucket carries
  /// every column it bounds. Otherwise `rows` is a superset the caller
  /// must filter.
  bool exact = false;
};

/// The columns of a bucket blob, in their stored (predicate-first) order.
enum class BucketColumn : uint8_t {
  kTs = 0,
  kLon,
  kLat,
  kHil,
  kIds,
  kPos,
  kResidual,
};
inline constexpr size_t kNumBucketColumns = 7;

/// Column reader over one bucket document: the one decoder behind
/// DecodeBucket, the predicate kernel and every bucket scan. Reset parses
/// only the blob's fixed header; each column decodes on first use, in place
/// into buffers the reader keeps across Resets, so a scan holds one reader
/// and allocates only while those buffers grow. A caller that selects on
/// ts/lon/lat/hil never touches the `_id`, position or residual columns of
/// a bucket with no selected row. The bucket document must outlive its use.
class BucketReader {
 public:
  /// Points the reader at `bucket`: checks the blob's framing (header,
  /// column-length table, which columns the flags say are present) and the
  /// point count against the ts column's own count; decodes no column.
  /// Corruption for anything else, after which the reader holds no bucket
  /// and Select and Build fail until the next successful Reset.
  Status Reset(const bson::Document& bucket);
  /// Reset for the blob BucketBlob returned (nullptr: not a bucket), for a
  /// caller that has already looked it up.
  Status Reset(const std::string* blob);

  const BucketMeta& meta() const { return meta_; }

  /// The stored bytes of one column; empty when the bucket lacks it.
  std::string_view column(BucketColumn c) const {
    return columns_[static_cast<size_t>(c)];
  }
  /// True iff the residual column is the uniform-schema encoding (one
  /// column per field) rather than per-point BSON.
  bool uniform_residuals() const;

  /// The predicate kernel. Prunes on the metadata, selects every row of a
  /// bucket the spec covers, and otherwise checks one column at a time —
  /// the time bounds on ts, the rect on lon, then on lat, then the hil
  /// ranges (binary search) — each over the previous column's survivors,
  /// so a column decodes only while some row survives. A
  /// bound whose column the bucket lacks (non-canonical locations, no hil
  /// column) is skipped and the selection marked inexact. The columns are
  /// bit-exact with the built points, so an exact selection equals
  /// evaluating the spec's expression on every decoded point. `out`'s
  /// buffers are reused.
  Status Select(const BucketPruneSpec& spec, BucketSelection* out);

  /// Replaces *out with point documents, byte-identical to the encoded
  /// originals, for the given ascending rows (nullptr: every row), in row
  /// order. Every column is decoded and checked in full, and the header's
  /// time extent, MBR and hil ranges are checked against the columns, so a
  /// damaged bucket fails with Corruption whichever rows are asked for;
  /// only the asked-for rows become documents.
  Status Build(const std::vector<uint32_t>* rows,
               std::vector<bson::Document>* out);

  /// The ts/lon/lat columns, valid after Select or Build decoded them; lon
  /// and lat stay empty when the bucket has no location column.
  const std::vector<int64_t>& ts() const { return ts_; }
  const std::vector<double>& lon() const { return lon_; }
  const std::vector<double>& lat() const { return lat_; }

 private:
  /// One field of a uniform-schema residual column, decoded whole.
  struct ResidualField {
    std::string_view name;  ///< Into the blob.
    bson::Type type = bson::Type::kNull;
    /// kBool/kInt32/kInt64/kDateTime values; for kString, the end offset of
    /// each row's bytes in `strings`.
    std::vector<int64_t> ints;
    std::vector<double> doubles;  ///< kDouble.
    std::string strings;          ///< kString bytes, concatenated.

    bson::Value ValueAt(size_t i) const;
  };

  /// Decodes predicate column `c` (ts, lon, lat or hil) into *out, its
  /// buffer, at most once per bucket; an absent column leaves *out empty.
  template <typename T>
  Status LoadColumn(BucketColumn c, std::vector<T>* out);
  /// Checks the header's time extent, MBR and hil ranges against the
  /// decoded columns (all four LoadColumn calls must have run).
  Status VerifyHeader() const;
  /// Decodes the pos, ids and residual columns and checks every row's
  /// field positions.
  Status LoadRowColumns();
  Status DecodeResidualColumns(std::string_view in);

  BucketMeta meta_;
  uint8_t flags_ = 0;
  std::string_view columns_[kNumBucketColumns];
  std::vector<int64_t> ts_;
  std::vector<double> lon_, lat_;
  std::vector<int64_t> hil_;
  uint8_t loaded_ = 0;  ///< Bit BucketColumn: that column is decoded.

  /// Build's working buffers.
  std::vector<int64_t> pos_;
  std::string ids_;
  std::string residuals_;  ///< Per-point BSON, decompressed.
  std::vector<std::string_view> res_rows_;  ///< Each row's BSON.
  std::vector<ResidualField> res_fields_;  ///< Never shrinks (keeps buffers).
  size_t num_res_fields_ = 0;
};

}  // namespace stix::storage

#endif  // STIX_STORAGE_BUCKET_H_
