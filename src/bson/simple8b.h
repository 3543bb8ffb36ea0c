#ifndef STIX_BSON_SIMPLE8B_H_
#define STIX_BSON_SIMPLE8B_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace stix::bson {

/// Simple8b word packing (Anh & Moffat, as used by MongoDB's time-series
/// buckets and InfluxDB): each 64-bit little-endian word carries a 4-bit
/// selector plus a 60-bit payload of N equal-width values. Selectors 0 and 1
/// are run selectors (240 / 120 zeros in one word) — the common case for
/// delta-of-delta streams sampled at a near-constant rate.
///
/// The column codecs below layer the classic time-series transform on top:
/// zigzag(delta-of-delta) for int64 columns, with a decimal-scaled or
/// IEEE-754-bit-pattern reduction for double columns. Every column carries a
/// mode byte, so a stream whose deltas overflow the 60-bit ceiling falls
/// back to raw fixed-width storage instead of failing — encoding is total,
/// decoding is exact (bit-identical round trip, -0.0 and NaN included).

/// Largest value a Simple8b payload slot can carry (60 set bits).
constexpr uint64_t kSimple8bMaxValue = (uint64_t{1} << 60) - 1;

/// Order-preserving signed→unsigned folding: 0,-1,1,-2,2.. → 0,1,2,3,4..
uint64_t ZigZagEncode(int64_t v);
int64_t ZigZagDecode(uint64_t v);

/// LEB128 varint, used to frame counts and blob lengths inside columns.
void PutVarint(uint64_t v, std::string* out);
Result<uint64_t> GetVarint(std::string_view* in);

/// Appends varint(count) + packed words to *out. Returns false (and leaves
/// *out untouched) iff some value exceeds kSimple8bMaxValue.
bool Simple8bEncode(const std::vector<uint64_t>& values, std::string* out);

/// Consumes one Simple8bEncode stream from the front of *in.
Result<std::vector<uint64_t>> Simple8bDecode(std::string_view* in);

/// Int64 column: mode byte + varint(count) + payload. Mode is
/// delta-of-delta (zigzag + Simple8b) when every transformed value fits in
/// 60 bits, raw little-endian 8-byte values otherwise.
void EncodeInt64Column(const std::vector<int64_t>& values, std::string* out);

/// The value count an int64 column declares, read in O(1) without
/// consuming it. Corruption when the count is unreadable or more than the
/// column's remaining bytes can hold.
Result<uint64_t> Int64ColumnCount(std::string_view in);

/// Consumes one int64 column, which must hold exactly n values, from the
/// front of *in and writes them to out[0, n) in one fused pass (Simple8b
/// unpack, zigzag, delta-of-delta) with no intermediate buffer. A count
/// other than n and a truncated column are Corruption; nothing is ever
/// written past out[n), even on failure.
Status DecodeInt64ColumnInto(std::string_view* in, size_t n, int64_t* out);

/// DecodeInt64ColumnInto into a vector sized by the column's own count.
Result<std::vector<int64_t>> DecodeInt64Column(std::string_view* in);

/// Double column: tries a decimal scaling (value * 10^p as an integer,
/// verified to round-trip bit-exactly) before falling back to the raw
/// IEEE-754 bit pattern; either reduction is then stored as an int64
/// column. Lossless for every input including -0.0 and NaN.
void EncodeDoubleColumn(const std::vector<double>& values, std::string* out);

/// DecodeInt64ColumnInto for a double column: the reduction is undone in
/// the same pass.
Status DecodeDoubleColumnInto(std::string_view* in, size_t n, double* out);

/// DecodeDoubleColumnInto into a vector sized by the column's own count.
Result<std::vector<double>> DecodeDoubleColumn(std::string_view* in);

}  // namespace stix::bson

#endif  // STIX_BSON_SIMPLE8B_H_
