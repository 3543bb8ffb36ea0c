#include "bson/simple8b.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace stix::bson {
namespace {

// Packed-value width per selector; selectors 0/1 are the 240/120-zero run
// selectors and carry no payload bits.
constexpr int kBitsPerSelector[16] = {0, 0,  1,  2,  3,  4,  5,  6,
                                      7, 8, 10, 12, 15, 20, 30, 60};
constexpr int kCountPerSelector[16] = {240, 120, 60, 30, 20, 15, 12, 10,
                                       8,   7,   6,  5,  4,  3,  2,  1};

void PutWord(uint64_t word, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((word >> (8 * i)) & 0xff));
  }
}

bool GetWord(std::string_view* in, uint64_t* word) {
  if (in->size() < 8) return false;
  uint64_t w = 0;
  for (int i = 0; i < 8; ++i) {
    w |= static_cast<uint64_t>(static_cast<uint8_t>((*in)[i])) << (8 * i);
  }
  in->remove_prefix(8);
  *word = w;
  return true;
}

}  // namespace

uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

Result<uint64_t> GetVarint(std::string_view* in) {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (in->empty()) return Status::Corruption("truncated varint");
    const uint8_t byte = static_cast<uint8_t>(in->front());
    in->remove_prefix(1);
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  return Status::Corruption("varint too long");
}

bool Simple8bEncode(const std::vector<uint64_t>& values, std::string* out) {
  for (const uint64_t v : values) {
    if (v > kSimple8bMaxValue) return false;
  }
  std::string encoded;
  PutVarint(values.size(), &encoded);
  size_t i = 0;
  const size_t n = values.size();
  while (i < n) {
    // Zero runs first: one word for 240 (or 120) consecutive zeros.
    size_t run = 0;
    while (i + run < n && run < 240 && values[i + run] == 0) ++run;
    if (run >= 240) {
      PutWord(0, &encoded);  // selector 0
      i += 240;
      continue;
    }
    if (run >= 120) {
      PutWord(uint64_t{1} << 60, &encoded);  // selector 1
      i += 120;
      continue;
    }
    // Densest bit-packed selector whose next N values all fit. The widest
    // selector (1 x 60 bits) always fits, so the loop cannot fall through.
    for (int sel = 2; sel < 16; ++sel) {
      const int bits = kBitsPerSelector[sel];
      const size_t slots = static_cast<size_t>(kCountPerSelector[sel]);
      const size_t take = std::min(slots, n - i);
      bool fits = true;
      for (size_t j = 0; j < take; ++j) {
        if (bits < 64 && (values[i + j] >> bits) != 0) {
          fits = false;
          break;
        }
      }
      if (!fits) continue;
      // A short tail pads the word with zero slots; the decoder stops at
      // the stream's value count, so padding is unambiguous.
      uint64_t word = static_cast<uint64_t>(sel) << 60;
      for (size_t j = 0; j < take; ++j) {
        word |= values[i + j] << (bits * static_cast<int>(j));
      }
      PutWord(word, &encoded);
      i += take;
      break;
    }
  }
  out->append(encoded);
  return true;
}

namespace {

/// The one Simple8b decode loop: consumes a stream of exactly `n` values
/// (the caller has read and checked the count) from the front of *in and
/// hands each value to emit(i, value) in order. Run and tail padding past
/// n is skipped, so emit never sees an index >= n.
template <typename Emit>
Status UnpackSimple8b(std::string_view* in, size_t n, Emit&& emit) {
  size_t i = 0;
  while (i < n) {
    uint64_t word = 0;
    if (!GetWord(in, &word)) {
      return Status::Corruption("truncated simple8b stream");
    }
    const int sel = static_cast<int>(word >> 60);
    const size_t take =
        std::min(static_cast<size_t>(kCountPerSelector[sel]), n - i);
    if (sel <= 1) {
      for (size_t j = 0; j < take; ++j) emit(i++, uint64_t{0});
      continue;
    }
    const int bits = kBitsPerSelector[sel];
    const uint64_t mask = (uint64_t{1} << bits) - 1;
    for (size_t j = 0; j < take; ++j) {
      emit(i++, (word >> (bits * static_cast<int>(j))) & mask);
    }
  }
  return Status::OK();
}

/// Reads a stream's count varint and checks it against what the remaining
/// bytes can hold (at most 240 values per 8-byte word), so a corrupt count
/// fails before anyone sizes a buffer by it.
Result<uint64_t> GetStreamCount(std::string_view* in) {
  Result<uint64_t> n = GetVarint(in);
  if (!n.ok()) return n.status();
  if (*n / 240 > in->size() / 8) {
    return Status::Corruption("truncated simple8b stream");
  }
  return n;
}

}  // namespace

Result<std::vector<uint64_t>> Simple8bDecode(std::string_view* in) {
  Result<uint64_t> n = GetStreamCount(in);
  if (!n.ok()) return n.status();
  std::vector<uint64_t> values(static_cast<size_t>(*n));
  Status s = UnpackSimple8b(in, values.size(),
                            [&values](size_t i, uint64_t v) { values[i] = v; });
  if (!s.ok()) return s;
  return values;
}

namespace {

constexpr uint8_t kInt64ModeDeltaOfDelta = 0;
constexpr uint8_t kInt64ModeRaw = 1;

constexpr uint8_t kDoubleModeScaled = 0;
constexpr uint8_t kDoubleModeBits = 1;
/// Largest decimal power the scaled double mode uses.
constexpr uint8_t kMaxDecimalPow = 8;

// zigzag(delta-of-delta) transform. Differences are taken in unsigned
// arithmetic (well-defined wraparound); a wrapped difference zigzags to a
// huge value, which the 60-bit ceiling then routes to the raw fallback —
// correctness never depends on the deltas being small, only compression.
std::vector<uint64_t> DeltaOfDeltaTransform(const std::vector<int64_t>& v) {
  std::vector<uint64_t> out;
  out.reserve(v.size());
  uint64_t prev = 0;
  uint64_t prev_delta = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    const uint64_t cur = static_cast<uint64_t>(v[i]);
    const uint64_t delta = cur - prev;
    out.push_back(ZigZagEncode(static_cast<int64_t>(delta - prev_delta)));
    prev = cur;
    prev_delta = delta;
  }
  return out;
}

}  // namespace

void EncodeInt64Column(const std::vector<int64_t>& values, std::string* out) {
  std::string packed;
  if (Simple8bEncode(DeltaOfDeltaTransform(values), &packed)) {
    out->push_back(static_cast<char>(kInt64ModeDeltaOfDelta));
    out->append(packed);
    return;
  }
  out->push_back(static_cast<char>(kInt64ModeRaw));
  PutVarint(values.size(), out);
  for (const int64_t v : values) {
    const uint64_t u = static_cast<uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      out->push_back(static_cast<char>((u >> (8 * i)) & 0xff));
    }
  }
}

namespace {

/// The fused int64 column decode: mode byte, count (which must equal n),
/// then one pass of Simple8b unpack + zigzag + delta-of-delta (or the raw
/// fallback's fixed-width loads), each value handed to emit(i, v).
template <typename Emit>
Status DecodeInt64Stream(std::string_view* in, size_t n, Emit&& emit) {
  if (in->empty()) return Status::Corruption("empty int64 column");
  const uint8_t mode = static_cast<uint8_t>(in->front());
  in->remove_prefix(1);
  if (mode != kInt64ModeDeltaOfDelta && mode != kInt64ModeRaw) {
    return Status::Corruption("unknown int64 column mode " +
                              std::to_string(mode));
  }
  Result<uint64_t> count = GetVarint(in);
  if (!count.ok()) return count.status();
  if (*count != n) {
    return Status::Corruption("int64 column holds " + std::to_string(*count) +
                              " values, expected " + std::to_string(n));
  }
  if (mode == kInt64ModeRaw) {
    if (in->size() / 8 < n) {
      return Status::Corruption("truncated raw int64 column");
    }
    const auto* p = reinterpret_cast<const uint8_t*>(in->data());
    for (size_t i = 0; i < n; ++i, p += 8) {
      uint64_t u = 0;
      for (int b = 0; b < 8; ++b) u |= static_cast<uint64_t>(p[b]) << (8 * b);
      emit(i, static_cast<int64_t>(u));
    }
    in->remove_prefix(n * 8);
    return Status::OK();
  }
  uint64_t prev = 0;
  uint64_t prev_delta = 0;
  return UnpackSimple8b(in, n, [&](size_t i, uint64_t z) {
    prev_delta += static_cast<uint64_t>(ZigZagDecode(z));
    prev += prev_delta;
    emit(i, static_cast<int64_t>(prev));
  });
}

/// The count a column of either kind declares, read without consuming it.
/// `skip` is the bytes in front of the int64 column's mode byte.
Result<uint64_t> PeekCount(std::string_view in, size_t skip) {
  if (in.size() < skip + 1) return Status::Corruption("truncated column");
  in.remove_prefix(skip);
  const uint8_t mode = static_cast<uint8_t>(in.front());
  in.remove_prefix(1);
  if (mode == kInt64ModeRaw) {
    Result<uint64_t> n = GetVarint(&in);
    if (n.ok() && in.size() / 8 < *n) {
      return Status::Corruption("truncated raw int64 column");
    }
    return n;
  }
  return GetStreamCount(&in);
}

}  // namespace

Result<uint64_t> Int64ColumnCount(std::string_view in) {
  return PeekCount(in, 0);
}

Status DecodeInt64ColumnInto(std::string_view* in, size_t n, int64_t* out) {
  return DecodeInt64Stream(in, n, [out](size_t i, int64_t v) { out[i] = v; });
}

Result<std::vector<int64_t>> DecodeInt64Column(std::string_view* in) {
  Result<uint64_t> n = Int64ColumnCount(*in);
  if (!n.ok()) return n.status();
  std::vector<int64_t> values(static_cast<size_t>(*n));
  Status s = DecodeInt64ColumnInto(in, values.size(), values.data());
  if (!s.ok()) return s;
  return values;
}

namespace {

// Tries value*10^p as an integer for the smallest p that round-trips every
// value bit-exactly — coordinates and telemetry printed with fixed decimals
// land here, and their scaled deltas are tiny.
bool TryDecimalScale(const std::vector<double>& values, uint8_t* pow_out,
                     std::vector<int64_t>* scaled_out) {
  double scale = 1.0;
  for (uint8_t p = 0; p <= kMaxDecimalPow; ++p, scale *= 10.0) {
    bool ok = true;
    scaled_out->clear();
    scaled_out->reserve(values.size());
    for (const double d : values) {
      if (!std::isfinite(d) || std::abs(d) * scale >= 9.0e15) {
        ok = false;
        break;
      }
      const int64_t v = std::llround(d * scale);
      const double back = static_cast<double>(v) / scale;
      if (std::memcmp(&back, &d, sizeof(double)) != 0) {
        ok = false;
        break;
      }
      scaled_out->push_back(v);
    }
    if (ok) {
      *pow_out = p;
      return true;
    }
    // A non-finite value can never scale; stop probing larger powers.
    for (const double d : values) {
      if (!std::isfinite(d)) return false;
    }
  }
  return false;
}

}  // namespace

void EncodeDoubleColumn(const std::vector<double>& values, std::string* out) {
  uint8_t pow = 0;
  std::vector<int64_t> reduced;
  if (TryDecimalScale(values, &pow, &reduced)) {
    out->push_back(static_cast<char>(kDoubleModeScaled));
    out->push_back(static_cast<char>(pow));
    EncodeInt64Column(reduced, out);
    return;
  }
  reduced.clear();
  reduced.reserve(values.size());
  for (const double d : values) {
    int64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(double));
    reduced.push_back(bits);
  }
  out->push_back(static_cast<char>(kDoubleModeBits));
  EncodeInt64Column(reduced, out);
}

Status DecodeDoubleColumnInto(std::string_view* in, size_t n, double* out) {
  if (in->empty()) return Status::Corruption("empty double column");
  const uint8_t mode = static_cast<uint8_t>(in->front());
  in->remove_prefix(1);
  if (mode == kDoubleModeScaled) {
    if (in->empty()) return Status::Corruption("truncated double column");
    const uint8_t pow = static_cast<uint8_t>(in->front());
    in->remove_prefix(1);
    if (pow > kMaxDecimalPow) {
      return Status::Corruption("double column scale out of range");
    }
    double scale = 1.0;
    for (uint8_t p = 0; p < pow; ++p) scale *= 10.0;
    return DecodeInt64Stream(in, n, [out, scale](size_t i, int64_t v) {
      out[i] = static_cast<double>(v) / scale;
    });
  }
  if (mode == kDoubleModeBits) {
    return DecodeInt64Stream(in, n, [out](size_t i, int64_t v) {
      std::memcpy(&out[i], &v, sizeof(double));
    });
  }
  return Status::Corruption("unknown double column mode " +
                            std::to_string(mode));
}

Result<std::vector<double>> DecodeDoubleColumn(std::string_view* in) {
  if (in->empty()) return Status::Corruption("empty double column");
  // Scaled columns carry a power byte between the mode and the ints.
  Result<uint64_t> n = PeekCount(
      *in, static_cast<uint8_t>(in->front()) == kDoubleModeScaled ? 2 : 1);
  if (!n.ok()) return n.status();
  std::vector<double> values(static_cast<size_t>(*n));
  Status s = DecodeDoubleColumnInto(in, values.size(), values.data());
  if (!s.ok()) return s;
  return values;
}

}  // namespace stix::bson
