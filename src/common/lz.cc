#include "common/lz.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace stix {
namespace {

// Format: sequence of ops.
//   Literal: 0x00 tag byte, varint length, raw bytes.
//   Copy:    0x01 tag byte, varint offset (back-distance), varint length.
// Varint = LEB128.

void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint(const char** p, const char* end, uint64_t* v) {
  *v = 0;
  int shift = 0;
  while (*p < end && shift < 64) {
    const uint8_t b = static_cast<uint8_t>(**p);
    ++*p;
    *v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return true;
    shift += 7;
  }
  return false;
}

constexpr size_t kMinMatch = 4;
constexpr size_t kHashBits = 14;
constexpr size_t kHashSize = 1 << kHashBits;

uint32_t Hash4(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

void FlushLiteral(const char* lit_start, const char* lit_end,
                  std::string* out) {
  if (lit_start == lit_end) return;
  out->push_back(0x00);
  PutVarint(static_cast<uint64_t>(lit_end - lit_start), out);
  out->append(lit_start, lit_end - lit_start);
}

}  // namespace

std::string LzCompress(std::string_view input) {
  std::string out;
  out.reserve(input.size() / 2 + 16);
  PutVarint(input.size(), &out);
  if (input.size() < kMinMatch + 1) {
    FlushLiteral(input.data(), input.data() + input.size(), &out);
    return out;
  }

  std::vector<int64_t> table(kHashSize, -1);
  const char* base = input.data();
  const char* end = base + input.size();
  const char* p = base;
  const char* lit_start = base;
  const char* match_limit = end - kMinMatch;

  while (p <= match_limit) {
    const uint32_t h = Hash4(p);
    const int64_t cand = table[h];
    table[h] = p - base;
    if (cand >= 0 && std::memcmp(base + cand, p, kMinMatch) == 0) {
      // Extend the match forward.
      const char* cp = base + cand + kMinMatch;
      const char* mp = p + kMinMatch;
      while (mp < end && *cp == *mp) {
        ++cp;
        ++mp;
      }
      const size_t len = static_cast<size_t>(mp - p);
      FlushLiteral(lit_start, p, &out);
      out.push_back(0x01);
      PutVarint(static_cast<uint64_t>(p - (base + cand)), &out);
      PutVarint(len, &out);
      p += len;
      lit_start = p;
    } else {
      ++p;
    }
  }
  FlushLiteral(lit_start, end, &out);
  return out;
}

Result<std::string> LzDecompress(std::string_view compressed) {
  std::string out;
  if (Status s = LzDecompressInto(compressed, out.max_size(), &out); !s.ok()) {
    return s;
  }
  return out;
}

Status LzDecompressInto(std::string_view compressed, size_t max_size,
                        std::string* out) {
  const char* p = compressed.data();
  const char* end = p + compressed.size();
  uint64_t total;
  if (!GetVarint(&p, end, &total)) {
    return Status::Corruption("lz: bad header");
  }
  if (total > max_size) return Status::Corruption("lz: output too large");
  // Ops write into the pre-sized output; neither may run past `total`.
  out->resize(total);
  char* const dst = out->data();
  size_t pos = 0;
  while (p < end) {
    const uint8_t tag = static_cast<uint8_t>(*p++);
    if (tag == 0x00) {
      uint64_t len;
      if (!GetVarint(&p, end, &len) ||
          static_cast<uint64_t>(end - p) < len || total - pos < len) {
        return Status::Corruption("lz: bad literal");
      }
      std::memcpy(dst + pos, p, len);
      pos += len;
      p += len;
    } else if (tag == 0x01) {
      uint64_t offset, len;
      if (!GetVarint(&p, end, &offset) || !GetVarint(&p, end, &len) ||
          offset == 0 || offset > pos || total - pos < len) {
        return Status::Corruption("lz: bad copy");
      }
      // A copy longer than its offset overlaps its own output (RLE-style):
      // the output repeats with period `offset`. Each memcpy takes a whole
      // number of periods from src, at most as many bytes as lie between
      // src and the write point, so no memcpy overlaps; the distance
      // doubles each round.
      const char* src = dst + pos - offset;
      uint64_t copied = 0;
      while (copied < len) {
        const uint64_t n = std::min(len - copied, offset + copied);
        std::memcpy(dst + pos + copied, src, n);
        copied += n;
      }
      pos += len;
    } else {
      return Status::Corruption("lz: bad tag");
    }
  }
  if (pos != total) {
    return Status::Corruption("lz: length mismatch");
  }
  return Status::OK();
}

}  // namespace stix
