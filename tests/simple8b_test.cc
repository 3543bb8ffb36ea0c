#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bson/simple8b.h"
#include "common/rng.h"

namespace stix::bson {
namespace {

// ---------- zigzag / varint ----------

TEST(ZigZagTest, OrderPreservingFold) {
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagEncode(-2), 3u);
  EXPECT_EQ(ZigZagEncode(2), 4u);
  EXPECT_EQ(ZigZagDecode(ZigZagEncode(std::numeric_limits<int64_t>::min())),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(ZigZagDecode(ZigZagEncode(std::numeric_limits<int64_t>::max())),
            std::numeric_limits<int64_t>::max());
}

TEST(VarintTest, RoundTripEdges) {
  const uint64_t cases[] = {0,
                            1,
                            127,
                            128,
                            16383,
                            16384,
                            (uint64_t{1} << 60) - 1,
                            std::numeric_limits<uint64_t>::max()};
  for (const uint64_t v : cases) {
    std::string buf;
    PutVarint(v, &buf);
    std::string_view in = buf;
    const Result<uint64_t> back = GetVarint(&in);
    ASSERT_TRUE(back.ok()) << v;
    EXPECT_EQ(*back, v);
    EXPECT_TRUE(in.empty());
  }
}

TEST(VarintTest, TruncatedInputFails) {
  std::string buf;
  PutVarint(std::numeric_limits<uint64_t>::max(), &buf);
  for (size_t cut = 0; cut + 1 < buf.size(); ++cut) {
    std::string_view in = std::string_view(buf).substr(0, cut);
    EXPECT_FALSE(GetVarint(&in).ok()) << "cut at " << cut;
  }
}

// ---------- Simple8b word packing ----------

void ExpectSimple8bRoundTrip(const std::vector<uint64_t>& values) {
  std::string buf;
  ASSERT_TRUE(Simple8bEncode(values, &buf));
  std::string_view in = buf;
  const Result<std::vector<uint64_t>> back = Simple8bDecode(&in);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, values);
  EXPECT_TRUE(in.empty());
}

TEST(Simple8bTest, EmptyAndSingle) {
  ExpectSimple8bRoundTrip({});
  ExpectSimple8bRoundTrip({0});
  ExpectSimple8bRoundTrip({kSimple8bMaxValue});
}

TEST(Simple8bTest, ZeroRunsUseRunSelectors) {
  // 1000 zeros should land in a handful of run words (240 zeros each), far
  // below one word per value.
  const std::vector<uint64_t> zeros(1000, 0);
  std::string buf;
  ASSERT_TRUE(Simple8bEncode(zeros, &buf));
  EXPECT_LT(buf.size(), 8u * 10 + 10);
  std::string_view in = buf;
  const Result<std::vector<uint64_t>> back = Simple8bDecode(&in);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, zeros);
}

TEST(Simple8bTest, ValueAboveCeilingIsRejectedAtomically) {
  std::string buf = "prefix";
  EXPECT_FALSE(Simple8bEncode({1, kSimple8bMaxValue + 1, 2}, &buf));
  EXPECT_EQ(buf, "prefix");  // untouched on failure
}

TEST(Simple8bTest, AdversarialWidthMixes) {
  // Alternating tiny/huge values defeat any single-width packing; runs of
  // equal widths exercise every selector.
  Rng rng(0x5117);
  std::vector<uint64_t> mixed;
  for (int i = 0; i < 500; ++i) {
    mixed.push_back(i % 2 == 0 ? rng.NextBounded(2)
                               : kSimple8bMaxValue - rng.NextBounded(100));
  }
  ExpectSimple8bRoundTrip(mixed);

  for (int width = 1; width <= 60; ++width) {
    std::vector<uint64_t> run;
    const uint64_t max =
        width == 60 ? kSimple8bMaxValue : (uint64_t{1} << width) - 1;
    for (int i = 0; i < 100; ++i) {
      const uint64_t dip = std::min<uint64_t>(i % 3, max);
      run.push_back(max - dip);
    }
    ExpectSimple8bRoundTrip(run);
  }
}

TEST(Simple8bTest, RandomizedRoundTrip) {
  Rng rng(20260807);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = rng.NextBounded(400);
    // Bias the width distribution: mostly narrow, occasionally maximal.
    std::vector<uint64_t> values;
    values.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const int width = static_cast<int>(rng.NextBounded(61));
      const uint64_t max =
          width >= 60 ? kSimple8bMaxValue : (uint64_t{1} << width) - 1;
      values.push_back(max == 0 ? 0 : rng.NextBounded(max + 1));
    }
    ExpectSimple8bRoundTrip(values);
  }
}

TEST(Simple8bTest, DecodeRejectsTruncation) {
  std::string buf;
  ASSERT_TRUE(Simple8bEncode({1, 2, 3, 4, 5, 6, 7, 8}, &buf));
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    std::string_view in = std::string_view(buf).substr(0, cut);
    EXPECT_FALSE(Simple8bDecode(&in).ok()) << "cut at " << cut;
  }
}

// ---------- int64 column (zigzag delta-of-delta) ----------

void ExpectInt64RoundTrip(const std::vector<int64_t>& values) {
  std::string buf;
  EncodeInt64Column(values, &buf);
  std::string_view in = buf;
  const Result<std::vector<int64_t>> back = DecodeInt64Column(&in);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, values);
  EXPECT_TRUE(in.empty());
}

TEST(Int64ColumnTest, TimestampLikeStreams) {
  // Constant-rate sampling with jitter: delta-of-delta is near zero — the
  // format's home turf.
  std::vector<int64_t> ts;
  Rng rng(7);
  int64_t t = 1530403200000;
  for (int i = 0; i < 1000; ++i) {
    ts.push_back(t);
    t += 60000 + static_cast<int64_t>(rng.NextBounded(200)) - 100;
  }
  std::string buf;
  EncodeInt64Column(ts, &buf);
  // ~1 byte per element, against 8 raw.
  EXPECT_LT(buf.size(), ts.size() * 3);
  ExpectInt64RoundTrip(ts);
}

TEST(Int64ColumnTest, AdversarialDistributions) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  ExpectInt64RoundTrip({});
  ExpectInt64RoundTrip({kMin});
  ExpectInt64RoundTrip({kMax, kMin});
  // Extreme alternation: every delta and delta-of-delta overflows, forcing
  // the raw mode.
  std::vector<int64_t> extreme;
  for (int i = 0; i < 100; ++i) extreme.push_back(i % 2 == 0 ? kMin : kMax);
  ExpectInt64RoundTrip(extreme);
  // Monotone ramp whose increments grow geometrically (deltas overflow
  // mid-stream).
  std::vector<int64_t> ramp;
  int64_t v = 0;
  for (int i = 0; i < 62; ++i) {
    ramp.push_back(v);
    v += int64_t{1} << i;
  }
  ExpectInt64RoundTrip(ramp);
}

TEST(Int64ColumnTest, RandomizedRoundTrip) {
  Rng rng(0xbadc0de);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<int64_t> values;
    const size_t n = rng.NextBounded(300);
    for (size_t i = 0; i < n; ++i) {
      switch (rng.NextBounded(4)) {
        case 0:  // full-range
          values.push_back(static_cast<int64_t>(rng.Next()));
          break;
        case 1:  // small
          values.push_back(rng.NextInt(-1000, 1000));
          break;
        case 2:  // near extremes
          values.push_back(std::numeric_limits<int64_t>::max() -
                           rng.NextInt(0, 3));
          break;
        default:  // arithmetic-ish
          values.push_back(static_cast<int64_t>(i) * 1000003);
      }
    }
    ExpectInt64RoundTrip(values);
  }
}

// ---------- double column (decimal scaling / bit-pattern fallback) ----------

void ExpectDoubleRoundTrip(const std::vector<double>& values) {
  std::string buf;
  EncodeDoubleColumn(values, &buf);
  std::string_view in = buf;
  const Result<std::vector<double>> back = DecodeDoubleColumn(&in);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    // Bit-exact, not ==: distinguishes -0.0 from 0.0 and NaN payloads.
    uint64_t a, b;
    std::memcpy(&a, &values[i], 8);
    std::memcpy(&b, &(*back)[i], 8);
    EXPECT_EQ(a, b) << "index " << i << " value " << values[i];
  }
  EXPECT_TRUE(in.empty());
}

TEST(DoubleColumnTest, SpecialValues) {
  ExpectDoubleRoundTrip({});
  ExpectDoubleRoundTrip({0.0, -0.0});
  ExpectDoubleRoundTrip({std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::lowest()});
}

TEST(DoubleColumnTest, DecimalStreamsCompress) {
  // Two-decimal telemetry (fuel levels): the decimal-scaling mode should
  // beat 8 bytes per value.
  std::vector<double> fuel;
  Rng rng(99);
  double level = 75.0;
  for (int i = 0; i < 1000; ++i) {
    level -= 0.01 * static_cast<double>(rng.NextBounded(5));
    if (level < 5.0) level = 100.0;
    fuel.push_back(std::round(level * 100.0) / 100.0);
  }
  std::string buf;
  EncodeDoubleColumn(fuel, &buf);
  EXPECT_LT(buf.size(), fuel.size() * 4);
  ExpectDoubleRoundTrip(fuel);
}

TEST(DoubleColumnTest, RandomizedRoundTrip) {
  Rng rng(0xd0b1e);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> values;
    const size_t n = rng.NextBounded(300);
    for (size_t i = 0; i < n; ++i) {
      switch (rng.NextBounded(4)) {
        case 0: {  // arbitrary bit patterns (incl. NaNs, denormals)
          const uint64_t bits = rng.Next();
          double d;
          std::memcpy(&d, &bits, 8);
          values.push_back(d);
          break;
        }
        case 1:  // coordinates
          values.push_back(rng.NextDouble(19.0, 29.0));
          break;
        case 2:  // small decimals
          values.push_back(static_cast<double>(rng.NextInt(-10000, 10000)) /
                           100.0);
          break;
        default:  // integers
          values.push_back(static_cast<double>(rng.NextInt(-1000000, 1000000)));
      }
    }
    ExpectDoubleRoundTrip(values);
  }
}

// ---------- in-place column decoders ----------

constexpr int64_t kGuard = 0x5a5a5a5a5a5a5a5a;

// Decodes `buf` as an int64 column of n values into a buffer with guard
// slots past out[n), checks the guards survived and returns the values.
Result<std::vector<int64_t>> DecodeIntoGuarded(const std::string& buf,
                                               size_t n) {
  std::vector<int64_t> out(n + 4, kGuard);
  std::string_view in = buf;
  const Status s = DecodeInt64ColumnInto(&in, n, out.data());
  for (size_t i = n; i < out.size(); ++i) {
    EXPECT_EQ(out[i], kGuard) << "wrote past out[" << n << ")";
  }
  if (!s.ok()) return s;
  EXPECT_TRUE(in.empty());
  out.resize(n);
  return out;
}

// Values whose delta-of-delta stream ends in a zero run of `tail` values
// (constant cadence), after a noisy head: the run selectors land at the
// stream's tail.
std::vector<int64_t> CadenceWithTail(Rng& rng, size_t n, size_t tail) {
  std::vector<int64_t> v;
  int64_t t = 1530403200000;
  for (size_t i = 0; i < n; ++i) {
    v.push_back(t);
    t += i + tail < n ? 1000 + static_cast<int64_t>(rng.NextBounded(50)) : 0;
  }
  return v;
}

TEST(Int64ColumnTest, DecodeIntoRoundTripsEveryLength) {
  Rng rng(0x1a7e);
  for (size_t n = 1; n <= 300; ++n) {
    // Three shapes per length: noisy (short tails inside bit-packed
    // words), a cadence whose zero run reaches the tail (run selectors),
    // and full-range values (raw mode).
    std::vector<std::vector<int64_t>> shapes;
    shapes.push_back(CadenceWithTail(rng, n, 0));
    shapes.push_back(CadenceWithTail(rng, n, rng.NextBounded(n + 1)));
    std::vector<int64_t> wild;
    for (size_t i = 0; i < n; ++i) {
      wild.push_back(static_cast<int64_t>(rng.Next()));
    }
    shapes.push_back(std::move(wild));
    for (const std::vector<int64_t>& values : shapes) {
      std::string buf;
      EncodeInt64Column(values, &buf);
      const Result<std::vector<int64_t>> back = DecodeIntoGuarded(buf, n);
      ASSERT_TRUE(back.ok()) << "n " << n << ": " << back.status().ToString();
      ASSERT_EQ(*back, values) << "n " << n;
    }
  }
}

TEST(Int64ColumnTest, DecodeIntoRawMode) {
  std::vector<int64_t> extreme;
  for (int i = 0; i < 37; ++i) {
    extreme.push_back(i % 2 == 0 ? std::numeric_limits<int64_t>::min()
                                 : std::numeric_limits<int64_t>::max());
  }
  std::string buf;
  EncodeInt64Column(extreme, &buf);
  ASSERT_EQ(buf[0], 1);  // the raw mode byte
  const Result<std::vector<int64_t>> back = DecodeIntoGuarded(buf, 37);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, extreme);
}

TEST(Int64ColumnTest, DecodeIntoRejectsCountMismatchAndTruncation) {
  Rng rng(0xc0de);
  std::string packed, raw;
  EncodeInt64Column(CadenceWithTail(rng, 200, 150), &packed);
  std::vector<int64_t> wild;
  for (int i = 0; i < 20; ++i) wild.push_back(static_cast<int64_t>(rng.Next()));
  EncodeInt64Column(wild, &raw);
  for (const auto& [buf, n] : {std::pair{packed, size_t{200}},
                               std::pair{raw, size_t{20}}}) {
    for (const size_t wrong : {size_t{0}, n - 1, n + 1}) {
      const Result<std::vector<int64_t>> r = DecodeIntoGuarded(buf, wrong);
      ASSERT_FALSE(r.ok()) << "n " << n << " asked " << wrong;
      EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
    }
    for (size_t cut = 0; cut < buf.size(); ++cut) {
      const Result<std::vector<int64_t>> r =
          DecodeIntoGuarded(buf.substr(0, cut), n);
      ASSERT_FALSE(r.ok()) << "n " << n << " cut " << cut;
      EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
    }
    // The count peek agrees with the column and consumes nothing.
    const Result<uint64_t> count = Int64ColumnCount(buf);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, n);
  }
  // A count the bytes cannot hold fails the peek before any sizing.
  std::string huge;
  huge.push_back(0);  // delta-of-delta mode
  PutVarint(uint64_t{1} << 40, &huge);
  huge.append(8, '\0');
  EXPECT_FALSE(Int64ColumnCount(huge).ok());
  std::string_view huge_in = huge;
  EXPECT_FALSE(DecodeInt64Column(&huge_in).ok());
}

TEST(DoubleColumnTest, DecodeIntoRoundTripsAndGuards) {
  Rng rng(0xf10a7);
  for (size_t n = 1; n <= 300; ++n) {
    std::vector<double> values;
    const bool scaled = n % 2 == 0;
    for (size_t i = 0; i < n; ++i) {
      if (scaled) {
        values.push_back(
            static_cast<double>(237000 + rng.NextBounded(100)) / 1e4);
      } else {
        const uint64_t bits = rng.Next();
        double d;
        std::memcpy(&d, &bits, 8);
        values.push_back(d);
      }
    }
    std::string buf;
    EncodeDoubleColumn(values, &buf);
    EXPECT_EQ(buf[0], scaled ? 0 : 1) << "n " << n;
    std::vector<double> out(n + 4, 0.5);
    std::string_view in = buf;
    ASSERT_TRUE(DecodeDoubleColumnInto(&in, n, out.data()).ok()) << "n " << n;
    EXPECT_TRUE(in.empty());
    EXPECT_EQ(std::memcmp(out.data(), values.data(), n * sizeof(double)), 0)
        << "n " << n;
    for (size_t i = n; i < out.size(); ++i) EXPECT_EQ(out[i], 0.5);
    // A wrong count and every truncation fail without writing past n.
    in = buf;
    EXPECT_EQ(DecodeDoubleColumnInto(&in, n + 1, out.data()).code(),
              StatusCode::kCorruption);
    for (const size_t cut : {size_t{0}, size_t{1}, buf.size() / 2,
                             buf.size() - 1}) {
      in = std::string_view(buf).substr(0, cut);
      EXPECT_EQ(DecodeDoubleColumnInto(&in, n, out.data()).code(),
                StatusCode::kCorruption)
          << "n " << n << " cut " << cut;
      for (size_t i = n; i < out.size(); ++i) EXPECT_EQ(out[i], 0.5);
    }
  }
}

// ---------- golden vectors ----------
//
// These pin the wire format itself: a byte change here is a storage format
// break (sealed buckets written by an older build would no longer decode),
// so it must be a deliberate, versioned decision — not a refactoring
// side-effect.

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xf];
  }
  return out;
}

TEST(GoldenTest, Simple8bFixedVector) {
  std::string buf;
  ASSERT_TRUE(Simple8bEncode({1, 2, 3, 4, 5, 6, 7, 240}, &buf));
  EXPECT_EQ(Hex(buf), "080102030405060790f000000000000090");
}

TEST(GoldenTest, Int64ColumnFixedVector) {
  // 100ms cadence with one wobble: mode byte, count, then dod words.
  std::string buf;
  EncodeInt64Column({1000, 1100, 1200, 1301, 1400}, &buf);
  EXPECT_EQ(Hex(buf), "0005d0777000200003b0");
  const Result<std::vector<int64_t>> back = DecodeIntoGuarded(buf, 5);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, (std::vector<int64_t>{1000, 1100, 1200, 1301, 1400}));
}

TEST(GoldenTest, DoubleColumnFixedVector) {
  std::string buf;
  EncodeDoubleColumn({37.98, 37.99, 38.0, 38.01}, &buf);
  EXPECT_EQ(Hex(buf), "00020004ac9dd40e000000c0");
  double out[5] = {0, 0, 0, 0, -1};
  std::string_view in = buf;
  ASSERT_TRUE(DecodeDoubleColumnInto(&in, 4, out).ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(out[0], 37.98);
  EXPECT_EQ(out[1], 37.99);
  EXPECT_EQ(out[2], 38.0);
  EXPECT_EQ(out[3], 38.01);
  EXPECT_EQ(out[4], -1);  // untouched past out[n)
}

}  // namespace
}  // namespace stix::bson
