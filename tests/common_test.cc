#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/lz.h"
#include "common/percentile.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"

namespace stix {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::NotFound("thing is gone");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: thing is gone");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  ASSERT_TRUE(r.ok());
  const std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 4);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedCoversAllResidues) {
  Rng rng(6);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, DoubleRangeRespectsBounds) {
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble(-3.5, 7.25);
    EXPECT_GE(d, -3.5);
    EXPECT_LT(d, 7.25);
  }
}

TEST(RngTest, IntRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianRoughMoments) {
  Rng rng(12);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, ForkIndependentButDeterministic) {
  Rng a(77);
  Rng fork1 = a.Fork();
  Rng b(77);
  Rng fork2 = b.Fork();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fork1.Next(), fork2.Next());
}

// ---------- strings ----------

TEST(StringsTest, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.5, -2.25, 23.727539, 37.983810, 1e-9, 12345678.9}) {
    EXPECT_EQ(strtod(FormatDouble(v).c_str(), nullptr), v);
  }
}

TEST(StringsTest, WithThousands) {
  EXPECT_EQ(WithThousands(0), "0");
  EXPECT_EQ(WithThousands(999), "999");
  EXPECT_EQ(WithThousands(1000), "1,000");
  EXPECT_EQ(WithThousands(1234567), "1,234,567");
  EXPECT_EQ(WithThousands(-1234567), "-1,234,567");
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
  EXPECT_EQ(HumanBytes(5ull * 1024 * 1024), "5.00 MB");
}

TEST(StringsTest, SplitKeepsEmptyTokens) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("hilbertIndex", "hilbert"));
  EXPECT_FALSE(StartsWith("hil", "hilbert"));
}

TEST(StringsTest, IsoDateRoundTrip) {
  const int64_t millis = 1538383980067;  // 2018-10-01T08:53:00.067Z
  const std::string text = FormatIsoDate(millis);
  int64_t parsed = 0;
  ASSERT_TRUE(ParseIsoDate(text, &parsed));
  EXPECT_EQ(parsed, millis);
}

TEST(StringsTest, IsoDateKnownValue) {
  int64_t parsed = 0;
  ASSERT_TRUE(ParseIsoDate("2018-07-01T00:00:00.000Z", &parsed));
  EXPECT_EQ(parsed, 1530403200000);
}

TEST(StringsTest, IsoDateRejectsGarbage) {
  int64_t parsed = 0;
  EXPECT_FALSE(ParseIsoDate("not a date", &parsed));
  EXPECT_FALSE(ParseIsoDate("2018-07", &parsed));
}

// ---------- LZ codec ----------

TEST(LzTest, EmptyInput) {
  const std::string c = LzCompress("");
  const Result<std::string> d = LzDecompress(c);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, "");
}

TEST(LzTest, ShortLiteral) {
  const Result<std::string> d = LzDecompress(LzCompress("ab"));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, "ab");
}

TEST(LzTest, RepetitiveInputCompresses) {
  std::string input;
  for (int i = 0; i < 500; ++i) input += "sensor=ok;rpm=1200;";
  const std::string c = LzCompress(input);
  EXPECT_LT(c.size(), input.size() / 4);
  const Result<std::string> d = LzDecompress(c);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, input);
}

TEST(LzTest, OverlappingCopyRoundTrips) {
  const std::string input(1000, 'x');  // max overlap (RLE-like)
  const Result<std::string> d = LzDecompress(LzCompress(input));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, input);
}

// LEB128, the stream format's varint, for hand-built streams.
void PutTestVarint(uint64_t v, std::string* out) {
  for (; v >= 0x80; v >>= 7) out->push_back(static_cast<char>(v | 0x80));
  out->push_back(static_cast<char>(v));
}

// One literal of `offset` bytes, then one copy of `len` bytes reaching
// `offset` back: a copy longer than its offset overlaps its own output.
TEST(LzTest, OverlappingCopyAtEveryOffsetRoundTrips) {
  Rng rng(37);
  for (uint64_t offset = 1; offset <= 300; ++offset) {
    std::string period;
    for (uint64_t i = 0; i < offset; ++i) {
      period.push_back(static_cast<char>(rng.NextBounded(256)));
    }
    std::string want = period;
    for (uint64_t len = 1; len <= 4 * offset + 7; ++len) {
      want.push_back(period[(len - 1) % offset]);
      std::string stream;
      PutTestVarint(want.size(), &stream);
      stream.push_back(0x00);
      PutTestVarint(offset, &stream);
      stream += period;
      stream.push_back(0x01);
      PutTestVarint(offset, &stream);
      PutTestVarint(len, &stream);
      const Result<std::string> d = LzDecompress(stream);
      ASSERT_TRUE(d.ok()) << "offset " << offset << " len " << len;
      ASSERT_EQ(*d, want) << "offset " << offset << " len " << len;
    }
    // The compressor's own periodic matches decode the same way.
    const Result<std::string> round = LzDecompress(LzCompress(want));
    ASSERT_TRUE(round.ok()) << "offset " << offset;
    ASSERT_EQ(*round, want) << "offset " << offset;
  }
}

TEST(LzTest, RejectsCopyReachingBeforeTheOutput) {
  for (const uint64_t offset : {uint64_t{4}, uint64_t{5}, uint64_t{1000}}) {
    std::string stream;
    PutTestVarint(5, &stream);
    stream.push_back(0x00);  // 3 literal bytes: a copy may reach back 3
    PutTestVarint(3, &stream);
    stream += "abc";
    stream.push_back(0x01);
    PutTestVarint(offset, &stream);
    PutTestVarint(2, &stream);
    const Result<std::string> d = LzDecompress(stream);
    ASSERT_FALSE(d.ok()) << "offset " << offset;
    EXPECT_EQ(d.status().code(), StatusCode::kCorruption) << "offset " << offset;
  }
}

TEST(LzTest, RandomBinaryRoundTrips) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    std::string input;
    const size_t n = rng.NextBounded(4000);
    input.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      input.push_back(static_cast<char>(rng.NextBounded(256)));
    }
    const Result<std::string> d = LzDecompress(LzCompress(input));
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(*d, input);
  }
}

TEST(LzTest, RejectsTruncatedStream) {
  std::string input;
  for (int i = 0; i < 100; ++i) input += "abcdefgh";
  std::string c = LzCompress(input);
  c.resize(c.size() / 2);
  // Either corrupt or (if it cut on an op boundary) a length mismatch.
  const Result<std::string> d = LzDecompress(c);
  EXPECT_FALSE(d.ok());
}

TEST(LzTest, RejectsBadTag) {
  std::string c = LzCompress("hello world hello world");
  // The first byte after the varint header is an op tag; 0x7F is invalid.
  c[1] = 0x7F;
  EXPECT_FALSE(LzDecompress(c).ok());
}

TEST(LzTest, RejectsOpsPastHeaderLength) {
  // The decoder writes into a buffer sized by the header: a header that
  // understates the output must fail, never write past the buffer.
  const std::string input = "hello world hello world";
  std::string c = LzCompress(input);
  ASSERT_EQ(static_cast<size_t>(c[0]), input.size());  // one-byte varint
  for (const char total : {0, 5, 12}) {
    c[0] = total;
    EXPECT_FALSE(LzDecompress(c).ok()) << int{total};
  }
}

// ---------- Stopwatch ----------

TEST(StopwatchTest, MonotoneNonNegative) {
  Stopwatch sw;
  const int64_t a = sw.ElapsedNanos();
  const int64_t b = sw.ElapsedNanos();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
}

TEST(StopwatchTest, RestartResets) {
  Stopwatch sw;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  // Keep the loop from being optimised out entirely.
  ASSERT_GT(sink, 0.0);
  const int64_t before = sw.ElapsedNanos();
  sw.Restart();
  EXPECT_LE(sw.ElapsedNanos(), before);
}

// ---------- Percentile ----------

TEST(PercentileTest, NearestRankOnKnownArray) {
  // The canonical nearest-rank example: 5 samples. ceil(p/100 * 5) gives
  // ranks 2, 3, 4, 5, 5 for p = 30, 40, 75, 95, 99.
  const std::vector<double> v = {15, 20, 35, 40, 50};
  EXPECT_EQ(PercentileOf(v, 30), 20);
  EXPECT_EQ(PercentileOf(v, 40), 20);   // ceil(2.0) = 2 -> second sample
  EXPECT_EQ(PercentileOf(v, 50), 35);
  EXPECT_EQ(PercentileOf(v, 75), 40);
  EXPECT_EQ(PercentileOf(v, 95), 50);
  EXPECT_EQ(PercentileOf(v, 99), 50);
  EXPECT_EQ(PercentileOf(v, 100), 50);
  EXPECT_EQ(PercentileOf(v, 0), 15);
}

TEST(PercentileTest, P50P95P99OnHundredSamples) {
  // 1..100: rank for p is exactly ceil(p), so pN == N for integer p.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(PercentileOf(v, 50), 50);
  EXPECT_EQ(PercentileOf(v, 95), 95);
  EXPECT_EQ(PercentileOf(v, 99), 99);
}

TEST(PercentileTest, AlwaysReturnsAnObservedSample) {
  // Two widely separated samples: interpolation would invent values in
  // between; nearest rank must return one of the two.
  const std::vector<double> v = {1.0, 1000.0};
  for (double p : {1.0, 49.0, 50.0, 51.0, 99.0}) {
    const double got = PercentileOf(v, p);
    EXPECT_TRUE(got == 1.0 || got == 1000.0) << "p=" << p << " got " << got;
  }
  EXPECT_EQ(PercentileOf(v, 50), 1.0);   // ceil(0.5 * 2) = 1 -> first
  EXPECT_EQ(PercentileOf(v, 51), 1000.0);
}

TEST(PercentileTest, EmptyAndSingleton) {
  EXPECT_EQ(PercentileOf({}, 99), 0.0);
  EXPECT_EQ(PercentileOf({7.5}, 1), 7.5);
  EXPECT_EQ(PercentileOf({7.5}, 99), 7.5);
}

TEST(PercentileTest, UnsortedInputIsSorted) {
  EXPECT_EQ(PercentileOf({50, 15, 40, 20, 35}, 50), 35);
}

}  // namespace
}  // namespace stix
