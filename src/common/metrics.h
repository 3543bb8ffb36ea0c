#ifndef STIX_COMMON_METRICS_H_
#define STIX_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace stix {

/// A monotonically increasing counter striped across cache lines so that
/// concurrent increments from client threads do not contend on one word.
/// Increment is a relaxed fetch_add on the stripe owned by the calling
/// thread; value() sums the stripes (snapshot-on-read — the sum is not a
/// linearizable point, which is fine for monitoring).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t n = 1) {
    stripes_[StripeIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t value() const {
    uint64_t sum = 0;
    for (const Stripe& s : stripes_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  /// Test hygiene only; racing with Increment may lose concurrent adds.
  void Reset() {
    for (Stripe& s : stripes_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kStripes = 16;
  struct alignas(64) Stripe {
    std::atomic<uint64_t> v{0};
  };
  static size_t StripeIndex();
  Stripe stripes_[kStripes];
};

/// A point-in-time signed value (queue depth, cache size). Single atomic —
/// gauges are written from one logical owner at a time and read rarely.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n) { value_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() {
    Set(0);
    max_.store(0, std::memory_order_relaxed);
  }

  /// High-water mark maintained alongside the gauge (best-effort CAS loop;
  /// used for queue-depth peaks where an instantaneous read would miss the
  /// interesting moments).
  void UpdateMax() {
    const int64_t cur = value();
    int64_t prev = max_.load(std::memory_order_relaxed);
    while (cur > prev &&
           !max_.compare_exchange_weak(prev, cur, std::memory_order_relaxed)) {
    }
  }
  int64_t max_value() const { return max_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

/// Base-2 exponential histogram: Observe(v) lands v in bucket
/// floor(log2(v))+1 (v==0 in bucket 0), so bucket b spans [2^(b-1), 2^b).
/// Covers the full uint64 range in 65 buckets with one relaxed fetch_add
/// per observation. Quantiles are estimated by linear interpolation inside
/// the covering bucket — plenty for latency dashboards.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    uint64_t buckets[kBuckets] = {};

    double Mean() const { return count == 0 ? 0.0 : double(sum) / count; }
    /// q in [0, 1]; e.g. Quantile(0.99).
    double Quantile(double q) const;
  };

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(uint64_t v);
  Snapshot Snap() const;
  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Process-wide name -> metric directory, mirroring FailPointRegistry: call
/// sites fetch a reference once (function-local static) and touch only the
/// metric's own atomics afterwards, so instrumentation on hot paths costs a
/// relaxed fetch_add. Metrics live for the process — references never
/// dangle. Names use dotted paths ("btree.splits", "plan_cache.hits").
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Registered names, sorted, for diagnostics.
  std::vector<std::string> CounterNames() const;
  std::vector<std::string> GaugeNames() const;
  std::vector<std::string> HistogramNames() const;

  /// One metric rendered for a snapshot dump.
  struct Entry {
    std::string name;
    uint64_t counter = 0;        // counters
    int64_t gauge = 0;           // gauges (value)
    int64_t gauge_max = 0;       // gauges (high-water)
    Histogram::Snapshot histo;   // histograms
  };
  struct Snapshot {
    std::vector<Entry> counters;
    std::vector<Entry> gauges;
    std::vector<Entry> histograms;
  };
  Snapshot Snap() const;

  /// Snapshot rendered as a JSON object: {"counters": {...}, "gauges":
  /// {"name": {"value": v, "max": m}}, "histograms": {"name": {"count": c,
  /// "sum": s, "mean": m, "p50": .., "p95": .., "p99": .., "max": ..}}}.
  std::string ToJson() const;

  /// Zeroes every registered metric (names stay registered). Tests only.
  void ResetAllForTest();

 private:
  MetricsRegistry() = default;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Declares a cached registry handle at a call site:
///   STIX_METRIC_COUNTER(splits, "btree.splits");
///   splits.Increment();
#define STIX_METRIC_COUNTER(var, name)        \
  static ::stix::Counter& var =               \
      ::stix::MetricsRegistry::Instance().GetCounter(name)
#define STIX_METRIC_GAUGE(var, name)          \
  static ::stix::Gauge& var =                 \
      ::stix::MetricsRegistry::Instance().GetGauge(name)
#define STIX_METRIC_HISTOGRAM(var, name)      \
  static ::stix::Histogram& var =             \
      ::stix::MetricsRegistry::Instance().GetHistogram(name)

}  // namespace stix

#endif  // STIX_COMMON_METRICS_H_
