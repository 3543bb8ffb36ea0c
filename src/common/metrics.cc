#include "common/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <thread>

namespace stix {

size_t Counter::StripeIndex() {
  // Thread-id hash folded to a stripe; stable per thread, spreads client
  // threads across cache lines without any registration protocol.
  static thread_local const size_t stripe =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kStripes;
  return stripe;
}

namespace {

size_t BucketFor(uint64_t v) {
  return v == 0 ? 0 : static_cast<size_t>(std::bit_width(v));
}

/// Inclusive value range covered by bucket b (see Histogram's contract).
void BucketRange(size_t b, double* lo, double* hi) {
  if (b == 0) {
    *lo = 0.0;
    *hi = 0.0;
    return;
  }
  *lo = std::ldexp(1.0, static_cast<int>(b) - 1);
  *hi = std::ldexp(1.0, static_cast<int>(b)) - 1.0;
}

}  // namespace

double Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (static_cast<double>(seen + buckets[b]) >= target) {
      double lo, hi;
      BucketRange(b, &lo, &hi);
      const double within =
          buckets[b] == 0
              ? 0.0
              : (target - static_cast<double>(seen)) / double(buckets[b]);
      return lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
    }
    seen += buckets[b];
  }
  return static_cast<double>(max);
}

void Histogram::Observe(uint64_t v) {
  buckets_[BucketFor(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  uint64_t prev = max_.load(std::memory_order_relaxed);
  while (v > prev &&
         !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  for (size_t b = 0; b < kBuckets; ++b) {
    s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return s;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Instance() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::vector<std::string> MetricsRegistry::CounterNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(counters_.size());
  for (const auto& [name, _] : counters_) names.push_back(name);
  return names;
}

std::vector<std::string> MetricsRegistry::GaugeNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(gauges_.size());
  for (const auto& [name, _] : gauges_) names.push_back(name);
  return names;
}

std::vector<std::string> MetricsRegistry::HistogramNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(histograms_.size());
  for (const auto& [name, _] : histograms_) names.push_back(name);
  return names;
}

MetricsRegistry::Snapshot MetricsRegistry::Snap() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    Entry e;
    e.name = name;
    e.counter = c->value();
    snap.counters.push_back(std::move(e));
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    Entry e;
    e.name = name;
    e.gauge = g->value();
    e.gauge_max = g->max_value();
    snap.gauges.push_back(std::move(e));
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    Entry e;
    e.name = name;
    e.histo = h->Snap();
    snap.histograms.push_back(std::move(e));
  }
  return snap;
}

namespace {

void AppendJsonDouble(std::ostringstream* out, double v) {
  if (!std::isfinite(v)) {
    *out << "0";
    return;
  }
  std::ostringstream tmp;
  tmp.precision(6);
  tmp << std::fixed << v;
  *out << tmp.str();
}

}  // namespace

std::string MetricsRegistry::ToJson() const {
  const Snapshot snap = Snap();
  std::ostringstream out;
  out << "{\"counters\": {";
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    const Entry& e = snap.counters[i];
    if (i > 0) out << ", ";
    out << "\"" << e.name << "\": " << e.counter;
  }
  out << "}, \"gauges\": {";
  for (size_t i = 0; i < snap.gauges.size(); ++i) {
    const Entry& e = snap.gauges[i];
    if (i > 0) out << ", ";
    out << "\"" << e.name << "\": {\"value\": " << e.gauge
        << ", \"max\": " << e.gauge_max << "}";
  }
  out << "}, \"histograms\": {";
  for (size_t i = 0; i < snap.histograms.size(); ++i) {
    const Entry& e = snap.histograms[i];
    if (i > 0) out << ", ";
    out << "\"" << e.name << "\": {\"count\": " << e.histo.count
        << ", \"sum\": " << e.histo.sum << ", \"mean\": ";
    AppendJsonDouble(&out, e.histo.Mean());
    out << ", \"p50\": ";
    AppendJsonDouble(&out, e.histo.Quantile(0.5));
    out << ", \"p95\": ";
    AppendJsonDouble(&out, e.histo.Quantile(0.95));
    out << ", \"p99\": ";
    AppendJsonDouble(&out, e.histo.Quantile(0.99));
    out << ", \"max\": " << e.histo.max << "}";
  }
  out << "}}";
  return out.str();
}

void MetricsRegistry::ResetAllForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [_, c] : counters_) c->Reset();
  for (auto& [_, g] : gauges_) g->Reset();
  for (auto& [_, h] : histograms_) h->Reset();
}

}  // namespace stix
