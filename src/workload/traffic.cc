#include "workload/traffic.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <queue>
#include <sstream>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "common/percentile.h"
#include "geo/region.h"
#include "st/knn.h"
#include "st/st_store.h"

namespace stix::workload {
namespace {

using Clock = std::chrono::steady_clock;

const char* const kOpClassNames[kNumTrafficOpClasses] = {
    "rect", "polygon", "knn", "insert", "update"};

bson::Document MakeTrafficDoc(double lon, double lat, int64_t t_ms,
                              int32_t fid) {
  bson::Document doc;
  doc.Append(st::kLocationField,
             bson::Value::MakeDocument(bson::GeoJsonPoint(lon, lat)));
  doc.Append(st::kDateField, bson::Value::DateTime(t_ms));
  doc.Append("fid", bson::Value::Int32(fid));
  return doc;
}

// Hexagon inscribed in a rect (the polygon queries' fixed shape: convex,
// strictly inside the rect, so its covering reuses the rect machinery).
geo::Polygon InscribedHexagon(const geo::Rect& rect) {
  const double cx = (rect.lo.lon + rect.hi.lon) / 2.0;
  const double cy = (rect.lo.lat + rect.hi.lat) / 2.0;
  const double rx = (rect.hi.lon - rect.lo.lon) / 2.0;
  const double ry = (rect.hi.lat - rect.lo.lat) / 2.0;
  std::vector<geo::Point> vertices;
  vertices.reserve(6);
  for (int i = 0; i < 6; ++i) {
    const double theta = static_cast<double>(i) * M_PI / 3.0;
    vertices.push_back({cx + rx * std::cos(theta), cy + ry * std::sin(theta)});
  }
  return geo::Polygon(std::move(vertices));
}

void AppendBytes(std::string* out, const void* p, size_t n) {
  out->append(static_cast<const char*>(p), n);
}

void SerializeOp(std::string* out, const TrafficOp& op) {
  const uint8_t op_class = static_cast<uint8_t>(op.op_class);
  AppendBytes(out, &op_class, sizeof(op_class));
  AppendBytes(out, &op.session, sizeof(op.session));
  AppendBytes(out, &op.arrival_ms, sizeof(op.arrival_ms));
  AppendBytes(out, &op.lon, sizeof(op.lon));
  AppendBytes(out, &op.lat, sizeof(op.lat));
  AppendBytes(out, &op.doc_t_ms, sizeof(op.doc_t_ms));
  AppendBytes(out, &op.fid, sizeof(op.fid));
  AppendBytes(out, &op.del_lon, sizeof(op.del_lon));
  AppendBytes(out, &op.del_lat, sizeof(op.del_lat));
  AppendBytes(out, &op.del_t_ms, sizeof(op.del_t_ms));
  AppendBytes(out, &op.del_fid, sizeof(op.del_fid));
  AppendBytes(out, &op.rect.lo.lon, sizeof(double));
  AppendBytes(out, &op.rect.lo.lat, sizeof(double));
  AppendBytes(out, &op.rect.hi.lon, sizeof(double));
  AppendBytes(out, &op.rect.hi.lat, sizeof(double));
  AppendBytes(out, &op.t_begin_ms, sizeof(op.t_begin_ms));
  AppendBytes(out, &op.t_end_ms, sizeof(op.t_end_ms));
  AppendBytes(out, &op.k, sizeof(op.k));
}

// Generation-time record of one live report (what an update can target).
struct LiveReport {
  int32_t fid;
  double lon;
  double lat;
  int64_t t_ms;
};

}  // namespace

const char* TrafficOpClassName(TrafficOpClass op_class) {
  return kOpClassNames[static_cast<int>(op_class)];
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  cdf_.reserve(n == 0 ? 1 : n);
  double total = 0.0;
  for (size_t k = 0; k < std::max<size_t>(n, 1); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(Rng* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<size_t>(it - cdf_.begin());
}

std::string TrafficPlan::SerializeOps() const {
  std::string out;
  out.reserve((preload.size() + ops.size()) * 101);
  for (const TrafficOp& op : preload) SerializeOp(&out, op);
  for (const TrafficOp& op : ops) SerializeOp(&out, op);
  return out;
}

std::string TrafficPlan::Fingerprint() const {
  const std::string bytes = SerializeOps();
  uint64_t h = 14695981039346656037ull;  // FNV-1a 64
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

TrafficPlan GenerateTrafficPlan(const TrafficConfig& config) {
  TrafficPlan plan;
  plan.config = config;
  Rng rng(config.seed);

  const int num_sessions = std::max(1, config.num_sessions);
  // Session micro-cells: a grid over the region, each cell shrunk by a 20%
  // margin per side so no two sessions' documents can share a cell boundary
  // — the parity oracle depends on the cells being disjoint.
  const int grid = static_cast<int>(
      std::ceil(std::sqrt(static_cast<double>(num_sessions))));
  const double cell_w =
      (config.region.hi.lon - config.region.lo.lon) / grid;
  const double cell_h =
      (config.region.hi.lat - config.region.lo.lat) / grid;
  plan.sessions.resize(static_cast<size_t>(num_sessions));
  std::vector<std::vector<LiveReport>> live(
      static_cast<size_t>(num_sessions));
  for (int s = 0; s < num_sessions; ++s) {
    const int gx = s % grid;
    const int gy = s / grid;
    const double x0 = config.region.lo.lon + gx * cell_w;
    const double y0 = config.region.lo.lat + gy * cell_h;
    plan.sessions[static_cast<size_t>(s)].cell =
        geo::Rect{{x0 + 0.2 * cell_w, y0 + 0.2 * cell_h},
                  {x0 + 0.8 * cell_w, y0 + 0.8 * cell_h}};
  }

  // Zipf-ranked query hotspots: fixed sub-rects of the region.
  const int num_hotspots = std::max(1, config.num_hotspots);
  std::vector<geo::Rect> hotspots;
  hotspots.reserve(static_cast<size_t>(num_hotspots));
  const double region_w = config.region.hi.lon - config.region.lo.lon;
  const double region_h = config.region.hi.lat - config.region.lo.lat;
  for (int i = 0; i < num_hotspots; ++i) {
    const double w = region_w * rng.NextDouble(0.01, 0.08);
    const double h = region_h * rng.NextDouble(0.01, 0.08);
    const double x = rng.NextDouble(config.region.lo.lon,
                                    config.region.hi.lon - w);
    const double y = rng.NextDouble(config.region.lo.lat,
                                    config.region.hi.lat - h);
    hotspots.push_back(geo::Rect{{x, y}, {x + w, y + h}});
  }

  int32_t next_fid = 0;
  const auto emit_insert = [&](TrafficOp* op, int session) {
    const geo::Rect& cell = plan.sessions[static_cast<size_t>(session)].cell;
    op->session = session;
    op->lon = rng.NextDouble(cell.lo.lon, cell.hi.lon);
    op->lat = rng.NextDouble(cell.lo.lat, cell.hi.lat);
    op->doc_t_ms =
        config.t0_ms +
        static_cast<int64_t>(
            rng.NextBounded(static_cast<uint64_t>(config.span_ms) + 1));
    op->fid = next_fid++;
    live[static_cast<size_t>(session)].push_back(
        LiveReport{op->fid, op->lon, op->lat, op->doc_t_ms});
  };

  // Preload: a few reports per session so the first queries see data and
  // the first updates have something to correct.
  for (int s = 0; s < num_sessions; ++s) {
    for (int i = 0; i < config.preload_per_session; ++i) {
      TrafficOp op;
      op.op_class = TrafficOpClass::kInsert;
      emit_insert(&op, s);
      plan.preload.push_back(op);
    }
  }

  const ZipfSampler session_zipf(static_cast<size_t>(num_sessions),
                                 config.zipf_s);
  const ZipfSampler hotspot_zipf(static_cast<size_t>(num_hotspots),
                                 config.zipf_s);
  const double weights[kNumTrafficOpClasses] = {
      config.w_rect, config.w_polygon, config.w_knn, config.w_insert,
      config.w_update};
  double weight_total = 0.0;
  for (const double w : weights) weight_total += std::max(0.0, w);
  if (weight_total <= 0.0) weight_total = 1.0;

  const auto pick_query_window = [&](TrafficOp* op) {
    if (rng.NextBool(0.15)) {
      op->t_begin_ms = config.t0_ms;
      op->t_end_ms = config.t0_ms + config.span_ms;
      return;
    }
    const int64_t lo = config.t0_ms + static_cast<int64_t>(rng.NextBounded(
                                          static_cast<uint64_t>(config.span_ms)));
    const int64_t len = std::max<int64_t>(
        1, static_cast<int64_t>(static_cast<double>(config.span_ms) *
                                rng.NextDouble(0.02, 0.6)));
    op->t_begin_ms = lo;
    op->t_end_ms = std::min(config.t0_ms + config.span_ms, lo + len);
  };
  const auto pick_query_rect = [&]() -> geo::Rect {
    if (rng.NextBool(0.7)) {
      // Hotspot-centred, Zipf-popular: the rect is the hotspot scaled by a
      // random factor (clamped to the region).
      const geo::Rect& hot = hotspots[hotspot_zipf.Sample(&rng)];
      const double scale = rng.NextDouble(0.4, 1.6);
      const double cx = (hot.lo.lon + hot.hi.lon) / 2.0;
      const double cy = (hot.lo.lat + hot.hi.lat) / 2.0;
      const double w = (hot.hi.lon - hot.lo.lon) * scale / 2.0;
      const double h = (hot.hi.lat - hot.lo.lat) * scale / 2.0;
      return geo::Rect{{std::max(config.region.lo.lon, cx - w),
                        std::max(config.region.lo.lat, cy - h)},
                       {std::min(config.region.hi.lon, cx + w),
                        std::min(config.region.hi.lat, cy + h)}};
    }
    const double w = region_w * std::pow(10.0, rng.NextDouble(-2.0, -0.5));
    const double h = region_h * std::pow(10.0, rng.NextDouble(-2.0, -0.5));
    const double x =
        rng.NextDouble(config.region.lo.lon, config.region.hi.lon - w);
    const double y =
        rng.NextDouble(config.region.lo.lat, config.region.hi.lat - h);
    return geo::Rect{{x, y}, {x + w, y + h}};
  };

  // Poisson arrivals: exponential inter-arrival gaps at the aggregate rate.
  double arrival_ms = 0.0;
  const double rate_per_ms =
      std::max(1e-9, config.arrivals_per_sec) / 1000.0;
  plan.ops.reserve(static_cast<size_t>(std::max(0, config.total_ops)));
  for (int i = 0; i < config.total_ops; ++i) {
    arrival_ms += -std::log(1.0 - rng.NextDouble()) / rate_per_ms;
    TrafficOp op;
    op.arrival_ms = arrival_ms;
    const int session = static_cast<int>(session_zipf.Sample(&rng));
    op.session = session;

    double pick = rng.NextDouble() * weight_total;
    int op_class = 0;
    for (; op_class < kNumTrafficOpClasses - 1; ++op_class) {
      pick -= std::max(0.0, weights[op_class]);
      if (pick < 0.0) break;
    }
    op.op_class = static_cast<TrafficOpClass>(op_class);
    // An update with nothing to correct degrades to an insert.
    if (op.op_class == TrafficOpClass::kUpdate &&
        live[static_cast<size_t>(session)].empty()) {
      op.op_class = TrafficOpClass::kInsert;
    }

    switch (op.op_class) {
      case TrafficOpClass::kRectQuery:
        op.rect = pick_query_rect();
        pick_query_window(&op);
        break;
      case TrafficOpClass::kPolygonQuery:
        op.rect = pick_query_rect();
        pick_query_window(&op);
        break;
      case TrafficOpClass::kKnnQuery: {
        op.rect = pick_query_rect();
        pick_query_window(&op);
        op.k = 4 + static_cast<uint32_t>(rng.NextBounded(16));
        break;
      }
      case TrafficOpClass::kInsert:
        emit_insert(&op, session);
        break;
      case TrafficOpClass::kUpdate: {
        std::vector<LiveReport>& mine = live[static_cast<size_t>(session)];
        const size_t victim = rng.NextBounded(mine.size());
        op.del_fid = mine[victim].fid;
        op.del_lon = mine[victim].lon;
        op.del_lat = mine[victim].lat;
        op.del_t_ms = mine[victim].t_ms;
        mine.erase(mine.begin() + static_cast<ptrdiff_t>(victim));
        emit_insert(&op, session);
        break;
      }
    }
    plan.ops.push_back(op);
  }

  for (int s = 0; s < num_sessions; ++s) {
    std::vector<int32_t>& fids =
        plan.sessions[static_cast<size_t>(s)].live_fids;
    for (const LiveReport& r : live[static_cast<size_t>(s)]) {
      fids.push_back(r.fid);
    }
    std::sort(fids.begin(), fids.end());
  }
  return plan;
}

Status PreloadTraffic(st::StStore* store, const TrafficPlan& plan) {
  for (const TrafficOp& op : plan.preload) {
    if (Status s = store->Insert(
            MakeTrafficDoc(op.lon, op.lat, op.doc_t_ms, op.fid));
        !s.ok()) {
      return s;
    }
  }
  return Status::OK();
}

namespace {

// One dispatcher entry: the next runnable op of a session, keyed by its
// scheduled arrival. Ops of a session enter the heap one at a time, so
// per-session order always holds; sessions race each other open-loop.
struct ReadyHead {
  double arrival_ms;
  int session;
  bool operator>(const ReadyHead& other) const {
    return arrival_ms > other.arrival_ms;
  }
};

struct WorkerStats {
  std::vector<double> latencies[kNumTrafficOpClasses];
  uint64_t errors[kNumTrafficOpClasses] = {};
};

// Executes one op against the store; returns false on an error the class
// counts (failed status, or an update that did not delete exactly one doc).
bool ExecuteOp(st::StStore* store, const TrafficOp& op) {
  switch (op.op_class) {
    case TrafficOpClass::kRectQuery:
      return store->Query(op.rect, op.t_begin_ms, op.t_end_ms)
          .cluster.status.ok();
    case TrafficOpClass::kPolygonQuery:
      return store
          ->QueryPolygon(InscribedHexagon(op.rect), op.t_begin_ms,
                         op.t_end_ms)
          .cluster.status.ok();
    case TrafficOpClass::kKnnQuery: {
      st::KnnOptions kopts;
      kopts.k = op.k;
      const geo::Point center{(op.rect.lo.lon + op.rect.hi.lon) / 2.0,
                              (op.rect.lo.lat + op.rect.hi.lat) / 2.0};
      return st::KnnQuery(*store, center, op.t_begin_ms, op.t_end_ms, kopts)
          .status.ok();
    }
    case TrafficOpClass::kInsert:
      return store->Insert(MakeTrafficDoc(op.lon, op.lat, op.doc_t_ms, op.fid))
          .ok();
    case TrafficOpClass::kUpdate: {
      const geo::Rect point_rect{{op.del_lon, op.del_lat},
                                 {op.del_lon, op.del_lat}};
      const Result<uint64_t> removed =
          store->Delete(point_rect, op.del_t_ms, op.del_t_ms);
      bool ok = removed.ok() && *removed == 1;
      if (!store->Insert(MakeTrafficDoc(op.lon, op.lat, op.doc_t_ms, op.fid))
               .ok()) {
        ok = false;
      }
      return ok;
    }
  }
  return false;
}

}  // namespace

TrafficReport RunTraffic(st::StStore* store, const TrafficPlan& plan,
                         const TrafficRunOptions& options) {
  TrafficReport report;
  const size_t total = plan.ops.size();
  const double time_scale = std::max(1e-6, options.time_scale);
  report.offered_ops_per_sec =
      plan.config.arrivals_per_sec * time_scale;

  // Per-session op queues; each session's head enters the ready heap, and
  // completing an op releases the session's next one.
  const size_t num_sessions = plan.sessions.size();
  std::vector<std::vector<size_t>> session_ops(num_sessions);
  for (size_t i = 0; i < total; ++i) {
    session_ops[static_cast<size_t>(plan.ops[i].session)].push_back(i);
  }
  std::vector<size_t> session_next(num_sessions, 0);

  std::mutex mu;
  std::condition_variable cv;
  std::priority_queue<ReadyHead, std::vector<ReadyHead>, std::greater<>>
      ready;
  size_t completed = 0;
  for (size_t s = 0; s < num_sessions; ++s) {
    if (!session_ops[s].empty()) {
      ready.push(ReadyHead{plan.ops[session_ops[s][0]].arrival_ms,
                           static_cast<int>(s)});
    }
  }

  MetricsRegistry& metrics = MetricsRegistry::Instance();
  Counter& committed = metrics.GetCounter("balancer.migrations_committed");
  Counter& aborted = metrics.GetCounter("balancer.migrations_aborted");
  const uint64_t committed_before = committed.value();
  const uint64_t aborted_before = aborted.value();

  const int num_threads = std::max(1, options.threads);
  std::vector<WorkerStats> stats(static_cast<size_t>(num_threads));
  const Clock::time_point start = Clock::now();

  const auto worker = [&](WorkerStats* my) {
    for (;;) {
      ReadyHead head{};
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return completed == total || !ready.empty(); });
        if (completed == total) return;
        head = ready.top();
        ready.pop();
      }
      const size_t session = static_cast<size_t>(head.session);
      const size_t op_index = session_ops[session][session_next[session]];
      const TrafficOp& op = plan.ops[op_index];

      // Open-loop: dispatch at the scheduled arrival; latency is measured
      // from it, so time spent queued behind a saturated store counts.
      const Clock::time_point scheduled =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          op.arrival_ms / time_scale));
      std::this_thread::sleep_until(scheduled);
      const bool ok = ExecuteOp(store, op);
      const double latency_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - scheduled)
              .count();

      const int op_class = static_cast<int>(op.op_class);
      my->latencies[op_class].push_back(latency_ms);
      if (!ok) ++my->errors[op_class];

      {
        const std::lock_guard<std::mutex> lock(mu);
        ++completed;
        if (++session_next[session] < session_ops[session].size()) {
          ready.push(ReadyHead{
              plan.ops[session_ops[session][session_next[session]]]
                  .arrival_ms,
              head.session});
        }
      }
      cv.notify_all();
    }
  };

  // Optional mid-run reshard: fires once half the ops have completed, while
  // the workers keep dispatching — exactly the live-migration scenario.
  std::thread resharder;
  if (options.reshard_midway) {
    resharder = std::thread([&] {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return completed * 2 >= total; });
      }
      Counter& chunks = metrics.GetCounter("reshard.chunks_migrated");
      Counter& docs = metrics.GetCounter("reshard.docs_moved");
      const uint64_t chunks_before = chunks.value();
      const uint64_t docs_before = docs.value();
      const Clock::time_point begin = Clock::now();
      const Status s = store->Reshard(options.reshard_to);
      report.reshard_millis =
          std::chrono::duration<double, std::milli>(Clock::now() - begin)
              .count();
      report.reshard_ran = true;
      report.reshard_status = s;
      report.reshard_chunks_migrated = chunks.value() - chunks_before;
      report.reshard_docs_moved = docs.value() - docs_before;
    });
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back(worker, &stats[static_cast<size_t>(t)]);
  }
  for (std::thread& t : threads) t.join();
  if (resharder.joinable()) resharder.join();
  report.duration_sec =
      std::chrono::duration<double>(Clock::now() - start).count();
  report.migrations_committed = committed.value() - committed_before;
  report.migrations_aborted = aborted.value() - aborted_before;

  report.per_class.resize(kNumTrafficOpClasses);
  for (int c = 0; c < kNumTrafficOpClasses; ++c) {
    TrafficClassStats& cls = report.per_class[static_cast<size_t>(c)];
    cls.op_class = static_cast<TrafficOpClass>(c);
    std::vector<double> all;
    for (const WorkerStats& w : stats) {
      all.insert(all.end(), w.latencies[c].begin(), w.latencies[c].end());
      cls.errors += w.errors[c];
    }
    cls.count = all.size();
    if (!all.empty()) {
      std::sort(all.begin(), all.end());
      cls.p50_ms = PercentileSorted(all, 50.0);
      cls.p95_ms = PercentileSorted(all, 95.0);
      cls.p99_ms = PercentileSorted(all, 99.0);
      cls.max_ms = all.back();
    }
    report.total_ops += cls.count;
    report.total_errors += cls.errors;
  }
  report.achieved_ops_per_sec =
      report.duration_sec > 0.0
          ? static_cast<double>(report.total_ops) / report.duration_sec
          : 0.0;
  return report;
}

std::optional<double> SaturationOpsPerSec(
    const std::vector<TrafficSweepPoint>& sweep) {
  std::optional<double> saturation;
  for (const TrafficSweepPoint& p : sweep) {
    if (p.achieved_ops_per_sec >=
        kSaturatedAchievedShare * p.offered_ops_per_sec) {
      continue;
    }
    saturation = std::max(saturation.value_or(0.0), p.achieved_ops_per_sec);
  }
  return saturation;
}

uint64_t VerifyTrafficParity(const st::StStore& store,
                             const TrafficPlan& plan) {
  uint64_t divergences = 0;
  const int64_t t0 = plan.config.t0_ms;
  const int64_t t1 = plan.config.t0_ms + plan.config.span_ms;
  for (const TrafficSession& session : plan.sessions) {
    const st::StQueryResult result = store.Query(session.cell, t0, t1);
    std::vector<int32_t> got;
    got.reserve(result.cluster.docs.size());
    for (const bson::Document& doc : result.cluster.docs) {
      const bson::Value* v = doc.Get("fid");
      got.push_back(v == nullptr ? -1 : v->AsInt32());
    }
    std::sort(got.begin(), got.end());
    if (!result.cluster.status.ok() || got != session.live_fids) {
      ++divergences;
    }
  }
  return divergences;
}

std::string TrafficReport::ToJson() const {
  std::ostringstream out;
  out << "{\"duration_sec\": " << duration_sec
      << ", \"offered_ops_per_sec\": " << offered_ops_per_sec
      << ", \"achieved_ops_per_sec\": " << achieved_ops_per_sec
      << ", \"total_ops\": " << total_ops
      << ", \"total_errors\": " << total_errors << ", \"op_classes\": [";
  for (size_t i = 0; i < per_class.size(); ++i) {
    const TrafficClassStats& cls = per_class[i];
    if (i != 0) out << ", ";
    out << "{\"op\": \"" << TrafficOpClassName(cls.op_class)
        << "\", \"count\": " << cls.count << ", \"errors\": " << cls.errors
        << ", \"p50_ms\": " << cls.p50_ms << ", \"p95_ms\": " << cls.p95_ms
        << ", \"p99_ms\": " << cls.p99_ms << ", \"max_ms\": " << cls.max_ms
        << "}";
  }
  out << "], \"balancer\": {\"migrations_committed\": "
      << migrations_committed
      << ", \"migrations_aborted\": " << migrations_aborted << "}";
  if (reshard_ran) {
    out << ", \"reshard\": {\"status\": \""
        << (reshard_status.ok() ? "OK" : reshard_status.ToString())
        << "\", \"millis\": " << reshard_millis
        << ", \"chunks_migrated\": " << reshard_chunks_migrated
        << ", \"docs_moved\": " << reshard_docs_moved << "}";
  }
  out << "}";
  return out.str();
}

}  // namespace stix::workload
