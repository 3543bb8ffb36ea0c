#ifndef STIX_WORKLOAD_TRAFFIC_H_
#define STIX_WORKLOAD_TRAFFIC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "geo/geo.h"
#include "st/approach.h"

namespace stix::st {
class StStore;
}

namespace stix::workload {

/// Zipf(s) sampler over ranks 0..n-1 (rank 0 hottest): P(k) ∝ 1/(k+1)^s,
/// realized by binary search over a precomputed CDF. The classic YCSB-style
/// hotspot model — a handful of ranks absorb most of the traffic.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);

  size_t Sample(Rng* rng) const;

  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Operation classes of the traffic mix.
enum class TrafficOpClass : uint8_t {
  kRectQuery = 0,  ///< Spatio-temporal rectangle query.
  kPolygonQuery,   ///< Hexagon inscribed in a rect (complex geometry).
  kKnnQuery,       ///< Expanding-ring k-nearest-neighbour probe.
  kInsert,         ///< New position report into the session's cell.
  kUpdate,         ///< Position correction: delete one report, insert another.
};
inline constexpr int kNumTrafficOpClasses = 5;

const char* TrafficOpClassName(TrafficOpClass op_class);

/// Traffic-shape knobs. The whole op sequence is a pure function of this
/// struct: same config, byte-identical plan (the repro contract every other
/// generator in workload/ follows).
struct TrafficConfig {
  uint64_t seed = 1;
  /// Simulated user sessions. Each session owns a private micro-cell of the
  /// region (disjoint from every other session's) that all its inserts land
  /// in — the post-quiesce parity oracle queries exactly these cells.
  int num_sessions = 1000;
  /// Total operations across all sessions (the per-session share is Zipfian:
  /// low-rank sessions are the hot keys).
  int total_ops = 20000;
  /// Documents pre-inserted per session before the clock starts, so early
  /// queries see data and updates have something to correct.
  int preload_per_session = 2;
  /// Aggregate Poisson arrival rate at time_scale 1.0.
  double arrivals_per_sec = 4000.0;
  /// Zipf exponent for both session activity and query-hotspot popularity.
  double zipf_s = 1.1;
  /// Query hotspots: fixed cells whose popularity is Zipf-ranked.
  int num_hotspots = 64;
  /// Op mix weights (normalized internally).
  double w_rect = 0.40;
  double w_polygon = 0.08;
  double w_knn = 0.07;
  double w_insert = 0.30;
  double w_update = 0.15;
  /// The world the traffic lives in (defaults to the paper's Athens region).
  geo::Rect region = {{23.3, 37.6}, {24.3, 38.5}};
  int64_t t0_ms = 1538352000000;  ///< 2018-10-01T00:00:00Z
  int64_t span_ms = 7 * 24 * 3600000LL;
};

/// One scheduled operation. Queries carry rect/time (+k for kNN); inserts
/// carry the new document; updates additionally carry the exact point+time
/// of the report they replace.
struct TrafficOp {
  TrafficOpClass op_class = TrafficOpClass::kRectQuery;
  int32_t session = 0;
  double arrival_ms = 0.0;  ///< Offset from traffic start at time_scale 1.

  // Insert/update payload: the new report.
  double lon = 0.0;
  double lat = 0.0;
  int64_t doc_t_ms = 0;
  int32_t fid = -1;

  // Update payload: the report being replaced (deleted first).
  double del_lon = 0.0;
  double del_lat = 0.0;
  int64_t del_t_ms = 0;
  int32_t del_fid = -1;

  // Query payload.
  geo::Rect rect = {{0, 0}, {0, 0}};
  int64_t t_begin_ms = 0;
  int64_t t_end_ms = 0;
  uint32_t k = 0;  ///< kNN only.
};

/// Generation-time ground truth for one session: its private cell and the
/// fids that must be exactly the cell's contents once the run quiesces.
struct TrafficSession {
  geo::Rect cell = {{0, 0}, {0, 0}};
  std::vector<int32_t> live_fids;  ///< Sorted ascending.
};

/// A fully materialized traffic plan: preload documents, the timed op
/// sequence (ascending arrival_ms) and the per-session parity oracle.
struct TrafficPlan {
  TrafficConfig config;
  std::vector<TrafficOp> preload;  ///< Inserts applied before the clock.
  std::vector<TrafficOp> ops;
  std::vector<TrafficSession> sessions;

  /// Canonical byte serialization of preload + ops — two plans are the same
  /// workload iff these bytes match (the determinism regression compares
  /// them directly).
  std::string SerializeOps() const;

  /// FNV-1a hash of SerializeOps(), hex — a short repro fingerprint.
  std::string Fingerprint() const;
};

/// Generates the plan. Deterministic: no wall clock, no global state.
TrafficPlan GenerateTrafficPlan(const TrafficConfig& config);

/// Latency summary of one op class, nearest-rank percentiles (the
/// BENCH-gate convention) over open-loop latencies: completion time minus
/// *scheduled* arrival, so queueing delay behind a saturated store counts.
struct TrafficClassStats {
  TrafficOpClass op_class = TrafficOpClass::kRectQuery;
  uint64_t count = 0;
  uint64_t errors = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Outcome of one open-loop run.
struct TrafficReport {
  double duration_sec = 0.0;
  double offered_ops_per_sec = 0.0;
  double achieved_ops_per_sec = 0.0;
  uint64_t total_ops = 0;
  uint64_t total_errors = 0;
  std::vector<TrafficClassStats> per_class;  ///< One entry per op class.
  /// Balancer migrations over the run: deltas of the
  /// balancer.migrations_committed / _aborted counters.
  uint64_t migrations_committed = 0;
  uint64_t migrations_aborted = 0;
  bool reshard_ran = false;
  Status reshard_status;
  double reshard_millis = 0.0;
  /// The reshard's chunk moves and the documents they carried (deltas of
  /// reshard.chunks_migrated / reshard.docs_moved across the call).
  uint64_t reshard_chunks_migrated = 0;
  uint64_t reshard_docs_moved = 0;

  std::string ToJson() const;
};

/// One point of an offered-rate sweep: a fresh store driven at one
/// time_scale multiplier.
struct TrafficSweepPoint {
  double offered_ops_per_sec = 0.0;
  double achieved_ops_per_sec = 0.0;
  double rect_p99_ms = 0.0;
};

/// A sweep point is saturated when the store achieved less than this share
/// of the rate it was offered.
inline constexpr double kSaturatedAchievedShare = 0.9;

/// The sweep's saturation throughput: the highest achieved rate among the
/// saturated points, or nullopt when every point kept up (the sweep never
/// reached the store's limit, so it has no saturation figure).
std::optional<double> SaturationOpsPerSec(
    const std::vector<TrafficSweepPoint>& sweep);

/// Runtime knobs (everything workload-shaped lives in TrafficConfig).
struct TrafficRunOptions {
  /// Dispatcher threads executing sessions. Each op, query fan-out
  /// included, runs on the dispatcher thread that issued it.
  int threads = 8;
  /// Multiplies the offered arrival rate (sweep axis): scheduled arrival
  /// times shrink by this factor.
  double time_scale = 1.0;
  /// Fire StStore::Reshard(reshard_to) from a controller thread once half
  /// the ops have completed, while traffic keeps flowing.
  bool reshard_midway = false;
  st::ApproachKind reshard_to = st::ApproachKind::kHil;
};

/// Applies the plan's preload inserts synchronously (before the clock
/// starts). Non-OK on the first failed insert.
Status PreloadTraffic(st::StStore* store, const TrafficPlan& plan);

/// Drives the plan open-loop: ops dispatch at their scheduled arrival times
/// (ops of one session stay ordered; a backlogged session's queueing delay
/// is charged to latency). Returns the latency/throughput report.
TrafficReport RunTraffic(st::StStore* store, const TrafficPlan& plan,
                         const TrafficRunOptions& options);

/// Post-quiesce parity oracle: queries every session's private cell over
/// the full time span and compares the returned fids against the plan's
/// ground truth. Returns the number of diverging sessions (0 = exact).
uint64_t VerifyTrafficParity(const st::StStore& store,
                             const TrafficPlan& plan);

}  // namespace stix::workload

#endif  // STIX_WORKLOAD_TRAFFIC_H_
