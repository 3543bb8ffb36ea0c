// stix_traffic — open-loop traffic harness over one StStore deployment.
//
// From a single 64-bit seed, generates a deterministic plan of thousands of
// simulated user sessions — mixed rectangle / polygon / kNN queries,
// inserts and updates, Zipfian session activity and query hotspots, Poisson
// arrivals — and drives it open-loop: every op is dispatched at its
// scheduled arrival time and its latency is measured from that schedule, so
// queueing delay behind a saturated store is charged to the op (the
// coordinated-omission-free convention). Per-op-class p50/p95/p99 come out
// nearest-rank, plus an offered-rate sweep whose saturation figure is the
// peak achieved throughput among the points that fell short of their
// offered rate (null when every point kept up).
//
// Each session owns a private micro-cell of the region that all its inserts
// land in; after the run quiesces, querying every cell and comparing
// against the plan's ground truth is an *exact* parity oracle — the same
// oracle discipline as stix_fuzz, here under full concurrency.
//
// --reshard-midway fires StStore::Reshard (bsl* <-> hil*) from a controller
// thread once half the ops have completed, so the shard-key migration runs
// under live mixed traffic; the parity oracle then also proves the reshard
// lost, duplicated and misrouted nothing.
//
// --check turns the run into a CI gate: non-zero parity divergences, any
// op errors, a failed reshard, or a per-class p99 above --p99-gate-ms fail
// the process with exit status 1.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "st/st_store.h"
#include "workload/traffic.h"

namespace stix {
namespace {

using st::ApproachKind;
using st::StStore;
using st::StStoreOptions;
using workload::TrafficConfig;
using workload::TrafficPlan;
using workload::TrafficReport;
using workload::TrafficRunOptions;
using workload::TrafficSweepPoint;

struct ToolConfig {
  TrafficConfig traffic;
  int threads = 8;
  int shards = 8;
  ApproachKind approach = ApproachKind::kHil;
  bool reshard_midway = false;
  std::vector<double> sweep;  ///< time_scale multipliers; empty = no sweep.
  std::string json_path;
  bool check = false;
  double p99_gate_ms = 750.0;
  bool verbose = false;
};

bool ParseApproach(const char* name, ApproachKind* out) {
  if (std::strcmp(name, "bslST") == 0) *out = ApproachKind::kBslST;
  else if (std::strcmp(name, "bslTS") == 0) *out = ApproachKind::kBslTS;
  else if (std::strcmp(name, "hil") == 0) *out = ApproachKind::kHil;
  else if (std::strcmp(name, "hilStar") == 0 || std::strcmp(name, "hil*") == 0)
    *out = ApproachKind::kHilStar;
  else return false;
  return true;
}

// The reshard target: always the opposite shard-key family, so the shard
// keys genuinely differ (bslST <-> bslTS share {date} and would be
// rejected).
ApproachKind ReshardTarget(ApproachKind from) {
  return (from == ApproachKind::kHil || from == ApproachKind::kHilStar)
             ? ApproachKind::kBslTS
             : ApproachKind::kHil;
}

std::unique_ptr<StStore> BuildStore(const ToolConfig& config) {
  StStoreOptions options;
  options.approach.kind = config.approach;
  options.approach.dataset_mbr = config.traffic.region;
  options.cluster.num_shards = config.shards;
  options.cluster.seed = config.traffic.seed;
  auto store = std::make_unique<StStore>(options);
  if (!store->Setup().ok()) return nullptr;
  return store;
}

int TrafficMain(int argc, char** argv) {
  ToolConfig config;
  config.traffic.num_sessions = 1000;
  config.traffic.total_ops = 20000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      return arg.c_str() + std::strlen(prefix);
    };
    if (arg.rfind("--seed=", 0) == 0) {
      config.traffic.seed = std::strtoull(value("--seed="), nullptr, 10);
    } else if (arg.rfind("--sessions=", 0) == 0) {
      config.traffic.num_sessions = std::atoi(value("--sessions="));
    } else if (arg.rfind("--ops=", 0) == 0) {
      config.traffic.total_ops = std::atoi(value("--ops="));
    } else if (arg.rfind("--preload=", 0) == 0) {
      config.traffic.preload_per_session = std::atoi(value("--preload="));
    } else if (arg.rfind("--rate=", 0) == 0) {
      config.traffic.arrivals_per_sec = std::atof(value("--rate="));
    } else if (arg.rfind("--zipf=", 0) == 0) {
      config.traffic.zipf_s = std::atof(value("--zipf="));
    } else if (arg.rfind("--threads=", 0) == 0) {
      config.threads = std::atoi(value("--threads="));
    } else if (arg.rfind("--shards=", 0) == 0) {
      config.shards = std::atoi(value("--shards="));
    } else if (arg.rfind("--approach=", 0) == 0) {
      if (!ParseApproach(value("--approach="), &config.approach)) {
        std::fprintf(stderr, "--approach must be bslST|bslTS|hil|hilStar\n");
        return 2;
      }
    } else if (arg == "--reshard-midway") {
      config.reshard_midway = true;
    } else if (arg.rfind("--sweep=", 0) == 0) {
      std::stringstream ss(value("--sweep="));
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        if (!tok.empty()) config.sweep.push_back(std::atof(tok.c_str()));
      }
    } else if (arg.rfind("--json=", 0) == 0) {
      config.json_path = value("--json=");
    } else if (arg == "--check") {
      config.check = true;
    } else if (arg.rfind("--p99-gate-ms=", 0) == 0) {
      config.p99_gate_ms = std::atof(value("--p99-gate-ms="));
    } else if (arg == "--verbose" || arg == "-v") {
      config.verbose = true;
    } else {
      std::fprintf(
          stderr,
          "usage: stix_traffic [--seed=N] [--sessions=N] [--ops=N] "
          "[--preload=N] [--rate=OPS_PER_SEC] [--zipf=S] [--threads=N] "
          "[--shards=N] [--approach=bslST|bslTS|hil|hilStar] "
          "[--reshard-midway] [--sweep=M1,M2,...] [--json=PATH] [--check] "
          "[--p99-gate-ms=MS] [--verbose]\n");
      return 2;
    }
  }

  const TrafficPlan plan = workload::GenerateTrafficPlan(config.traffic);
  if (config.verbose) {
    std::printf("plan: %zu preload + %zu ops, fingerprint %s\n",
                plan.preload.size(), plan.ops.size(),
                plan.Fingerprint().c_str());
  }

  // Saturation sweep: a fresh store per offered-rate multiplier (so one
  // point's backlog never warms the next), no reshard, no parity walk.
  std::vector<TrafficSweepPoint> sweep_points;
  for (const double multiplier : config.sweep) {
    std::unique_ptr<StStore> store = BuildStore(config);
    if (store == nullptr || !workload::PreloadTraffic(store.get(), plan).ok()) {
      std::fprintf(stderr, "FATAL: sweep store setup/preload failed\n");
      return 1;
    }
    TrafficRunOptions run;
    run.threads = config.threads;
    run.time_scale = multiplier;
    const TrafficReport r = RunTraffic(store.get(), plan, run);
    sweep_points.push_back(TrafficSweepPoint{
        r.offered_ops_per_sec, r.achieved_ops_per_sec,
        r.per_class.empty() ? 0.0 : r.per_class[0].p99_ms});
    if (config.verbose) {
      std::printf("sweep x%.2f: offered %.0f/s achieved %.0f/s "
                  "rect p99 %.2f ms\n",
                  multiplier, r.offered_ops_per_sec, r.achieved_ops_per_sec,
                  sweep_points.back().rect_p99_ms);
    }
  }
  const std::optional<double> saturation =
      workload::SaturationOpsPerSec(sweep_points);

  // Main run: the gated measurement, optionally with the mid-run reshard.
  std::unique_ptr<StStore> store = BuildStore(config);
  if (store == nullptr || !workload::PreloadTraffic(store.get(), plan).ok()) {
    std::fprintf(stderr, "FATAL: store setup/preload failed\n");
    return 1;
  }
  TrafficRunOptions run;
  run.threads = config.threads;
  run.reshard_midway = config.reshard_midway;
  run.reshard_to = ReshardTarget(config.approach);
  const TrafficReport report = RunTraffic(store.get(), plan, run);
  const uint64_t divergences = workload::VerifyTrafficParity(*store, plan);

  std::ostringstream json;
  json << "{\n  \"bench\": \"stix_traffic\",\n  \"config\": {"
       << "\"seed\": " << config.traffic.seed
       << ", \"sessions\": " << config.traffic.num_sessions
       << ", \"ops\": " << config.traffic.total_ops
       << ", \"preload_per_session\": " << config.traffic.preload_per_session
       << ", \"rate\": " << config.traffic.arrivals_per_sec
       << ", \"zipf_s\": " << config.traffic.zipf_s
       << ", \"threads\": " << config.threads
       << ", \"shards\": " << config.shards << ", \"approach\": \""
       << st::ApproachName(config.approach) << "\""
       << ", \"reshard_midway\": "
       << (config.reshard_midway ? "true" : "false")
       << ", \"fingerprint\": \"" << plan.Fingerprint() << "\"},\n";
  json << "  \"op_classes\": [";
  for (size_t i = 0; i < report.per_class.size(); ++i) {
    const workload::TrafficClassStats& cls = report.per_class[i];
    if (i != 0) json << ", ";
    json << "\n    {\"op\": \"" << TrafficOpClassName(cls.op_class)
         << "\", \"count\": " << cls.count << ", \"errors\": " << cls.errors
         << ", \"p50_ms\": " << cls.p50_ms << ", \"p95_ms\": " << cls.p95_ms
         << ", \"p99_ms\": " << cls.p99_ms << ", \"max_ms\": " << cls.max_ms
         << "}";
  }
  json << "\n  ],\n  \"saturation\": [";
  for (size_t i = 0; i < sweep_points.size(); ++i) {
    if (i != 0) json << ", ";
    json << "\n    {\"offered_ops_per_sec\": "
         << sweep_points[i].offered_ops_per_sec
         << ", \"achieved_ops_per_sec\": "
         << sweep_points[i].achieved_ops_per_sec
         << ", \"rect_p99_ms\": " << sweep_points[i].rect_p99_ms << "}";
  }
  json << "\n  ],\n  \"saturation_ops_per_sec\": ";
  if (saturation.has_value()) {
    json << *saturation;
  } else {
    json << "null";
  }
  json << ",\n  \"achieved_ops_per_sec\": " << report.achieved_ops_per_sec
       << ",\n  \"duration_sec\": " << report.duration_sec
       << ",\n  \"total_errors\": " << report.total_errors
       << ",\n  \"parity_divergences\": " << divergences
       << ",\n  \"balancer\": {\"migrations_committed\": "
       << report.migrations_committed << ", \"migrations_aborted\": "
       << report.migrations_aborted << "}";
  if (report.reshard_ran) {
    json << ",\n  \"reshard\": {\"status\": \""
         << (report.reshard_status.ok() ? "OK"
                                        : report.reshard_status.ToString())
         << "\", \"millis\": " << report.reshard_millis
         << ", \"chunks_migrated\": " << report.reshard_chunks_migrated
         << ", \"docs_moved\": " << report.reshard_docs_moved << "}";
  }
  json << "\n}\n";

  if (!config.json_path.empty()) {
    std::ofstream out(config.json_path);
    out << json.str();
  }
  std::printf("%s", json.str().c_str());

  int gate_failures = 0;
  if (config.check) {
    if (divergences != 0) {
      std::fprintf(stderr,
                   "GATE: %" PRIu64 " session parity divergences (want 0)\n",
                   divergences);
      ++gate_failures;
    }
    if (report.total_errors != 0) {
      std::fprintf(stderr, "GATE: %" PRIu64 " op errors (want 0)\n",
                   report.total_errors);
      ++gate_failures;
    }
    if (config.reshard_midway &&
        (!report.reshard_ran || !report.reshard_status.ok())) {
      std::fprintf(stderr, "GATE: reshard did not complete cleanly: %s\n",
                   report.reshard_status.ToString().c_str());
      ++gate_failures;
    }
    for (const workload::TrafficClassStats& cls : report.per_class) {
      if (cls.count > 0 && cls.p99_ms > config.p99_gate_ms) {
        std::fprintf(stderr, "GATE: %s p99 %.2f ms exceeds %.2f ms\n",
                     TrafficOpClassName(cls.op_class), cls.p99_ms,
                     config.p99_gate_ms);
        ++gate_failures;
      }
    }
    if (gate_failures != 0) {
      std::fprintf(stderr,
                   "REPRO: stix_traffic --seed=%" PRIu64
                   " --sessions=%d --ops=%d --rate=%.0f --threads=%d "
                   "--shards=%d --approach=%s%s --check\n",
                   config.traffic.seed, config.traffic.num_sessions,
                   config.traffic.total_ops,
                   config.traffic.arrivals_per_sec, config.threads,
                   config.shards, st::ApproachName(config.approach),
                   config.reshard_midway ? " --reshard-midway" : "");
    }
  }
  return gate_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace stix

int main(int argc, char** argv) { return stix::TrafficMain(argc, argv); }
