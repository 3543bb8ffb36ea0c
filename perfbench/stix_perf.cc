// stix_perf — closed-loop benchmark of the public st::StStore API.
//
//   stix_perf --workload analyst_row|analyst_bucket|fleet_live --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//
// One store per process (the metrics registry is process-global, so one
// store keeps the counter deltas clean). Inputs are generated from --seed
// before any timer starts; the store only ever sees the generated
// documents and query shapes. Three client threads run a closed loop for
// --seconds: each waits for its op to finish before issuing the next.
//
// --trace 0 runs five rounds (three on fleet_live, whose set-up takes four
// times as long), each on a freshly built store, and reports the
// end-to-end metrics: set-up time and nearest-rank query p50 (medians over
// the rounds), stored bytes per point and peak RSS. A round's recorded
// phase lasts its share of --seconds and at least until it has recorded
// its share of 1000 queries. Each round reads the host's CPU steal from
// /proc/stat; a round above 5% steal is run again once per run, and a
// round kept above it is flagged in the report. Two short probe loops
// before anything else time the host's arithmetic and memory speed.
//
// --trace 1 runs one round with spans around every set-up step and
// alternates untraced and traced 250 ms slices of the timed phase: traced
// ops get spans around the calls into each layer plus the counters the API
// returns, the untraced slices give throughput and tail latencies, and the
// two slice kinds give the tracing overhead. Spans go to
// DIR/spans-<workload>-<seed>.tsv when the run ends.
//
// Every run checks its outputs against a brute-force scan of the generated
// points; the last stdout line is one JSON object with the verdict and the
// metrics.

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/percentile.h"
#include "common/rng.h"
#include "st/st_store.h"
#include "workload/traffic.h"
#include "workload/trajectory_generator.h"

namespace stix::perf {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kClients = 3;
/// Recorded queries every run needs, split evenly over its rounds.
constexpr uint64_t kMinQueries = 1000;
/// A round whose host CPU steal exceeds this share (percent) is redone, at
/// most kMaxRedos times per run, and flagged if it is kept.
constexpr double kStealRedoPct = 5.0;
constexpr int kMaxRedos = 1;
/// Analyst queries every round checks and totals: the same stream prefix
/// on both layouts, so their totals must agree.
constexpr uint64_t kFirstQueries = 200;
constexpr int64_t kHourMs = 3600LL * 1000;
constexpr int64_t kDayMs = 24 * kHourMs;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double MsBetween(int64_t a_ns, int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) / 1e6;
}

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

[[noreturn]] void Die(const std::string& what, const Status& s) {
  std::fprintf(stderr, "stix_perf: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(1);
}

// ---------------------------------------------------------------- workloads

enum class Workload { kAnalystRow, kAnalystBucket, kFleetLive };

struct WorkloadSpec {
  const char* name;
  bool bucket;
  bool durable;
  uint64_t stream_points;   ///< Points the generator emits.
  uint64_t preload_points;  ///< Points bulk-loaded during set-up.
  int warmup_queries;       ///< Fixed warm-up count after the load.
  int rounds;               ///< Untraced rounds, each on a fresh store.
};

WorkloadSpec SpecFor(Workload w) {
  switch (w) {
    case Workload::kAnalystRow:
      return {"analyst_row", false, false, 250000, 250000, 64, 5};
    case Workload::kAnalystBucket:
      return {"analyst_bucket", true, false, 250000, 250000, 8, 5};
    case Workload::kFleetLive:
      return {"fleet_live", false, true, 500000, 400000, 64, 3};
  }
  return {};
}

struct Args {
  Workload workload = Workload::kAnalystRow;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      have_workload = true;
      if (value == "analyst_row") {
        args->workload = Workload::kAnalystRow;
      } else if (value == "analyst_bucket") {
        args->workload = Workload::kAnalystBucket;
      } else if (value == "fleet_live") {
        args->workload = Workload::kFleetLive;
      } else {
        return false;
      }
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && args->seconds > 0 && !args->work_dir.empty();
}

// ------------------------------------------------------------------- inputs

/// Ground truth of one generated point (the generator emits in time order,
/// so the vector is sorted by t_ms).
struct PointRec {
  double lon;
  double lat;
  int64_t t_ms;
  int32_t vehicle;
};

uint64_t PointHash(int32_t vehicle, int64_t t_ms) {
  return Mix64(static_cast<uint64_t>(t_ms) * 1315423911ULL +
               static_cast<uint64_t>(static_cast<uint32_t>(vehicle)));
}

/// The workload's generated stream. Only the ground truth of every point
/// and the documents of the fresh (post-preload) points stay resident; each
/// set-up regenerates its preload documents and moves them into the store.
struct Inputs {
  workload::TrajectoryOptions traj;
  uint64_t preload = 0;
  std::vector<PointRec> recs;
  std::vector<bson::Document> fresh;  ///< Points [preload, stream end).
};

/// Appends generator output to `docs` (and `recs`) until `n` points.
void Pull(workload::TrajectoryGenerator* gen, uint64_t n,
          std::vector<bson::Document>* docs, std::vector<PointRec>* recs) {
  bson::Document doc;
  while (gen->emitted() < n && gen->Next(&doc)) {
    if (recs != nullptr) {
      double lon = 0, lat = 0;
      const bson::Value* loc = doc.Get("location");
      if (loc == nullptr || !bson::ExtractGeoJsonPoint(*loc, &lon, &lat)) {
        Die("generator", Status::Internal("point without location"));
      }
      recs->push_back({lon, lat, doc.Get("date")->AsDateTime(),
                       doc.Get("vehicleId")->AsInt32()});
    }
    if (docs != nullptr) docs->push_back(std::move(doc));
  }
}

Inputs Generate(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  in.traj.num_records = spec.stream_points;
  in.traj.seed = Mix64(seed ^ 0x7472616aULL);
  workload::TrajectoryGenerator gen(in.traj);
  in.recs.reserve(spec.stream_points);
  Pull(&gen, spec.preload_points, nullptr, &in.recs);
  Pull(&gen, spec.stream_points, &in.fresh, &in.recs);
  // The generator stops early once every vehicle's next sample falls past
  // the span's end, so the stream can run a little short of the request.
  in.preload = std::min<uint64_t>(spec.preload_points, in.recs.size());
  if (in.preload < spec.preload_points * 9 / 10 ||
      (spec.preload_points < spec.stream_points && in.fresh.empty())) {
    Die("generator", Status::Internal("stream much shorter than requested"));
  }
  for (size_t i = 1; i < in.recs.size(); ++i) {
    if (in.recs[i].t_ms < in.recs[i - 1].t_ms) {
      Die("generator", Status::Internal("stream not in time order"));
    }
  }
  return in;
}

/// The preload documents, regenerated (same seed, same points).
std::vector<bson::Document> PreloadDocs(const Inputs& in) {
  workload::TrajectoryGenerator gen(in.traj);
  std::vector<bson::Document> docs;
  docs.reserve(in.preload);
  Pull(&gen, in.preload, &docs, nullptr);
  return docs;
}

/// Count and order-independent hash of the points in rect x [t0, t1] among
/// recs[0, n) — the brute-force oracle every check compares against.
struct Fingerprint {
  uint64_t count = 0;
  uint64_t hash = 0;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint Oracle(const std::vector<PointRec>& recs, size_t n,
                   const geo::Rect& rect, int64_t t0, int64_t t1) {
  const auto end = recs.begin() + static_cast<std::ptrdiff_t>(n);
  auto it = std::lower_bound(
      recs.begin(), end, t0,
      [](const PointRec& r, int64_t t) { return r.t_ms < t; });
  Fingerprint fp;
  for (; it != end && it->t_ms <= t1; ++it) {
    if (rect.Contains({it->lon, it->lat})) {
      ++fp.count;
      fp.hash += PointHash(it->vehicle, it->t_ms);
    }
  }
  return fp;
}

/// Adds one batch of result documents to a fingerprint; false when a
/// document lacks the fields the oracle identifies points by.
bool AddDocs(const std::vector<bson::Document>& docs, Fingerprint* fp) {
  for (const bson::Document& d : docs) {
    const bson::Value* v = d.Get("vehicleId");
    const bson::Value* t = d.Get("date");
    if (v == nullptr || t == nullptr) return false;
    ++fp->count;
    fp->hash += PointHash(v->AsInt32(), t->AsDateTime());
  }
  return true;
}

struct QueryShape {
  geo::Rect rect;
  int64_t t0;
  int64_t t1;
};

double LogUniform(Rng* rng, double lo, double hi) {
  return lo * std::exp(rng->NextDouble() * std::log(hi / lo));
}

/// Query i of the analyst stream: a pure function of (seed, i). Centre is
/// a loaded point drawn at random; half-width is log-uniform over
/// 0.003-0.15 degrees and the window log-uniform over 1 h - 7 d around the
/// point's time. The two shape coordinates follow the R2 low-discrepancy
/// sequence from a seeded start, so every prefix of the stream covers the
/// shape distribution evenly and runs on different seeds see the same mix
/// of small and large queries.
QueryShape AnalystQuery(uint64_t stream_seed, uint64_t i,
                        const std::vector<PointRec>& recs) {
  Rng rng(Mix64(stream_seed + Mix64(i + 1)));
  const PointRec& c = recs[rng.NextBounded(recs.size())];
  const double start = static_cast<double>(stream_seed >> 11) * 0x1.0p-53;
  const double n = static_cast<double>(i);
  const double u1 = std::fmod(start + n * 0.7548776662466927, 1.0);
  const double u2 = std::fmod(start * 0.5 + n * 0.5698402909980532, 1.0);
  const double half = 0.003 * std::pow(0.15 / 0.003, u1);
  const double window = 1.0 * kHourMs * std::pow(7.0 * 24.0, u2);
  const int64_t t0 = c.t_ms - static_cast<int64_t>(window / 2);
  return {{{c.lon - half, c.lat - half}, {c.lon + half, c.lat + half}},
          t0,
          t0 + static_cast<int64_t>(window)};
}

/// The fleet's 64 hotspot cells: small rectangles around the generator's
/// cities (same centres and spreads), popularity Zipf(1.1) by rank. A fixed
/// dashboard layout: the same cells on every seed.
std::vector<geo::Rect> HotspotCells() {
  struct City {
    double lon, lat, weight, sigma;
  };
  static constexpr City kCities[] = {
      {23.7620, 37.9900, 0.12, 0.006}, {23.7275, 37.9838, 0.24, 0.050},
      {22.9444, 40.6401, 0.17, 0.040}, {21.7346, 38.2466, 0.10, 0.035},
      {25.1442, 35.3387, 0.08, 0.030}, {22.4194, 39.6390, 0.07, 0.030},
      {22.9444, 39.3622, 0.06, 0.025}, {20.8537, 39.6650, 0.05, 0.025},
      {24.4019, 40.9396, 0.05, 0.025},
  };
  Rng rng(0x686f7473706f74ULL);
  std::vector<geo::Rect> cells;
  while (cells.size() < 64) {
    double r = rng.NextDouble() * 0.94;
    const City* city = &kCities[0];
    for (const City& c : kCities) {
      city = &c;
      if (r < c.weight) break;
      r -= c.weight;
    }
    const double lon = city->lon + rng.NextGaussian() * city->sigma;
    const double lat = city->lat + rng.NextGaussian() * city->sigma * 0.8;
    const double half = LogUniform(&rng, 0.004, 0.02);
    cells.push_back({{lon - half, lat - half}, {lon + half, lat + half}});
  }
  return cells;
}

/// Recent windows a fleet dashboard offers, ending at the ingest clock's
/// day boundary, so shapes repeat and the cover cache can serve them.
constexpr int64_t kFleetWindowsMs[] = {15 * 60 * 1000LL, 30 * 60 * 1000LL,
                                       kHourMs, 2 * kHourMs, 3 * kHourMs,
                                       6 * kHourMs};

QueryShape FleetQuery(const std::vector<geo::Rect>& cells, size_t cell,
                      int window, int64_t clock_ms) {
  const int64_t t1 = clock_ms / kDayMs * kDayMs;
  return {cells[cell], t1 - kFleetWindowsMs[window], t1};
}

// ------------------------------------------------------------------ tracing

enum SpanName : uint8_t {
  kSpanQuery,       ///< Root: one drained query (OpenQuery + drain loop).
  kSpanOpenQuery,   ///< StStore::OpenQuery.
  kSpanDrain,       ///< The StCursor::NextBatch loop.
  kSpanInsert,      ///< Root: StStore::Insert.
  kSpanEnrich,      ///< Approach::EnrichDocument on a copy of the document.
  kSpanSetup,       ///< StStore construction + Setup.
  kSpanLoad,        ///< Bulk load.
  kSpanFinishLoad,  ///< StStore::FinishLoad.
  kSpanFlush,       ///< StStore::FlushBuckets.
  kSpanWarmup,      ///< Fixed-count warm-up queries.
  kNumSpanNames,
};

constexpr const char* kSpanNames[kNumSpanNames] = {
    "op.query",        "st.open_query", "cluster.drain", "op.insert",
    "st.enrich",       "setup.setup",   "setup.load",    "setup.finish_load",
    "setup.flush_buckets", "setup.warmup"};

struct Span {
  uint64_t op;
  int64_t start_ns;
  int64_t end_ns;
  uint32_t id;      ///< Index within its thread's buffer.
  int32_t parent;   ///< Id of the parent span in the same buffer, or -1.
  uint8_t name;
};

/// Per-thread span buffer: appended without locks, written at the end.
struct SpanBuffer {
  int thread = 0;
  std::vector<Span> spans;

  int32_t Add(uint64_t op, SpanName name, int64_t start, int64_t end,
              int32_t parent) {
    const auto id = static_cast<uint32_t>(spans.size());
    spans.push_back({op, start, end, id, parent, name});
    return static_cast<int32_t>(id);
  }
};

/// Counters and span durations of one traced query, as the API reports
/// them.
struct QueryTrace {
  double total_ms, open_ms, drain_ms, cover_ms;
  double shard_at_open_ms, merge_at_open_ms;
  double sum_shard_ms, max_shard_ms, merge_ms;
  uint64_t ranges, nodes, keys, docs, returned, bytes;
};

struct InsertTrace {
  double insert_ms;
  double enrich_ms;
};

// ------------------------------------------------------------------- store

struct SetupTimes {
  double total_s = 0;
  double load_ms = 0, finish_ms = 0, flush_ms = 0, warmup_ms = 0;
};

st::StStoreOptions OptionsFor(const WorkloadSpec& spec, const Args& args,
                              const Inputs& in) {
  st::StStoreOptions options;
  options.approach.kind = st::ApproachKind::kHil;
  options.cluster.seed = args.seed;
  if (spec.durable) {
    options.cluster.durability.data_dir = args.work_dir + "/wal";
  }
  if (spec.bucket) {
    // The bucket bench's recipe: a window sized for ~64 points per
    // (vehicle, window) bucket, and 64 coarse curve cells.
    storage::BucketLayout layout;
    const int64_t span_ms = in.traj.t_end_ms - in.traj.t_begin_ms;
    const auto target = static_cast<int64_t>(
        static_cast<double>(span_ms) * 64.0 * in.traj.num_vehicles /
        static_cast<double>(spec.stream_points));
    layout.window_ms = std::clamp<int64_t>(target, kHourMs, span_ms);
    layout.hilbert_shift = 20;
    options.bucket = layout;
  }
  return options;
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) Die(what, s);
}

/// Runs one drained query; fills `fp` when non-null.
Status RunQuery(const st::StStore& store, const QueryShape& q,
                Fingerprint* fp) {
  const st::StQueryResult r = store.Query(q.rect, q.t0, q.t1);
  if (!r.cluster.status.ok()) return r.cluster.status;
  if (fp != nullptr && !AddDocs(r.cluster.docs, fp)) {
    return Status::Internal("result document without vehicleId/date");
  }
  return Status::OK();
}

/// Builds, loads and warms one store. `spans`/`inserts` (optional) receive
/// the set-up spans and the per-insert traces of the bulk load.
std::unique_ptr<st::StStore> BuildStore(const WorkloadSpec& spec,
                                        const Args& args, const Inputs& in,
                                        std::vector<bson::Document> docs,
                                        const std::vector<geo::Rect>& cells,
                                        SetupTimes* times,
                                        SpanBuffer* spans,
                                        std::vector<InsertTrace>* inserts) {
  if (spec.durable) {
    std::filesystem::remove_all(args.work_dir + "/wal");
  }
  const st::StStoreOptions options = OptionsFor(spec, args, in);
  const int64_t t_begin = NowNs();

  auto store = std::make_unique<st::StStore>(options);
  Check(store->Setup(), "setup");
  const int64_t t_setup = NowNs();

  for (bson::Document& doc : docs) {
    if (inserts == nullptr) {
      Check(store->Insert(std::move(doc)), "load insert");
      continue;
    }
    bson::Document copy = doc;
    const int64_t e0 = NowNs();
    Check(store->approach().EnrichDocument(&copy), "enrich");
    const int64_t a = NowNs();
    Check(store->Insert(std::move(doc)), "load insert");
    inserts->push_back({MsBetween(a, NowNs()), MsBetween(e0, a)});
  }
  const int64_t t_load = NowNs();
  Check(store->FinishLoad(), "finish load");
  const int64_t t_finish = NowNs();
  Check(store->FlushBuckets(), "flush buckets");
  const int64_t t_flush = NowNs();

  // Warm-up: one query over the whole data MBR and a one-hour window (it
  // targets every shard, so each builds its statistics), then a fixed
  // count of queries of the workload's filter shape. Analyst warm-up
  // queries take the stream's smallest rectangle and window around a
  // random loaded point, so the warm-up's cost hardly depends on the seed
  // (a few large shapes drawn from the stream made it vary twofold).
  const workload::TrajectoryOptions& traj = in.traj;
  Check(RunQuery(*store,
                 {traj.mbr, in.recs[in.preload - 1].t_ms - kHourMs,
                  in.recs[in.preload - 1].t_ms},
                 nullptr),
        "warm-up");
  Rng rng(Mix64(args.seed ^ 0x7761726dULL));
  const workload::ZipfSampler zipf(cells.empty() ? 1 : cells.size(), 1.1);
  for (int i = 0; i < spec.warmup_queries; ++i) {
    QueryShape q;
    if (cells.empty()) {
      const PointRec& c = in.recs[rng.NextBounded(in.preload)];
      q = {{{c.lon - 0.003, c.lat - 0.003}, {c.lon + 0.003, c.lat + 0.003}},
           c.t_ms - kHourMs / 2,
           c.t_ms + kHourMs / 2};
    } else {
      q = FleetQuery(cells, zipf.Sample(&rng),
                     static_cast<int>(rng.NextBounded(6)),
                     in.recs[in.preload - 1].t_ms);
    }
    Check(RunQuery(*store, q, nullptr), "warm-up");
  }
  const int64_t t_end = NowNs();

  times->total_s = static_cast<double>(t_end - t_begin) / 1e9;
  times->load_ms = MsBetween(t_setup, t_load);
  times->finish_ms = MsBetween(t_load, t_finish);
  times->flush_ms = MsBetween(t_finish, t_flush);
  times->warmup_ms = MsBetween(t_flush, t_end);
  if (spans != nullptr) {
    spans->Add(0, kSpanSetup, t_begin, t_setup, -1);
    spans->Add(0, kSpanLoad, t_setup, t_load, -1);
    spans->Add(0, kSpanFinishLoad, t_load, t_finish, -1);
    spans->Add(0, kSpanFlush, t_finish, t_flush, -1);
    spans->Add(0, kSpanWarmup, t_flush, t_end, -1);
  }
  return store;
}

// -------------------------------------------------------------- timed phase

/// A query whose result is compared with the oracle after the run.
struct SampledQuery {
  uint64_t index;
  Fingerprint got;
};

struct FleetQueryKey {
  uint32_t cell;
  int32_t window;
  int64_t clock_ms;
  bool operator<(const FleetQueryKey& o) const {
    return std::tie(cell, window, clock_ms) <
           std::tie(o.cell, o.window, o.clock_ms);
  }
};

struct ClientResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t failed_inserts = 0;
  uint64_t queries = 0;   ///< Queries run, recorded or not.
  uint64_t returned = 0;  ///< Documents those queries returned.
  uint64_t ops_by_mode[2] = {0, 0};  ///< [untraced, traced]
  std::vector<double> query_ms;      ///< Untraced ops only.
  std::vector<double> insert_ms;     ///< Untraced ops only.
  std::vector<SampledQuery> sampled;
  std::vector<FleetQueryKey> fleet_keys;
  std::vector<QueryTrace> query_traces;
  std::vector<InsertTrace> insert_traces;
  SpanBuffer spans;
  std::string first_error;
};

struct Shared {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> traced{false};
  std::atomic<uint64_t> next_query{0};  ///< Analyst stream position.
  std::atomic<uint64_t> next_fresh{0};  ///< Fleet fresh-point position.
  std::atomic<bool> exhausted{false};
  /// False during the unrecorded first half second: ops run, uncounted.
  std::atomic<bool> recording{false};
  std::atomic<uint64_t> recorded_queries{0};
};

/// Analyst queries compared with the oracle: the first 200 of the stream
/// (a fixed set both layouts always complete) and every 16th after that.
bool SampleAnalyst(uint64_t i) { return i < kFirstQueries || i % 16 == 0; }

/// One traced drained query: spans around OpenQuery and the NextBatch loop
/// plus the TranslatedQuery / ClusterQueryResult counters.
Status TracedQuery(const st::StStore& store, const QueryShape& q,
                   uint64_t op, ClientResult* out, Fingerprint* fp) {
  st::StCursorOptions drain_all;
  drain_all.batch_size = 0;
  drain_all.limit = 0;
  const int64_t t0 = NowNs();
  st::StCursor cursor = store.OpenQuery(q.rect, q.t0, q.t1, drain_all);
  const int64_t t1 = NowNs();
  const st::StQueryResult at_open = cursor.Summary();
  const int64_t t2 = NowNs();
  bool fields_ok = true;
  for (;;) {
    std::vector<bson::Document> batch = cursor.NextBatch();
    if (batch.empty()) break;
    if (fp != nullptr) fields_ok = AddDocs(batch, fp) && fields_ok;
  }
  const int64_t t3 = NowNs();
  const int32_t root = out->spans.Add(op, kSpanQuery, t0, t3, -1);
  out->spans.Add(op, kSpanOpenQuery, t0, t1, root);
  out->spans.Add(op, kSpanDrain, t2, t3, root);

  const st::StQueryResult r = cursor.Summary();
  const cluster::ClusterQueryResult& c = r.cluster;
  const st::TranslatedQuery& tq = r.translated;
  out->query_traces.push_back(
      {MsBetween(t0, t3), MsBetween(t0, t1), MsBetween(t2, t3),
       tq.cover_millis, at_open.cluster.sum_shard_millis,
       at_open.cluster.merge_millis, c.sum_shard_millis, c.max_shard_millis,
       c.merge_millis, tq.num_ranges + tq.num_singletons,
       static_cast<uint64_t>(c.nodes_contacted), c.total_keys_examined,
       c.total_docs_examined, c.n_returned, c.bytes_materialized});
  out->returned += c.n_returned;
  if (!c.status.ok()) return c.status;
  if (!fields_ok) return Status::Internal("result without vehicleId/date");
  return Status::OK();
}

void AnalystClient(int id, const st::StStore& store, const Inputs& in,
                   uint64_t stream_seed, Shared* shared, ClientResult* out) {
  out->spans.thread = id + 1;
  uint64_t local_ops = 0;
  while (!shared->go.load(std::memory_order_acquire)) std::this_thread::yield();
  while (!shared->stop.load(std::memory_order_relaxed)) {
    const bool recording = shared->recording.load(std::memory_order_relaxed);
    const bool traced = shared->traced.load(std::memory_order_relaxed);
    const uint64_t i = shared->next_query.fetch_add(1);
    ++out->queries;
    const QueryShape q = AnalystQuery(stream_seed, i, in.recs);
    const bool sample = SampleAnalyst(i);
    Fingerprint fp;
    Status s;
    if (traced) {
      const uint64_t op = (static_cast<uint64_t>(id + 1) << 40) | ++local_ops;
      s = TracedQuery(store, q, op, out, sample ? &fp : nullptr);
    } else {
      const int64_t a = NowNs();
      const st::StQueryResult r = store.Query(q.rect, q.t0, q.t1);
      const int64_t b = NowNs();
      if (recording) out->query_ms.push_back(MsBetween(a, b));
      out->returned += r.cluster.n_returned;
      s = r.cluster.status;
      if (s.ok() && sample && !AddDocs(r.cluster.docs, &fp)) {
        s = Status::Internal("result without vehicleId/date");
      }
    }
    ++out->attempted;
    if (recording) {
      ++out->ops_by_mode[traced ? 1 : 0];
      shared->recorded_queries.fetch_add(1, std::memory_order_relaxed);
    }
    if (!s.ok()) {
      ++out->failed;
      if (out->first_error.empty()) out->first_error = s.ToString();
    } else if (sample) {
      out->sampled.push_back({i, fp});
    }
  }
}

void FleetClient(int id, st::StStore& store, const Inputs& in,
                 const std::vector<geo::Rect>& cells, uint64_t seed,
                 Shared* shared, ClientResult* out) {
  out->spans.thread = id + 1;
  Rng rng(Mix64(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(id)));
  const workload::ZipfSampler zipf(cells.size(), 1.1);
  const uint64_t fresh = in.fresh.size();
  uint64_t local_ops = 0;
  while (!shared->go.load(std::memory_order_acquire)) std::this_thread::yield();
  while (!shared->stop.load(std::memory_order_relaxed)) {
    const bool recording = shared->recording.load(std::memory_order_relaxed);
    const bool traced = shared->traced.load(std::memory_order_relaxed);
    const uint64_t op = (static_cast<uint64_t>(id + 1) << 40) | ++local_ops;
    Status s;
    if (rng.NextDouble() < 0.8) {
      const uint64_t k = shared->next_fresh.fetch_add(1);
      if (k >= fresh) {
        shared->exhausted.store(true);
        shared->stop.store(true);
        break;
      }
      bson::Document doc = in.fresh[k];
      double enrich_ms = 0;
      if (traced) {
        bson::Document copy = doc;
        const int64_t e0 = NowNs();
        s = store.approach().EnrichDocument(&copy);
        const int64_t e1 = NowNs();
        enrich_ms = MsBetween(e0, e1);
        out->spans.Add(op, kSpanEnrich, e0, e1, -1);
      }
      const int64_t a = NowNs();
      if (s.ok()) s = store.Insert(std::move(doc));
      const int64_t b = NowNs();
      if (!s.ok()) ++out->failed_inserts;
      if (traced) {
        out->spans.Add(op, kSpanInsert, a, b, -1);
        out->insert_traces.push_back({MsBetween(a, b), enrich_ms});
      } else if (recording) {
        out->insert_ms.push_back(MsBetween(a, b));
      }
    } else {
      const uint64_t taken = std::min(
          shared->next_fresh.load(std::memory_order_relaxed), fresh);
      const int64_t clock = in.recs[in.preload + taken - 1].t_ms;
      const auto cell = static_cast<uint32_t>(zipf.Sample(&rng));
      const auto window = static_cast<int32_t>(rng.NextBounded(6));
      const QueryShape q = FleetQuery(cells, cell, window, clock);
      out->fleet_keys.push_back({cell, window, clock});
      ++out->queries;
      if (recording) {
        shared->recorded_queries.fetch_add(1, std::memory_order_relaxed);
      }
      if (traced) {
        s = TracedQuery(store, q, op, out, nullptr);
      } else {
        const int64_t a = NowNs();
        const st::StQueryResult r = store.Query(q.rect, q.t0, q.t1);
        const int64_t b = NowNs();
        if (recording) out->query_ms.push_back(MsBetween(a, b));
        out->returned += r.cluster.n_returned;
        s = r.cluster.status;
      }
    }
    ++out->attempted;
    if (recording) ++out->ops_by_mode[traced ? 1 : 0];
    if (!s.ok()) {
      ++out->failed;
      if (out->first_error.empty()) out->first_error = s.ToString();
    }
  }
}

// ----------------------------------------------------------------- counters

/// Registry counters plus the shard lock-wait histogram sum, read before
/// and after the timed phase (the registry is what ServerStatus renders).
struct Counters {
  std::map<std::string, uint64_t> values;
  uint64_t lock_wait_us = 0;

  static Counters Read() {
    Counters c;
    const MetricsRegistry::Snapshot snap = MetricsRegistry::Instance().Snap();
    for (const MetricsRegistry::Entry& e : snap.counters) {
      c.values[e.name] = e.counter;
    }
    for (const MetricsRegistry::Entry& e : snap.histograms) {
      if (e.name == "shard.lock_wait_micros") c.lock_wait_us = e.histo.sum;
    }
    return c;
  }

  uint64_t Delta(const Counters& before, const std::string& name) const {
    const auto a = values.find(name);
    const auto b = before.values.find(name);
    const uint64_t after_v = a == values.end() ? 0 : a->second;
    const uint64_t before_v = b == before.values.end() ? 0 : b->second;
    return after_v - before_v;
  }
};

/// The host's aggregate CPU time from the first line of /proc/stat, in
/// clock ticks. On a virtual machine `steal` is the time the hypervisor ran
/// something else while this guest's CPUs wanted to run.
struct HostCpu {
  uint64_t steal = 0;
  uint64_t total = 0;
  bool ok = false;

  static HostCpu Read() {
    HostCpu c;
    std::ifstream in("/proc/stat");
    std::string cpu;
    uint64_t v[8] = {};  // user nice system idle iowait irq softirq steal
    if (!(in >> cpu) || cpu != "cpu") return c;
    for (uint64_t& x : v) {
      if (!(in >> x)) return c;
    }
    c.steal = v[7];
    for (uint64_t x : v) c.total += x;
    c.ok = true;
    return c;
  }
};

/// Steal between two readings as a percentage of all CPU time; -1 when
/// /proc/stat could not be read.
double StealPct(const HostCpu& a, const HostCpu& b) {
  if (!a.ok || !b.ok || b.total <= a.total) return -1.0;
  return 100.0 * static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

/// Wall times of two fixed single-threaded loops that probe how fast the
/// host runs this process right now, which steal does not show: integer
/// arithmetic (a busy sibling hyperthread, a slower clock) and a dependent
/// walk over a 16 MB random cycle (other tenants' use of the shared cache
/// and memory). Reported next to the results, never used to scale them.
struct HostProbe {
  double alu_ms = 0;
  double mem_ms = 0;
};

HostProbe ProbeHost() {
  // Runs once, before the inputs exist; the cycle is mapped and unmapped
  // here, so it neither counts in the store's peak RSS nor moves malloc's
  // thresholds.
  constexpr size_t kSlots = 4u << 20;
  constexpr size_t kBytes = kSlots * sizeof(uint32_t);
  void* mem = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return {};
  auto* next = static_cast<uint32_t*>(mem);
  // Sattolo's algorithm: one random cycle through every slot.
  for (uint32_t i = 0; i < kSlots; ++i) next[i] = i;
  Rng rng(0x70726f6265ULL);
  for (size_t i = kSlots - 1; i > 0; --i) {
    std::swap(next[i], next[rng.NextBounded(i)]);
  }
  HostProbe p;
  const int64_t t0 = NowNs();
  uint64_t x = 1;
  for (int i = 0; i < 20000000; ++i) x = Mix64(x + static_cast<uint64_t>(i));
  const int64_t t1 = NowNs();
  uint32_t at = 0;
  for (int i = 0; i < 1000000; ++i) at = next[at];
  const int64_t t2 = NowNs();
  munmap(mem, kBytes);
  // Keep both loops from being optimized away.
  if (x == 0 || at == 0xffffffffu) std::fprintf(stderr, "stix_perf: probe\n");
  p.alu_ms = MsBetween(t0, t1);
  p.mem_ms = MsBetween(t1, t2);
  return p;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double Median(std::vector<double> v) { return PercentileOf(std::move(v), 50); }

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void WriteSpans(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers) {
  std::ofstream out(path, std::ios::trunc);
  out << "thread\top\tspan\tparent\tname\tstart_ns\tend_ns\n";
  for (const SpanBuffer* b : buffers) {
    for (const Span& s : b->spans) {
      out << b->thread << '\t' << s.op << '\t' << s.id << '\t' << s.parent
          << '\t' << kSpanNames[s.name] << '\t' << s.start_ns << '\t'
          << s.end_ns << '\n';
    }
  }
  if (!out.good()) {
    std::fprintf(stderr, "stix_perf: cannot write %s\n", path.c_str());
  }
}

/// Everything one round measured: a fresh store's set-up, its timed phase
/// and the output checks against that store.
struct RoundResult {
  SetupTimes times;
  std::vector<InsertTrace> load_inserts;  ///< Traced bulk-load inserts.
  SpanBuffer setup_spans;
  std::vector<ClientResult> clients;
  ClientResult all;  ///< The clients merged (spans stay per client).
  double wall_s = 0;   ///< Recorded seconds.
  double phase_s = 0;  ///< Client seconds including the unrecorded start.
  double mode_s[2] = {0, 0};  ///< Recorded seconds [untraced, traced].
  uint64_t recorded_queries = 0;
  double steal_pct = -1;  ///< Host CPU steal from set-up to the phase's end.
  bool kept = true;       ///< False when redone for its steal.
  Counters before;
  Counters after;
  st::CoverCacheStats cover_before;
  st::CoverCacheStats cover_after;
  size_t chunks_before = 0;
  size_t chunks_after = 0;
  uint64_t fresh_taken = 0;
  uint64_t stored_points = 0;
  bool exhausted = false;
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  uint64_t prefix_results = 0;
  uint64_t stored_bytes = 0;  ///< Record-store compressed + index bytes.
  uint64_t record_bytes = 0;
  uint64_t index_bytes = 0;
  /// Traced runs: bucket-unpack counters of a sample of the round's
  /// queries, re-run through StStore::Explain after the timed phase.
  uint64_t explained = 0;
  uint64_t explained_returned = 0;
  uint64_t points_unpacked = 0;
  uint64_t buckets_pruned = 0;

  uint64_t recorded() const {
    return all.ops_by_mode[0] + all.ops_by_mode[1];
  }
  double throughput() const { return Ratio(recorded(), wall_s); }
};

void Merge(const ClientResult& r, ClientResult* all) {
  all->attempted += r.attempted;
  all->failed += r.failed;
  all->failed_inserts += r.failed_inserts;
  all->queries += r.queries;
  all->returned += r.returned;
  all->ops_by_mode[0] += r.ops_by_mode[0];
  all->ops_by_mode[1] += r.ops_by_mode[1];
  const auto append = [](auto* dst, const auto& src) {
    dst->insert(dst->end(), src.begin(), src.end());
  };
  append(&all->query_ms, r.query_ms);
  append(&all->insert_ms, r.insert_ms);
  append(&all->sampled, r.sampled);
  append(&all->fleet_keys, r.fleet_keys);
  append(&all->query_traces, r.query_traces);
  append(&all->insert_traces, r.insert_traces);
  if (all->first_error.empty()) all->first_error = r.first_error;
}

/// Compares the round's outputs with the brute-force oracle. Analyst: every
/// sampled query. Fleet, after quiesce: the document count, then up to 400
/// of the distinct hotspot queries the clients issued, re-run.
void CheckRound(const st::StStore& store, const Inputs& in,
                const std::vector<geo::Rect>& cells, uint64_t stream_seed,
                uint64_t queries_started, RoundResult* r) {
  if (cells.empty()) {
    for (const SampledQuery& sq : r->all.sampled) {
      const QueryShape q = AnalystQuery(stream_seed, sq.index, in.recs);
      ++r->checked;
      const Fingerprint want =
          Oracle(in.recs, in.recs.size(), q.rect, q.t0, q.t1);
      if (!(sq.got == want)) {
        ++r->mismatches;
        std::fprintf(stderr,
                     "stix_perf: query %" PRIu64 " rect=[(%.9f,%.9f)-(%.9f,"
                     "%.9f)] t=[%" PRId64 ",%" PRId64 "] returned %" PRIu64
                     " documents, the oracle %" PRIu64 "\n",
                     sq.index, q.rect.lo.lon, q.rect.lo.lat, q.rect.hi.lon,
                     q.rect.hi.lat, q.t0, q.t1, sq.got.count, want.count);
      }
      if (sq.index < kFirstQueries) r->prefix_results += sq.got.count;
    }
    if (queries_started < kFirstQueries) ++r->mismatches;  // too few to compare
    return;
  }
  if (store.cluster().total_documents() != r->stored_points) ++r->mismatches;
  std::vector<FleetQueryKey>& keys = r->all.fleet_keys;
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end(),
                         [](const FleetQueryKey& a, const FleetQueryKey& b) {
                           return !(a < b) && !(b < a);
                         }),
             keys.end());
  const size_t stride = std::max<size_t>(1, keys.size() / 400);
  for (size_t k = 0; k < keys.size(); k += stride) {
    const QueryShape q =
        FleetQuery(cells, keys[k].cell, keys[k].window, keys[k].clock_ms);
    Fingerprint got;
    const Status s = RunQuery(store, q, &got);
    ++r->checked;
    if (!s.ok() ||
        !(got == Oracle(in.recs, r->stored_points, q.rect, q.t0, q.t1))) {
      ++r->mismatches;
    }
  }
}

void AddUnpackCounters(const query::ExplainNode& node, RoundResult* r) {
  r->points_unpacked += node.points_unpacked;
  r->buckets_pruned += node.buckets_pruned;
  for (const query::ExplainNode& child : node.children) {
    AddUnpackCounters(child, r);
  }
}

/// Re-runs up to 64 of the round's queries through StStore::Explain and
/// sums the bucket-unpack counters of every shard's winning plan: the
/// BUCKET_UNPACK stage reports them through explain only. Runs after the
/// counters and cover-cache stats of the timed phase have been read.
void ExplainSample(const st::StStore& store, const Inputs& in,
                   const std::vector<geo::Rect>& cells, uint64_t stream_seed,
                   RoundResult* r) {
  std::vector<QueryShape> shapes;
  for (const SampledQuery& sq : r->all.sampled) {
    shapes.push_back(AnalystQuery(stream_seed, sq.index, in.recs));
  }
  for (const FleetQueryKey& k : r->all.fleet_keys) {
    shapes.push_back(FleetQuery(cells, k.cell, k.window, k.clock_ms));
  }
  const size_t stride = std::max<size_t>(1, shapes.size() / 64);
  for (size_t i = 0; i < shapes.size(); i += stride) {
    const QueryShape& q = shapes[i];
    const st::StExplain e = store.Explain(q.rect, q.t0, q.t1);
    if (!e.cluster.result.status.ok()) {
      ++r->mismatches;
      std::fprintf(stderr, "stix_perf: explain failed: %s\n",
                   e.cluster.result.status.ToString().c_str());
      continue;
    }
    ++r->explained;
    r->explained_returned += e.cluster.result.n_returned;
    for (const cluster::ShardExplain& shard : e.cluster.shards) {
      AddUnpackCounters(shard.winning_plan, r);
    }
  }
}

/// One round: builds and warms a fresh store, runs the clients for
/// `seconds` and until they have recorded `min_queries` queries (fleet: or
/// until the fresh stream is used up), checks the outputs, and measures
/// the footprint.
RoundResult RunRound(const WorkloadSpec& spec, const Args& args,
                     const Inputs& in, const std::vector<geo::Rect>& cells,
                     double seconds, uint64_t min_queries) {
  const bool fleet = !cells.empty();
  RoundResult r;
  const HostCpu cpu_begin = HostCpu::Read();
  std::unique_ptr<st::StStore> store =
      BuildStore(spec, args, in, PreloadDocs(in), cells, &r.times,
                 args.trace ? &r.setup_spans : nullptr,
                 args.trace && !fleet ? &r.load_inserts : nullptr);

  r.before = Counters::Read();
  r.cover_before = store->approach().cover_cache_stats();
  r.chunks_before = store->cluster().chunks().num_chunks();
  const uint64_t stream_seed = Mix64(args.seed ^ 0x616e616cULL);

  Shared shared;
  r.clients.resize(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    if (fleet) {
      threads.emplace_back(FleetClient, c, std::ref(*store), std::cref(in),
                           std::cref(cells), args.seed, &shared,
                           &r.clients[c]);
    } else {
      threads.emplace_back(AnalystClient, c, std::cref(*store), std::cref(in),
                           stream_seed, &shared, &r.clients[c]);
    }
  }
  // Half a second runs the same loop unrecorded, so thread arenas, plan
  // caches and the cover cache reach their running state first. Traced
  // runs then alternate 250 ms untraced / traced slices so both modes see
  // the same store state; the controller times each mode's slices. The
  // recorded phase runs past `seconds` (up to three times it) while fewer
  // than `min_queries` queries have been recorded.
  const int64_t t_go = NowNs();
  shared.go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const int64_t t_start = NowNs();
  const int64_t deadline = t_start + static_cast<int64_t>(seconds * 1e9);
  const int64_t hard_deadline =
      t_start + static_cast<int64_t>(3 * seconds * 1e9);
  shared.recording.store(true);
  int64_t slice_start = t_start;
  bool traced = false;
  for (;;) {
    const int64_t now = NowNs();
    if (shared.stop.load() || now >= hard_deadline ||
        (now >= deadline && shared.recorded_queries.load() >= min_queries)) {
      break;
    }
    const int64_t slice_end = slice_start + 250000000;
    if (now >= slice_end) {
      r.mode_s[traced ? 1 : 0] += static_cast<double>(now - slice_start) / 1e9;
      slice_start = now;
      if (args.trace) {
        traced = !traced;
        shared.traced.store(traced);
      }
      continue;
    }
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::min<int64_t>(slice_end - now, 5000000)));
  }
  shared.stop.store(true);
  for (std::thread& t : threads) t.join();
  const int64_t t_stop = NowNs();
  r.mode_s[traced ? 1 : 0] += static_cast<double>(t_stop - slice_start) / 1e9;
  r.wall_s = static_cast<double>(t_stop - t_start) / 1e9;
  r.phase_s = static_cast<double>(t_stop - t_go) / 1e9;
  r.exhausted = shared.exhausted.load();
  r.recorded_queries = shared.recorded_queries.load();
  r.steal_pct = StealPct(cpu_begin, HostCpu::Read());

  r.after = Counters::Read();
  r.cover_after = store->approach().cover_cache_stats();
  r.chunks_after = store->cluster().chunks().num_chunks();
  for (const ClientResult& c : r.clients) Merge(c, &r.all);
  if (args.trace) ExplainSample(*store, in, cells, stream_seed, &r);

  // Every taken fresh point was inserted (a failed insert counts as failed
  // above), so the store must hold the preload plus that prefix.
  r.fresh_taken = std::min<uint64_t>(shared.next_fresh.load(), in.fresh.size());
  r.stored_points = in.preload + r.fresh_taken - r.all.failed_inserts;
  CheckRound(*store, in, cells, stream_seed, shared.next_query.load(), &r);

  const storage::CollectionStats data = store->cluster().ComputeDataStats();
  r.record_bytes = data.compressed_bytes;
  for (const auto& [name, bytes] : store->cluster().ComputeIndexSizes()) {
    r.index_bytes += bytes;
  }
  r.stored_bytes = r.record_bytes + r.index_bytes;
  store.reset();
  if (spec.durable) std::filesystem::remove_all(args.work_dir + "/wal");
  return r;
}

using Metrics = std::vector<Metric>;

void AddMetric(Metrics* m, const std::string& name, double value,
               const char* unit) {
  m->push_back({name, value, unit});
}

/// End-to-end metrics: set-up time and query p50 are medians over the
/// kept rounds of each round's value, so one round disturbed by the host
/// does not move them; the footprint is the last round's.
Metrics EndToEnd(const std::vector<RoundResult>& rounds) {
  std::vector<double> setup_s, q50;
  for (const RoundResult& r : rounds) {
    if (!r.kept) continue;
    setup_s.push_back(r.times.total_s);
    q50.push_back(PercentileOf(r.all.query_ms, 50));
  }
  const RoundResult& last = rounds.back();
  Metrics m;
  AddMetric(&m, "setup_s", Median(setup_s), "s");
  AddMetric(&m, "query_p50_ms", Median(q50), "ms");
  AddMetric(&m, "stored_bytes_per_point",
            Ratio(static_cast<double>(last.stored_bytes),
                  static_cast<double>(last.stored_points)),
            "B");
  AddMetric(&m, "peak_rss_mb", PeakRssMb(), "MB");
  return m;
}

/// Per-layer metrics of one traced round. Times are per-op means, so the
/// self times and the unattributed remainder add up to the mean root span.
Metrics PerLayer(const RoundResult& r, const HostProbe& probe, bool fleet,
                 uint64_t preload) {
  const std::vector<QueryTrace>& qt = r.all.query_traces;
  const std::vector<InsertTrace>& it =
      fleet ? r.all.insert_traces : r.load_inserts;
  QueryTrace sum{};
  for (const QueryTrace& t : qt) {
    sum.total_ms += t.total_ms;
    sum.open_ms += t.open_ms;
    sum.drain_ms += t.drain_ms;
    sum.cover_ms += t.cover_ms;
    sum.shard_at_open_ms += t.shard_at_open_ms;
    sum.merge_at_open_ms += t.merge_at_open_ms;
    sum.sum_shard_ms += t.sum_shard_ms;
    sum.max_shard_ms += t.max_shard_ms;
    sum.merge_ms += t.merge_ms;
    sum.ranges += t.ranges;
    sum.nodes += t.nodes;
    sum.keys += t.keys;
    sum.docs += t.docs;
    sum.returned += t.returned;
    sum.bytes += t.bytes;
  }
  const double nq = static_cast<double>(qt.size());
  const double open_self = sum.open_ms - sum.cover_ms - sum.shard_at_open_ms -
                           sum.merge_at_open_ms;
  const double drain_self = sum.drain_ms -
                            (sum.sum_shard_ms - sum.shard_at_open_ms) -
                            (sum.merge_ms - sum.merge_at_open_ms);
  const double root_self = sum.total_ms - sum.open_ms - sum.drain_ms;
  const double unattributed = open_self + drain_self + root_self;
  double insert_sum = 0, enrich_sum = 0;
  for (const InsertTrace& t : it) {
    insert_sum += t.insert_ms;
    enrich_sum += t.enrich_ms;
  }
  const double ni = static_cast<double>(it.size());
  const double returned = static_cast<double>(sum.returned);
  const double inserts = static_cast<double>(r.fresh_taken);
  const auto delta = [&](const char* name) {
    return static_cast<double>(r.after.Delta(r.before, name));
  };
  const double translations = static_cast<double>(
      (r.cover_after.hits + r.cover_after.misses) -
      (r.cover_before.hits + r.cover_before.misses));
  const double points = static_cast<double>(r.stored_points);

  Metrics m;
  const auto add = [&m](const char* name, double value, const char* unit) {
    AddMetric(&m, name, value, unit);
  };
  add("st.open_query_ms", Ratio(sum.open_ms, nq), "ms");
  add("st.open_query_self_ms", Ratio(open_self, nq), "ms");
  add("st.cover_ms", Ratio(sum.cover_ms, nq), "ms");
  add("st.cover_cache_hit_ratio",
      Ratio(static_cast<double>(r.cover_after.hits - r.cover_before.hits),
            translations),
      "ratio");
  add("st.insert_ms", Ratio(insert_sum, ni), "ms");
  add("st.enrich_ms", Ratio(enrich_sum, ni), "ms");
  add("geo.ranges_per_query", Ratio(static_cast<double>(sum.ranges), nq),
      "count/query");
  add("cluster.drain_ms", Ratio(sum.drain_ms, nq), "ms");
  add("cluster.drain_self_ms", Ratio(drain_self, nq), "ms");
  add("cluster.max_shard_ms", Ratio(sum.max_shard_ms, nq), "ms");
  add("cluster.sum_shard_ms", Ratio(sum.sum_shard_ms, nq), "ms");
  add("cluster.merge_ms", Ratio(sum.merge_ms, nq), "ms");
  add("cluster.nodes_per_query", Ratio(static_cast<double>(sum.nodes), nq),
      "count/query");
  add("cluster.bytes_materialized_per_result",
      Ratio(static_cast<double>(sum.bytes), returned), "B/result");
  add("cluster.migrations_committed", delta("balancer.migrations_committed"),
      "count");
  add("cluster.migrations_aborted", delta("balancer.migrations_aborted"),
      "count");
  add("cluster.chunks_split",
      static_cast<double>(r.chunks_after - r.chunks_before), "count");
  // Share of the clients' time spent waiting for shard locks (zero on the
  // read-only workloads, which is why it is a share and not a time).
  add("cluster.shard_lock_wait_share",
      Ratio(static_cast<double>(r.after.lock_wait_us - r.before.lock_wait_us) /
                1e6,
            kClients * r.phase_s),
      "ratio");
  add("cluster.finish_load_ms", r.times.finish_ms, "ms");
  add("query.keys_examined_per_result",
      Ratio(static_cast<double>(sum.keys), returned), "count/result");
  add("query.docs_examined_per_result",
      Ratio(static_cast<double>(sum.docs), returned), "count/result");
  add("query.plans_raced_ratio",
      Ratio(delta("planner.plans_raced"), delta("planner.plans_total")),
      "ratio");
  add("query.replans", delta("executor.replans"), "count");
  // From the explained sample; zero on the row layout, which has no
  // BUCKET_UNPACK stage.
  add("storage.points_unpacked_per_result",
      Ratio(static_cast<double>(r.points_unpacked),
            static_cast<double>(r.explained_returned)),
      "count/result");
  add("storage.buckets_pruned",
      Ratio(static_cast<double>(r.buckets_pruned),
            static_cast<double>(r.explained)),
      "count/query");
  add("storage.flush_buckets_ms", r.times.flush_ms, "ms");
  add("storage.wal_bytes_per_insert",
      Ratio(delta("wal.bytes_written"), inserts), "B/insert");
  add("storage.wal_syncs_per_insert", Ratio(delta("wal.syncs"), inserts),
      "count/insert");
  add("storage.record_bytes_per_point",
      Ratio(static_cast<double>(r.record_bytes), points), "B");
  add("storage.index_bytes_per_point",
      Ratio(static_cast<double>(r.index_bytes), points), "B");
  add("storage.load_ms_per_kpoint",
      r.times.load_ms / (static_cast<double>(preload) / 1e3), "ms");
  // Latencies of the untraced slices (analyst inserts: the traced bulk
  // load, call by call). They sit here rather than among the end-to-end
  // metrics because on fleet_live they swing with the host's CPU steal.
  std::vector<double> insert_ms = r.all.insert_ms;
  if (!fleet) {
    for (const InsertTrace& t : it) insert_ms.push_back(t.insert_ms);
  }
  add("tail.query_p99_ms", PercentileOf(r.all.query_ms, 99), "ms");
  add("tail.insert_p50_ms", PercentileOf(insert_ms, 50), "ms");
  add("tail.insert_p99_ms", PercentileOf(insert_ms, 99), "ms");
  add("trace.query_ms", Ratio(sum.total_ms, nq), "ms");
  add("trace.query_unattributed_ms", Ratio(unattributed, nq), "ms");
  add("trace.query_unattributed_share", Ratio(unattributed, sum.total_ms),
      "ratio");
  add("trace.insert_unattributed_ms", Ratio(insert_sum - enrich_sum, ni),
      "ms");
  const double untraced =
      Ratio(static_cast<double>(r.all.ops_by_mode[0]), r.mode_s[0]);
  const double traced =
      Ratio(static_cast<double>(r.all.ops_by_mode[1]), r.mode_s[1]);
  add("trace.untraced_throughput_ops_s", untraced, "1/s");
  add("trace.traced_throughput_ops_s", traced, "1/s");
  add("trace.overhead_pct", 100.0 * (1.0 - Ratio(traced, untraced)), "%");
  size_t spans = r.setup_spans.spans.size();
  for (const ClientResult& c : r.clients) spans += c.spans.spans.size();
  add("trace.spans", static_cast<double>(spans), "count");
  add("host.steal_pct", r.steal_pct, "%");
  add("host.probe_alu_ms", probe.alu_ms, "ms");
  add("host.probe_mem_ms", probe.mem_ms, "ms");
  return m;
}

void PrintResult(const WorkloadSpec& spec, const Args& args,
                 const HostProbe& probe,
                 const std::vector<RoundResult>& rounds,
                 const Metrics& metrics) {
  uint64_t attempted = 0, failed = 0, checked = 0, mismatches = 0;
  uint64_t recorded_queries = 0, steal_flagged = 0;
  bool same_prefix = true;
  for (const RoundResult& r : rounds) {
    if (r.kept) {
      recorded_queries += r.recorded_queries;
      if (r.steal_pct > kStealRedoPct) ++steal_flagged;
    }
    attempted += r.all.attempted;
    failed += r.all.failed + r.mismatches;
    checked += r.checked;
    mismatches += r.mismatches;
    // Every round replays the same seeded stream on a fresh store.
    same_prefix =
        same_prefix && r.prefix_results == rounds[0].prefix_results;
    if (!r.all.first_error.empty()) {
      std::fprintf(stderr, "stix_perf: first failed op: %s\n",
                   r.all.first_error.c_str());
    }
  }
  if (!same_prefix) ++failed;
  const bool enough = recorded_queries >= kMinQueries;
  if (!enough) {
    std::fprintf(stderr,
                 "stix_perf: recorded %" PRIu64 " queries, fewer than %" PRIu64
                 "\n",
                 recorded_queries, kMinQueries);
  }
  const bool correct = failed == 0 && checked > 0 && enough;
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"checked\": %" PRIu64
              ", \"mismatches\": %" PRIu64 ", \"prefix_results\": %" PRIu64
              ", \"recorded_queries\": %" PRIu64
              ", \"steal_flagged_rounds\": %" PRIu64
              ", \"probe_alu_ms\": %.2f, \"probe_mem_ms\": %.2f"
              ", \"rounds\": [",
              spec.name, args.seed, correct ? "true" : "false", attempted,
              failed, checked, mismatches, rounds[0].prefix_results,
              recorded_queries, steal_flagged, probe.alu_ms, probe.mem_ms);
  for (size_t i = 0; i < rounds.size(); ++i) {
    const RoundResult& r = rounds[i];
    std::printf("%s{\"query_p50_ms\": %.4f, \"query_p99_ms\": %.4f, ",
                i == 0 ? "" : ", ", PercentileOf(r.all.query_ms, 50),
                PercentileOf(r.all.query_ms, 99));
    std::printf("\"setup_s\": %.4f, \"load_ms\": %.1f, "
                "\"finish_load_ms\": %.1f, \"warmup_ms\": %.1f, ",
                r.times.total_s, r.times.load_ms, r.times.finish_ms,
                r.times.warmup_ms);
    std::printf("\"recorded_s\": %.4f, "
                "\"recorded_ops\": %" PRIu64 ", \"throughput_ops_s\": %.1f, "
                "\"queries\": %" PRIu64 ", \"recorded_queries\": %" PRIu64
                ", \"fresh_inserted\": %" PRIu64
                ", \"stream_exhausted\": %s, \"steal_pct\": %.2f, "
                "\"kept\": %s}",
                r.wall_s, r.recorded(), r.throughput(),
                r.all.queries, r.recorded_queries, r.fresh_taken,
                r.exhausted ? "true" : "false", r.steal_pct,
                r.kept ? "true" : "false");
  }
  std::printf("], \"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: stix_perf --workload analyst_row|analyst_bucket|"
                 "fleet_live --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR\n");
    return 2;
  }
  const WorkloadSpec spec = SpecFor(args.workload);
  const bool fleet = args.workload == Workload::kFleetLive;
  std::filesystem::create_directories(args.work_dir);

  const HostProbe probe = ProbeHost();
  const Inputs in = Generate(spec, args.seed);
  const std::vector<geo::Rect> cells =
      fleet ? HotspotCells() : std::vector<geo::Rect>{};

  // An untraced run splits --seconds over the workload's rounds, each on a
  // freshly built store; a traced run measures one round for all of it. A
  // round run during high host steal is run again (kMaxRedos per run); its
  // ops still count as attempted and its outputs are still checked.
  const int num_rounds = args.trace ? 1 : spec.rounds;
  const uint64_t min_queries = (kMinQueries + num_rounds - 1) / num_rounds;
  std::vector<RoundResult> rounds;
  int kept = 0;
  int redos = 0;
  while (kept < num_rounds) {
    rounds.push_back(RunRound(spec, args, in, cells,
                              args.seconds / num_rounds, min_queries));
    if (rounds.back().steal_pct > kStealRedoPct && redos < kMaxRedos) {
      rounds.back().kept = false;
      ++redos;
    } else {
      ++kept;
    }
  }

  Metrics metrics;
  if (args.trace) {
    const RoundResult& r = rounds.back();
    metrics = PerLayer(r, probe, fleet, in.preload);
    std::vector<const SpanBuffer*> buffers = {&r.setup_spans};
    for (const ClientResult& c : r.clients) buffers.push_back(&c.spans);
    WriteSpans(args.work_dir + "/spans-" + spec.name + "-" +
                   std::to_string(args.seed) + ".tsv",
               buffers);
  } else {
    metrics = EndToEnd(rounds);
  }
  PrintResult(spec, args, probe, rounds, metrics);
  return 0;
}

}  // namespace
}  // namespace stix::perf

int main(int argc, char** argv) { return stix::perf::Main(argc, argv); }
