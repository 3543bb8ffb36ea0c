// stix_fuzz — deterministic differential fuzzing of the query stack.
//
// From a single 64-bit seed, generates a randomized workload (skewed + uniform
// documents, rect+time queries, limits, batch sizes, mid-run chunk
// splits/migrations) and checks all four approaches (bslST, bslTS, hil, hil*)
// — under either plan-selection mode (--planner=race|cost|both; "both" also
// cross-checks race vs cost results byte-for-byte) — against a brute-force
// oracle, plus metamorphic invariants:
//
//   * batch-size invariance     — any getMore batch size yields the same set
//   * cursor-drain parity       — OpenQuery+drain == Query()
//   * limit-prefix property     — limit k returns min(k, |full|) docs, all
//                                 drawn from the full result set
//   * explain consistency       — explain()'s per-stage counters summed over
//                                 shards equal that execution's totals
//   * rect-splitting additivity — partitioning the query rectangle partitions
//                                 the result set
//
// A final fail-point phase proves injected faults are either tolerated
// (delay / forced replan: identical results) or surfaced (error: non-OK
// status), and that the system recovers once the fault is cleared.
//
// With --threads=N a concurrent phase follows: N writer threads insert
// extra documents into every store while the online balancer migrates
// chunks and the main thread streams queries. During the storm results are
// bounds-checked (duplicate-free, superset of the pre-storm oracle, subset
// of the final oracle); after the writers join and the balancer stops,
// exact oracle equality must hold again. Run it under TSAN and the phase
// doubles as a data-race hunt.
//
// Every non-crash seed ends with a delete phase: one generated window is
// deleted from every store, each must report the oracle's count, and the
// query battery runs again over the survivors (under --layout=both this
// cross-checks row and bucketed deletes byte-for-byte).
//
// Any divergence prints a one-line REPRO command carrying the failing seed.
// Exit status: 0 = all seeds clean, 1 = at least one divergence.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bson/codec.h"
#include "common/failpoint.h"
#include "common/fs.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "geo/curve_registry.h"
#include "st/st_store.h"

namespace stix {
namespace {

using st::ApproachKind;
using st::StStore;
using st::StStoreOptions;

constexpr ApproachKind kApproaches[] = {ApproachKind::kBslST,
                                        ApproachKind::kBslTS,
                                        ApproachKind::kHil,
                                        ApproachKind::kHilStar};

struct FuzzConfig {
  uint64_t seed_base = 1;
  int num_seeds = 1;
  int docs = 1000;
  int queries = 10;
  bool failpoints = true;
  bool verbose = false;
  /// Record every op in each store's slow-op profiler (slow_millis = 0).
  bool profile = false;
  /// Print the last store's ServerStatus() JSON after the run.
  bool server_status = false;
  /// After all seeds, fail if any core counter never moved — catches
  /// instrumentation that silently went dead (the nightly CI guard).
  bool check_counters = false;
  /// Writer threads for the concurrent phase; 0 disables it.
  int threads = 0;
  /// Reshard phase: live shard-key migrations (bsl* <-> hil*) under a
  /// writer storm, then the exact-oracle battery over the migrated stores.
  /// Replaces the plain concurrent phase (threads picks the storm size).
  bool reshard = false;
  /// Crash-recovery mode: each seed runs a durable store in a scratch
  /// directory, kills it at a sampled crash point mid-workload, recovers
  /// from disk (twice — replay must be idempotent), and asserts the
  /// acked-durable / unacked-atomic oracle over the recovered state. The
  /// scratch directory is kept as a repro artifact when a seed diverges.
  bool crash = false;
  /// Collection layout(s) under test: "row" (one document per point),
  /// "bucket" (compressed bucket documents), or "both" — which runs every
  /// check against both layouts *and* cross-checks them byte-for-byte.
  std::string layout = "row";
  /// Plan-selection mode(s) under test: "race" (always trial-race), "cost"
  /// (estimate from histograms, race only on fallback), or "both" — which
  /// runs every check under both modes *and* cross-checks their result
  /// sets byte-for-byte (cost-based selection must never change results,
  /// only how the winning plan is chosen).
  std::string planner = "cost";
  /// Curve(s) behind hilbertIndex on the hil/hil* stores:
  /// "hilbert" | "zorder" | "onion" | "egeohash", or "all" — which builds
  /// one hil + hil* store *per registered curve* and runs every one against
  /// the same brute-force oracle. The egeohash stores fit their equi-depth
  /// boundaries from a deterministic sample of the generated documents.
  std::string curve = "hilbert";
};

// Ground-truth record of one generated document.
struct FuzzDoc {
  double lon;
  double lat;
  int64_t t_ms;
  int32_t fid;
};

struct FuzzQuery {
  geo::Rect rect;
  int64_t t_begin_ms;
  int64_t t_end_ms;
};

std::vector<int32_t> OracleFids(const std::vector<FuzzDoc>& docs,
                                const FuzzQuery& q) {
  std::vector<int32_t> fids;
  for (const FuzzDoc& d : docs) {
    if (q.rect.Contains({d.lon, d.lat}) && d.t_ms >= q.t_begin_ms &&
        d.t_ms <= q.t_end_ms) {
      fids.push_back(d.fid);
    }
  }
  std::sort(fids.begin(), fids.end());
  return fids;
}

std::vector<int32_t> SortedFids(const std::vector<bson::Document>& docs) {
  std::vector<int32_t> fids;
  fids.reserve(docs.size());
  for (const bson::Document& doc : docs) {
    const bson::Value* v = doc.Get("fid");
    fids.push_back(v == nullptr ? -1 : v->AsInt32());
  }
  std::sort(fids.begin(), fids.end());
  return fids;
}

bool HasDuplicates(const std::vector<int32_t>& sorted) {
  return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

// Divergence reporting: context for the one-line repro.
struct SeedContext {
  uint64_t seed;
  const FuzzConfig* config;
  int divergences = 0;

  void Report(const char* approach, const char* check, const FuzzQuery& q,
              size_t expected, size_t got) {
    ++divergences;
    std::fprintf(stderr,
                 "DIVERGENCE seed=%" PRIu64
                 " approach=%s check=%s rect=[(%.6f,%.6f)-(%.6f,%.6f)] "
                 "t=[%" PRId64 ",%" PRId64 "] expected=%zu got=%zu\n",
                 seed, approach, check, q.rect.lo.lon, q.rect.lo.lat,
                 q.rect.hi.lon, q.rect.hi.lat, q.t_begin_ms, q.t_end_ms,
                 expected, got);
    char threads_arg[32] = "";
    if (config->threads > 0) {
      std::snprintf(threads_arg, sizeof(threads_arg), " --threads=%d",
                    config->threads);
    }
    char curve_arg[32] = "";
    if (config->curve != "hilbert") {
      std::snprintf(curve_arg, sizeof(curve_arg), " --curve=%s",
                    config->curve.c_str());
    }
    std::fprintf(stderr,
                 "REPRO: stix_fuzz --seed=%" PRIu64
                 " --docs=%d --queries=%d --layout=%s --planner=%s%s%s%s%s\n",
                 seed, config->docs, config->queries, config->layout.c_str(),
                 config->planner.c_str(), threads_arg, curve_arg,
                 config->crash ? " --crash" : "",
                 config->reshard ? " --reshard" : "");
  }
};

// Curve kinds a --curve value selects for the hil/hil* stores ("all" runs
// every registered curve against the same oracle).
std::vector<geo::CurveKind> CurveKindsFor(const std::string& curve) {
  if (curve == "all") return geo::AllCurveKinds();
  geo::CurveKind kind = geo::CurveKind::kHilbert;
  geo::CurveKindFromName(curve.c_str(), &kind);  // validated at arg parse
  return {kind};
}

// Deterministic fit sample for egeohash stores: every k-th generated point,
// capped so the equi-depth fit stays cheap at any --docs.
std::vector<geo::Point> FitSampleFor(const std::vector<FuzzDoc>& docs) {
  constexpr size_t kMaxSample = 1024;
  const size_t stride =
      docs.size() > kMaxSample ? docs.size() / kMaxSample : 1;
  std::vector<geo::Point> sample;
  sample.reserve(kMaxSample + 1);
  for (size_t i = 0; i < docs.size(); i += stride) {
    sample.push_back({docs[i].lon, docs[i].lat});
  }
  return sample;
}

// Generates the per-seed document workload: a few Gaussian hot spots over a
// random MBR plus uniform background, all timestamps within a random span.
std::vector<FuzzDoc> GenerateDocs(Rng* rng, int count, geo::Rect* mbr_out,
                                  int64_t* t0_out, int64_t* span_out) {
  const double center_lon = rng->NextDouble(-170.0, 170.0);
  const double center_lat = rng->NextDouble(-80.0, 80.0);
  const double extent_lon = rng->NextDouble(0.5, 20.0);
  const double extent_lat = rng->NextDouble(0.5, 20.0);
  const geo::Rect mbr{
      {std::max(-180.0, center_lon - extent_lon),
       std::max(-90.0, center_lat - extent_lat)},
      {std::min(180.0, center_lon + extent_lon),
       std::min(90.0, center_lat + extent_lat)}};
  *mbr_out = mbr;

  const int64_t t0 = 1538352000000;  // 2018-10-01T00:00:00Z
  const int64_t span =
      3600000 + static_cast<int64_t>(rng->NextBounded(90ull * 24 * 3600000));
  *t0_out = t0;
  *span_out = span;

  const int num_clusters = 1 + static_cast<int>(rng->NextBounded(3));
  struct Hot {
    double lon, lat, sigma_lon, sigma_lat;
  };
  std::vector<Hot> hots;
  for (int i = 0; i < num_clusters; ++i) {
    hots.push_back(Hot{rng->NextDouble(mbr.lo.lon, mbr.hi.lon),
                       rng->NextDouble(mbr.lo.lat, mbr.hi.lat),
                       mbr.width() * rng->NextDouble(0.01, 0.15),
                       mbr.height() * rng->NextDouble(0.01, 0.15)});
  }

  std::vector<FuzzDoc> docs;
  docs.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    FuzzDoc d;
    if (!docs.empty() && rng->NextBool(0.02)) {
      // Exact duplicate position+time under a fresh fid: stresses duplicate
      // keys through every index and the merge.
      const FuzzDoc& src = docs[rng->NextBounded(docs.size())];
      d = src;
    } else if (rng->NextBool(0.25)) {
      d.lon = rng->NextDouble(mbr.lo.lon, mbr.hi.lon);
      d.lat = rng->NextDouble(mbr.lo.lat, mbr.hi.lat);
      d.t_ms = t0 + static_cast<int64_t>(
                        rng->NextBounded(static_cast<uint64_t>(span) + 1));
    } else {
      const Hot& hot = hots[rng->NextBounded(hots.size())];
      d.lon = std::min(mbr.hi.lon,
                       std::max(mbr.lo.lon,
                                hot.lon + rng->NextGaussian() * hot.sigma_lon));
      d.lat = std::min(mbr.hi.lat,
                       std::max(mbr.lo.lat,
                                hot.lat + rng->NextGaussian() * hot.sigma_lat));
      d.t_ms = t0 + static_cast<int64_t>(
                        rng->NextBounded(static_cast<uint64_t>(span) + 1));
    }
    d.fid = i;
    docs.push_back(d);
  }
  return docs;
}

FuzzQuery GenerateQuery(Rng* rng, const geo::Rect& mbr, int64_t t0,
                        int64_t span) {
  FuzzQuery q;
  // Center mostly inside the MBR, occasionally outside (empty-ish results).
  const double margin = rng->NextBool(0.1) ? 0.3 : 0.0;
  const double cx = rng->NextDouble(mbr.lo.lon - margin * mbr.width(),
                                    mbr.hi.lon + margin * mbr.width());
  const double cy = rng->NextDouble(mbr.lo.lat - margin * mbr.height(),
                                    mbr.hi.lat + margin * mbr.height());
  // Width spans ~3 decades: tiny cells up to most of the MBR.
  const double w =
      mbr.width() * std::pow(10.0, rng->NextDouble(-2.5, 0.0));
  const double h =
      mbr.height() * std::pow(10.0, rng->NextDouble(-2.5, 0.0));
  q.rect = geo::Rect{{cx - w / 2, cy - h / 2}, {cx + w / 2, cy + h / 2}};

  if (rng->NextBool(0.2)) {
    q.t_begin_ms = t0;
    q.t_end_ms = t0 + span;
  } else {
    const int64_t lo =
        t0 + static_cast<int64_t>(rng->NextBounded(static_cast<uint64_t>(span)));
    const int64_t len = std::max<int64_t>(
        1, static_cast<int64_t>(static_cast<double>(span) *
                                rng->NextDouble(0.001, 1.0)));
    q.t_begin_ms = lo;
    q.t_end_ms = std::min(t0 + span, lo + len);
  }
  return q;
}

bson::Document MakeDoc(const FuzzDoc& d) {
  bson::Document doc;
  doc.Append(st::kLocationField,
             bson::Value::MakeDocument(bson::GeoJsonPoint(d.lon, d.lat)));
  doc.Append(st::kDateField, bson::Value::DateTime(d.t_ms));
  doc.Append("fid", bson::Value::Int32(d.fid));
  return doc;
}

// Drains a streaming cursor fully; sets *status_out from the cursor summary.
std::vector<int32_t> DrainFids(st::StCursor cursor, Status* status_out) {
  std::vector<bson::Document> all;
  while (!cursor.exhausted()) {
    std::vector<bson::Document> batch = cursor.NextBatch();
    all.insert(all.end(), std::make_move_iterator(batch.begin()),
               std::make_move_iterator(batch.end()));
  }
  if (status_out != nullptr) *status_out = cursor.Summary().cluster.status;
  return SortedFids(all);
}

// Runs the differential + metamorphic checks for one query against every
// store. Returns false (after reporting) on the first divergence.
bool CheckQuery(const std::vector<StStore*>& stores,
                const std::vector<FuzzDoc>& docs, const FuzzQuery& q,
                Rng* rng, SeedContext* ctx) {
  const std::vector<int32_t> oracle = OracleFids(docs, q);
  const std::set<int32_t> oracle_set(oracle.begin(), oracle.end());

  const size_t batch_sizes[] = {1, 3, 17, 101};
  const size_t batch = batch_sizes[rng->NextBounded(4)];
  const uint64_t limit = 1 + rng->NextBounded(oracle.size() + 3);
  const bool check_split = rng->NextBool(0.5);

  // Rectangle partition at a random longitude: [lo, x] and (x, hi] — the
  // nextafter gap keeps the two closed rects disjoint and exhaustive over
  // representable doubles.
  const double split_x =
      rng->NextDouble(q.rect.lo.lon, q.rect.hi.lon);
  FuzzQuery left = q, right = q;
  left.rect.hi.lon = split_x;
  right.rect.lo.lon = std::nextafter(split_x, 1e9);

  for (StStore* const store : stores) {
    const std::string label = std::string(store->approach().name()) +
                              (store->bucketed() ? "/bucket" : "");
    const char* name = label.c_str();

    // 1. Oracle equality via Query().
    const st::StQueryResult full = store->Query(q.rect, q.t_begin_ms,
                                                q.t_end_ms);
    if (!full.cluster.status.ok()) {
      ctx->Report(name, "query-status", q, 0, 1);
      return false;
    }
    const std::vector<int32_t> got = SortedFids(full.cluster.docs);
    if (HasDuplicates(got)) {
      ctx->Report(name, "duplicates", q, oracle.size(), got.size());
      return false;
    }
    if (got != oracle) {
      ctx->Report(name, "oracle", q, oracle.size(), got.size());
      return false;
    }

    // 2. Batch-size invariance + cursor-drain == Query() parity.
    st::StCursorOptions copts;
    copts.batch_size = batch;
    Status cursor_status;
    const std::vector<int32_t> streamed = DrainFids(
        store->OpenQuery(q.rect, q.t_begin_ms, q.t_end_ms, copts),
        &cursor_status);
    if (!cursor_status.ok() || streamed != oracle) {
      ctx->Report(name, "batch-invariance", q, oracle.size(), streamed.size());
      return false;
    }

    // 3. Limit-prefix property: min(k, |full|) results, all from the full
    // result set. (A set property, not an order prefix: limit pushdown may
    // legitimately change the winning plan and per-shard production order.)
    st::StCursorOptions lopts;
    lopts.batch_size = batch_sizes[rng->NextBounded(4)];
    lopts.limit = limit;
    const std::vector<int32_t> limited = DrainFids(
        store->OpenQuery(q.rect, q.t_begin_ms, q.t_end_ms, lopts), nullptr);
    const size_t want =
        std::min<size_t>(static_cast<size_t>(limit), oracle.size());
    bool limit_ok = limited.size() == want && !HasDuplicates(limited);
    for (const int32_t fid : limited) {
      if (oracle_set.count(fid) == 0) limit_ok = false;
    }
    if (!limit_ok) {
      ctx->Report(name, "limit-prefix", q, want, limited.size());
      return false;
    }

    // 4. Explain-tree consistency: explain executes the query once, and its
    // per-stage counters summed over shards must equal that execution's
    // totals exactly — and the execution must still match the oracle.
    const st::StExplain explain =
        store->Explain(q.rect, q.t_begin_ms, q.t_end_ms);
    const cluster::ClusterExplain& ce = explain.cluster;
    if (ce.SumStageKeysExamined() != ce.result.total_keys_examined ||
        ce.SumStageDocsExamined() != ce.result.total_docs_examined) {
      ctx->Report(name, "explain-stage-sums", q,
                  static_cast<size_t>(ce.result.total_keys_examined),
                  static_cast<size_t>(ce.SumStageKeysExamined()));
      return false;
    }
    if (ce.result.n_returned != oracle.size()) {
      ctx->Report(name, "explain-n-returned", q, oracle.size(),
                  static_cast<size_t>(ce.result.n_returned));
      return false;
    }

    // 5. Rectangle-splitting additivity: the two halves partition the set.
    if (check_split) {
      std::vector<int32_t> parts = SortedFids(
          store->Query(left.rect, left.t_begin_ms, left.t_end_ms)
              .cluster.docs);
      const std::vector<int32_t> right_fids = SortedFids(
          store->Query(right.rect, right.t_begin_ms, right.t_end_ms)
              .cluster.docs);
      parts.insert(parts.end(), right_fids.begin(), right_fids.end());
      std::sort(parts.begin(), parts.end());
      if (parts != oracle) {
        ctx->Report(name, "rect-split-additivity", q, oracle.size(),
                    parts.size());
        return false;
      }
    }
  }
  return true;
}

// Pairwise parity (--layout=both / --planner=both): the paired stores
// (row vs bucket of the same approach, or race vs cost of the same
// approach+layout) must return *byte-identical* document sets — the bucket
// codec's round trip preserves field order and value types, and plan
// selection never affects what a query matches, so after sorting by fid
// the BSON encodings must match exactly, not just the fids.
bool CheckPairParity(const std::vector<StStore*>& lhs,
                     const std::vector<StStore*>& rhs, const char* dimension,
                     const FuzzQuery& q, SeedContext* ctx) {
  const auto sorted_by_fid = [](std::vector<bson::Document> docs) {
    std::sort(docs.begin(), docs.end(),
              [](const bson::Document& a, const bson::Document& b) {
                const bson::Value* va = a.Get("fid");
                const bson::Value* vb = b.Get("fid");
                return (va == nullptr ? -1 : va->AsInt32()) <
                       (vb == nullptr ? -1 : vb->AsInt32());
              });
    return docs;
  };
  const std::string count_check = std::string(dimension) + "-parity-count";
  const std::string bytes_check = std::string(dimension) + "-parity-bytes";
  for (size_t i = 0; i < lhs.size(); ++i) {
    const std::string label =
        std::string(lhs[i]->approach().name()) + "/parity";
    const std::vector<bson::Document> a = sorted_by_fid(
        lhs[i]->Query(q.rect, q.t_begin_ms, q.t_end_ms).cluster.docs);
    const std::vector<bson::Document> b = sorted_by_fid(
        rhs[i]->Query(q.rect, q.t_begin_ms, q.t_end_ms).cluster.docs);
    if (a.size() != b.size()) {
      ctx->Report(label.c_str(), count_check.c_str(), q, a.size(), b.size());
      return false;
    }
    for (size_t d = 0; d < a.size(); ++d) {
      if (bson::EncodeBson(a[d]) != bson::EncodeBson(b[d])) {
        ctx->Report(label.c_str(), bytes_check.c_str(), q, a.size(), d);
        return false;
      }
    }
  }
  return true;
}

// The bucketCatalogFlush fail point, exercised on a small throwaway store
// (so the shared stores' document sets stay untouched): a failing flush must
// leave the points buffered (queries succeed over what *is* flushed, with no
// duplicates), a retry after the fault clears must make every point visible,
// and FlushBuckets must surface the injected error when buffered points
// exist.
bool CheckBucketFlushFailPoint(const geo::Rect& mbr, int64_t t0, int64_t span,
                               const storage::BucketLayout& bucket_layout,
                               Rng* rng, SeedContext* ctx) {
  FailPoint* fp = FailPointRegistry::Instance().Find("bucketCatalogFlush");
  if (fp == nullptr) {
    std::fprintf(stderr, "FATAL: fail point bucketCatalogFlush not registered\n");
    ctx->divergences++;
    return false;
  }

  StStoreOptions options;
  options.approach.kind = kApproaches[rng->NextBounded(4)];
  options.approach.dataset_mbr = mbr;
  options.cluster.num_shards = 2;
  options.cluster.seed = ctx->seed ^ 0xb0c4e7;
  options.bucket = bucket_layout;
  StStore store(options);
  if (!store.Setup().ok()) {
    std::fprintf(stderr, "FATAL: flush-failpoint store setup failed\n");
    ctx->divergences++;
    return false;
  }

  std::vector<FuzzDoc> docs;
  for (int i = 0; i < 24; ++i) {
    FuzzDoc d;
    d.lon = rng->NextDouble(mbr.lo.lon, mbr.hi.lon);
    d.lat = rng->NextDouble(mbr.lo.lat, mbr.hi.lat);
    d.t_ms = t0 + static_cast<int64_t>(
                      rng->NextBounded(static_cast<uint64_t>(span) + 1));
    d.fid = i;
    docs.push_back(d);
    if (!store.Insert(MakeDoc(d)).ok()) {
      std::fprintf(stderr, "FATAL: flush-failpoint insert failed\n");
      ctx->divergences++;
      return false;
    }
  }
  FuzzQuery q{mbr, t0, t0 + span};
  const std::vector<int32_t> oracle = OracleFids(docs, q);

  // Phase 1: a failing flush is tolerated by the read path — the query
  // still runs (over every bucket that did flush) and loses nothing twice.
  FailPoint::Config config;
  config.mode = FailPoint::Mode::kTimes;
  config.count = 1;
  config.error_code = StatusCode::kInternal;
  config.error_message = "injected fault at bucketCatalogFlush";
  fp->Enable(config);
  const st::StQueryResult faulted =
      store.Query(q.rect, q.t_begin_ms, q.t_end_ms);
  fp->Disable();
  const std::vector<int32_t> faulted_fids = SortedFids(faulted.cluster.docs);
  const std::set<int32_t> oracle_set(oracle.begin(), oracle.end());
  bool subset_ok =
      faulted.cluster.status.ok() && !HasDuplicates(faulted_fids);
  for (const int32_t fid : faulted_fids) {
    if (oracle_set.count(fid) == 0) subset_ok = false;
  }
  if (!subset_ok) {
    ctx->Report("bucket", "failpoint-flush-subset", q, oracle.size(),
                faulted_fids.size());
    return false;
  }

  // Phase 2: with the fault cleared, the next query retries the flush and
  // every buffered point becomes visible — nothing was lost.
  const std::vector<int32_t> recovered =
      SortedFids(store.Query(q.rect, q.t_begin_ms, q.t_end_ms).cluster.docs);
  if (recovered != oracle) {
    ctx->Report("bucket", "failpoint-flush-recovery", q, oracle.size(),
                recovered.size());
    return false;
  }

  // Phase 3: an explicit flush of buffered points surfaces the injected
  // error instead of swallowing it.
  FuzzDoc extra;
  extra.lon = rng->NextDouble(mbr.lo.lon, mbr.hi.lon);
  extra.lat = rng->NextDouble(mbr.lo.lat, mbr.hi.lat);
  extra.t_ms = t0;
  extra.fid = static_cast<int32_t>(docs.size());
  docs.push_back(extra);
  if (!store.Insert(MakeDoc(extra)).ok()) {
    std::fprintf(stderr, "FATAL: flush-failpoint insert failed\n");
    ctx->divergences++;
    return false;
  }
  fp->Enable(config);
  const Status flush_status = store.FlushBuckets();
  fp->Disable();
  if (flush_status.ok() && store.bucket_catalog()->points_buffered() > 0) {
    ctx->Report("bucket", "failpoint-flush-surfaced", q, 1, 0);
    return false;
  }
  const std::vector<int32_t> final_fids =
      SortedFids(store.Query(q.rect, q.t_begin_ms, q.t_end_ms).cluster.docs);
  if (final_fids != OracleFids(docs, q)) {
    ctx->Report("bucket", "failpoint-flush-final", q, docs.size(),
                final_fids.size());
    return false;
  }
  return true;
}

// Fault phases: delays and forced replans must leave results identical;
// injected errors must surface as a non-OK status; clearing the fault must
// restore correct results.
bool CheckFailPoints(const std::vector<StStore*>& stores,
                     const std::vector<FuzzDoc>& docs, const FuzzQuery& q,
                     Rng* rng, SeedContext* ctx) {
  FailPointRegistry& registry = FailPointRegistry::Instance();
  const std::vector<int32_t> oracle = OracleFids(docs, q);
  StStore& victim = *stores[rng->NextBounded(stores.size())];
  const char* name = victim.approach().name();

  // Tolerated faults: results must not change.
  const char* tolerated[] = {"shardGetMore", "clusterMergeBatch",
                             "planExecutorReplan"};
  for (const char* site : tolerated) {
    FailPoint* fp = registry.Find(site);
    if (fp == nullptr) {
      std::fprintf(stderr, "FATAL: fail point %s not registered\n", site);
      ctx->divergences++;
      return false;
    }
    FailPoint::Config config;
    config.mode = FailPoint::Mode::kAlwaysOn;
    config.delay_ms = std::strcmp(site, "planExecutorReplan") == 0
                          ? 0.0    // pure branch-forcing, no sleep
                          : 0.02;  // slow shard / slow merge
    fp->Enable(config);
    const st::StQueryResult r = victim.Query(q.rect, q.t_begin_ms, q.t_end_ms);
    fp->Disable();
    const std::vector<int32_t> got = SortedFids(r.cluster.docs);
    if (!r.cluster.status.ok() || got != oracle) {
      ctx->Report(name, (std::string("failpoint-delay-") + site).c_str(), q,
                  oracle.size(), got.size());
      return false;
    }
  }

  // Surfaced faults: the stream dies with a non-OK status, then recovers.
  const char* fatal_sites[] = {"shardGetMore", "clusterMergeBatch"};
  for (const char* site : fatal_sites) {
    FailPoint* fp = registry.Find(site);
    FailPoint::Config config;
    config.mode = FailPoint::Mode::kTimes;
    config.count = 1;
    config.error_code = StatusCode::kInternal;
    config.error_message = std::string("injected fault at ") + site;
    fp->Enable(config);
    const st::StQueryResult r = victim.Query(q.rect, q.t_begin_ms, q.t_end_ms);
    fp->Disable();
    // shardGetMore only fires when at least one shard is contacted.
    const bool expect_error =
        std::strcmp(site, "shardGetMore") != 0 || r.cluster.nodes_contacted > 0;
    if (expect_error && r.cluster.status.ok()) {
      ctx->Report(name, (std::string("failpoint-error-") + site).c_str(), q, 1,
                  0);
      return false;
    }
    const std::vector<int32_t> after =
        SortedFids(victim.Query(q.rect, q.t_begin_ms, q.t_end_ms).cluster.docs);
    if (after != oracle) {
      ctx->Report(name, (std::string("failpoint-recovery-") + site).c_str(), q,
                  oracle.size(), after.size());
      return false;
    }
  }
  registry.DisableAll();
  return true;
}

// Concurrent phase (--threads=N): N writer threads insert fresh documents
// into every store while each cluster's online balancer migrates chunks and
// the main thread streams queries through yielding cursors. Mid-storm
// results cannot be compared for equality (writers race the scans), but
// three bounds always hold because documents are only ever added:
//
//   - no duplicate fids in any result;
//   - every pre-storm match appears (the result is a superset of the oracle
//     over the base documents);
//   - every returned fid is a possible match (subset of the oracle over
//     base + all extra documents).
//
// After the writers join and the balancers stop, the full CheckQuery
// battery must pass against the combined document set — the storm must
// leave no lasting damage.
bool CheckConcurrent(const std::vector<StStore*>& stores,
                     std::vector<FuzzDoc>* docs, const geo::Rect& mbr,
                     int64_t t0, int64_t span, const FuzzConfig& config,
                     Rng* rng, SeedContext* ctx) {
  const int num_writers = config.threads;
  const int extra_per_writer =
      std::max(1, config.docs / (4 * std::max(1, num_writers)));

  // Pre-generate the writers' documents deterministically on the main
  // thread; fids continue past the base range so every fid stays unique.
  // `docs` grows to the combined set, the oracle of every later phase.
  std::vector<std::vector<FuzzDoc>> extra(static_cast<size_t>(num_writers));
  const std::vector<FuzzDoc> base = *docs;
  std::vector<FuzzDoc>& all = *docs;
  int32_t next_fid = static_cast<int32_t>(base.size());
  for (std::vector<FuzzDoc>& bucket : extra) {
    bucket.reserve(static_cast<size_t>(extra_per_writer));
    for (int i = 0; i < extra_per_writer; ++i) {
      FuzzDoc d;
      d.lon = rng->NextDouble(mbr.lo.lon, mbr.hi.lon);
      d.lat = rng->NextDouble(mbr.lo.lat, mbr.hi.lat);
      d.t_ms = t0 + static_cast<int64_t>(
                        rng->NextBounded(static_cast<uint64_t>(span) + 1));
      d.fid = next_fid++;
      bucket.push_back(d);
      all.push_back(d);
    }
  }
  std::vector<FuzzQuery> queries;
  const int num_queries = std::max(4, config.queries);
  queries.reserve(static_cast<size_t>(num_queries));
  for (int i = 0; i < num_queries; ++i) {
    queries.push_back(GenerateQuery(rng, mbr, t0, span));
  }

  for (const auto& store : stores) store->cluster().StartBalancer();

  std::atomic<bool> write_failed{false};
  std::vector<std::thread> writers;
  writers.reserve(static_cast<size_t>(num_writers));
  for (int t = 0; t < num_writers; ++t) {
    writers.emplace_back([&stores, &extra, t, &write_failed] {
      for (const FuzzDoc& d : extra[static_cast<size_t>(t)]) {
        for (const auto& store : stores) {
          if (!store->Insert(MakeDoc(d)).ok()) {
            write_failed.store(true);
            return;
          }
        }
      }
    });
  }

  bool ok = true;
  for (const FuzzQuery& q : queries) {
    const std::vector<int32_t> lower = OracleFids(base, q);
    const std::vector<int32_t> upper = OracleFids(all, q);
    const std::set<int32_t> upper_set(upper.begin(), upper.end());
    for (const auto& store : stores) {
      const char* name = store->approach().name();
      st::StCursorOptions copts;
      copts.batch_size = 17;  // several getMore rounds → several yields
      Status status;
      const std::vector<int32_t> got = DrainFids(
          store->OpenQuery(q.rect, q.t_begin_ms, q.t_end_ms, copts), &status);
      if (!status.ok()) {
        ctx->Report(name, "concurrent-status", q, 0, 1);
        ok = false;
        break;
      }
      if (HasDuplicates(got)) {
        ctx->Report(name, "concurrent-duplicates", q, lower.size(),
                    got.size());
        ok = false;
        break;
      }
      bool bounds_ok =
          std::includes(got.begin(), got.end(), lower.begin(), lower.end());
      for (const int32_t fid : got) {
        if (upper_set.count(fid) == 0) bounds_ok = false;
      }
      if (!bounds_ok) {
        ctx->Report(name, "concurrent-bounds", q, lower.size(), got.size());
        ok = false;
        break;
      }
    }
    if (!ok) break;
  }

  for (std::thread& w : writers) w.join();
  for (const auto& store : stores) store->cluster().StopBalancer();
  if (write_failed.load()) {
    std::fprintf(stderr, "FATAL: concurrent insert failed (seed=%" PRIu64
                         ")\n",
                 ctx->seed);
    ++ctx->divergences;
    return false;
  }
  if (!ok) return false;

  // Quiesced: exact differential equality must hold again, over the
  // combined base + extra document set.
  for (int i = 0; i < 2; ++i) {
    const FuzzQuery q = GenerateQuery(rng, mbr, t0, span);
    if (!CheckQuery(stores, all, q, rng, ctx)) return false;
  }
  return true;
}

// Reshard phase (--reshard): live shard-key migrations under a writer
// storm. One baseline-keyed and one hilbert-keyed row store reshard onto
// the opposite family's shard key while writer threads insert fresh
// documents into every store, each cluster's online balancer runs, and the
// main thread streams queries with the monotone bounds checks (duplicate-
// free, superset of the pre-storm oracle, subset of the final oracle).
// After the storm quiesces the migrated stores must have swapped
// approaches, report the migration finished, and the full differential
// battery must pass over the combined document set — proving the reshard
// lost, duplicated and misrouted nothing.
bool CheckReshardPhase(const std::vector<StStore*>& stores,
                       const std::vector<StStore*>& row_stores,
                       std::vector<FuzzDoc>* docs, const geo::Rect& mbr,
                       int64_t t0, int64_t span, const FuzzConfig& config,
                       Rng* rng, SeedContext* ctx) {
  // Victims: the first baseline-keyed and the first hilbert-keyed row
  // store, migrated onto the opposite family (bslST <-> bslTS share {date}
  // and would be rejected as a same-key reshard).
  std::vector<std::pair<StStore*, ApproachKind>> migrations;
  bool have_baseline = false, have_hilbert = false;
  for (StStore* const store : row_stores) {
    const ApproachKind kind = store->approach().kind();
    const bool hilbert =
        kind == ApproachKind::kHil || kind == ApproachKind::kHilStar;
    if (hilbert && !have_hilbert) {
      migrations.emplace_back(store, ApproachKind::kBslTS);
      have_hilbert = true;
    } else if (!hilbert && !have_baseline) {
      migrations.emplace_back(store, ApproachKind::kHil);
      have_baseline = true;
    }
  }
  if (migrations.empty()) return true;

  const int num_writers = std::max(2, config.threads);
  const int extra_per_writer =
      std::max(1, config.docs / (4 * num_writers));
  // As in CheckConcurrent, `docs` grows to the combined set.
  std::vector<std::vector<FuzzDoc>> extra(static_cast<size_t>(num_writers));
  const std::vector<FuzzDoc> base = *docs;
  std::vector<FuzzDoc>& all = *docs;
  int32_t next_fid = static_cast<int32_t>(base.size());
  for (std::vector<FuzzDoc>& bucket : extra) {
    bucket.reserve(static_cast<size_t>(extra_per_writer));
    for (int i = 0; i < extra_per_writer; ++i) {
      FuzzDoc d;
      d.lon = rng->NextDouble(mbr.lo.lon, mbr.hi.lon);
      d.lat = rng->NextDouble(mbr.lo.lat, mbr.hi.lat);
      d.t_ms = t0 + static_cast<int64_t>(
                        rng->NextBounded(static_cast<uint64_t>(span) + 1));
      d.fid = next_fid++;
      bucket.push_back(d);
      all.push_back(d);
    }
  }
  std::vector<FuzzQuery> queries;
  const int num_queries = std::max(4, config.queries);
  queries.reserve(static_cast<size_t>(num_queries));
  for (int i = 0; i < num_queries; ++i) {
    queries.push_back(GenerateQuery(rng, mbr, t0, span));
  }

  for (const auto& store : stores) store->cluster().StartBalancer();

  std::vector<Status> reshard_status(migrations.size());
  std::vector<std::thread> reshard_threads;
  reshard_threads.reserve(migrations.size());
  for (size_t m = 0; m < migrations.size(); ++m) {
    reshard_threads.emplace_back([&migrations, &reshard_status, m] {
      reshard_status[m] = migrations[m].first->Reshard(migrations[m].second);
    });
  }

  std::atomic<bool> write_failed{false};
  std::vector<std::thread> writers;
  writers.reserve(static_cast<size_t>(num_writers));
  for (int t = 0; t < num_writers; ++t) {
    writers.emplace_back([&stores, &extra, t, &write_failed] {
      for (const FuzzDoc& d : extra[static_cast<size_t>(t)]) {
        for (const auto& store : stores) {
          if (!store->Insert(MakeDoc(d)).ok()) {
            write_failed.store(true);
            return;
          }
        }
      }
    });
  }

  bool ok = true;
  for (const FuzzQuery& q : queries) {
    const std::vector<int32_t> lower = OracleFids(base, q);
    const std::vector<int32_t> upper = OracleFids(all, q);
    const std::set<int32_t> upper_set(upper.begin(), upper.end());
    for (const auto& store : stores) {
      const char* name = store->approach().name();
      st::StCursorOptions copts;
      copts.batch_size = 17;
      Status status;
      const std::vector<int32_t> got = DrainFids(
          store->OpenQuery(q.rect, q.t_begin_ms, q.t_end_ms, copts), &status);
      if (!status.ok()) {
        ctx->Report(name, "reshard-mid-status", q, 0, 1);
        ok = false;
        break;
      }
      if (HasDuplicates(got)) {
        ctx->Report(name, "reshard-mid-duplicates", q, lower.size(),
                    got.size());
        ok = false;
        break;
      }
      bool bounds_ok =
          std::includes(got.begin(), got.end(), lower.begin(), lower.end());
      for (const int32_t fid : got) {
        if (upper_set.count(fid) == 0) bounds_ok = false;
      }
      if (!bounds_ok) {
        ctx->Report(name, "reshard-mid-bounds", q, lower.size(), got.size());
        ok = false;
        break;
      }
    }
    if (!ok) break;
  }

  for (std::thread& w : writers) w.join();
  for (std::thread& r : reshard_threads) r.join();
  for (const auto& store : stores) store->cluster().StopBalancer();
  if (write_failed.load()) {
    std::fprintf(stderr,
                 "FATAL: reshard-phase insert failed (seed=%" PRIu64 ")\n",
                 ctx->seed);
    ++ctx->divergences;
    return false;
  }
  if (!ok) return false;

  const FuzzQuery full{mbr, t0, t0 + span};
  for (size_t m = 0; m < migrations.size(); ++m) {
    StStore* const store = migrations[m].first;
    if (!reshard_status[m].ok()) {
      std::fprintf(stderr, "reshard failed: %s\n",
                   reshard_status[m].ToString().c_str());
      ctx->Report(store->approach().name(), "reshard-status", full, 0, 1);
      return false;
    }
    if (store->approach().kind() != migrations[m].second ||
        store->resharding() || store->cluster().resharding()) {
      ctx->Report(store->approach().name(), "reshard-not-swapped", full, 1,
                  0);
      return false;
    }
  }

  // Quiesced: the migrated stores answer from the new layout; the full
  // battery (oracle, batch invariance, limits, explain sums, additivity)
  // must hold over base + extra.
  for (int i = 0; i < 2; ++i) {
    const FuzzQuery q = GenerateQuery(rng, mbr, t0, span);
    if (!CheckQuery(stores, all, q, rng, ctx)) return false;
  }
  return true;
}

// Delete phase: every store deletes the same rect/time window and must
// report the oracle's count (points on a bucketed store, documents on a
// row store — one per point either way). The deleted documents then leave
// the oracle.
bool CheckDelete(const std::vector<StStore*>& stores,
                 std::vector<FuzzDoc>* docs, const FuzzQuery& q,
                 SeedContext* ctx) {
  const std::vector<int32_t> doomed = OracleFids(*docs, q);
  for (StStore* const store : stores) {
    const Result<uint64_t> removed =
        store->Delete(q.rect, q.t_begin_ms, q.t_end_ms);
    if (!removed.ok() || *removed != doomed.size()) {
      ctx->Report(store->approach().name(), "delete-count", q, doomed.size(),
                  removed.ok() ? *removed : 0);
      return false;
    }
  }
  docs->erase(std::remove_if(docs->begin(), docs->end(),
                             [&doomed](const FuzzDoc& d) {
                               return std::binary_search(
                                   doomed.begin(), doomed.end(), d.fid);
                             }),
              docs->end());
  return true;
}

// Crash-recovery phase (--crash): one durable store per seed, killed at a
// sampled crash point mid-load, then recovered from disk. The oracle is the
// durability contract rather than a query result:
//
//   acked ⊆ recovered ⊆ acked ∪ uncertain
//
// where `acked` is every insert that returned OK and `uncertain` is the
// insert in flight when the store died — its journal record may or may not
// have reached disk before the fault, so either outcome is legal; silently
// losing an *acked* write or resurrecting a never-written fid is not.
// Recovery must additionally be idempotent (a second recovery yields the
// identical set), produce no duplicate fids, answer sub-rectangle queries
// that agree with a brute-force oracle over the recovered set, and accept
// new writes afterwards (including a balancer pass). The scratch directory
// is deleted on success and kept as a repro artifact when the seed diverges.
bool RunCrashSeed(uint64_t seed, const FuzzConfig& config) {
  SeedContext ctx{seed, &config};
  Rng rng(seed);
  Rng data_rng = rng.Fork();
  Rng knob_rng = rng.Fork();
  Rng query_rng = rng.Fork();

  geo::Rect mbr;
  int64_t t0 = 0, span = 0;
  const std::vector<FuzzDoc> docs =
      GenerateDocs(&data_rng, config.docs, &mbr, &t0, &span);

  const Result<std::string> dir = MakeTempDir("stix_fuzz_crash");
  if (!dir.ok()) {
    std::fprintf(stderr, "FATAL: temp dir: %s (seed=%" PRIu64 ")\n",
                 dir.status().ToString().c_str(), seed);
    ++ctx.divergences;
    return false;
  }

  // Sampled deployment + crash site. Group commit (sync_every > 1) is fair
  // game: the simulated crash flushes the acknowledged tail first, exactly
  // like a process kill that lands after a successful fdatasync window.
  const char* const kCrashPoints[] = {"walBeforeCommit", "walTornTail",
                                      "walAfterCommitBeforeAck",
                                      "checkpointMidWrite"};
  const char* const crash_point = kCrashPoints[knob_rng.NextBounded(4)];
  const bool bucketed = config.layout == "bucket" ||
                        (config.layout == "both" && knob_rng.NextBool(0.5));

  StStoreOptions options;
  options.approach.kind = kApproaches[knob_rng.NextBounded(4)];
  options.approach.hilbert_order =
      4 + static_cast<int>(knob_rng.NextBounded(8));
  options.approach.dataset_mbr = mbr;
  // One curve per crash seed: the named one, or a sampled one for "all"
  // (the extra draw only happens under --curve=all, so default-seed
  // determinism is untouched).
  if (config.curve == "all") {
    const std::vector<geo::CurveKind> kinds = geo::AllCurveKinds();
    options.approach.curve_kind =
        kinds[knob_rng.NextBounded(static_cast<uint64_t>(kinds.size()))];
  } else {
    (void)geo::CurveKindFromName(config.curve.c_str(),
                                 &options.approach.curve_kind);
  }
  if (options.approach.curve_kind == geo::CurveKind::kEGeoHash) {
    options.approach.curve_fit_sample = FitSampleFor(docs);
  }
  options.cluster.num_shards = 2 + static_cast<int>(knob_rng.NextBounded(2));
  options.cluster.chunk_max_bytes = 8192 + knob_rng.NextBounded(24 * 1024);
  options.cluster.balance_every_inserts =
      64 + static_cast<int>(knob_rng.NextBounded(256));
  options.cluster.seed = seed;
  options.cluster.durability.data_dir = *dir;
  options.cluster.durability.wal.sync_every_commits =
      knob_rng.NextBool(0.3) ? 4 : 1;
  options.cluster.durability.checkpoint_wal_bytes =
      16 * 1024 + knob_rng.NextBounded(64 * 1024);
  if (bucketed) {
    storage::BucketLayout layout;
    const int64_t windows_ms[] = {15 * 60000LL, 3600000LL, 24 * 3600000LL};
    layout.window_ms = windows_ms[knob_rng.NextBounded(3)];
    layout.max_points = 8 + static_cast<uint32_t>(knob_rng.NextBounded(56));
    options.bucket = layout;
  }

  // Crash somewhere in the last three quarters of the load, with one clean
  // checkpoint at a random point before it (so recovery exercises both the
  // checkpoint image and the WAL tail behind it).
  const size_t quarter = docs.size() / 4;
  const size_t crash_at =
      quarter +
      knob_rng.NextBounded(std::max<size_t>(1, docs.size() - quarter));
  const size_t checkpoint_at =
      knob_rng.NextBounded(std::max<size_t>(1, crash_at));

  const FuzzQuery full{mbr, t0, t0 + span};
  const bool ok = [&]() -> bool {
    std::set<int32_t> acked;
    std::set<int32_t> uncertain;
    {
      StStore store(options);
      if (!store.Setup().ok()) {
        std::fprintf(stderr,
                     "FATAL: crash store setup failed (seed=%" PRIu64 ")\n",
                     seed);
        ++ctx.divergences;
        return false;
      }
      FailPoint* fp = FailPointRegistry::Instance().Find(crash_point);
      if (fp == nullptr) {
        std::fprintf(stderr, "FATAL: fail point %s not registered\n",
                     crash_point);
        ++ctx.divergences;
        return false;
      }
      bool died = false;
      for (size_t i = 0; i < docs.size() && !died; ++i) {
        if (i == checkpoint_at && !store.Checkpoint().ok()) {
          std::fprintf(stderr,
                       "FATAL: clean checkpoint failed (seed=%" PRIu64 ")\n",
                       seed);
          ++ctx.divergences;
          return false;
        }
        if (i == crash_at) {
          FailPoint::Config fpc;
          fpc.error_code = StatusCode::kInternal;
          fpc.error_message = std::string("injected crash at ") + crash_point;
          fp->Enable(fpc);
          if (std::strcmp(crash_point, "checkpointMidWrite") == 0) {
            // The checkpoint writer dies mid-image; every insert so far was
            // acknowledged and must survive via the previous checkpoint
            // plus the WAL tail, never via the torn image.
            if (store.Checkpoint().ok()) {
              ctx.Report("crash", "checkpoint-survived-fault", full, 0, 1);
              return false;
            }
            died = true;
            break;
          }
        }
        const Status s = store.Insert(MakeDoc(docs[i]));
        if (s.ok()) {
          acked.insert(docs[i].fid);
        } else if (i < crash_at) {
          std::fprintf(stderr,
                       "FATAL: insert failed before the armed crash point: "
                       "%s (seed=%" PRIu64 ")\n",
                       s.ToString().c_str(), seed);
          ++ctx.divergences;
          return false;
        } else {
          // Lost (no commit marker) or durable-but-unacknowledged (marker
          // on disk, ack suppressed) — both are legal crash outcomes.
          uncertain.insert(docs[i].fid);
          died = true;
        }
      }
      FailPointRegistry::Instance().DisableAll();
      if (!died) {
        ctx.Report("crash", "crash-point-never-fired", full, 1, 0);
        return false;
      }
    }  // dirty shutdown: destroyed with the fault's state on disk

    // First recovery: the durability contract over the full window.
    std::vector<int32_t> recovered;
    {
      const Result<std::unique_ptr<StStore>> r = StStore::Recover(options);
      if (!r.ok()) {
        std::fprintf(stderr, "recover failed: %s\n",
                     r.status().ToString().c_str());
        ctx.Report("crash", "recover-status", full, 0, 1);
        return false;
      }
      recovered = SortedFids(
          (*r)->Query(full.rect, full.t_begin_ms, full.t_end_ms)
              .cluster.docs);
    }
    if (HasDuplicates(recovered)) {
      ctx.Report("crash", "recovered-duplicates", full, acked.size(),
                 recovered.size());
      return false;
    }
    bool contract_ok = std::includes(recovered.begin(), recovered.end(),
                                     acked.begin(), acked.end());
    for (const int32_t fid : recovered) {
      if (acked.count(fid) == 0 && uncertain.count(fid) == 0) {
        contract_ok = false;  // phantom: a fid that was never written
      }
    }
    if (!contract_ok) {
      ctx.Report("crash", "durability-contract", full, acked.size(),
                 recovered.size());
      return false;
    }

    // Second recovery: replay must be idempotent — bit-for-bit the same
    // logical contents, then the store must keep working (new writes, a
    // balancer pass, zone migrations) with exact oracle agreement.
    const Result<std::unique_ptr<StStore>> r = StStore::Recover(options);
    if (!r.ok()) {
      ctx.Report("crash", "recover-twice-status", full, 0, 1);
      return false;
    }
    StStore& store = **r;
    const std::vector<int32_t> again = SortedFids(
        store.Query(full.rect, full.t_begin_ms, full.t_end_ms).cluster.docs);
    if (again != recovered) {
      ctx.Report("crash", "recover-idempotence", full, recovered.size(),
                 again.size());
      return false;
    }

    std::vector<FuzzDoc> truth;
    truth.reserve(recovered.size() + 16);
    for (const int32_t fid : recovered) {
      truth.push_back(docs[static_cast<size_t>(fid)]);
    }
    for (int i = 0; i < 16; ++i) {
      FuzzDoc d;
      d.lon = query_rng.NextDouble(mbr.lo.lon, mbr.hi.lon);
      d.lat = query_rng.NextDouble(mbr.lo.lat, mbr.hi.lat);
      d.t_ms = t0 + static_cast<int64_t>(
                        query_rng.NextBounded(static_cast<uint64_t>(span) + 1));
      d.fid = static_cast<int32_t>(docs.size()) + i;
      truth.push_back(d);
      if (!store.Insert(MakeDoc(d)).ok()) {
        ctx.Report("crash", "post-recovery-insert", full, 1, 0);
        return false;
      }
    }
    if (!store.FinishLoad().ok() ||
        (knob_rng.NextBool(0.5) && !store.ConfigureZones().ok())) {
      ctx.Report("crash", "post-recovery-balance", full, 1, 0);
      return false;
    }
    const int num_queries = std::max(3, config.queries);
    for (int i = 0; i <= num_queries; ++i) {
      // First round re-checks the full window (now including the extras);
      // the rest are random sub-rectangles against the brute-force oracle
      // restricted to what actually survived.
      const FuzzQuery q =
          i == 0 ? full : GenerateQuery(&query_rng, mbr, t0, span);
      const std::vector<int32_t> expect = OracleFids(truth, q);
      const std::vector<int32_t> got = SortedFids(
          store.Query(q.rect, q.t_begin_ms, q.t_end_ms).cluster.docs);
      if (got != expect) {
        ctx.Report("crash", "post-recovery-oracle", q, expect.size(),
                   got.size());
        return false;
      }
    }
    return true;
  }();
  FailPointRegistry::Instance().DisableAll();

  if (ok && ctx.divergences == 0) {
    (void)RemoveAll(*dir);
    if (config.verbose) {
      std::printf("seed %" PRIu64 ": crash ok (%d docs, point %s, layout %s, "
                  "%d shards, sync_every %d)\n",
                  seed, config.docs, crash_point, bucketed ? "bucket" : "row",
                  options.cluster.num_shards,
                  options.cluster.durability.wal.sync_every_commits);
    }
    return true;
  }
  std::fprintf(stderr,
               "ARTIFACT: crash-seed data dir kept at %s (seed=%" PRIu64
               " point=%s layout=%s)\n",
               dir->c_str(), seed, crash_point, bucketed ? "bucket" : "row");
  return false;
}

bool RunSeed(uint64_t seed, const FuzzConfig& config,
             std::string* server_status_out) {
  if (config.crash) return RunCrashSeed(seed, config);
  SeedContext ctx{seed, &config};
  Rng rng(seed);
  Rng data_rng = rng.Fork();
  Rng knob_rng = rng.Fork();
  Rng query_rng = rng.Fork();

  geo::Rect mbr;
  int64_t t0 = 0, span = 0;
  // The oracle: grows with the concurrent/reshard phases' inserts and
  // shrinks with the delete phase.
  std::vector<FuzzDoc> docs =
      GenerateDocs(&data_rng, config.docs, &mbr, &t0, &span);

  // Random deployment knobs, shared by all four stores so only the approach
  // differs. Small chunks force splits; a short balancer cadence forces
  // migrations during the load.
  const int num_shards = 2 + static_cast<int>(knob_rng.NextBounded(4));
  const uint64_t chunk_max_bytes = 4096 + knob_rng.NextBounded(24 * 1024);
  const int balance_every = 64 + static_cast<int>(knob_rng.NextBounded(256));
  const int hilbert_order = 4 + static_cast<int>(knob_rng.NextBounded(8));
  const bool use_zones = knob_rng.NextBool(0.5);
  const bool mid_run_zones = use_zones && knob_rng.NextBool(0.5);

  // Bucket-layout knobs are drawn unconditionally so a --layout=bucket
  // repro of a --layout=both failure replays the identical workload. Small
  // windows / seal thresholds force many buckets per store.
  storage::BucketLayout bucket_layout;
  const int64_t windows_ms[] = {15 * 60000LL, 3600000LL, 6 * 3600000LL,
                                24 * 3600000LL};
  bucket_layout.window_ms = windows_ms[knob_rng.NextBounded(4)];
  bucket_layout.max_points =
      8 + static_cast<uint32_t>(knob_rng.NextBounded(120));
  bucket_layout.hilbert_shift = 4 + static_cast<int>(knob_rng.NextBounded(10));

  const bool want_row = config.layout != "bucket";
  const bool want_bucket = config.layout != "row";
  std::vector<query::PlanSelectionMode> modes;
  if (config.planner != "cost") modes.push_back(query::PlanSelectionMode::kRace);
  if (config.planner != "race") modes.push_back(query::PlanSelectionMode::kCost);

  std::vector<std::unique_ptr<StStore>> owned_stores;
  std::vector<StStore*> stores;  // row stores first, then bucket stores
  std::vector<StStore*> row_stores;
  std::vector<StStore*> bucket_stores;
  std::vector<StStore*> race_stores;
  std::vector<StStore*> cost_stores;
  const std::vector<geo::CurveKind> curve_kinds = CurveKindsFor(config.curve);
  std::vector<geo::Point> fit_sample;
  for (const geo::CurveKind kind : curve_kinds) {
    if (kind == geo::CurveKind::kEGeoHash) fit_sample = FitSampleFor(docs);
  }
  for (const bool bucketed : {false, true}) {
    if (bucketed ? !want_bucket : !want_row) continue;
    for (const query::PlanSelectionMode mode : modes) {
      for (const ApproachKind kind : kApproaches) {
        // Baselines carry no curve: one instance regardless of --curve.
        const bool curve_backed = kind == ApproachKind::kHil ||
                                  kind == ApproachKind::kHilStar;
        const size_t num_curves = curve_backed ? curve_kinds.size() : 1;
        for (size_t c = 0; c < num_curves; ++c) {
          StStoreOptions options;
          options.approach.kind = kind;
          options.approach.hilbert_order = hilbert_order;
          options.approach.dataset_mbr = mbr;
          if (curve_backed) {
            options.approach.curve_kind = curve_kinds[c];
            if (curve_kinds[c] == geo::CurveKind::kEGeoHash) {
              options.approach.curve_fit_sample = fit_sample;
            }
          }
          options.cluster.num_shards = num_shards;
          options.cluster.chunk_max_bytes = chunk_max_bytes;
          options.cluster.balance_every_inserts = balance_every;
          options.cluster.seed = seed;
          options.cluster.exec.plan_selection = mode;
          if (bucketed) options.bucket = bucket_layout;
          if (config.profile) {
            options.cluster.profiler.enabled = true;
            options.cluster.profiler.slow_millis = 0.0;  // record every op
            options.cluster.profiler.capacity = 64;
          }
          owned_stores.push_back(std::make_unique<StStore>(options));
          stores.push_back(owned_stores.back().get());
          (bucketed ? bucket_stores : row_stores).push_back(stores.back());
          (mode == query::PlanSelectionMode::kRace ? race_stores
                                                   : cost_stores)
              .push_back(stores.back());
          if (!stores.back()->Setup().ok()) {
            std::fprintf(stderr, "FATAL: store setup failed (seed=%" PRIu64
                                 ")\n",
                         seed);
            return false;
          }
        }
      }
    }
  }
  for (const FuzzDoc& d : docs) {
    for (const auto& store : stores) {
      const Status s = store->Insert(MakeDoc(d));
      if (!s.ok()) {
        std::fprintf(stderr, "FATAL: insert failed: %s (seed=%" PRIu64 ")\n",
                     s.ToString().c_str(), seed);
        return false;
      }
    }
  }
  for (const auto& store : stores) {
    if (!store->FinishLoad().ok()) return false;
  }
  if (use_zones && !mid_run_zones) {
    for (const auto& store : stores) {
      if (!store->ConfigureZones().ok()) return false;
    }
  }

  // The query battery: the oracle checks plus the layout and planner
  // pair parity.
  const auto battery = [&](const FuzzQuery& q, Rng* battery_rng) {
    if (!CheckQuery(stores, docs, q, battery_rng, &ctx)) return false;
    if (!row_stores.empty() && !bucket_stores.empty() &&
        !CheckPairParity(row_stores, bucket_stores, "layout", q, &ctx)) {
      return false;
    }
    return race_stores.empty() || cost_stores.empty() ||
           CheckPairParity(race_stores, cost_stores, "planner", q, &ctx);
  };

  FuzzQuery last_query{};
  for (int i = 0; i < config.queries; ++i) {
    if (mid_run_zones && i == config.queries / 2) {
      // Mid-run migrations: re-zone every store between query rounds (no
      // cursor is open across this point — cursors borrow the cluster).
      for (const auto& store : stores) {
        if (!store->ConfigureZones().ok()) return false;
      }
    }
    const FuzzQuery q = GenerateQuery(&query_rng, mbr, t0, span);
    last_query = q;
    if (!battery(q, &query_rng)) return false;
  }

  if (config.failpoints &&
      !CheckFailPoints(stores, docs, last_query, &query_rng, &ctx)) {
    return false;
  }
  if (config.failpoints && want_bucket &&
      !CheckBucketFlushFailPoint(mbr, t0, span, bucket_layout, &query_rng,
                                 &ctx)) {
    return false;
  }

  if (config.reshard) {
    Rng reshard_rng = rng.Fork();
    if (!CheckReshardPhase(stores, row_stores, &docs, mbr, t0, span, config,
                           &reshard_rng, &ctx)) {
      return false;
    }
  } else if (config.threads > 0) {
    Rng concurrent_rng = rng.Fork();
    if (!CheckConcurrent(stores, &docs, mbr, t0, span, config, &concurrent_rng,
                         &ctx)) {
      return false;
    }
  }

  // Delete phase: one generated window leaves every store and the oracle,
  // then the battery runs again over the survivors — the deleted window
  // itself first, which must now be empty everywhere. Most generated
  // windows are small, so the first of up to 16 draws that holds a
  // document is deleted.
  Rng delete_rng = rng.Fork();
  FuzzQuery doomed = GenerateQuery(&delete_rng, mbr, t0, span);
  for (int i = 0; i < 16 && OracleFids(docs, doomed).empty(); ++i) {
    doomed = GenerateQuery(&delete_rng, mbr, t0, span);
  }
  if (!CheckDelete(stores, &docs, doomed, &ctx)) return false;
  if (!battery(doomed, &delete_rng)) return false;
  for (int i = 0; i < config.queries; ++i) {
    if (!battery(GenerateQuery(&delete_rng, mbr, t0, span), &delete_rng)) {
      return false;
    }
  }

  if (server_status_out != nullptr && !stores.empty()) {
    *server_status_out = stores.back()->cluster().ServerStatus();
  }

  if (config.verbose) {
    std::printf("seed %" PRIu64 ": ok (%d docs, %d queries, %d shards, "
                "order %d, layout %s, planner %s, curve %s%s)\n",
                seed, config.docs, config.queries, num_shards, hilbert_order,
                config.layout.c_str(), config.planner.c_str(),
                config.curve.c_str(),
                use_zones ? (mid_run_zones ? ", mid-run zones" : ", zones")
                          : "");
  }
  return ctx.divergences == 0;
}

int FuzzMain(int argc, char** argv) {
  FuzzConfig config;
  bool explicit_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      return arg.c_str() + std::strlen(prefix);
    };
    if (arg.rfind("--seed=", 0) == 0) {
      config.seed_base = std::strtoull(value("--seed="), nullptr, 10);
      config.num_seeds = 1;
      explicit_seed = true;
    } else if (arg.rfind("--seeds=", 0) == 0) {
      config.num_seeds = std::atoi(value("--seeds="));
    } else if (arg.rfind("--seed-base=", 0) == 0) {
      config.seed_base = std::strtoull(value("--seed-base="), nullptr, 10);
    } else if (arg.rfind("--docs=", 0) == 0) {
      config.docs = std::atoi(value("--docs="));
    } else if (arg.rfind("--queries=", 0) == 0) {
      config.queries = std::atoi(value("--queries="));
    } else if (arg == "--no-failpoints") {
      config.failpoints = false;
    } else if (arg == "--verbose" || arg == "-v") {
      config.verbose = true;
    } else if (arg == "--profile") {
      config.profile = true;
    } else if (arg == "--server-status") {
      config.server_status = true;
    } else if (arg == "--check-counters") {
      config.check_counters = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      config.threads = std::atoi(value("--threads="));
    } else if (arg == "--crash") {
      config.crash = true;
    } else if (arg == "--reshard") {
      config.reshard = true;
    } else if (arg.rfind("--layout=", 0) == 0) {
      config.layout = value("--layout=");
      if (config.layout != "row" && config.layout != "bucket" &&
          config.layout != "both") {
        std::fprintf(stderr, "--layout must be row, bucket or both\n");
        return 2;
      }
    } else if (arg.rfind("--planner=", 0) == 0) {
      config.planner = value("--planner=");
      if (config.planner != "race" && config.planner != "cost" &&
          config.planner != "both") {
        std::fprintf(stderr, "--planner must be race, cost or both\n");
        return 2;
      }
    } else if (arg.rfind("--curve=", 0) == 0) {
      config.curve = value("--curve=");
      geo::CurveKind parsed;
      if (config.curve != "all" &&
          !geo::CurveKindFromName(config.curve.c_str(), &parsed)) {
        std::fprintf(stderr,
                     "--curve must be hilbert, zorder, onion, egeohash or "
                     "all\n");
        return 2;
      }
    } else if (arg == "--list-failpoints") {
      for (const std::string& name : FailPointRegistry::Instance().Names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else {
      std::fprintf(stderr,
                   "usage: stix_fuzz [--seed=N | --seeds=N --seed-base=N] "
                   "[--docs=N] [--queries=N] [--threads=N] [--crash] "
                   "[--reshard] "
                   "[--layout=row|bucket|both] [--planner=race|cost|both] "
                   "[--curve=hilbert|zorder|onion|egeohash|all] "
                   "[--no-failpoints] [--verbose] [--profile] "
                   "[--server-status] [--check-counters] "
                   "[--list-failpoints]\n");
      return 2;
    }
  }
  if (explicit_seed && config.num_seeds != 1) {
    std::fprintf(stderr, "--seed and --seeds are mutually exclusive\n");
    return 2;
  }

  int failures = 0;
  std::string server_status;
  for (int i = 0; i < config.num_seeds; ++i) {
    const uint64_t seed = config.seed_base + static_cast<uint64_t>(i);
    if (!RunSeed(seed, config,
                 config.server_status ? &server_status : nullptr)) {
      ++failures;
    }
  }

  // Crash mode runs a single durable store per seed, so the dead-counter
  // guard's query-stack expectations do not apply.
  if (config.check_counters && !config.crash) {
    // Counters that any non-trivial fuzz run must have moved; a zero means
    // the instrumentation point silently died.
    std::vector<const char*> required = {
        "btree.node_reads",  "btree.splits",       "plan_cache.hits",
        "plan_cache.misses", "cover_cache.hits",   "cover_cache.misses",
        "cluster.batches",   "cluster.bytes_materialized"};
    if (config.failpoints) required.push_back("executor.replans");
    if (config.layout != "row") {
      required.push_back("bucket.buckets_flushed");
      required.push_back("bucket.points_unpacked");
    }
    required.push_back("planner.plans_total");
    if (config.planner != "race") {
      // Cost mode must have both estimated outright and fallen back to a
      // race at least once across a non-trivial run.
      required.push_back("planner.plans_estimated");
    }
    if (config.planner != "cost") required.push_back("planner.plans_raced");
    for (const char* name : required) {
      if (MetricsRegistry::Instance().GetCounter(name).value() == 0) {
        std::fprintf(stderr, "DEAD COUNTER: %s never incremented\n", name);
        ++failures;
      }
    }
  }

  if (config.server_status) {
    std::printf("%s\n", server_status.c_str());
  }

  std::printf("stix_fuzz: %d seed%s, %d divergence%s (docs=%d queries=%d "
              "layout=%s planner=%s curve=%s failpoints=%s threads=%d)\n",
              config.num_seeds, config.num_seeds == 1 ? "" : "s", failures,
              failures == 1 ? "" : "s", config.docs, config.queries,
              config.layout.c_str(), config.planner.c_str(),
              config.curve.c_str(),
              config.failpoints ? "on" : "off", config.threads);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace stix

int main(int argc, char** argv) { return stix::FuzzMain(argc, argv); }
