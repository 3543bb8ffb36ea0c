#include "bench/bench_common.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bson/codec.h"
#include "common/lz.h"
#include "common/percentile.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "query/bucket_unpack.h"
#include "query/expression.h"

namespace stix::bench {

const char* DatasetName(Dataset d) { return d == Dataset::kR ? "R" : "S"; }

BenchConfig BenchConfig::FromArgs(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      if (arg.rfind(prefix, 0) == 0) return arg.c_str() + strlen(prefix);
      return nullptr;
    };
    if (const char* v = value_of("--r_docs=")) {
      config.r_docs = strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--s_docs=")) {
      config.s_docs = strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--shards=")) {
      config.num_shards = atoi(v);
    } else if (const char* v = value_of("--warm=")) {
      config.warm_runs = atoi(v);
    } else if (const char* v = value_of("--timed=")) {
      config.timed_runs = atoi(v);
    } else if (const char* v = value_of("--seed=")) {
      config.seed = strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--json=")) {
      config.json_path = v;
    } else if (const char* v = value_of("--batch=")) {
      config.batch_size = strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--planner=")) {
      config.planner = v;
      if (config.planner != "race" && config.planner != "cost") {
        fprintf(stderr, "--planner must be race or cost, got %s\n", v);
        exit(2);
      }
    } else if (arg == "--bucket") {
      config.bucket = true;
    } else if (arg == "--verbose") {
      config.verbose = true;
    } else if (arg == "--server-status") {
      config.server_status = true;
    } else {
      fprintf(stderr,
              "unknown flag %s\nusage: %s [--r_docs=N] [--s_docs=N] "
              "[--shards=N] [--warm=N] [--timed=N] [--seed=N] "
              "[--batch=N] [--json=PATH] [--planner=race|cost] "
              "[--bucket] [--verbose] [--server-status]\n",
              arg.c_str(), argv[0]);
      exit(2);
    }
  }
  return config;
}

DatasetInfo InfoFor(Dataset dataset, const BenchConfig& config) {
  (void)config;
  if (dataset == Dataset::kR) {
    workload::TrajectoryOptions defaults;
    return DatasetInfo{workload::TrajectoryGenerator::GreeceMbr(),
                       defaults.t_begin_ms, defaults.t_end_ms};
  }
  workload::UniformOptions defaults;
  return DatasetInfo{workload::UniformGenerator::PaperMbr(),
                     defaults.t_begin_ms, defaults.t_end_ms};
}

std::unique_ptr<st::StStore> BuildLoadedStore(st::ApproachKind kind,
                                              Dataset dataset,
                                              const BenchConfig& config) {
  const DatasetInfo info = InfoFor(dataset, config);

  st::StStoreOptions options;
  options.approach.kind = kind;
  options.approach.dataset_mbr = info.mbr;
  options.cluster.num_shards = config.num_shards;
  options.cluster.chunk_max_bytes = config.chunk_max_bytes;
  options.cluster.seed = config.seed;
  options.cluster.exec.plan_selection = config.planner == "race"
                                            ? query::PlanSelectionMode::kRace
                                            : query::PlanSelectionMode::kCost;
  options.load_clock_begin_ms = info.t_begin_ms;
  if (config.bucket) {
    // The default 6 h window matches the paper's per-vehicle sampling
    // density; the bench data is scaled down ~60x, so the window scales up
    // with it: aim for ~64 points per (stream, window) bucket, clamped to
    // [1 h, full span]. The uniform S set has no vehicleId (one stream).
    storage::BucketLayout layout;
    const int64_t span_ms = info.t_end_ms - info.t_begin_ms;
    const uint64_t docs =
        dataset == Dataset::kR ? config.r_docs : config.s_docs;
    const uint64_t streams =
        dataset == Dataset::kR
            ? static_cast<uint64_t>(workload::TrajectoryOptions{}.num_vehicles)
            : 1;
    const int64_t target = static_cast<int64_t>(
        static_cast<double>(span_ms) * 64.0 * static_cast<double>(streams) /
        static_cast<double>(docs > 0 ? docs : 1));
    layout.window_ms = std::clamp<int64_t>(target, 3600000LL, span_ms);
    // The default shift (4k-index cells over a 26-bit curve) is sized for
    // paper-scale density; here it would shatter every hil bucket into
    // single-point cells. 64 coarse cells keep buckets full and the widened
    // range scan selective enough.
    layout.hilbert_shift = 20;
    options.bucket = layout;
  }

  auto store = std::make_unique<st::StStore>(options);
  Status s = store->Setup();
  if (!s.ok()) {
    fprintf(stderr, "store setup failed: %s\n", s.ToString().c_str());
    exit(1);
  }

  Stopwatch load_timer;
  bson::Document doc;
  uint64_t loaded = 0;
  if (dataset == Dataset::kR) {
    workload::TrajectoryOptions traj;
    traj.num_records = config.r_docs;
    traj.seed = config.seed ^ 0x9e37ULL;
    workload::TrajectoryGenerator gen(traj);
    while (gen.Next(&doc)) {
      s = store->Insert(std::move(doc));
      if (!s.ok()) {
        fprintf(stderr, "insert failed: %s\n", s.ToString().c_str());
        exit(1);
      }
      ++loaded;
    }
  } else {
    workload::UniformOptions uni;
    uni.num_records = config.s_docs;
    uni.seed = config.seed ^ 0x51aULL;
    workload::UniformGenerator gen(uni);
    while (gen.Next(&doc)) {
      s = store->Insert(std::move(doc));
      if (!s.ok()) {
        fprintf(stderr, "insert failed: %s\n", s.ToString().c_str());
        exit(1);
      }
      ++loaded;
    }
  }
  s = store->FinishLoad();
  if (!s.ok()) {
    fprintf(stderr, "balance failed: %s\n", s.ToString().c_str());
    exit(1);
  }
  if (config.verbose) {
    fprintf(stderr,
            "[load] %s/%s: %" PRIu64 " docs in %.1fs, %zu chunks\n",
            st::ApproachName(kind), DatasetName(dataset), loaded,
            load_timer.ElapsedMillis() / 1000.0,
            store->cluster().chunks().num_chunks());
  }
  return store;
}

QueryMeasurement MeasureQuery(const st::StStore& store,
                              const workload::StQuerySpec& spec,
                              const BenchConfig& config) {
  // With --batch=N the measured runs stream through the cursor path in
  // N-document getMore rounds (batches are consumed and dropped); with the
  // default 0 they use the classic single-round drain. Counts and modeled
  // time are identical either way — the streaming columns
  // (first_result_millis, bytes_materialized) are what batching moves.
  const auto run = [&] {
    st::StCursorOptions cursor_options;
    cursor_options.batch_size = config.batch_size;
    if (config.batch_size == 0) {
      return store.Query(spec.rect, spec.t_begin_ms, spec.t_end_ms);
    }
    st::StCursor cursor = store.OpenQuery(spec.rect, spec.t_begin_ms,
                                          spec.t_end_ms, cursor_options);
    while (!cursor.exhausted()) (void)cursor.NextBatch();
    return cursor.Summary();
  };

  QueryMeasurement m;
  m.query_name = spec.name;
  for (int i = 0; i < config.warm_runs; ++i) {
    (void)run();
  }
  double total_ms = 0.0, total_cover_ms = 0.0, total_first_ms = 0.0;
  for (int i = 0; i < config.timed_runs; ++i) {
    const st::StQueryResult r = run();
    total_ms += r.cluster.modeled_millis;
    total_cover_ms += r.translated.cover_millis;
    total_first_ms += r.cluster.first_result_millis;
    if (r.translated.cache_hit) ++m.cover_cache_hits;
    if (i + 1 == config.timed_runs) {
      m.n_results = r.cluster.n_returned;
      m.nodes = r.cluster.nodes_contacted;
      m.max_keys = r.cluster.max_keys_examined;
      m.max_docs = r.cluster.max_docs_examined;
      m.cover_ranges = r.translated.num_ranges;
      m.cover_singletons = r.translated.num_singletons;
      m.bytes_materialized = r.cluster.bytes_materialized;
      for (const cluster::ShardQueryReport& rep : r.cluster.shard_reports) {
        m.winning_indexes.push_back(rep.winning_index);
      }
    }
  }
  m.avg_millis = total_ms / config.timed_runs;
  m.avg_cover_millis = total_cover_ms / config.timed_runs;
  m.first_result_millis = total_first_ms / config.timed_runs;
  return m;
}

void PrintPanel(const std::string& title, const std::string& metric,
                const std::vector<std::string>& approach_names,
                const std::vector<std::vector<std::string>>& values,
                const std::vector<std::string>& query_names) {
  printf("\n%s — %s\n", title.c_str(), metric.c_str());
  printf("%-8s", "query");
  for (const std::string& name : approach_names) {
    printf(" %14s", name.c_str());
  }
  printf("\n");
  for (size_t q = 0; q < query_names.size(); ++q) {
    printf("%-8s", query_names[q].c_str());
    for (size_t a = 0; a < approach_names.size(); ++a) {
      printf(" %14s", values[a][q].c_str());
    }
    printf("\n");
  }
}

std::string Fmt(double v, int decimals) { return FormatFixed(v, decimals); }

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

bool WriteBenchJson(const std::string& path, const std::string& bench_name,
                    const BenchConfig& config,
                    const std::vector<BenchJsonEntry>& entries) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  fprintf(f, "{\n  \"bench\": \"%s\",\n", JsonEscape(bench_name).c_str());
  fprintf(f,
          "  \"config\": {\"r_docs\": %" PRIu64 ", \"s_docs\": %" PRIu64
          ", \"shards\": %d, \"warm_runs\": %d, \"timed_runs\": %d, "
          "\"seed\": %" PRIu64 ", \"batch_size\": %zu},\n",
          config.r_docs, config.s_docs, config.num_shards, config.warm_runs,
          config.timed_runs, config.seed, config.batch_size);
  fprintf(f, "  \"queries\": [\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    const BenchJsonEntry& e = entries[i];
    fprintf(f,
            "    {\"approach\": \"%s\", \"dataset\": \"%s\", "
            "\"suite\": \"%s\", \"query\": \"%s\", "
            "\"n_results\": %" PRIu64 ", \"nodes\": %d, "
            "\"max_keys\": %" PRIu64 ", \"max_docs\": %" PRIu64 ", "
            "\"avg_millis\": %.6f, \"avg_cover_millis\": %.6f, "
            "\"cover_ranges\": %zu, \"cover_singletons\": %zu, "
            "\"cover_cache_hits\": %d, "
            "\"bytes_materialized\": %" PRIu64 ", "
            "\"first_result_millis\": %.6f}%s\n",
            JsonEscape(e.approach).c_str(), JsonEscape(e.dataset).c_str(),
            JsonEscape(e.suite).c_str(), JsonEscape(e.m.query_name).c_str(),
            e.m.n_results, e.m.nodes, e.m.max_keys, e.m.max_docs,
            e.m.avg_millis, e.m.avg_cover_millis, e.m.cover_ranges,
            e.m.cover_singletons, e.m.cover_cache_hits,
            e.m.bytes_materialized, e.m.first_result_millis,
            i + 1 == entries.size() ? "" : ",");
  }
  fprintf(f, "  ]\n}\n");
  fclose(f);
  return true;
}

double Percentile(std::vector<double> values, double p) {
  return PercentileOf(std::move(values), p);
}

void MeasureColdScan(const st::StStore& store, const DatasetInfo& info,
                     PerfSummary* row) {
  // The scan query: a city-scale rectangle over a quarter of the time span.
  // Fractions of the dataset MBR, placed so the R set's box lands on the
  // Athens metro hotspot (the paper's rect queries) — selective enough that
  // bucket-level pruning has something to prune, identical for both
  // layouts. A full scan cannot skip a row document without parsing it; a
  // bucket document carries its extent outside the compressed columns.
  const double lon_span = info.mbr.hi.lon - info.mbr.lo.lon;
  const double lat_span = info.mbr.hi.lat - info.mbr.lo.lat;
  const geo::Rect rect{{info.mbr.lo.lon + 0.42 * lon_span,
                        info.mbr.lo.lat + 0.40 * lat_span},
                       {info.mbr.lo.lon + 0.55 * lon_span,
                        info.mbr.lo.lat + 0.50 * lat_span}};
  const int64_t span_ms = info.t_end_ms - info.t_begin_ms;
  const int64_t t0 = info.t_begin_ms + span_ms / 2;
  const int64_t t1 = info.t_begin_ms + span_ms * 3 / 4;

  // Untimed: lay the collection out as its on-disk image — the exact 32 KB
  // LZ blocks CollectionStats::compressed_bytes accounts (Collection's
  // kBlockSize), in record order, across all shards.
  constexpr size_t kBlockSize = 32 * 1024;
  std::vector<std::string> blocks;
  std::string block;
  block.reserve(kBlockSize * 2);
  for (const auto& shard : store.cluster().shards()) {
    shard->records().ForEach(
        [&](storage::RecordId, const bson::Document& doc) {
          block += bson::EncodeBson(doc);
          if (block.size() >= kBlockSize) {
            blocks.push_back(LzCompress(block));
            block.clear();
          }
        });
    if (!block.empty()) {
      blocks.push_back(LzCompress(block));
      block.clear();
    }
  }

  std::vector<query::ExprPtr> conjuncts;
  conjuncts.push_back(query::MakeCmp("date", query::CmpOp::kGte,
                                     bson::Value::DateTime(t0)));
  conjuncts.push_back(query::MakeCmp("date", query::CmpOp::kLte,
                                     bson::Value::DateTime(t1)));
  conjuncts.push_back(query::MakeGeoWithinBox("location", rect));
  const query::ExprPtr expr = query::MakeAnd(std::move(conjuncts));

  const bool bucketed = store.bucketed();
  storage::BucketLayout layout;
  query::BucketPruneSpec spec;
  if (bucketed) {
    layout = store.bucket_catalog()->layout();
    spec = query::ExtractBucketPredicates(expr, layout);
  }

  // Timed: decompress every block, parse every stored document, answer the
  // query. The bucket path runs the bucket predicate kernel: metadata
  // pruning, covered buckets counted straight off the metadata, and the
  // survivors answered on their ts/lon/lat columns (ids and payload
  // residuals stay encoded); only a bucket without a location column has
  // its time-selected rows built and filtered. The row path has no such
  // shortcut: a BSON document must be parsed before it can be matched.
  // Min of three repetitions: each repetition redoes every decompress,
  // parse and filter (the store state stays cold — nothing is cached
  // between passes), so the minimum strips allocator and branch-predictor
  // warm-up without warming the thing being measured.
  const auto die = [](const char* what, const Status& s) {
    fprintf(stderr, "cold scan: %s: %s\n", what, s.ToString().c_str());
    exit(1);
  };
  uint64_t scanned_points = 0;
  uint64_t matches = 0;
  // One reader, selection and build buffer for the whole scan.
  storage::BucketReader reader;
  storage::BucketSelection selection;
  std::vector<bson::Document> points;
  const auto scan_image = [&] {
    scanned_points = 0;
    matches = 0;
    for (const std::string& compressed : blocks) {
      const Result<std::string> raw = LzDecompress(compressed);
      if (!raw.ok()) die("block decompress", raw.status());
      const std::string_view bytes = *raw;
      size_t off = 0;
      while (off + 4 <= bytes.size()) {
        // BSON's length prefix counts itself; each document is one slice.
        const unsigned char* p =
            reinterpret_cast<const unsigned char*>(bytes.data() + off);
        const size_t len = static_cast<size_t>(p[0]) | (size_t{p[1]} << 8) |
                           (size_t{p[2]} << 16) | (size_t{p[3]} << 24);
        if (len < 5 || off + len > bytes.size()) {
          die("block framing", Status::Corruption("bad BSON length"));
        }
        const Result<bson::Document> doc =
            bson::DecodeBson(bytes.substr(off, len));
        if (!doc.ok()) die("document parse", doc.status());
        off += len;
        if (!bucketed) {
          ++scanned_points;
          if (expr->Matches(*doc)) ++matches;
          continue;
        }
        if (Status s = reader.Reset(*doc); !s.ok()) die("bucket meta", s);
        scanned_points += reader.meta().num_points;
        if (Status s = reader.Select(spec, &selection); !s.ok()) {
          die("bucket columns", s);
        }
        if (selection.exact) {
          matches += selection.rows.size();
          continue;
        }
        if (Status s = reader.Build(&selection.rows, &points); !s.ok()) {
          die("bucket decode", s);
        }
        for (const bson::Document& point : points) {
          if (expr->Matches(point)) ++matches;
        }
      }
    }
  };
  double best_millis = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch cold;
    scan_image();
    const double rep_millis = cold.ElapsedMillis();
    if (rep == 0 || rep_millis < best_millis) best_millis = rep_millis;
  }
  row->cold_scan_millis = best_millis;
  row->cold_scan_matches = matches;
  const double secs = row->cold_scan_millis / 1000.0;
  row->docs_per_sec_scanned =
      secs > 0.0 ? static_cast<double>(scanned_points) / secs : 0.0;
}

bool WritePerfJson(const std::string& path, const std::string& bench_name,
                   const BenchConfig& config,
                   const std::vector<PerfSummary>& rows) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  fprintf(f, "{\n  \"bench\": \"%s\",\n", JsonEscape(bench_name).c_str());
  fprintf(f,
          "  \"config\": {\"r_docs\": %" PRIu64 ", \"s_docs\": %" PRIu64
          ", \"shards\": %d, \"warm_runs\": %d, \"timed_runs\": %d, "
          "\"seed\": %" PRIu64 ", \"bucket\": %s},\n",
          config.r_docs, config.s_docs, config.num_shards, config.warm_runs,
          config.timed_runs, config.seed, config.bucket ? "true" : "false");
  fprintf(f, "  \"summaries\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const PerfSummary& s = rows[i];
    char durability[160] = "";
    if (s.insert_docs_per_sec > 0.0 || s.recovery_millis > 0.0) {
      snprintf(durability, sizeof(durability),
               ", \"insert_docs_per_sec\": %.1f, "
               "\"recovery_millis\": %.3f, "
               "\"recovery_sec_per_gb\": %.3f",
               s.insert_docs_per_sec, s.recovery_millis,
               s.recovery_sec_per_gb);
    }
    fprintf(f,
            "    {\"label\": \"%s\", \"dataset_docs\": %" PRIu64 ", "
            "\"docs_per_sec_scanned\": %.1f, "
            "\"record_store_bytes\": %" PRIu64 ", "
            "\"index_bytes\": %" PRIu64 ", "
            "\"compression_ratio\": %.3f, "
            "\"cold_scan_millis\": %.3f, "
            "\"cold_scan_matches\": %" PRIu64 ", "
            "\"p50_millis\": %.6f, \"p95_millis\": %.6f%s}%s\n",
            JsonEscape(s.label).c_str(), s.dataset_docs,
            s.docs_per_sec_scanned, s.record_store_bytes, s.index_bytes,
            s.compression_ratio, s.cold_scan_millis, s.cold_scan_matches,
            s.p50_millis, s.p95_millis, durability,
            i + 1 == rows.size() ? "" : ",");
  }
  fprintf(f, "  ]\n}\n");
  fclose(f);
  return true;
}

}  // namespace stix::bench
