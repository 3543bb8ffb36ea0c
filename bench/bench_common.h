#ifndef STIX_BENCH_BENCH_COMMON_H_
#define STIX_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "st/st_store.h"
#include "workload/query_workload.h"
#include "workload/trajectory_generator.h"
#include "workload/uniform_generator.h"

namespace stix::bench {

/// Which of the paper's two data sets a run uses.
enum class Dataset { kR, kS };

const char* DatasetName(Dataset d);

/// Scale and methodology knobs shared by the table/figure benches. The
/// paper runs 15.2M-63.9M documents on 12 shard VMs and measures 30 warm
/// runs, averaging the last 10; the defaults here scale the data down ~60x
/// (documented in EXPERIMENTS.md) and the repetitions accordingly.
struct BenchConfig {
  uint64_t r_docs = 250000;
  uint64_t s_docs = 500000;  ///< Paper: |S| = 2 |R|.
  int num_shards = 12;
  uint64_t chunk_max_bytes = 512 * 1024;
  int warm_runs = 2;   ///< Untimed warm-up executions per query.
  int timed_runs = 3;  ///< Timed executions averaged per query.
  uint64_t seed = 42;
  bool verbose = false;
  /// Per-shard getMore batch size for measured queries; 0 (default) drains
  /// each shard in one round, the classic gather the paper measures.
  /// Non-zero exercises the streaming cursor path (EXPERIMENTS.md).
  size_t batch_size = 0;
  /// When non-empty, per-query measurements are also written as JSON here
  /// (see WriteBenchJson) so successive PRs can track the perf trajectory.
  std::string json_path;
  /// Dump Cluster::ServerStatus() (metrics registry + profiler) to stdout
  /// after the bench finishes — the observability counterpart of --json.
  bool server_status = false;
  /// Build every store with the bucketed collection layout (--bucket): one
  /// compressed bucket document per (vehicle, window) instead of one
  /// document per point. Queries answer identically; sizes and scan costs
  /// move — which is what bench_bucket measures.
  bool bucket = false;
  /// Plan-selection mode for every store (--planner=race|cost): "race"
  /// always trial-races candidates, "cost" (the library default) picks from
  /// histogram estimates when decisive. bench_planner builds one store per
  /// mode and diffs them.
  std::string planner = "cost";

  /// Parses --r_docs=, --s_docs=, --shards=, --warm=, --timed=, --seed=,
  /// --batch=, --json=, --planner=, --bucket, --verbose,
  /// --server-status from argv; unknown flags abort with a usage message.
  static BenchConfig FromArgs(int argc, char** argv);
};

/// Geographic extent and time span of one data set (drives hil*'s curve
/// domain and the query windows).
struct DatasetInfo {
  geo::Rect mbr;
  int64_t t_begin_ms;
  int64_t t_end_ms;
};

DatasetInfo InfoFor(Dataset dataset, const BenchConfig& config);

/// Builds, sets up and bulk-loads a store for one (approach, dataset) pair.
/// Prints progress to stderr when config.verbose.
std::unique_ptr<st::StStore> BuildLoadedStore(st::ApproachKind kind,
                                              Dataset dataset,
                                              const BenchConfig& config);

/// One measured query: the paper's four metrics plus covering stats.
struct QueryMeasurement {
  std::string query_name;
  uint64_t n_results = 0;
  int nodes = 0;
  uint64_t max_keys = 0;
  uint64_t max_docs = 0;
  double avg_millis = 0.0;        ///< Modeled execution time, averaged.
  double avg_cover_millis = 0.0;  ///< Curve covering time (Table 8).
  size_t cover_ranges = 0;
  size_t cover_singletons = 0;
  /// Winning index name per contacted shard (Table 7), from the last run.
  std::vector<std::string> winning_indexes;
  /// Timed runs whose translation came from the covering cache (warm-path
  /// indicator: equals timed_runs once the shape has been seen).
  int cover_cache_hits = 0;
  /// Bytes copied out of shard record stores at the merge (last run) — what
  /// the zero-copy pipeline actually materializes.
  uint64_t bytes_materialized = 0;
  /// Time from cursor open to the first merged batch (last run) — what
  /// streaming buys over run-to-completion; averaged over timed runs.
  double first_result_millis = 0.0;
};

/// One row of the JSON perf log: where the measurement came from plus the
/// measurement itself.
struct BenchJsonEntry {
  std::string approach;
  std::string dataset;
  std::string suite;  ///< e.g. "small" / "big".
  QueryMeasurement m;
};

/// Writes entries as a JSON document (schema: {bench, config, queries:[...]})
/// to `path`. Returns false (with a message on stderr) on I/O failure.
bool WriteBenchJson(const std::string& path, const std::string& bench_name,
                    const BenchConfig& config,
                    const std::vector<BenchJsonEntry>& entries);

/// One row of the perf-trajectory log (BENCH_*.json "summaries"): dataset
/// scale, cold-scan throughput, resident footprint split into record store
/// vs indexes, compression ratio, and latency quantiles over the measured
/// query set. Successive PRs diff these files to track the perf trajectory.
struct PerfSummary {
  std::string label;                  ///< e.g. "hil/R/bucket".
  uint64_t dataset_docs = 0;          ///< Points loaded (not stored docs).
  double docs_per_sec_scanned = 0.0;  ///< Cold full scan: points/second.
  uint64_t record_store_bytes = 0;    ///< Resident (block-compressed) data.
  uint64_t index_bytes = 0;           ///< Resident index bytes, all indexes.
  double compression_ratio = 0.0;     ///< Row logical bytes / resident data.
  double cold_scan_millis = 0.0;      ///< Wall time of the cold full scan.
  uint64_t cold_scan_matches = 0;     ///< Points the scan query selected.
  double p50_millis = 0.0;            ///< Median modeled query latency.
  double p95_millis = 0.0;
  /// Durability rows (bench_storage) only — 0 elsewhere and then omitted
  /// from the JSON, so benches without a durability section keep their
  /// schema. Wall-clock, not modeled time: the WAL tax and recovery speed
  /// are real I/O costs.
  double insert_docs_per_sec = 0.0;  ///< Acked inserts/second during load.
  double recovery_millis = 0.0;      ///< StStore::Recover wall time.
  double recovery_sec_per_gb = 0.0;  ///< Recovery time per GB of disk state.
};

/// Writes rows as {bench, config, summaries: [...]} to `path`.
bool WritePerfJson(const std::string& path, const std::string& bench_name,
                   const BenchConfig& config,
                   const std::vector<PerfSummary>& rows);

/// p-th percentile (0..100) by nearest rank (delegates to
/// stix::PercentileOf): the smallest observed sample with at least p percent
/// of samples at or below it, so latency gates always compare against a value
/// a real request experienced. 0 for empty input.
double Percentile(std::vector<double> values, double p);

/// Measures a genuinely cold full scan: the store's on-disk image (the same
/// 32 KB LZ-compressed BSON blocks CollectionStats accounts, built untimed)
/// is scanned end to end to answer one rect + time-window query — every
/// block decompressed, every stored document parsed, the filter applied.
/// That is the work a document store does when nothing is in cache and no
/// index is usable, and it is where the layouts diverge: the row image
/// parses one BSON document per point, the bucket image parses one per
/// bucket, prunes on bucket metadata, counts covered buckets off the
/// metadata alone and answers the surviving buckets from their ts/lon/lat
/// columns (BucketReader::Select — the _id column and payload residuals
/// stay compressed). Fills the scan columns of `row`: wall millis, points/second
/// scanned (total points represented, not documents parsed) and the match
/// count (which must agree across layouts — bench_bucket checks).
void MeasureColdScan(const st::StStore& store, const DatasetInfo& info,
                     PerfSummary* row);

/// Runs a query warm_runs times untimed, then timed_runs times, averaging
/// the modeled execution time (the paper's warm-state methodology).
QueryMeasurement MeasureQuery(const st::StStore& store,
                              const workload::StQuerySpec& spec,
                              const BenchConfig& config);

/// Prints one figure panel: rows = queries, columns = approaches, one of
/// the four metrics. `values` is [approach][query].
void PrintPanel(const std::string& title, const std::string& metric,
                const std::vector<std::string>& approach_names,
                const std::vector<std::vector<std::string>>& values,
                const std::vector<std::string>& query_names);

/// Convenience: formats with fixed decimals.
std::string Fmt(double v, int decimals = 2);

}  // namespace stix::bench

#endif  // STIX_BENCH_BENCH_COMMON_H_
