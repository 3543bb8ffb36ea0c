#ifndef STIX_QUERY_EXPLAIN_H_
#define STIX_QUERY_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace stix::query {

/// MongoDB's explain verbosity ladder. In this engine every verbosity
/// executes the query once, so the counters are measured, not the cost
/// model's estimates (those ride along per stage, see ExplainNode);
/// verbosity only controls how much of what was measured is serialized:
///  - kQueryPlanner: plan shape, index names, bounds — no runtime counters.
///  - kExecStats: + per-stage works/advanced/keys/docs and stage timing.
///  - kAllPlansExecution: + the rejected candidate plans with the partial
///    counters they accumulated during the trial race.
enum class ExplainVerbosity {
  kQueryPlanner,
  kExecStats,
  kAllPlansExecution,
};

/// "queryPlanner" / "executionStats" / "allPlansExecution".
const char* ExplainVerbosityName(ExplainVerbosity v);

/// One stage of an executed plan tree, JSON-serializable. Counters carry
/// exactly what the stage's own bookkeeping observed, so summing a field
/// over the tree reproduces the executor's ExecStats for that plan —
/// the invariant the fuzz harness checks on every seed.
struct ExplainNode {
  std::string stage;       ///< "IXSCAN", "FETCH", "COLLSCAN", "BUCKET_UNPACK".
  std::string index_name;  ///< IXSCAN: index the scan runs over.
  std::string key_pattern; ///< IXSCAN: "{hilbertIndex: 1, date: 1}".
  std::string bounds;      ///< IXSCAN: IndexBounds::DebugString().
  std::string filter;      ///< FETCH/COLLSCAN: residual filter, if any.
  uint64_t works = 0;      ///< Work() units charged to this stage.
  uint64_t advanced = 0;   ///< Units that produced a document.
  uint64_t keys_examined = 0;  ///< IXSCAN only.
  uint64_t docs_examined = 0;  ///< FETCH/COLLSCAN only.
  uint64_t buckets_pruned = 0;    ///< BUCKET_UNPACK: skipped via metadata.
  uint64_t points_scanned = 0;    ///< BUCKET_UNPACK: rows checked on columns.
  uint64_t points_unpacked = 0;   ///< BUCKET_UNPACK: rows built into docs.
  /// Wall time spent inside this stage's Work() calls, children included
  /// (MongoDB's executionTimeMillisEstimate is likewise inclusive).
  /// Negative when stage timing was not enabled for the execution.
  double time_millis = -1.0;
  /// Histogram-based predictions the cost model made for this stage before
  /// execution (est_keys on the IXSCAN, est_docs on the FETCH/COLLSCAN),
  /// printed next to the actual counters so estimation error is measurable
  /// per stage. Negative when no estimate was computed.
  double est_keys = -1.0;
  double est_docs = -1.0;
  std::vector<ExplainNode> children;

  /// Sum of keys_examined / docs_examined over this subtree.
  uint64_t TotalKeysExamined() const;
  uint64_t TotalDocsExamined() const;

  /// JSON object for the stage subtree at the given verbosity.
  std::string ToJson(ExplainVerbosity v) const;
};

/// Minimal JSON string escaping for explain/serverStatus output (quotes,
/// backslashes, control characters).
std::string JsonEscape(const std::string& s);

}  // namespace stix::query

#endif  // STIX_QUERY_EXPLAIN_H_
