// Reproduces the paper's query studies (Sections 5.2-5.3) in one program
// that loops over two chunk distributions:
//   default sharding ranges — Tables 2 and 3 (result counts of the
//     small/big query suites on R and S) and Figures 5-8 (max keys
//     examined, max docs examined, nodes, avg execution time for bslST /
//     bslTS / hil / hil*);
//   zone ranges — Figures 9-12, the same four metrics with $bucketAuto
//     zones assigned one per shard on freshly built stores (bslST/bslTS
//     zone on date, hil on hilbertIndex; hil* is omitted, as in the
//     paper's Section 5.3);
//   both — Table 7, which index bslST's optimizer picks on each node, read
//     from the bslST measurements' winning indexes.
// Exits 1 when approaches disagree on a result count. Data is scaled down
// versus the paper (see EXPERIMENTS.md); shapes, not absolute values, are
// the reproduction target.

#include <cinttypes>
#include <cstdio>
#include <map>

#include "bench/bench_common.h"

namespace stix::bench {
namespace {

struct SuiteResult {
  std::vector<QueryMeasurement> small;  // Q1^s..Q4^s
  std::vector<QueryMeasurement> big;    // Q1^b..Q4^b
};

using Results = std::map<st::ApproachKind, SuiteResult>;

/// One chunk distribution the queries run under.
struct Distribution {
  const char* name;  ///< Table 7's "distrib" column.
  bool zones;
  std::vector<st::ApproachKind> approaches;
  const char* title;  ///< Figure title suffix.
  /// Figure numbers for R small, R big, S small, S big.
  const char* figures[4];
};

const Distribution kDistributions[] = {
    {"default",
     false,
     {st::ApproachKind::kBslST, st::ApproachKind::kBslTS,
      st::ApproachKind::kHil, st::ApproachKind::kHilStar},
     "default sharding ranges",
     {"Figure 5", "Figure 6", "Figure 7", "Figure 8"}},
    {"zones",
     true,
     {st::ApproachKind::kBslST, st::ApproachKind::kBslTS,
      st::ApproachKind::kHil},
     "zone ranges",
     {"Figure 9", "Figure 10", "Figure 11", "Figure 12"}},
};

void PrintFigure(const std::string& figure, const Distribution& dist,
                 Dataset dataset, bool big, const Results& results) {
  std::vector<std::string> approach_names;
  std::vector<std::vector<std::string>> keys, docs, nodes, times;
  std::vector<std::string> query_names;
  for (const st::ApproachKind kind : dist.approaches) {
    const auto& suite =
        big ? results.at(kind).big : results.at(kind).small;
    approach_names.push_back(st::ApproachName(kind));
    std::vector<std::string> k, d, n, t;
    for (const QueryMeasurement& m : suite) {
      k.push_back(WithThousands(static_cast<int64_t>(m.max_keys)));
      d.push_back(WithThousands(static_cast<int64_t>(m.max_docs)));
      n.push_back(std::to_string(m.nodes));
      t.push_back(Fmt(m.avg_millis) + " ms");
    }
    keys.push_back(std::move(k));
    docs.push_back(std::move(d));
    nodes.push_back(std::move(n));
    times.push_back(std::move(t));
  }
  for (const QueryMeasurement& m :
       big ? results.begin()->second.big : results.begin()->second.small) {
    query_names.push_back(m.query_name);
  }

  const std::string title = figure + " (" +
                            std::string(big ? "big" : "small") +
                            " queries, " + DatasetName(dataset) + " set, " +
                            dist.title + ")";
  PrintPanel(title, "(a) max keys examined on any node", approach_names, keys,
             query_names);
  PrintPanel(title, "(b) max documents examined on any node", approach_names,
             docs, query_names);
  PrintPanel(title, "(c) number of nodes", approach_names, nodes, query_names);
  PrintPanel(title, "(d) avg execution time", approach_names, times,
             query_names);
}

// All approaches must agree on result counts — cross-validation that the
// implementations answer queries identically. Prints each disagreement and
// returns how many there were.
int CountDisagreements(bool big, const Results& res) {
  const auto& reference = big ? res.begin()->second.big
                              : res.begin()->second.small;
  int disagreements = 0;
  for (const auto& [kind, suite] : res) {
    const auto& list = big ? suite.big : suite.small;
    for (size_t q = 0; q < reference.size(); ++q) {
      if (list[q].n_results != reference[q].n_results) {
        printf("  !! approach %s disagrees on %s: %" PRIu64 " vs %" PRIu64
               "\n",
               st::ApproachName(kind), list[q].query_name.c_str(),
               list[q].n_results, reference[q].n_results);
        ++disagreements;
      }
    }
  }
  return disagreements;
}

int PrintResultCountTable(const char* table, Dataset dataset, bool big,
                          const Results& res) {
  const auto& reference = big ? res.begin()->second.big
                              : res.begin()->second.small;
  printf("\n%s: number of retrieved documents (%s queries, %s set)\n", table,
         big ? "big" : "small", DatasetName(dataset));
  for (size_t q = 0; q < reference.size(); ++q) {
    printf("  %-6s %s\n", reference[q].query_name.c_str(),
           WithThousands(static_cast<int64_t>(reference[q].n_results)).c_str());
  }
  return CountDisagreements(big, res);
}

// Table 7 legend: ● all used nodes exploit the compound index, ○ all use
// the date index, ◐ mixed usage among the used nodes.
const char* UsageGlyph(const QueryMeasurement& m) {
  size_t compound = 0, date = 0;
  for (const std::string& name : m.winning_indexes) {
    if (name == "location_2dsphere_date_1") {
      ++compound;
    } else if (name == "date_1") {
      ++date;
    }
  }
  if (compound > 0 && date > 0) return "(mixed)";
  if (compound > 0) return "compound";
  if (date > 0) return "date";
  return "-";
}

// One Table 7 row: the bslST index choice per query of one suite.
std::string IndexUsageRow(const char* distribution, Dataset dataset,
                          bool big,
                          const std::vector<QueryMeasurement>& suite) {
  char cell[64];
  std::snprintf(cell, sizeof(cell), "  %-8s %-3s %-4s", distribution,
                DatasetName(dataset), big ? "Q^b" : "Q^s");
  std::string row = cell;
  for (const QueryMeasurement& m : suite) {
    size_t compound = 0;
    for (const std::string& n : m.winning_indexes) {
      compound += n == "location_2dsphere_date_1";
    }
    std::snprintf(cell, sizeof(cell), "  %-10s", UsageGlyph(m));
    row += cell;
    if (compound > 0 && compound < m.winning_indexes.size()) {
      std::snprintf(cell, sizeof(cell), "[%zu/%zu cmp]", compound,
                    m.winning_indexes.size());
      row += cell;
    }
  }
  return row;
}

int Main(int argc, char** argv) {
  const BenchConfig config = BenchConfig::FromArgs(argc, argv);
  printf("== bench_queries_default ==\n");
  printf("reproduces: Tables 2-3 and 7, Figures 5-12 (paper Sections "
         "5.2-5.3)\n");
  printf("scale: R=%" PRIu64 " docs, S=%" PRIu64 " docs, %d shards "
         "(paper: 15.2M / 30.4M docs, 12 shards)\n",
         config.r_docs, config.s_docs, config.num_shards);

  std::vector<BenchJsonEntry> json_entries;
  std::vector<std::string> table7;
  int disagreements = 0;
  for (const Distribution& dist : kDistributions) {
    for (const Dataset dataset : {Dataset::kR, Dataset::kS}) {
      const DatasetInfo info = InfoFor(dataset, config);
      const auto small_queries =
          workload::MakeQuerySet(false, info.t_begin_ms, info.t_end_ms);
      const auto big_queries =
          workload::MakeQuerySet(true, info.t_begin_ms, info.t_end_ms);

      Results results;
      for (const st::ApproachKind kind : dist.approaches) {
        const auto store = BuildLoadedStore(kind, dataset, config);
        std::string label =
            std::string(st::ApproachName(kind)) + "/" + DatasetName(dataset);
        if (dist.zones) {
          const Status zs = store->ConfigureZones();
          if (!zs.ok()) {
            fprintf(stderr, "zone setup failed: %s\n", zs.ToString().c_str());
            return 1;
          }
          if (config.verbose) {
            fprintf(stderr, "[zones] %s: %zu zones\n", label.c_str(),
                    store->cluster().zones().size());
          }
          label += "/zones";
        }
        SuiteResult suite;
        for (const auto& spec : small_queries) {
          suite.small.push_back(MeasureQuery(*store, spec, config));
        }
        for (const auto& spec : big_queries) {
          suite.big.push_back(MeasureQuery(*store, spec, config));
        }
        // The JSON perf log keeps the default-distribution runs only.
        if (!dist.zones) {
          for (const QueryMeasurement& m : suite.small) {
            json_entries.push_back(BenchJsonEntry{
                st::ApproachName(kind), DatasetName(dataset), "small", m});
          }
          for (const QueryMeasurement& m : suite.big) {
            json_entries.push_back(BenchJsonEntry{
                st::ApproachName(kind), DatasetName(dataset), "big", m});
          }
        }
        const st::CoverCacheStats cache =
            store->approach().cover_cache_stats();
        printf("[covering cache] %s: %" PRIu64 " hits / %" PRIu64
               " misses / %" PRIu64 " evictions (%.0f%% warm hit rate)\n",
               label.c_str(), cache.hits, cache.misses, cache.evictions,
               100.0 * cache.HitRate());
        if (config.server_status) {
          printf("[server status] %s: %s\n", label.c_str(),
                 store->cluster().ServerStatus().c_str());
        }
        if (kind == st::ApproachKind::kBslST) {
          table7.push_back(
              IndexUsageRow(dist.name, dataset, false, suite.small));
          table7.push_back(IndexUsageRow(dist.name, dataset, true, suite.big));
        }
        results.emplace(kind, std::move(suite));
      }

      const bool r = dataset == Dataset::kR;
      if (dist.zones) {
        disagreements += CountDisagreements(false, results);
        disagreements += CountDisagreements(true, results);
      } else {
        disagreements += PrintResultCountTable(
            r ? "Table 2 (R row)" : "Table 2 (S row)", dataset, false,
            results);
        disagreements += PrintResultCountTable(
            r ? "Table 3 (R row)" : "Table 3 (S row)", dataset, true,
            results);
      }
      PrintFigure(dist.figures[r ? 0 : 2], dist, dataset, false, results);
      PrintFigure(dist.figures[r ? 1 : 3], dist, dataset, true, results);
    }
  }

  printf("\nTable 7: index used per node, bslST approach\n");
  printf("paper legend: compound = {location: 2dsphere, date: 1}, "
         "date = the {date: 1} shard-key index\n");
  printf("  %-8s %-3s %-4s  %-10s  %-10s  %-10s  %-10s\n", "distrib",
         "set", "cat", "Q1", "Q2", "Q3", "Q4");
  for (const std::string& row : table7) printf("%s\n", row.c_str());

  if (!config.json_path.empty()) {
    if (WriteBenchJson(config.json_path, "bench_queries_default", config,
                       json_entries)) {
      printf("\nwrote %zu measurements to %s\n", json_entries.size(),
             config.json_path.c_str());
    }
  }
  if (disagreements > 0) {
    fprintf(stderr, "%d result-count disagreements between approaches\n",
            disagreements);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace stix::bench

int main(int argc, char** argv) { return stix::bench::Main(argc, argv); }
