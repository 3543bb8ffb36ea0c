// stix_cli — operate the store from the command line: load CSV data into a
// durable data directory, run spatio-temporal queries against it, inspect
// plans and sizes.
//
// Usage:
//   stix_cli load    --csv=FILE --data=DIR [--approach=hil|bslST|bslTS]
//                    [--shards=N] [--zones]
//   stix_cli query   --data=DIR [--approach=...] --rect=lon1,lat1,lon2,lat2
//                    --from=ISO --to=ISO [--limit=N]
//   stix_cli explain --data=DIR [--approach=...] --rect=... --from=... --to=...
//   stix_cli stats   --data=DIR [--approach=...]
//
// `load` checkpoints the loaded store into DIR (shard key, chunks, zones,
// indexes, documents); the other commands recover it with
// StStore::Recover, so `query` and `explain` see exactly the cluster `load`
// built. `--approach` must name the approach `load` used (default hil).

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "bson/json_writer.h"
#include "common/fs.h"
#include "common/strings.h"
#include "st/approach.h"
#include "st/st_store.h"
#include "workload/csv_loader.h"

namespace {

using stix::Status;

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags[arg.substr(2)] = "true";
    } else {
      flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

int Fail(const std::string& message) {
  fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int Usage() {
  fprintf(stderr,
          "usage: stix_cli <load|query|explain|stats> [--flags]\n"
          "  load    --csv=FILE --data=DIR [--approach=hil] [--shards=12] "
          "[--zones]\n"
          "  query   --data=DIR [--approach=hil] --rect=lon1,lat1,lon2,lat2 "
          "--from=ISO --to=ISO [--limit=N]\n"
          "  explain --data=DIR [--approach=hil] --rect=... --from=... "
          "--to=...\n"
          "  stats   --data=DIR [--approach=hil]\n");
  return 2;
}

bool ParseRect(const std::string& text, stix::geo::Rect* rect) {
  const auto parts = stix::Split(text, ',');
  if (parts.size() != 4) return false;
  char* end = nullptr;
  const double v[4] = {
      strtod(parts[0].c_str(), &end), strtod(parts[1].c_str(), &end),
      strtod(parts[2].c_str(), &end), strtod(parts[3].c_str(), &end)};
  rect->lo = {std::min(v[0], v[2]), std::min(v[1], v[3])};
  rect->hi = {std::max(v[0], v[2]), std::max(v[1], v[3])};
  return true;
}

stix::Result<stix::st::ApproachKind> ParseApproach(
    const std::map<std::string, std::string>& flags) {
  const auto flag = flags.find("approach");
  const std::string name = flag == flags.end() ? "hil" : flag->second;
  if (name == "hil") return stix::st::ApproachKind::kHil;
  if (name == "hil*" || name == "hilstar") {
    // hil*'s curve spans the data-set MBR, which the data directory does
    // not record; a later `query` could not rebuild the same hilbertIndex
    // mapping.
    return Status::NotSupported(
        "hil* data is not queryable from the CLI; use hil");
  }
  if (name == "bslST") return stix::st::ApproachKind::kBslST;
  if (name == "bslTS") return stix::st::ApproachKind::kBslTS;
  return Status::InvalidArgument("unknown approach: " + name);
}

/// Store options for --data/--approach; the shard count and layout of an
/// existing directory come from its config journal.
stix::Result<stix::st::StStoreOptions> StoreOptions(
    const std::map<std::string, std::string>& flags) {
  const auto data = flags.find("data");
  if (data == flags.end()) {
    return Status::InvalidArgument("--data is required");
  }
  const stix::Result<stix::st::ApproachKind> kind = ParseApproach(flags);
  if (!kind.ok()) return kind.status();
  stix::st::StStoreOptions options;
  options.approach.kind = *kind;
  options.cluster.durability.data_dir = data->second;
  return options;
}

int CmdLoad(const std::map<std::string, std::string>& flags) {
  const auto csv = flags.find("csv");
  if (csv == flags.end() || !flags.count("data")) return Usage();
  stix::Result<stix::st::StStoreOptions> options = StoreOptions(flags);
  if (!options.ok()) return Fail(options.status().ToString());
  const std::string& dir = options->cluster.durability.data_dir;
  if (stix::FileExists(dir + "/config.wal")) {
    return Fail("data directory already holds a store: " + dir);
  }
  if (flags.count("shards")) {
    options->cluster.num_shards = atoi(flags.at("shards").c_str());
  }
  stix::st::StStore store(*options);
  if (Status s = store.Setup(); !s.ok()) return Fail(s.ToString());

  const stix::Result<uint64_t> loaded = stix::workload::LoadCsvFile(
      csv->second, stix::workload::CsvSchema{}, &store);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  if (Status s = store.FinishLoad(); !s.ok()) return Fail(s.ToString());
  if (flags.count("zones")) {
    if (Status s = store.ConfigureZones(); !s.ok()) {
      return Fail(s.ToString());
    }
  }
  if (Status s = store.Checkpoint(); !s.ok()) return Fail(s.ToString());
  printf("loaded %" PRIu64 " documents (%s, %d shards, %zu chunks%s) -> %s\n",
         *loaded, store.approach().name(), store.cluster().num_shards(),
         store.cluster().chunks().num_chunks(),
         flags.count("zones") ? ", zoned" : "", dir.c_str());
  return 0;
}

stix::Result<std::unique_ptr<stix::st::StStore>> Open(
    const std::map<std::string, std::string>& flags) {
  const stix::Result<stix::st::StStoreOptions> options = StoreOptions(flags);
  if (!options.ok()) return options.status();
  return stix::st::StStore::Recover(*options);
}

bool ParseWindow(const std::map<std::string, std::string>& flags,
                 int64_t* t0, int64_t* t1) {
  const auto from = flags.find("from");
  const auto to = flags.find("to");
  return from != flags.end() && to != flags.end() &&
         stix::ParseIsoDate(from->second, t0) &&
         stix::ParseIsoDate(to->second, t1);
}

int CmdQuery(const std::map<std::string, std::string>& flags) {
  stix::geo::Rect rect;
  int64_t t0, t1;
  if (!flags.count("rect") || !ParseRect(flags.at("rect"), &rect) ||
      !ParseWindow(flags, &t0, &t1)) {
    return Usage();
  }
  stix::Result<std::unique_ptr<stix::st::StStore>> store = Open(flags);
  if (!store.ok()) return Fail(store.status().ToString());
  const stix::cluster::ClusterQueryResult r =
      (*store)->Query(rect, t0, t1).cluster;

  size_t limit = 10;
  if (flags.count("limit")) limit = strtoull(flags.at("limit").c_str(),
                                             nullptr, 10);
  printf("%zu documents, %d node(s), max keys %s, %.2f ms\n", r.docs.size(),
         r.nodes_contacted,
         stix::WithThousands(static_cast<int64_t>(r.max_keys_examined))
             .c_str(),
         r.modeled_millis);
  for (size_t i = 0; i < r.docs.size() && i < limit; ++i) {
    printf("  %s\n", stix::bson::ToJson(r.docs[i]).c_str());
  }
  if (r.docs.size() > limit) {
    printf("  ... %zu more (use --limit=)\n", r.docs.size() - limit);
  }
  return 0;
}

int CmdExplain(const std::map<std::string, std::string>& flags) {
  stix::geo::Rect rect;
  int64_t t0, t1;
  if (!flags.count("rect") || !ParseRect(flags.at("rect"), &rect) ||
      !ParseWindow(flags, &t0, &t1)) {
    return Usage();
  }
  stix::Result<std::unique_ptr<stix::st::StStore>> store = Open(flags);
  if (!store.ok()) return Fail(store.status().ToString());
  printf("%s\n", (*store)->Explain(rect, t0, t1).ToJson().c_str());
  return 0;
}

int CmdStats(const std::map<std::string, std::string>& flags) {
  stix::Result<std::unique_ptr<stix::st::StStore>> store = Open(flags);
  if (!store.ok()) return Fail(store.status().ToString());
  const stix::cluster::Cluster& cluster = (*store)->cluster();
  printf("shard key: %s\n", cluster.shard_key().DebugString().c_str());
  printf("documents: %s in %zu chunks on %d shards (%zu zones)\n",
         stix::WithThousands(
             static_cast<int64_t>(cluster.total_documents()))
             .c_str(),
         cluster.chunks().num_chunks(), cluster.num_shards(),
         cluster.zones().size());
  const stix::storage::CollectionStats data = cluster.ComputeDataStats();
  printf("data: %s BSON, %s block-compressed\n",
         stix::HumanBytes(data.logical_bytes).c_str(),
         stix::HumanBytes(data.compressed_bytes).c_str());
  for (const auto& [name, bytes] : cluster.ComputeIndexSizes()) {
    printf("index %-28s %s\n", name.c_str(),
           stix::HumanBytes(bytes).c_str());
  }
  for (const auto& shard : cluster.shards()) {
    printf("shard %d: %s docs\n", shard->id(),
           stix::WithThousands(
               static_cast<int64_t>(shard->num_documents()))
               .c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv);
  if (command == "load") return CmdLoad(flags);
  if (command == "query") return CmdQuery(flags);
  if (command == "explain") return CmdExplain(flags);
  if (command == "stats") return CmdStats(flags);
  return Usage();
}
