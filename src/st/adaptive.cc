#include "st/adaptive.h"

#include <algorithm>

#include "common/rng.h"
#include "keystring/keystring.h"

namespace stix::st {
namespace {

// Baseline weight every document carries even if no workload query touches
// it, so cold data still spreads across shards.
constexpr double kBackgroundWeight = 0.05;

struct WeightedValue {
  bson::Value value;  // zone-path value (hilbertIndex or date)
  double weight;
};

}  // namespace

Result<std::vector<cluster::ZoneRange>> ComputeWorkloadAwareZones(
    const StStore& store, const std::vector<WorkloadQuery>& workload,
    const AdaptiveZoneOptions& options) {
  if (workload.empty()) {
    return Status::InvalidArgument("workload must not be empty");
  }
  const std::string zone_path = store.approach().zone_path();
  const int num_shards = store.cluster().num_shards();

  // Pre-translate the workload once; Matches() then gives each sampled
  // document its load weight.
  std::vector<std::pair<query::ExprPtr, double>> predicates;
  predicates.reserve(workload.size());
  for (const WorkloadQuery& wq : workload) {
    predicates.emplace_back(
        store.approach()
            .TranslateQuery(wq.rect, wq.t_begin_ms, wq.t_end_ms)
            .expr,
        wq.weight);
  }

  // Sample documents across shards (deterministic thinning).
  const uint64_t total_docs = store.cluster().total_documents();
  const double keep_probability =
      options.sample_limit == 0 || total_docs <= options.sample_limit
          ? 1.0
          : static_cast<double>(options.sample_limit) /
                static_cast<double>(total_docs);
  Rng rng(options.seed);

  std::vector<WeightedValue> samples;
  samples.reserve(std::min<uint64_t>(total_docs, options.sample_limit + 16));
  for (const auto& shard : store.cluster().shards()) {
    shard->records().ForEach(
        [&](storage::RecordId, const bson::Document& doc) {
          if (keep_probability < 1.0 && !rng.NextBool(keep_probability)) {
            return;
          }
          const bson::Value* v = doc.GetPath(zone_path);
          if (v == nullptr) return;
          double weight = kBackgroundWeight;
          for (const auto& [expr, query_weight] : predicates) {
            if (expr->Matches(doc)) weight += query_weight;
          }
          samples.push_back(WeightedValue{*v, weight});
        });
  }
  if (samples.empty()) {
    return Status::NotFound("no documents to derive zones from");
  }

  std::sort(samples.begin(), samples.end(),
            [](const WeightedValue& a, const WeightedValue& b) {
              return Compare(a.value, b.value) < 0;
            });
  double total_weight = 0.0;
  for (const WeightedValue& s : samples) total_weight += s.weight;

  // Walk the sorted samples once, cutting a boundary every time a shard's
  // fair share of weight has accumulated.
  std::vector<cluster::ZoneRange> zones;
  zones.reserve(num_shards);
  const double share = total_weight / num_shards;
  std::string prev_boundary = keystring::MinKey();
  double accumulated = 0.0;
  int shard = 0;
  for (size_t i = 0; i + 1 < samples.size() && shard + 1 < num_shards; ++i) {
    accumulated += samples[i].weight;
    if (accumulated < share * (shard + 1)) continue;
    // Cut between distinct values only, so zones stay disjoint.
    if (Compare(samples[i].value, samples[i + 1].value) == 0) continue;
    std::string boundary = keystring::Encode(samples[i + 1].value);
    if (boundary <= prev_boundary) continue;
    zones.push_back(cluster::ZoneRange{prev_boundary, boundary, shard++});
    prev_boundary = std::move(boundary);
  }
  zones.push_back(
      cluster::ZoneRange{prev_boundary, keystring::MaxKey(), shard});
  return zones;
}

Status ApplyWorkloadAwareZones(StStore* store,
                               const std::vector<WorkloadQuery>& workload,
                               const AdaptiveZoneOptions& options) {
  Result<std::vector<cluster::ZoneRange>> zones =
      ComputeWorkloadAwareZones(*store, workload, options);
  if (!zones.ok()) return zones.status();
  return store->cluster().SetZones(std::move(*zones));
}

}  // namespace stix::st
