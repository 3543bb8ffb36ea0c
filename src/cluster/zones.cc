#include "cluster/zones.h"

#include <algorithm>

#include "keystring/keystring.h"
#include "query/aggregate.h"

namespace stix::cluster {

int ZoneForKey(const std::vector<ZoneRange>& zones, const std::string& key) {
  const auto it = std::upper_bound(
      zones.begin(), zones.end(), key,
      [](const std::string& k, const ZoneRange& z) { return k < z.min; });
  if (it == zones.begin()) return -1;
  const ZoneRange& z = *std::prev(it);
  return key < z.max ? z.shard_id : -1;
}

bool ZonesCoverWholeSpace(const std::vector<ZoneRange>& zones) {
  if (zones.empty()) return false;
  if (zones.front().min != keystring::MinKey()) return false;
  if (zones.back().max != keystring::MaxKey()) return false;
  for (size_t i = 0; i < zones.size(); ++i) {
    if (zones[i].min >= zones[i].max) return false;
    if (i > 0 && zones[i - 1].max != zones[i].min) return false;
  }
  return true;
}

std::vector<bson::Value> BucketAutoBoundaries(
    const std::vector<std::unique_ptr<Shard>>& shards, const std::string& path,
    int num_buckets) {
  // Run the actual $bucketAuto aggregation stage over the zone-path values
  // (the paper's recipe, Section 4.2.4) and read each bucket's lower bound.
  std::vector<bson::Document> value_docs;
  for (const auto& shard : shards) {
    shard->records().ForEach(
        [&](storage::RecordId, const bson::Document& doc) {
          const bson::Value* v = doc.GetPath(path);
          if (v == nullptr) return;
          bson::Document value_doc;
          value_doc.Append("v", *v);
          value_docs.push_back(std::move(value_doc));
        });
  }

  std::vector<bson::Value> boundaries;
  if (value_docs.empty() || num_buckets <= 1) return boundaries;
  const Result<std::vector<bson::Document>> buckets = query::RunPipeline(
      std::move(value_docs),
      query::Pipeline().BucketAuto("v", num_buckets));
  if (!buckets.ok()) return boundaries;
  for (size_t i = 1; i < buckets->size(); ++i) {
    const bson::Value* min = (*buckets)[i].GetPath("_id.min");
    if (min == nullptr) continue;
    if (boundaries.empty() || Compare(boundaries.back(), *min) < 0) {
      boundaries.push_back(*min);
    }
  }
  return boundaries;
}

}  // namespace stix::cluster
