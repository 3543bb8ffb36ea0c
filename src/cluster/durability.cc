#include "bson/codec.h"
#include "cluster/cluster.h"
#include "common/metrics.h"
#include "storage/bucket.h"
#include "storage/wal.h"

namespace stix::cluster {
namespace {

// ---- metadata codec: the payload of every config-journal record ----

// A chunk journals its bounds, owner and jumbo mark only. Its byte, doc
// and point accounting is derived from the stored documents at recovery;
// `jumbo` is kept so recovery never repeats a failed split's O(chunk) scan.
bson::Document ChunkToDoc(const Chunk& c) {
  return bson::DocBuilder()
      .Field("min", c.min)
      .Field("max", c.max)
      .Field("shard", static_cast<int32_t>(c.shard_id))
      .Field("jumbo", c.jumbo)
      .Build();
}

Result<Chunk> ChunkFromDoc(const bson::Document& doc) {
  const bson::Value* min = doc.Get("min");
  const bson::Value* max = doc.Get("max");
  const bson::Value* shard = doc.Get("shard");
  if (min == nullptr || max == nullptr || shard == nullptr) {
    return Status::Corruption("chunk metadata incomplete");
  }
  Chunk c;
  c.min = min->AsString();
  c.max = max->AsString();
  c.shard_id = shard->AsInt32();
  if (const bson::Value* v = doc.Get("jumbo")) c.jumbo = v->AsBool();
  return c;
}

}  // namespace

bson::Document ClusterMetadataDoc(const Cluster& cluster) {
  bson::Document meta;
  meta.Append("numShards", bson::Value::Int32(cluster.num_shards()));

  bson::Array key_paths;
  for (const std::string& p : cluster.shard_key().paths()) {
    key_paths.push_back(bson::Value::String(p));
  }
  meta.Append("shardKeyPaths", bson::Value::MakeArray(std::move(key_paths)));
  meta.Append("hashed",
              bson::Value::Bool(cluster.shard_key().strategy() ==
                                ShardingStrategy::kHashed));

  bson::Array chunks;
  for (const Chunk& c : cluster.chunks().chunks()) {
    chunks.push_back(bson::Value::MakeDocument(ChunkToDoc(c)));
  }
  meta.Append("chunks", bson::Value::MakeArray(std::move(chunks)));

  bson::Array zones;
  for (const ZoneRange& z : cluster.zones()) {
    zones.push_back(bson::Value::MakeDocument(
        bson::DocBuilder()
            .Field("min", z.min)
            .Field("max", z.max)
            .Field("shard", static_cast<int32_t>(z.shard_id))
            .Build()));
  }
  meta.Append("zones", bson::Value::MakeArray(std::move(zones)));

  // Secondary indexes (shard 0 is authoritative; _id and shard-key indexes
  // are recreated implicitly on restore).
  bson::Array indexes;
  for (const auto& idx : cluster.shards()[0]->catalog().indexes()) {
    const index::IndexDescriptor& desc = idx->descriptor();
    if (desc.name() == "_id_" ||
        desc.name() == cluster.shard_key_index_name()) {
      continue;
    }
    bson::Array fields;
    for (const index::IndexField& f : desc.fields()) {
      fields.push_back(bson::Value::MakeDocument(
          bson::DocBuilder()
              .Field("path", f.path)
              .Field("geo", f.kind == index::IndexFieldKind::k2dsphere)
              .Build()));
    }
    indexes.push_back(bson::Value::MakeDocument(
        bson::DocBuilder()
            .Field("name", desc.name())
            .Field("fields", bson::Value::MakeArray(std::move(fields)))
            .Field("geohashBits", desc.geohash_bits())
            .Build()));
  }
  meta.Append("indexes", bson::Value::MakeArray(std::move(indexes)));
  return meta;
}

Result<ClusterMeta> ParseClusterMetadata(const bson::Document& meta) {
  const bson::Value* num_shards = meta.Get("numShards");
  const bson::Value* key_paths = meta.Get("shardKeyPaths");
  const bson::Value* hashed = meta.Get("hashed");
  const bson::Value* chunks_v = meta.Get("chunks");
  const bson::Value* zones_v = meta.Get("zones");
  const bson::Value* indexes_v = meta.Get("indexes");
  if (num_shards == nullptr || key_paths == nullptr || hashed == nullptr ||
      chunks_v == nullptr || zones_v == nullptr || indexes_v == nullptr) {
    return Status::Corruption("cluster metadata incomplete");
  }

  ClusterMeta out;
  out.num_shards = num_shards->AsInt32();

  std::vector<std::string> paths;
  for (const bson::Value& p : key_paths->AsArray()) {
    paths.push_back(p.AsString());
  }
  out.pattern = ShardKeyPattern(std::move(paths),
                                hashed->AsBool() ? ShardingStrategy::kHashed
                                                 : ShardingStrategy::kRange);

  for (const bson::Value& c : chunks_v->AsArray()) {
    Result<Chunk> chunk = ChunkFromDoc(c.AsDocument());
    if (!chunk.ok()) return chunk.status();
    out.chunks.push_back(std::move(*chunk));
  }
  for (const bson::Value& z : zones_v->AsArray()) {
    const bson::Document& zd = z.AsDocument();
    out.zones.push_back(ZoneRange{zd.Get("min")->AsString(),
                                  zd.Get("max")->AsString(),
                                  zd.Get("shard")->AsInt32()});
  }
  for (const bson::Value& i : indexes_v->AsArray()) {
    const bson::Document& id = i.AsDocument();
    std::vector<index::IndexField> fields;
    for (const bson::Value& f : id.Get("fields")->AsArray()) {
      const bson::Document& fd = f.AsDocument();
      fields.push_back(index::IndexField{
          fd.Get("path")->AsString(),
          fd.Get("geo")->AsBool() ? index::IndexFieldKind::k2dsphere
                                  : index::IndexFieldKind::kAscending});
    }
    out.secondary_indexes.emplace_back(id.Get("name")->AsString(),
                                       std::move(fields),
                                       id.Get("geohashBits")->AsInt32());
  }
  return out;
}

// Whole-cluster crash recovery. The config journal is the root of trust:
// its last committed kConfigMeta record names the shard count, shard key,
// chunk bounds and owners, zones and index set. Shards then recover
// independently (the log's image batch + replay, each record indexed as
// it lands), and a final pass over every stored document reconciles the
// two. A document sitting on a shard that the journaled chunk table does
// not assign it to belongs to a migration that crashed before its
// topology flip was journaled (dest copies) or after it (source leftovers)
// — either way the journaled owner decides, making migrations atomic
// under crashes — and is swept. Every other document is counted into its
// chunk, whose accounting the journal does not carry and so starts at
// zero: recovered chunks account exactly what their owners store.
Result<std::unique_ptr<Cluster>> RecoverCluster(const ClusterOptions& options) {
  const DurabilityOptions& d = options.durability;
  if (d.data_dir.empty()) {
    return Status::InvalidArgument(
        "RecoverCluster needs durability.data_dir");
  }
  const std::string config_path = d.data_dir + "/config.wal";

  const Result<storage::WalScan> scan = storage::ReadWal(config_path);
  if (!scan.ok()) return scan.status();
  const storage::WalRecord* last_meta = nullptr;
  for (const storage::WalRecord& record : scan->committed) {
    if (record.type == storage::WalRecordType::kConfigMeta) {
      last_meta = &record;
    }
  }
  if (last_meta == nullptr) {
    return Status::Corruption("no topology record in config journal: " +
                              config_path);
  }
  const Result<bson::Document> meta_doc = bson::DecodeBson(last_meta->payload);
  if (!meta_doc.ok()) return meta_doc.status();
  Result<ClusterMeta> meta = ParseClusterMetadata(*meta_doc);
  if (!meta.ok()) return meta.status();

  ClusterOptions opts = options;
  opts.num_shards = meta->num_shards;
  auto cluster = std::make_unique<Cluster>(opts);
  // Suppresses the fresh-WAL init inside ShardCollection — recovery
  // attaches WALs itself, with their history intact.
  cluster->durability_attached_ = true;

  Status s = cluster->RestoreShardingState(meta->pattern,
                                           std::move(meta->chunks),
                                           std::move(meta->zones),
                                           meta->secondary_indexes);
  if (!s.ok()) return s;

  for (auto& shard : cluster->shards_) {
    const Status rs =
        shard->Recover(d.data_dir + "/shard-" + std::to_string(shard->id()),
                       d.wal, d.checkpoint_wal_bytes);
    if (!rs.ok()) return rs;
  }

  // Orphan sweep and chunk accounting (see above): one write batch per
  // shard, through the normal durable path, so the sweep itself survives a
  // crash-during-recovery.
  {
    const std::unique_lock<std::shared_mutex> topo(cluster->topology_mu_);
    STIX_METRIC_COUNTER(orphans, "recovery.orphans_swept");
    for (auto& shard : cluster->shards_) {
      std::vector<storage::RecordId> doomed;
      shard->records().ForEach(
          [&](storage::RecordId rid, const bson::Document& doc) {
            const std::string key = cluster->pattern_.KeyOf(doc);
            Chunk& chunk =
                cluster->chunks_->chunk(cluster->chunks_->FindChunkIndex(key));
            if (chunk.shard_id != shard->id()) {
              doomed.push_back(rid);
            } else {
              chunk.AddDocument(doc.ApproxBsonSize(),
                                storage::StoredPointCount(doc));
            }
          });
      if (doomed.empty()) continue;
      const std::unique_lock<std::shared_mutex> data(shard->data_mutex());
      if (Result<std::vector<storage::RecordId>> r =
              shard->WriteBatchLocked(doomed, {});
          !r.ok()) {
        return r.status();
      }
      orphans.Increment(doomed.size());
      shard->OnDataDistributionChanged();
    }
  }

  // Reopen the config journal for new topology writes (truncating any torn
  // tail past the record we just recovered from).
  storage::WalOptions config_opts;
  config_opts.sync_every_commits = 1;
  Result<std::unique_ptr<storage::WriteAheadLog>> wal =
      storage::WriteAheadLog::Open(config_path, config_opts, *scan);
  if (!wal.ok()) return wal.status();
  cluster->config_wal_ = std::move(*wal);
  STIX_METRIC_COUNTER(recoveries, "recovery.cluster_recoveries");
  recoveries.Increment();
  return cluster;
}

}  // namespace stix::cluster
