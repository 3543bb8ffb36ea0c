#include "st/st_store.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "bson/codec.h"
#include "common/metrics.h"
#include "query/bucket_unpack.h"

namespace stix::st {
namespace {

// Inserts per second of the client-side _id load clock.
constexpr uint64_t kDocsPerIdSecond = 128;

/// Resolves the bucket layout against the approach before anything is
/// constructed from it: the catalog's encoding and the executor's widening
/// must agree on whether points carry a hilbertIndex.
StStoreOptions ResolveOptions(StStoreOptions options) {
  if (options.bucket.has_value()) {
    const ApproachKind kind = options.approach.kind;
    options.bucket->use_hilbert = (kind == ApproachKind::kHil ||
                                   kind == ApproachKind::kHilStar);
    // The executor unpacks buckets behind every query (and the balancer
    // then weighs chunks by decoded point count).
    options.cluster.exec.bucket_layout =
        std::make_shared<const storage::BucketLayout>(*options.bucket);
  }
  return options;
}

}  // namespace

std::string StExplain::ToJson() const {
  char millis[32];
  std::snprintf(millis, sizeof(millis), "%.3f", cover_millis);
  std::ostringstream out;
  out << "{\"approach\": \"" << query::JsonEscape(approach)
      << "\", \"curve\": \"" << query::JsonEscape(curve)
      << "\", \"covering\": {\"coverMillis\": " << millis
      << ", \"numRanges\": " << num_ranges
      << ", \"numSingletons\": " << num_singletons
      << ", \"coverBudget\": " << cover_budget << ", \"cacheHit\": "
      << (cover_cache_hit ? "true" : "false")
      << "}, \"cluster\": " << cluster.ToJson() << "}";
  return out.str();
}

StStore::StStore(const StStoreOptions& options)
    : StStore(ResolveOptions(options), nullptr) {}

StStore::StStore(StStoreOptions resolved,
                 std::unique_ptr<cluster::Cluster> cluster)
    : options_(std::move(resolved)),
      approach_(std::make_shared<const Approach>(options_.approach)),
      cluster_(cluster != nullptr
                   ? std::move(cluster)
                   : std::make_unique<cluster::Cluster>(options_.cluster)),
      id_generator_(options_.cluster.seed ^ 0x1d5ULL) {
  if (options_.bucket.has_value()) {
    catalog_ = std::make_unique<storage::BucketCatalog>(
        *options_.bucket, [this](bson::Document bucket) {
          return cluster_->Insert(std::move(bucket));
        });
  }
}

Status StStore::OpenCatalogJournal(const storage::WalScan* recovered) {
  const std::string& dir = options_.cluster.durability.data_dir;
  if (dir.empty() || catalog_ == nullptr) return Status::OK();
  const std::string path = dir + "/catalog.wal";
  const storage::WalOptions& options = options_.cluster.durability.wal;
  Result<std::unique_ptr<storage::WriteAheadLog>> wal =
      recovered == nullptr
          ? storage::WriteAheadLog::Rewrite(path, options)
          : storage::WriteAheadLog::Open(path, options, *recovered);
  if (!wal.ok()) return wal.status();
  journal_ = std::move(*wal);
  return Status::OK();
}

Status StStore::Setup() {
  Status s = cluster_->ShardCollection(approach_->shard_key());
  if (!s.ok()) return s;
  // Bucketed stores skip the per-point secondary indexes: stored documents
  // are buckets keyed by window start (and cell base), which the shard-key
  // index already serves; a 2dsphere index over compressed columns would
  // index nothing useful.
  if (bucketed()) return OpenCatalogJournal(nullptr);
  for (const index::IndexDescriptor& desc : approach_->secondary_indexes()) {
    s = cluster_->CreateIndex(desc);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status StStore::Insert(bson::Document doc) {
  {
    const std::lock_guard<std::mutex> lock(insert_mu_);
    if (!doc.Has("_id")) {
      const uint32_t load_seconds = static_cast<uint32_t>(
          options_.load_clock_begin_ms / 1000 +
          static_cast<int64_t>(inserted_ / kDocsPerIdSecond));
      doc.Append("_id",
                 bson::Value::Id(id_generator_.Generate(load_seconds)));
    }
    ++inserted_;
  }
  // The live approach's enrichment (a no-op for baselines). During a
  // reshard the cluster adds what the target layout needs (its
  // reshard_enrich_), so a document fits both layouts.
  if (Status s = approach().EnrichDocument(&doc); !s.ok()) return s;
  if (catalog_ != nullptr) {
    if (journal_ == nullptr) return catalog_->Add(std::move(doc));
    // Durable bucketed path: the point must be on disk (catalog journal)
    // before it is acknowledged — it may sit in an open in-memory bucket
    // long past this call. journal_mu_ spans journal write AND catalog add
    // so a concurrent FlushBuckets cannot truncate the journal in between.
    const std::lock_guard<std::mutex> lock(journal_mu_);
    const Result<uint64_t> lsn = journal_->Append(
        storage::WalRecordType::kCatalogAdd, 0, bson::EncodeBson(doc));
    if (!lsn.ok()) return lsn.status();
    if (Result<uint64_t> c = journal_->Commit(); !c.ok()) return c.status();
    return catalog_->Add(std::move(doc), *lsn);
  }
  return cluster_->Insert(std::move(doc));
}

Status StStore::FinishLoad() {
  const Status s = FlushBuckets();
  if (!s.ok()) return s;
  cluster_->Balance();
  return Status::OK();
}

Status StStore::FlushBuckets() const {
  if (catalog_ == nullptr) return Status::OK();
  if (journal_ == nullptr) return catalog_->FlushAll();
  const std::lock_guard<std::mutex> lock(journal_mu_);
  return FlushJournaledLocked().status();
}

Result<bool> StStore::FlushJournaledLocked() const {
  if (Status s = catalog_->FlushAll(); !s.ok()) return s;
  // Every journaled point now lives in a flushed bucket, durable in some
  // shard's own WAL — once those are synced the catalog journal is
  // redundant and can be dropped. A dead journal (simulated crash) is left
  // alone so query paths keep working on the in-memory state.
  if (catalog_->points_buffered() != 0 || journal_->dead()) return false;
  if (Status s = cluster_->SyncWals(); !s.ok()) return s;
  if (Status s = journal_->Truncate(); !s.ok()) return s;
  return true;
}

Status StStore::Checkpoint() {
  if (Status s = FlushBuckets(); !s.ok()) return s;
  return cluster_->Checkpoint();
}

Status StStore::ConfigureZones() {
  return cluster_->SetZonesByBucketAuto(approach().zone_path());
}

Result<std::unique_ptr<StStore>> StStore::Recover(
    const StStoreOptions& options) {
  StStoreOptions resolved = ResolveOptions(options);
  Result<std::unique_ptr<cluster::Cluster>> recovered =
      cluster::RecoverCluster(resolved.cluster);
  if (!recovered.ok()) return recovered.status();
  std::unique_ptr<StStore> store(
      new StStore(std::move(resolved), std::move(*recovered)));
  // Under another approach the store would translate queries and key
  // inserts for a layout the data does not have (bslTS data opened as hil
  // answers every query with nothing).
  if (store->approach().shard_key().paths() !=
      store->cluster_->shard_key().paths()) {
    return Status::InvalidArgument(
        std::string("approach ") + store->approach().name() +
        " does not match the recovered shard key " +
        store->cluster_->shard_key().DebugString());
  }

  // Resume the _id load clock past everything that survived, and — on
  // bucketed layouts — collect the journal LSNs already covered by flushed
  // buckets sitting in the shards.
  uint64_t recovered_points = 0;
  std::unordered_set<uint64_t> covered;
  uint64_t max_covered_lsn = 0;
  for (const auto& shard : store->cluster_->shards()) {
    shard->records().ForEach(
        [&](storage::RecordId, const bson::Document& doc) {
          if (!storage::IsBucketDocument(doc)) {
            ++recovered_points;
            return;
          }
          const Result<storage::BucketMeta> meta =
              storage::ParseBucketMeta(doc);
          if (meta.ok()) recovered_points += meta->num_points;
          const bson::Value* lsns = doc.Get(storage::kBucketWalLsnsField);
          if (lsns == nullptr || lsns->type() != bson::Type::kArray) return;
          for (const bson::Value& v : lsns->AsArray()) {
            if (v.type() == bson::Type::kInt64) {
              const uint64_t lsn = static_cast<uint64_t>(v.AsInt64());
              covered.insert(lsn);
              max_covered_lsn = std::max(max_covered_lsn, lsn);
            }
          }
        });
  }

  if (store->catalog_ != nullptr) {
    // Replay the catalog journal: acknowledged points that never reached a
    // flushed bucket re-enter the catalog under their original LSNs (the
    // journal still holds them — it only truncates once fully covered).
    const std::string journal_path =
        store->options_.cluster.durability.data_dir + "/catalog.wal";
    const Result<storage::WalScan> scan = storage::ReadWal(journal_path);
    if (!scan.ok()) return scan.status();
    uint64_t replayed = 0;
    for (const storage::WalRecord& record : scan->committed) {
      if (record.type != storage::WalRecordType::kCatalogAdd) {
        return Status::Corruption("unexpected record type in catalog journal");
      }
      if (covered.count(record.lsn) != 0) continue;
      Result<bson::Document> doc = bson::DecodeBson(record.payload);
      if (!doc.ok()) return doc.status();
      if (Status s = store->catalog_->Add(std::move(*doc), record.lsn);
          !s.ok()) {
        return s;
      }
      ++replayed;
    }
    recovered_points += replayed;
    STIX_METRIC_COUNTER(points, "recovery.catalog_points_replayed");
    points.Increment(replayed);
    if (Status s = store->OpenCatalogJournal(&*scan); !s.ok()) {
      return s;
    }
    // The journal may have been truncated (every point covered) right
    // before the crash, which restarts its LSN numbering — but the flushed
    // bucket documents still reference the old LSNs in their wlsns arrays.
    // Lift the counter past everything they cover, or new journal records
    // would reuse covered LSNs and be skipped by the next recovery.
    store->journal_->EnsureLsnPast(max_covered_lsn);
  }

  store->inserted_ = recovered_points;
  return store;
}

StCursor::StCursor(TranslatedQuery translated,
                   std::unique_ptr<cluster::ClusterCursor> cursor)
    : translated_(std::move(translated)), cursor_(std::move(cursor)) {}

StQueryResult StCursor::Summary() const {
  StQueryResult out;
  out.cluster = cursor_->Summary();
  out.translated = translated_;
  return out;
}

StQueryResult StCursor::Drain() {
  StQueryResult out;
  out.cluster = cursor_->Drain();
  out.translated = translated_;
  return out;
}

namespace {

cluster::CursorOptions ToClusterCursorOptions(const StCursorOptions& o) {
  cluster::CursorOptions out;
  out.batch_size = o.batch_size;
  out.limit = o.limit;
  return out;
}

}  // namespace

StQueryResult StStore::Query(const geo::Rect& rect, int64_t t_begin_ms,
                             int64_t t_end_ms) const {
  StCursorOptions full_drain;
  full_drain.batch_size = 0;
  full_drain.limit = 0;
  return OpenQuery(rect, t_begin_ms, t_end_ms, full_drain).Drain();
}

size_t StStore::CoverBudgetFor(const Approach& ap, const geo::Rect& rect,
                               int64_t t_begin_ms, int64_t t_end_ms) const {
  return ap.CoverBudget(rect, [&] {
    return cluster_->EstimateFraction(kDateField, t_begin_ms, t_end_ms);
  });
}

StCursor StStore::OpenQuery(const geo::Rect& rect, int64_t t_begin_ms,
                            int64_t t_end_ms,
                            const StCursorOptions& cursor_options) const {
  // Best effort: a failed flush (injected fault) leaves its points
  // buffered for a later retry; the query still sees everything flushed.
  (void)FlushBuckets();
  const Approach& ap = approach();
  TranslatedQuery translated = ap.TranslateQuery(
      rect, t_begin_ms, t_end_ms,
      CoverBudgetFor(ap, rect, t_begin_ms, t_end_ms));
  std::unique_ptr<cluster::ClusterCursor> cursor = cluster_->OpenCursor(
      translated.expr, ToClusterCursorOptions(cursor_options));
  return StCursor(std::move(translated), std::move(cursor));
}

StExplain StStore::Explain(const geo::Rect& rect, int64_t t_begin_ms,
                           int64_t t_end_ms,
                           query::ExplainVerbosity verbosity) const {
  (void)FlushBuckets();
  const Approach& ap = approach();
  const TranslatedQuery translated = ap.TranslateQuery(
      rect, t_begin_ms, t_end_ms,
      CoverBudgetFor(ap, rect, t_begin_ms, t_end_ms));
  StExplain explain;
  explain.approach = ap.name();
  if (const auto curve = ap.curve()) explain.curve = curve->name();
  explain.cover_millis = translated.cover_millis;
  explain.num_ranges = translated.num_ranges;
  explain.num_singletons = translated.num_singletons;
  explain.cover_cache_hit = translated.cache_hit;
  explain.cover_budget = translated.cover_budget;
  explain.cluster = cluster_->Explain(translated.expr, verbosity);
  return explain;
}

Result<uint64_t> StStore::Delete(const geo::Rect& rect, int64_t t_begin_ms,
                                 int64_t t_end_ms) {
  // A durable bucketed delete runs with the catalog journal empty and held:
  // a removed or rewritten bucket drops the `wlsns` coverage of its points,
  // so a journal still holding them would replay the deleted points (and
  // duplicate the survivors) at recovery.
  std::unique_lock<std::mutex> journal_lock;
  if (journal_ != nullptr) {
    journal_lock = std::unique_lock<std::mutex>(journal_mu_);
    const Result<bool> emptied = FlushJournaledLocked();
    if (!emptied.ok()) return emptied.status();
    if (!*emptied) {
      return Status::Internal(
          "catalog journal cannot be emptied; nothing deleted");
    }
  } else if (Status s = FlushBuckets(); !s.ok()) {
    return s;
  }
  const Approach& ap = approach();
  const TranslatedQuery translated = ap.TranslateQuery(
      rect, t_begin_ms, t_end_ms,
      CoverBudgetFor(ap, rect, t_begin_ms, t_end_ms));
  return cluster_->Delete(translated.expr);
}

StQueryResult StStore::QueryPolygon(const geo::Polygon& polygon,
                                    int64_t t_begin_ms,
                                    int64_t t_end_ms) const {
  StCursorOptions full_drain;
  full_drain.batch_size = 0;
  full_drain.limit = 0;
  return OpenPolygonQuery(polygon, t_begin_ms, t_end_ms, full_drain).Drain();
}

StCursor StStore::OpenPolygonQuery(const geo::Polygon& polygon,
                                   int64_t t_begin_ms, int64_t t_end_ms,
                                   const StCursorOptions& cursor_options) const {
  (void)FlushBuckets();
  TranslatedQuery translated =
      approach().TranslatePolygonQuery(polygon, t_begin_ms, t_end_ms);
  std::unique_ptr<cluster::ClusterCursor> cursor = cluster_->OpenCursor(
      translated.expr, ToClusterCursorOptions(cursor_options));
  return StCursor(std::move(translated), std::move(cursor));
}

Status StStore::Reshard(ApproachKind to_kind) {
  if (bucketed()) {
    return Status::NotSupported("resharding a bucketed store");
  }
  if (durable()) {
    return Status::NotSupported("resharding a durable store");
  }

  // Build the target approach outside the lock — Approach construction
  // builds a Hilbert curve for hil*.
  ApproachConfig next_config = options_.approach;
  next_config.kind = to_kind;
  const auto next = std::make_shared<const Approach>(next_config);

  {
    const std::lock_guard<std::mutex> lock(approach_mu_);
    if (resharding_) {
      return Status::AlreadyExists("a reshard is already in progress");
    }
    if (approach_->kind() == to_kind) {
      return Status::InvalidArgument("store already uses this approach");
    }
    if (approach_->shard_key().paths() == next->shard_key().paths()) {
      return Status::InvalidArgument(
          "new approach shares the current shard key");
    }
    // Queries keep translating through the live approach throughout: a
    // bsl translation reads only location and date, and a hil translation
    // reads hilbertIndex, which every document of a hil-keyed store
    // carries until the swap.
    resharding_ = true;
  }

  // The cluster-side enrichment pass only needs to add what the target
  // layout requires and live dual-enriched inserts already carry; baselines
  // need nothing, and a document that already has its hilbertIndex must be
  // reported unmodified so the copier skips the rewrite.
  const cluster::Cluster::ReshardEnrichFn enrich =
      [next](bson::Document* doc) -> Result<bool> {
    if (!next->uses_hilbert()) return false;
    if (doc->Get(kHilbertField) != nullptr) return false;
    if (Status s = next->EnrichDocument(doc); !s.ok()) return s;
    return true;
  };

  const Status s =
      cluster_->Reshard(next->shard_key(), next->secondary_indexes(), enrich);

  const std::lock_guard<std::mutex> lock(approach_mu_);
  if (s.ok()) {
    retired_approaches_.push_back(approach_);
    approach_ = next;
    options_.approach.kind = to_kind;
  }
  // A failure after the routing flip leaves the cluster permanently
  // broadcasting with documents under either layout (the live approach
  // still answers exactly there), and a retry is refused. A pre-flip
  // failure unwound cleanly.
  resharding_ = !s.ok() && cluster_->resharding();
  return s;
}

std::optional<double> StStore::MinBucketDistanceM(geo::Point center,
                                                  int64_t t_begin_ms,
                                                  int64_t t_end_ms) const {
  if (catalog_ == nullptr) return std::nullopt;
  (void)FlushBuckets();
  const query::ExprPtr expr = query::WidenForBuckets(
      query::MakeAnd(
          {query::MakeCmp(storage::kTimeField, query::CmpOp::kGte,
                          bson::Value::DateTime(t_begin_ms)),
           query::MakeCmp(storage::kTimeField, query::CmpOp::kLte,
                          bson::Value::DateTime(t_end_ms))}),
      *options_.bucket);

  cluster::CursorOptions cursor_options;
  cursor_options.batch_size = 0;
  cursor_options.raw_buckets = true;
  std::unique_ptr<cluster::ClusterCursor> cursor =
      cluster_->OpenCursor(expr, cursor_options);

  std::optional<double> best;
  while (!cursor->exhausted()) {
    for (const bson::Document& doc : cursor->NextBatch()) {
      Result<storage::BucketMeta> meta = storage::ParseBucketMeta(doc);
      if (!meta.ok()) continue;  // non-bucket stragglers contribute nothing
      if (meta->max_ts < t_begin_ms || meta->min_ts > t_end_ms) continue;
      if (!meta->has_mbr) return 0.0;  // unknown extent: no useful bound
      const geo::Point closest{
          std::clamp(center.lon, meta->mbr.lo.lon, meta->mbr.hi.lon),
          std::clamp(center.lat, meta->mbr.lo.lat, meta->mbr.hi.lat)};
      const double d = geo::HaversineMeters(center, closest);
      if (!best.has_value() || d < *best) best = d;
      if (*best == 0.0) return best;  // cannot improve on zero
    }
  }
  return best;
}

}  // namespace stix::st
