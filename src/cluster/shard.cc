#include "cluster/shard.h"

#include <cstdio>
#include <map>
#include <mutex>
#include <sstream>

#include "bson/codec.h"
#include "common/failpoint.h"
#include "common/fs.h"
#include "common/metrics.h"

namespace stix::cluster {
namespace {

// Shard-lock acquisition with contention accounting: the uncontended path
// is a single try_lock (no clock reads); only a blocked acquisition pays
// for a stopwatch and feeds the wait metrics.
std::shared_lock<std::shared_mutex> LockShared(std::shared_mutex& mu) {
  std::shared_lock<std::shared_mutex> lock(mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    STIX_METRIC_COUNTER(waits, "shard.lock_waits");
    STIX_METRIC_HISTOGRAM(wait_micros, "shard.lock_wait_micros");
    Stopwatch timer;
    lock.lock();
    waits.Increment();
    wait_micros.Observe(static_cast<uint64_t>(timer.ElapsedMicros()));
  }
  return lock;
}

std::unique_lock<std::shared_mutex> LockExclusive(std::shared_mutex& mu) {
  std::unique_lock<std::shared_mutex> lock(mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    STIX_METRIC_COUNTER(waits, "shard.lock_waits");
    STIX_METRIC_HISTOGRAM(wait_micros, "shard.lock_wait_micros");
    Stopwatch timer;
    lock.lock();
    waits.Increment();
    wait_micros.Observe(static_cast<uint64_t>(timer.ElapsedMicros()));
  }
  return lock;
}

}  // namespace

std::string ShardExplain::ToJson(query::ExplainVerbosity v) const {
  std::ostringstream out;
  out << "{\"shard\": " << shard_id << ", \"winningIndex\": \""
      << query::JsonEscape(winning_index) << "\", \"numCandidates\": "
      << num_candidates << ", \"fromPlanCache\": "
      << (from_plan_cache ? "true" : "false")
      << ", \"replanned\": " << (replanned ? "true" : "false");
  if (!planned_by.empty()) {
    out << ", \"plannedBy\": \"" << query::JsonEscape(planned_by) << "\"";
  }
  if (v != query::ExplainVerbosity::kQueryPlanner) {
    char millis[32];
    std::snprintf(millis, sizeof(millis), "%.3f", exec_millis);
    out << ", \"nReturned\": " << stats.n_returned
        << ", \"keysExamined\": " << stats.keys_examined
        << ", \"docsExamined\": " << stats.docs_examined
        << ", \"works\": " << stats.works;
    if (estimated_keys >= 0.0) {
      char est[32];
      std::snprintf(est, sizeof(est), "%.1f", estimated_keys);
      out << ", \"estimatedKeysExamined\": " << est;
      std::snprintf(est, sizeof(est), "%.1f", estimated_docs);
      out << ", \"estimatedDocsExamined\": " << est;
    }
    out << ", \"executionTimeMillis\": " << millis;
  }
  out << ", \"winningPlan\": " << winning_plan.ToJson(v);
  if (v == query::ExplainVerbosity::kAllPlansExecution) {
    out << ", \"rejectedPlans\": [";
    for (size_t i = 0; i < rejected_plans.size(); ++i) {
      if (i > 0) out << ", ";
      out << rejected_plans[i].ToJson(v);
    }
    out << "]";
  }
  out << "}";
  return out.str();
}

// Fires on every ShardCursor::GetMore. A delay action models a slow shard;
// an error action kills the stream mid-flight (the batch carries the error
// and no documents, like a shard host dying between getMores).
STIX_FAIL_POINT_DEFINE(shardGetMore);

Result<storage::RecordId> Shard::Insert(bson::Document doc) {
  const std::unique_lock<std::shared_mutex> lock = LockExclusive(data_mu_);
  std::vector<bson::Document> one;
  one.push_back(std::move(doc));
  Result<std::vector<storage::RecordId>> rids =
      WriteBatchLocked({}, std::move(one));
  if (!rids.ok()) return rids.status();
  return rids->front();
}

Result<RangeDocs> Shard::CollectRangeLocked(const std::string& index_name,
                                            const std::string& min,
                                            const std::string& max,
                                            RangeDocs* reuse) const {
  const index::Index* idx = catalog_.Get(index_name);
  if (idx == nullptr) {
    return Status::Internal("index " + index_name + " missing on shard");
  }
  std::map<storage::RecordId, size_t> reusable;
  if (reuse != nullptr) {
    for (size_t i = 0; i < reuse->rids.size(); ++i) {
      reusable.emplace(reuse->rids[i], i);
    }
  }
  RangeDocs out;
  for (storage::BTree::Cursor c = idx->btree().SeekGE(min);
       c.Valid() && c.key() < max; c.Next()) {
    if (const auto it = reusable.find(c.rid()); it != reusable.end()) {
      out.docs.push_back(std::move(reuse->docs[it->second]));
    } else {
      const bson::Document* doc = collection_.records().Get(c.rid());
      if (doc == nullptr) continue;
      out.docs.push_back(*doc);
    }
    out.rids.push_back(c.rid());
  }
  return out;
}

Result<std::vector<storage::RecordId>> Shard::WriteBatchLocked(
    const std::vector<storage::RecordId>& removes,
    std::vector<bson::Document> inserts) {
  storage::RecordStore& records = collection_.records();
  // The removed documents are the undo copies: a failure puts them back
  // and takes the inserts out again, so the caller's error means "nothing
  // happened" — the unacked-atomic half of the crash oracle.
  std::vector<bson::Document> removed;
  removed.reserve(removes.size());
  std::vector<storage::RecordId> rids;
  rids.reserve(inserts.size());
  const auto undo = [&](Status s) {
    for (const storage::RecordId rid : rids) {
      (void)catalog_.OnRemove(*records.Get(rid), rid);
      records.Remove(rid);
    }
    for (size_t i = 0; i < removed.size(); ++i) {
      (void)records.RestoreAt(removes[i], std::move(removed[i]));
      (void)catalog_.OnInsert(*records.Get(removes[i]), removes[i]);
    }
    return s;
  };
  for (const storage::RecordId rid : removes) {
    const bson::Document* doc = records.Get(rid);
    if (doc == nullptr) {
      return undo(Status::NotFound("record " + std::to_string(rid)));
    }
    if (Status s = catalog_.OnRemove(*doc, rid); !s.ok()) return undo(s);
    removed.push_back(std::move(*records.Remove(rid)));
  }
  for (bson::Document& doc : inserts) {
    const storage::RecordId rid = records.Insert(std::move(doc));
    if (Status s = catalog_.OnInsert(*records.Get(rid), rid); !s.ok()) {
      records.Remove(rid);
      return undo(s);
    }
    rids.push_back(rid);
  }
  // Stage only after every apply succeeded: a staged record cannot be
  // withdrawn, and would ride along with the log's next commit.
  if (wal_ != nullptr) {
    for (const storage::RecordId rid : removes) {
      if (Result<uint64_t> a =
              wal_->Append(storage::WalRecordType::kRemove, rid, {});
          !a.ok()) {
        return undo(a.status());
      }
    }
    for (const storage::RecordId rid : rids) {
      if (Result<uint64_t> a =
              wal_->Append(storage::WalRecordType::kInsert, rid,
                           bson::EncodeBson(*records.Get(rid)));
          !a.ok()) {
        return undo(a.status());
      }
    }
    if (Result<uint64_t> lsn = wal_->Commit(); !lsn.ok()) {
      return undo(lsn.status());
    }
  }
  for (const bson::Document& doc : removed) {
    stats_.Observe(query::stats::ExtractStatsValues(doc, StatsGeoHash()), -1);
  }
  for (const storage::RecordId rid : rids) {
    stats_.Observe(
        query::stats::ExtractStatsValues(*records.Get(rid), StatsGeoHash()),
        +1);
  }
  if (wal_ != nullptr) MaybeCheckpointLocked();
  return rids;
}

Status Shard::AttachWal(const std::string& dir, storage::WalOptions options,
                        uint64_t checkpoint_wal_bytes, bool fresh) {
  if (Status s = CreateDirs(dir); !s.ok()) return s;
  Result<std::unique_ptr<storage::WriteAheadLog>> wal =
      storage::WriteAheadLog::Open(dir + "/wal.log", options, fresh);
  if (!wal.ok()) return wal.status();
  const std::unique_lock<std::shared_mutex> lock = LockExclusive(data_mu_);
  wal_ = std::move(*wal);
  dir_ = dir;
  checkpoint_wal_bytes_ = checkpoint_wal_bytes;
  return Status::OK();
}

Status Shard::Checkpoint() {
  const std::unique_lock<std::shared_mutex> lock = LockExclusive(data_mu_);
  return CheckpointLocked();
}

Status Shard::CheckpointLocked() {
  if (wal_ == nullptr) return Status::OK();
  if (Status s = wal_->Sync(); !s.ok()) return s;
  const uint64_t lsn = wal_->last_commit_lsn();
  std::vector<storage::IndexDump> dumps;
  dumps.reserve(catalog_.indexes().size());
  for (const auto& idx : catalog_.indexes()) {
    dumps.push_back(storage::IndexDump{idx->descriptor().name(),
                                       idx->is_multikey(), &idx->btree()});
  }
  if (Status s = storage::WriteCheckpoint(collection_, dumps, lsn, dir_);
      !s.ok()) {
    // A failed checkpoint (crash point or IO error) leaves at worst a
    // `.tmp`; acked writes stay covered by the prior checkpoint + the
    // untruncated WAL. Kill the log so this process takes no more writes.
    wal_->Kill();
    return s;
  }
  ckpt_lsn_ = lsn;
  // The WAL only shrinks after the checkpoint is durably renamed in —
  // crash between the two just replays records the checkpoint already
  // holds, which the ckpt_lsn filter in Recover skips.
  if (Status s = wal_->Truncate(); !s.ok()) return s;
  storage::RemoveStaleCheckpoints(dir_, lsn);
  return Status::OK();
}

void Shard::MaybeCheckpointLocked() {
  if (checkpoint_wal_bytes_ == 0 || wal_ == nullptr || wal_->dead()) return;
  if (wal_->log_bytes() < checkpoint_wal_bytes_) return;
  // The triggering write is already durable and acknowledged; a checkpoint
  // failure must not retroactively fail it.
  (void)CheckpointLocked();
}

Status Shard::Recover(const std::string& dir, storage::WalOptions options,
                      uint64_t checkpoint_wal_bytes) {
  const std::unique_lock<std::shared_mutex> lock = LockExclusive(data_mu_);
  dir_ = dir;
  checkpoint_wal_bytes_ = checkpoint_wal_bytes;

  const Result<storage::WalScan> scan = storage::ReadWal(dir + "/wal.log");
  if (!scan.ok()) return scan.status();

  // Newest intact checkpoint wins. Skipping a damaged image is legal only
  // when the log still covers every record between the image installed
  // instead and the damaged one. A clean checkpoint prunes the older images
  // and truncates the log, so usually nothing covers that gap and skipping
  // would recover a shard that silently lost the damaged image's data.
  const std::vector<storage::CheckpointRef> refs =
      storage::ListCheckpoints(dir);
  const storage::CheckpointRef* damaged = nullptr;  // newest unreadable
  uint64_t ckpt_lsn = 0;
  for (const storage::CheckpointRef& ref : refs) {
    Result<storage::CheckpointImage> image = storage::LoadCheckpoint(ref.path);
    if (!image.ok()) {
      if (damaged == nullptr) damaged = &ref;
      continue;
    }
    collection_ = std::move(image->collection);
    for (storage::CheckpointIndexImage& idx : image->indexes) {
      index::Index* index = catalog_.Get(idx.name);
      if (index == nullptr) {
        return Status::Corruption("checkpoint names unknown index: " +
                                  idx.name);
      }
      for (auto& [key, rid] : idx.entries) index->btree().Insert(key, rid);
      index->set_multikey(idx.multikey);
    }
    ckpt_lsn = image->lsn;
    break;
  }
  if (damaged != nullptr) {
    // The log only ever loses a prefix (truncation at a checkpoint), so it
    // holds every record from its first one to its commit horizon.
    const bool covered = !scan->committed.empty() &&
                         scan->committed.front().lsn <= ckpt_lsn + 1 &&
                         scan->last_lsn >= damaged->lsn;
    if (!covered) {
      return Status::Corruption(
          "damaged checkpoint not covered by the wal: " +
          damaged->path);
    }
  }
  ckpt_lsn_ = ckpt_lsn;
  for (const storage::WalRecord& record : scan->committed) {
    if (record.lsn <= ckpt_lsn) continue;  // already inside the checkpoint
    switch (record.type) {
      case storage::WalRecordType::kInsert: {
        Result<bson::Document> doc = bson::DecodeBson(record.payload);
        if (!doc.ok()) return doc.status();
        if (Status s =
                collection_.records().RestoreAt(record.rid, std::move(*doc));
            !s.ok()) {
          return s;
        }
        const bson::Document* stored = collection_.records().Get(record.rid);
        if (Status s = catalog_.OnInsert(*stored, record.rid); !s.ok()) {
          return s;
        }
        break;
      }
      case storage::WalRecordType::kRemove: {
        const bson::Document* doc = collection_.records().Get(record.rid);
        if (doc == nullptr) break;  // removing an already-gone record is ok
        if (Status s = catalog_.OnRemove(*doc, record.rid); !s.ok()) return s;
        collection_.records().Remove(record.rid);
        break;
      }
      default:
        return Status::Corruption("unexpected record type in shard wal");
    }
  }

  // Rebuild the statistics from the recovered record store outright.
  // MarkStale() is NOT enough here: recovery bypasses stats_.Observe (only
  // the live insert path feeds it), so the statistics' own document count is
  // still zero and both NeedsRebuild() and ReliableForEstimation() take the
  // empty-shard short-circuit — the cost model would estimate every scan on
  // this populated shard at exactly 0 keys/docs and plan from it.
  RebuildStatsFromStorage();

  Result<std::unique_ptr<storage::WriteAheadLog>> wal =
      storage::WriteAheadLog::Open(dir + "/wal.log", options,
                                   /*fresh=*/false);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(*wal);
  // The log was truncated at the checkpoint, so Open resumed its LSNs from
  // whatever tail remained — possibly nothing. Lift the counter past the
  // checkpoint horizon, or new writes would reuse LSNs the next recovery's
  // `lsn <= ckpt_lsn` filter skips.
  wal_->EnsureLsnPast(ckpt_lsn);
  STIX_METRIC_COUNTER(recoveries, "shard.recoveries");
  recoveries.Increment();
  return Status::OK();
}

Status Shard::SyncWal() {
  if (wal_ == nullptr) return Status::OK();
  return wal_->Sync();
}

const geo::GeoHash* Shard::StatsGeoHash() const {
  for (const auto& idx : catalog_.indexes()) {
    if (idx->descriptor().FirstGeoField() >= 0) {
      return &idx->keygen().geohash();
    }
  }
  return nullptr;
}

void Shard::MaybeRebuildStats() const {
  if (!stats_.NeedsRebuild()) return;
  RebuildStatsFromStorage();
}

void Shard::RebuildStatsFromStorage() const {
  const uint64_t generation = stats_.rebuild_generation();
  const geo::GeoHash* geohash = StatsGeoHash();
  query::stats::RebuildSample sample;
  const uint64_t n = collection_.records().num_records();
  sample.dates.reserve(n);
  sample.hilberts.reserve(n);
  collection_.records().ForEach(
      [&](storage::RecordId, const bson::Document& doc) {
        const query::stats::ObservedValues v =
            query::stats::ExtractStatsValues(doc, geohash);
        ++sample.num_docs;
        sample.num_points += v.points;
        if (v.is_bucket) ++sample.num_buckets;
        if (v.date) sample.dates.push_back(*v.date);
        if (v.hilbert) sample.hilberts.push_back(*v.hilbert);
        if (v.geocell) sample.geocells.push_back(*v.geocell);
      });
  stats_.Rebuild(std::move(sample), generation);
  // Cached plan decisions (and the works figures their replanning budgets
  // derive from) were measured against the old distribution.
  plan_cache_.InvalidateAll();
}

void Shard::OnDataDistributionChanged() const {
  stats_.MarkStale();
  plan_cache_.InvalidateAll();
}

std::unique_ptr<ShardCursor> Shard::OpenCursor(
    query::ExprPtr expr, const query::ExecutorOptions& options,
    uint64_t limit) const {
  query::ExecutorOptions opts = options;
  opts.shard_stats = &stats_;
  return std::unique_ptr<ShardCursor>(
      new ShardCursor(*this, std::move(expr), opts, limit));
}

ShardCursor::ShardCursor(const Shard& shard, query::ExprPtr expr,
                         const query::ExecutorOptions& options, uint64_t limit)
    : shard_(shard),
      options_(options),
      exec_(shard.collection().records(), shard.catalog(), std::move(expr),
            options, &shard.plan_cache_, limit) {
  STIX_METRIC_GAUGE(open_cursors, "cluster.open_cursors");
  open_cursors.Add(1);
}

void ShardCursor::Close() {
  if (closed_) return;
  closed_ = true;
  done_ = true;
  STIX_METRIC_GAUGE(open_cursors, "cluster.open_cursors");
  open_cursors.Sub(1);
}

int ShardCursor::shard_id() const { return shard_.id(); }

ShardExplain ShardCursor::Explain() const {
  ShardExplain explain;
  explain.shard_id = shard_.id();
  explain.winning_index = exec_.winning_index();
  explain.num_candidates = exec_.num_candidates();
  explain.from_plan_cache = exec_.from_plan_cache();
  explain.replanned = exec_.replanned();
  explain.planned_by = query::PlannedByName(exec_.planned_by());
  if (const query::PlanEstimate* est = exec_.winner_estimate()) {
    explain.estimated_keys = est->keys;
    explain.estimated_docs = est->docs;
  }
  explain.stats = exec_.CurrentStats();
  explain.exec_millis = exec_millis_;
  explain.winning_plan = exec_.ExplainWinner();
  explain.rejected_plans = exec_.ExplainRejected();
  return explain;
}

ShardCursor::Batch ShardCursor::GetMore(size_t batch_size) {
  Batch batch;
  if (done_) {
    batch.exhausted = true;
    return batch;
  }
  // Evaluated outside the shard lock: an injected delay stalls this cursor,
  // not the shard's writers.
  if (Status s = CheckFailPoint(shardGetMore); !s.ok()) {
    done_ = true;
    batch.exhausted = true;
    batch.error = std::move(s);
    return batch;
  }
  const std::shared_lock<std::shared_mutex> lock =
      LockShared(shard_.data_mutex());
  shard_.MaybeRebuildStats();
  exec_.RestoreState();
  Stopwatch timer;
  storage::RecordId rid;
  const bson::Document* doc;
  std::vector<const bson::Document*> borrowed;
  while (!done_ && (batch_size == 0 || borrowed.size() < batch_size)) {
    if (exec_.Next(&rid, &doc)) {
      borrowed.push_back(doc);
      batch.rids.push_back(rid);
    } else {
      done_ = true;
    }
  }
  exec_millis_ += timer.ElapsedMillis();
  batch.exhausted = done_;
  // Detach before the lock drops: the executor collapses to KeyString
  // positions and the batch takes ownership of its documents, so writers
  // and migrations may run freely until the next GetMore.
  exec_.SaveState();
  const bool transient = exec_.winner_transient();
  batch.docs.reserve(borrowed.size());
  for (const bson::Document* d : borrowed) {
    if (transient) {
      // Unpacked points are arena-owned and emitted exactly once; moving
      // them out skips a deep copy per point (record-store borrows below
      // must still be copied — their memory is not ours to gut).
      batch.docs.push_back(std::move(*const_cast<bson::Document*>(d)));
    } else {
      batch.docs.push_back(*d);
    }
  }
  return batch;
}

}  // namespace stix::cluster
