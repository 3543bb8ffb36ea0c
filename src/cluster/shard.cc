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
      const bson::Document* doc = records_.Get(c.rid());
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
  // The removed documents are the undo copies: a failure puts them back
  // and takes the inserts out again, so the caller's error means "nothing
  // happened" — the unacked-atomic half of the crash oracle.
  std::vector<bson::Document> removed;
  removed.reserve(removes.size());
  std::vector<storage::RecordId> rids;
  rids.reserve(inserts.size());
  const auto undo = [&](Status s) {
    for (const storage::RecordId rid : rids) {
      (void)catalog_.OnRemove(*records_.Get(rid), rid);
      records_.Remove(rid);
    }
    for (size_t i = 0; i < removed.size(); ++i) {
      (void)RestoreRecordLocked(removes[i], std::move(removed[i]));
    }
    return s;
  };
  for (const storage::RecordId rid : removes) {
    const bson::Document* doc = records_.Get(rid);
    if (doc == nullptr) {
      return undo(Status::NotFound("record " + std::to_string(rid)));
    }
    if (Status s = catalog_.OnRemove(*doc, rid); !s.ok()) return undo(s);
    removed.push_back(std::move(*records_.Remove(rid)));
  }
  for (bson::Document& doc : inserts) {
    const storage::RecordId rid = records_.Insert(std::move(doc));
    if (Status s = catalog_.OnInsert(*records_.Get(rid), rid); !s.ok()) {
      records_.Remove(rid);
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
                           bson::EncodeBson(*records_.Get(rid)));
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
        query::stats::ExtractStatsValues(*records_.Get(rid), StatsGeoHash()),
        +1);
  }
  if (wal_ != nullptr) MaybeCheckpointLocked();
  return rids;
}

Status Shard::AttachWal(const std::string& dir, storage::WalOptions options,
                        uint64_t checkpoint_wal_bytes) {
  if (Status s = CreateDirs(dir); !s.ok()) return s;
  const std::unique_lock<std::shared_mutex> lock = LockExclusive(data_mu_);
  wal_path_ = dir + "/wal.log";
  wal_options_ = options;
  checkpoint_wal_bytes_ = checkpoint_wal_bytes;
  return WriteImageLocked();
}

Status Shard::Checkpoint() {
  const std::unique_lock<std::shared_mutex> lock = LockExclusive(data_mu_);
  return CheckpointLocked();
}

Status Shard::CheckpointLocked() {
  if (wal_ == nullptr) return Status::OK();
  // The old log holds every acknowledged write before the rewrite starts,
  // so a rewrite that dies leaves it whole.
  if (Status s = wal_->Sync(); !s.ok()) return s;
  return WriteImageLocked();
}

Status Shard::WriteImageLocked() {
  Result<std::unique_ptr<storage::WriteAheadLog>> rewritten =
      storage::WriteAheadLog::Rewrite(
          wal_path_, wal_options_,
          [this](const storage::WriteAheadLog::AppendFn& append) {
            append(storage::WalRecordType::kImage, records_.max_record_id(),
                   storage::EncodeImageCount(records_.num_records()));
            records_.ForEach(
                [&](storage::RecordId rid, const bson::Document& doc) {
                  append(storage::WalRecordType::kInsert, rid,
                         bson::EncodeBson(doc));
                });
          });
  if (!rewritten.ok()) {
    // A failed rewrite (crash point or IO error) left the old log in place;
    // kill it so this process takes no more writes.
    if (wal_ != nullptr) wal_->Kill();
    return rewritten.status();
  }
  wal_ = std::move(*rewritten);
  image_bytes_ = wal_->log_bytes();
  STIX_METRIC_COUNTER(written, "checkpoint.written");
  written.Increment();
  return Status::OK();
}

void Shard::MaybeCheckpointLocked() {
  if (checkpoint_wal_bytes_ == 0 || wal_ == nullptr || wal_->dead()) return;
  if (wal_->log_bytes() - image_bytes_ < checkpoint_wal_bytes_) return;
  // The triggering write is already durable and acknowledged; a checkpoint
  // failure must not retroactively fail it.
  (void)CheckpointLocked();
}

Status Shard::Recover(const std::string& dir, storage::WalOptions options,
                      uint64_t checkpoint_wal_bytes) {
  const std::unique_lock<std::shared_mutex> lock = LockExclusive(data_mu_);
  wal_path_ = dir + "/wal.log";
  wal_options_ = options;
  checkpoint_wal_bytes_ = checkpoint_wal_bytes;

  const Result<storage::WalScan> scan = storage::ReadWal(wal_path_);
  if (!scan.ok()) return scan.status();
  // The log's first committed batch is its image. A damaged image stops
  // the scan before that batch's commit marker, so nothing is committed.
  const std::vector<storage::WalRecord>& log = scan->committed;
  if (log.empty() || log.front().type != storage::WalRecordType::kImage) {
    return Status::Corruption("shard log does not open with an image: " +
                              wal_path_);
  }
  const Result<uint64_t> image_records =
      storage::DecodeImageCount(log.front().payload);
  if (!image_records.ok()) return image_records.status();
  if (log.size() <= *image_records) {
    return Status::Corruption("shard image is missing records: " + wal_path_);
  }
  records_.PadToRecordId(log.front().rid);
  for (size_t i = 1; i < log.size(); ++i) {
    const storage::WalRecord& record = log[i];
    if (i <= *image_records && record.type != storage::WalRecordType::kInsert) {
      return Status::Corruption("shard image holds a non-insert record");
    }
    switch (record.type) {
      case storage::WalRecordType::kInsert: {
        Result<bson::Document> doc = bson::DecodeBson(record.payload);
        if (!doc.ok()) return doc.status();
        if (Status s = RestoreRecordLocked(record.rid, std::move(*doc));
            !s.ok()) {
          return s;
        }
        break;
      }
      case storage::WalRecordType::kRemove: {
        const bson::Document* doc = records_.Get(record.rid);
        if (doc == nullptr) break;  // removing an already-gone record is ok
        if (Status s = catalog_.OnRemove(*doc, record.rid); !s.ok()) return s;
        records_.Remove(record.rid);
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
      storage::WriteAheadLog::Open(wal_path_, options, *scan);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(*wal);
  image_bytes_ = scan->first_batch_bytes;
  STIX_METRIC_COUNTER(recoveries, "shard.recoveries");
  recoveries.Increment();
  return Status::OK();
}

Status Shard::RestoreRecordLocked(storage::RecordId rid, bson::Document doc) {
  if (Status s = records_.RestoreAt(rid, std::move(doc)); !s.ok()) return s;
  return catalog_.OnInsert(*records_.Get(rid), rid);
}

Status Shard::SyncWal() {
  // Shared: an auto-checkpoint replaces wal_ under the exclusive lock.
  const std::shared_lock<std::shared_mutex> lock = LockShared(data_mu_);
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
  const uint64_t n = records_.num_records();
  sample.dates.reserve(n);
  sample.hilberts.reserve(n);
  records_.ForEach(
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
      exec_(shard.records(), shard.catalog(), std::move(expr),
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
  if (done_) {
    // A plan that ended on a fault (a bucket that fails to decode) fails
    // the stream like a dead shard: no documents, the cursor exhausted.
    if (Status s = exec_.status(); !s.ok()) {
      batch.rids.clear();
      batch.error = std::move(s);
      return batch;
    }
  }
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
