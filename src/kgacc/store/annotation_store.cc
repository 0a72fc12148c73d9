#include "kgacc/store/annotation_store.h"

#include <unistd.h>

#include <algorithm>

#include "kgacc/store/log_format.h"
#include "kgacc/util/codec.h"
#include "kgacc/util/failpoint.h"
#include "kgacc/util/random.h"

namespace kgacc {

uint64_t AnnotationStore::Key(uint64_t cluster, uint64_t offset) {
  // Same packing invariant as AnnotatedSample::TripleKey: offsets stay
  // below 2^24 and clusters below 2^40 in every supported population.
  KGACC_DCHECK(offset < (uint64_t{1} << 24));
  KGACC_DCHECK(cluster < (uint64_t{1} << 40));
  return (cluster << 24) | offset;
}

AnnotationStore::Shard& AnnotationStore::ShardFor(uint64_t key) {
  return shards_[Mix64(key) & (kNumShards - 1)];
}

const AnnotationStore::Shard& AnnotationStore::ShardFor(uint64_t key) const {
  return shards_[Mix64(key) & (kNumShards - 1)];
}

bool AnnotationStore::IndexLabel(uint64_t key, bool label,
                                 uint64_t frame_bytes) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.labeled.insert(key)) {
    if (label) shard.correct.insert(key);
    return label;
  }
  // A later record for a stored key (an append race): replay keeps the
  // first, so this frame is garbage bytes.
  garbage_bytes_ += frame_bytes;
  return shard.correct.contains(key);
}

void AnnotationStore::IndexCheckpoint(uint64_t audit_id,
                                      std::span<const uint8_t> snapshot,
                                      uint64_t frame_bytes) {
  std::vector<uint8_t> copy(snapshot.begin(), snapshot.end());
  std::lock_guard<std::mutex> lock(checkpoints_mu_);
  for (CheckpointEntry& entry : checkpoints_) {
    if (entry.audit_id == audit_id) {
      garbage_bytes_ += entry.frame_bytes;  // Superseded frame.
      entry.snapshot = std::move(copy);
      entry.frame_bytes = frame_bytes;
      return;
    }
  }
  checkpoints_.push_back({audit_id, std::move(copy), frame_bytes});
}

void AnnotationStore::IndexLedger(TenantBalance balance,
                                  uint64_t frame_bytes) {
  std::lock_guard<std::mutex> lock(ledgers_mu_);
  for (LedgerEntry& entry : ledgers_) {
    if (entry.balance.tenant == balance.tenant) {
      garbage_bytes_ += entry.frame_bytes;  // Superseded frame.
      entry.balance = std::move(balance);
      entry.frame_bytes = frame_bytes;
      return;
    }
  }
  ledgers_.push_back({std::move(balance), frame_bytes});
}

Status AnnotationStore::Replay(uint8_t type,
                               std::span<const uint8_t> payload) {
  // Open-time only (single-threaded). The byte accounting and the index
  // updates are the live append path's. Every field is bounds-checked: a
  // payload with a valid CRC may still be garbage.
  const uint64_t frame_bytes = FrameSize(payload.size());
  file_bytes_ += frame_bytes;
  switch (type) {
    case walfmt::LabelRecord::kType: {
      KGACC_ASSIGN_OR_RETURN(
          const walfmt::LabelRecord record,
          DecodeFields<walfmt::LabelRecord>(payload, "annotation"));
      IndexLabel(Key(record.cluster, record.offset), record.label,
                 frame_bytes);
      next_seq_ = std::max(next_seq_.load(std::memory_order_relaxed),
                           record.seq + 1);
      ++stats_.records_replayed;
      break;
    }
    case walfmt::CheckpointRecord::kType: {
      KGACC_ASSIGN_OR_RETURN(
          const walfmt::CheckpointRecord record,
          DecodeFields<walfmt::CheckpointRecord>(payload, "checkpoint"));
      IndexCheckpoint(record.audit_id, record.snapshot, frame_bytes);
      ++stats_.checkpoints_replayed;
      break;
    }
    case walfmt::LedgerRecord::kType: {
      // Cumulative totals, latest-wins per tenant.
      KGACC_ASSIGN_OR_RETURN(
          TenantBalance balance,
          DecodeFields<TenantBalance>(payload, "tenant ledger"));
      IndexLedger(std::move(balance), frame_bytes);
      ++stats_.ledgers_replayed;
      break;
    }
    case walfmt::TrailerRecord::kType: {
      // The trailer seals a compacted log: every frame before it must be
      // exactly the live set the rewrite emitted, in order. Verify the
      // counts and the chained payload CRC — a lost, duplicated, or
      // reordered frame in the rewritten region fails loudly here instead
      // of resurfacing as a silently different resume.
      KGACC_ASSIGN_OR_RETURN(
          const walfmt::TrailerRecord trailer,
          DecodeFields<walfmt::TrailerRecord>(payload, "compaction trailer"));
      if (trailer.records != stats_.records_replayed ||
          trailer.checkpoints != stats_.checkpoints_replayed ||
          trailer.ledgers != stats_.ledgers_replayed) {
        return Status::IoError(
            "annotation store: compaction trailer frame counts disagree with "
            "the rewritten log (incomplete or reordered rewrite)");
      }
      if (trailer.live_crc != replay_crc_.value()) {
        return Status::IoError(
            "annotation store: compaction trailer live-CRC mismatch "
            "(rewritten log corrupted)");
      }
      next_seq_ = std::max(next_seq_.load(std::memory_order_relaxed),
                           trailer.next_seq);
      ++stats_.trailers_replayed;
      break;
    }
    default:
      return Status::IoError("annotation store: unknown WAL frame type " +
                             std::to_string(int(type)));
  }
  replay_crc_.Extend(payload);
  return Status::OK();
}

Result<std::unique_ptr<AnnotationStore>> AnnotationStore::Open(
    const std::string& path, const Options& options) {
  // A `.compact` temp means a compaction died before its rename: the old
  // log at `path` is authoritative and the partial rewrite is trash.
  ::unlink((path + ".compact").c_str());

  std::unique_ptr<AnnotationStore> store(new AnnotationStore(options));
  store->path_ = path;
  KGACC_ASSIGN_OR_RETURN(
      store->log_,
      WriteAheadLog::Open(
          path,
          [&store](uint8_t type, std::span<const uint8_t> payload) {
            return store->Replay(type, payload);
          },
          &store->stats_.recovery));
  // The header is counted from the recovered size, not per-frame replay.
  store->file_bytes_ = store->log_->size_bytes();
  return store;
}

AnnotationStore::~AnnotationStore() = default;

std::optional<bool> AnnotationStore::Lookup(uint64_t cluster,
                                            uint64_t offset) const {
  const uint64_t key = Key(cluster, offset);
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (!shard.labeled.contains(key)) return std::nullopt;
  return shard.correct.contains(key);
}

Status AnnotationStore::CommitFrame(uint8_t type,
                                    std::span<const uint8_t> payload,
                                    bool sync,
                                    const std::function<void()>& apply) {
  Commit req;
  req.type = type;
  req.payload = payload;
  req.sync = sync;
  req.apply = &apply;

  std::unique_lock<std::mutex> lock(commit_mu_);
  if (!log_lost_.ok()) return log_lost_;
  commit_queue_.push_back(&req);
  // Wait until a leader settles this frame, or until this thread is the
  // queue head with no leader active — then it *is* the leader.
  while (!req.done &&
         (leader_active_ || commit_queue_.front() != &req)) {
    commit_cv_.wait(lock);
  }
  if (!req.done) {
    leader_active_ = true;
    std::vector<Commit*> batch;
    batch.swap(commit_queue_);
    lock.unlock();

    // Write the whole batch, then settle it under one flush — and one
    // fsync when any member asked for media durability. Later writers keep
    // enqueueing meanwhile; the next leader picks them up.
    bool want_sync = false;
    for (Commit* c : batch) {
      c->status = log_->AppendFrame(c->type, c->payload);
      if (c->status.ok() && c->sync) want_sync = true;
    }
    const Status settle = want_sync ? log_->Sync() : log_->Flush();

    lock.lock();
    ++gc_stats_.batches;
    ++gc_stats_.flushes;
    if (want_sync) ++gc_stats_.syncs;
    gc_stats_.frames += batch.size();
    gc_stats_.max_batch_frames =
        std::max(gc_stats_.max_batch_frames, uint64_t{batch.size()});
    // The leader runs every member's index/accounting apply itself, still
    // under the commit lock, in batch (= log frame) order, before marking
    // anything done. Two invariants hang on this:
    //
    //  * apply order is exactly replay order — when two frames race the
    //    same key, the one the log will replay first is also the one the
    //    in-memory index keeps, so callers are told the same winner a
    //    post-crash reopen would produce;
    //  * once `leader_active_` clears with an empty queue the index is in
    //    step with the log, so that is a sufficient quiesce predicate for
    //    `Compact()`. Deferring apply to each follower would leave a
    //    window where a settled frame is in the log but not the index —
    //    a compaction sneaking in there would rewrite a log omitting a
    //    durably acknowledged record.
    //
    // Each member's stack (and thus its apply closure) stays alive while
    // this runs: followers are still blocked waiting for `done`.
    for (Commit* c : batch) {
      // An unflushed frame is not durable: a failed settle fails every
      // member whose write "succeeded" into the stdio buffer.
      if (c->status.ok() && !settle.ok()) c->status = settle;
      if (c->status.ok() && c->apply != nullptr && *c->apply) (*c->apply)();
      c->done = true;
    }
    leader_active_ = false;
    commit_cv_.notify_all();
  }
  return req.status;
}

Status AnnotationStore::Append(uint64_t audit_id, uint64_t cluster,
                               uint64_t offset, bool label,
                               uint64_t* appended_bytes) {
  if (appended_bytes != nullptr) *appended_bytes = 0;
  const uint64_t key = Key(cluster, offset);
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.labeled.contains(key)) {
      if (shard.correct.contains(key) == label) {
        return Status::OK();  // Idempotent.
      }
      return Status::FailedPrecondition(
          "annotation store: conflicting label for an already-stored triple "
          "(stored judgments are immutable)");
    }
  }
  // Transient-injection site: fires *before* the WAL write, so unlike a
  // real sticky WAL failure the store heals when the policy does.
  if (FailpointHit("store.append")) {
    return Status::IoError(
        "injected annotation append failure (failpoint store.append)");
  }
  ByteWriter record;
  EncodeFields(
      walfmt::LabelRecord{
          .audit_id = audit_id,
          .seq = next_seq_.fetch_add(1, std::memory_order_relaxed),
          .cluster = cluster,
          .offset = offset,
          .label = label},
      &record);
  // Log first, index second: the WAL is the source of truth, and an append
  // failure must leave the index claiming nothing the log cannot replay.
  const uint64_t frame_bytes = FrameSize(record.size());
  Status conflict;
  KGACC_RETURN_IF_ERROR(CommitFrame(
      walfmt::LabelRecord::kType, record.span(), /*sync=*/false, [&] {
        file_bytes_ += frame_bytes;
        // Two writers may race the same novel key past the pre-check: both
        // frames are in the log and the first apply won, as in replay. If
        // the winner stored the *opposite* label this caller must not be
        // told OK — what replay produces is the winner's label — so the
        // race surfaces the same FailedPrecondition serial callers get.
        if (IndexLabel(key, label, frame_bytes) != label) {
          conflict = Status::FailedPrecondition(
              "annotation store: conflicting label for an already-stored "
              "triple (stored judgments are immutable)");
        }
      }));
  KGACC_RETURN_IF_ERROR(conflict);
  // The frame hit the log even when a racing writer won the index (the
  // loser's bytes are garbage but they are still this caller's bytes).
  if (appended_bytes != nullptr) *appended_bytes = frame_bytes;
  MaybeAutoCompact();
  return Status::OK();
}

Status AnnotationStore::AppendCheckpoint(uint64_t audit_id,
                                         std::span<const uint8_t> snapshot,
                                         uint64_t* appended_bytes) {
  if (appended_bytes != nullptr) *appended_bytes = 0;
  if (FailpointHit("store.checkpoint")) {
    return Status::IoError(
        "injected checkpoint append failure (failpoint store.checkpoint)");
  }
  ByteWriter record;
  EncodeFields(walfmt::CheckpointRecord{audit_id, snapshot}, &record);
  const uint64_t frame_bytes = FrameSize(record.size());
  KGACC_RETURN_IF_ERROR(CommitFrame(
      walfmt::CheckpointRecord::kType, record.span(), options_.sync_checkpoints,
      [&] {
        file_bytes_ += frame_bytes;
        IndexCheckpoint(audit_id, snapshot, frame_bytes);
      }));
  if (appended_bytes != nullptr) *appended_bytes = frame_bytes;
  MaybeAutoCompact();
  return Status::OK();
}

Status AnnotationStore::AppendTenantSpend(const std::string& tenant,
                                          uint64_t oracle_delta,
                                          uint64_t store_bytes_delta) {
  // Serialized per store: the frame carries the cumulative total, so the
  // read-balance → encode → commit sequence must not interleave with a
  // concurrent spend for the same tenant (see ledger_append_mu_).
  std::lock_guard<std::mutex> append_lock(ledger_append_mu_);
  // Shares the annotation-append failpoint: a ledger append *is* an
  // append, and the chaos tests arm one site to hit both.
  if (FailpointHit("store.append")) {
    return Status::IoError(
        "injected tenant ledger append failure (failpoint store.append)");
  }
  uint64_t oracle_total = oracle_delta;
  uint64_t bytes_total = store_bytes_delta;
  {
    std::lock_guard<std::mutex> lock(ledgers_mu_);
    for (const LedgerEntry& entry : ledgers_) {
      if (entry.balance.tenant == tenant) {
        oracle_total += entry.balance.oracle_spent;
        bytes_total += entry.balance.store_bytes;
        break;
      }
    }
  }
  const TenantBalance balance{tenant, oracle_total, bytes_total};
  ByteWriter record;
  EncodeFields(balance, &record);
  const uint64_t frame_bytes = FrameSize(record.size());
  KGACC_RETURN_IF_ERROR(CommitFrame(
      TenantBalance::kType, record.span(), /*sync=*/false, [&] {
        file_bytes_ += frame_bytes;
        IndexLedger(balance, frame_bytes);
      }));
  MaybeAutoCompact();
  return Status::OK();
}

std::vector<TenantBalance> AnnotationStore::TenantBalances() const {
  std::vector<TenantBalance> out;
  {
    std::lock_guard<std::mutex> lock(ledgers_mu_);
    out.reserve(ledgers_.size());
    for (const LedgerEntry& entry : ledgers_) out.push_back(entry.balance);
  }
  std::sort(out.begin(), out.end(),
            [](const TenantBalance& a, const TenantBalance& b) {
              return a.tenant < b.tenant;
            });
  return out;
}

std::optional<TenantBalance> AnnotationStore::TenantBalanceFor(
    const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(ledgers_mu_);
  for (const LedgerEntry& entry : ledgers_) {
    if (entry.balance.tenant == tenant) return entry.balance;
  }
  return std::nullopt;
}

std::optional<std::vector<uint8_t>> AnnotationStore::LatestCheckpoint(
    uint64_t audit_id) const {
  // Copied out under the lock: any audit's first AppendCheckpoint can grow
  // `checkpoints_` and reallocate, so a pointer into an entry is unsafe to
  // hand across the lock boundary.
  std::lock_guard<std::mutex> lock(checkpoints_mu_);
  for (const CheckpointEntry& entry : checkpoints_) {
    if (entry.audit_id == audit_id) return entry.snapshot;
  }
  return std::nullopt;
}

double AnnotationStore::GarbageRatioLocked() const {
  if (file_bytes_ == 0) return 0.0;
  return static_cast<double>(garbage_bytes_) /
         static_cast<double>(file_bytes_);
}

double AnnotationStore::garbage_ratio() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return GarbageRatioLocked();
}

uint64_t AnnotationStore::file_bytes() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return file_bytes_;
}

uint64_t AnnotationStore::live_bytes() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return file_bytes_ - garbage_bytes_;
}

GroupCommitStats AnnotationStore::group_commit_stats() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return gc_stats_;
}

CompactionStats AnnotationStore::compaction_stats() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return compaction_stats_;
}

uint64_t AnnotationStore::num_labeled() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.labeled.size();
  }
  return total;
}

void AnnotationStore::MaybeAutoCompact() {
  if (options_.auto_compact_garbage_ratio <= 0.0) return;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    if (file_bytes_ < options_.auto_compact_min_bytes) return;
    if (GarbageRatioLocked() < options_.auto_compact_garbage_ratio) return;
  }
  // Best-effort: a failed compaction (injected or real) must never fail
  // the append that happened to trip the threshold — the store keeps
  // running on whichever log the failure left installed, and the next
  // threshold crossing retries.
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    ++compaction_stats_.auto_compactions;
  }
  (void)Compact();
}

Status AnnotationStore::Flush() {
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (!log_lost_.ok()) return log_lost_;
  return log_->Flush();
}

Status AnnotationStore::Sync() {
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (!log_lost_.ok()) return log_lost_;
  return log_->Sync();
}

Status AnnotationStore::wal_error() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (!log_lost_.ok()) return log_lost_;
  return log_->sticky_error();
}

bool StoredAnnotator::Annotate(const KgView& kg, const TripleRef& ref,
                               Rng* rng) {
  const std::optional<bool> stored = store_->Lookup(ref.cluster, ref.offset);
  if (stored.has_value()) {
    ++store_hits_;
    // Rng parity: consume what the inner annotator would have drawn, so
    // stored and bare runs share one random path bit for bit.
    inner_->BurnRngDraws(rng);
    return *stored;
  }
  const bool label = inner_->Annotate(kg, ref, rng);
  ++oracle_calls_;
  PersistLabel(ref, label);
  return label;
}

void StoredAnnotator::PersistLabel(const TripleRef& ref, bool label) {
  if (degraded_) {
    // Read-only mode: the label was still served to the evaluation, it
    // just is not durable. A resumed run re-judges it identically.
    ++labels_dropped_;
    return;
  }
  if (!status_.ok()) return;  // kFail already tripped; stop appending.
  uint64_t appended = 0;
  const Status append = RetryWithBackoff(
      options_.backoff,
      [&] {
        return store_->Append(audit_id_, ref.cluster, ref.offset, label,
                              &appended);
      },
      &retries_);
  if (append.ok()) {
    bytes_appended_ += appended;
    return;
  }
  if (IsTransientError(append) &&
      options_.on_store_error == StoreErrorPolicy::kDegrade) {
    degraded_ = true;
    degraded_cause_ = append;
    ++labels_dropped_;
    return;
  }
  // kFail, or a permanent error (conflicting label) under either policy.
  status_ = append;
}

uint32_t StoredAnnotator::AnnotateUnit(const KgView& kg, uint64_t cluster,
                                       std::span<const uint64_t> offsets,
                                       Rng* rng) {
  // Per-triple loop (the base-class contract): each offset is individually
  // a store hit or an inner judgment — a unit can be half-stored when a
  // previous audit drew an overlapping second stage.
  uint32_t correct = 0;
  for (const uint64_t offset : offsets) {
    correct += Annotate(kg, TripleRef{cluster, offset}, rng) ? 1 : 0;
  }
  return correct;
}

}  // namespace kgacc
