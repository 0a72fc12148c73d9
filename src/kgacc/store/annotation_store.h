#ifndef KGACC_STORE_ANNOTATION_STORE_H_
#define KGACC_STORE_ANNOTATION_STORE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "kgacc/eval/annotator.h"
#include "kgacc/store/log_format.h"
#include "kgacc/store/wal.h"
#include "kgacc/util/backoff.h"
#include "kgacc/util/codec.h"
#include "kgacc/util/flat_set.h"
#include "kgacc/util/status.h"

/// \file annotation_store.h
/// Durable annotation storage. Human labels are the expensive resource of
/// the whole framework — they arrive over days and cost real money — yet
/// the in-memory evaluation state forfeits them on any restart. The
/// `AnnotationStore` writes every judgment to a write-ahead log as a
/// `(triple, label, audit_id, seq)` record *before* the evaluation loop
/// consumes it, and keeps a sharded `FlatSet64`-backed index over the
/// labeled triples, so:
///
/// * a crashed audit resumes without re-paying a single judgment — the
///   resumed steps replay their labels from the store;
/// * a *second* audit over the same KG (different design, alpha, or seed)
///   reuses every overlapping label: already-labeled triples cost zero
///   oracle/human calls (`StoredAnnotator` hit counters assert this).
///
/// Checkpoint records interleave with the annotation records in the same
/// log (`AppendCheckpoint`), giving one self-contained durable artifact per
/// audit store — an LSM-lite log + checkpoint design with three structural
/// pieces on top of the plain WAL:
///
/// **Sharded index + group commit (concurrent writers).** The label index
/// is split across `kNumShards` lock-striped shards (hash of the packed
/// `(cluster, offset)` key), and every WAL write funnels through a
/// group-commit queue: writers enqueue their frame and block; one of them
/// becomes the commit leader, drains the queue, writes the whole batch
/// through `WriteAheadLog::AppendFrame`, and settles it under a single
/// flush — and a single fsync when any member asked for durability. A batch
/// of N concurrent appends therefore pays one fsync, not N, and multiple
/// `EvaluationService` jobs in one `RunBatch` can share one store. Index
/// and byte accounting updates are run by the leader under the commit
/// lock, in log frame order, after the log write succeeds — preserving the
/// log-first-index-second invariant and keeping in-memory state bitwise in
/// step with what replay would rebuild at every instant.
///
/// **Size-tiered compaction (bounded file size).** Checkpoints supersede
/// each other and duplicate appends can race into the log, so a long-lived
/// store accumulates garbage; `garbage_ratio()` tracks it bytewise.
/// `Compact()` (store/compaction.cc) rewrites the live label set plus the
/// latest checkpoint per audit into a fresh log sealed with a trailer
/// frame, fsyncs it, atomically renames it over the old file, fsyncs the
/// directory, and swaps the live WAL handle — the store's contents and
/// `next_seq` are byte-equivalent across the swap, so a post-compaction
/// resume is identical to an uncompacted one. Crash-safe at every phase:
/// before the rename the old log is untouched (a stale `.compact` temp is
/// deleted at the next `Open`); after it the new log is complete and
/// fsynced. Set `Options::auto_compact_garbage_ratio` to trigger it
/// automatically once enough garbage accumulates.
///
/// **One replay path, one layout per record.** `Open` reads the log in one
/// `pread` pass and rebuilds the index through `Replay`, the store's only
/// payload decoder; the offline verifier (`VerifyStoreLog`) decodes
/// through it too. Each payload is a record of store/log_format.h whose
/// one field list the append path and `Compact()` encode and `Replay`
/// decodes, and a settled frame reaches the index through the same
/// `Index*` update whether it was just appended or is being replayed.
///
/// Fault-injection sites (chaos tests): `store.append` fails an annotation
/// append and `store.checkpoint` a checkpoint append, both *before* the WAL
/// write — unlike a sticky WAL-level failure these heal when the armed
/// policy heals, which is what the retry/degradation machinery in
/// `StoredAnnotator` and `CheckpointManager` is built to absorb. Compaction
/// phases have their own sites (`store.compact.write`, `store.compact.sync`,
/// `store.compact.rename`, `store.compact.dirsync`); a failed compaction is
/// transient — the store keeps running on whichever log the failure left
/// installed.

namespace kgacc {

struct StoreVerifyInfo;

/// What a store write does once its retry budget is exhausted, for label
/// appends (`StoredAnnotator`) and checkpoint appends (`CheckpointManager`)
/// alike.
enum class StoreErrorPolicy {
  /// Stop persisting and keep auditing; `degraded()` reports it. Every
  /// judgment already in the WAL stays there, so a resume loses nothing
  /// but the dropped labels (re-judged) and resume granularity.
  kDegrade,
  /// Stick the error (`StoredAnnotator::status()`, the `CheckpointManager`
  /// return); `DurableAudit::Step` fails the audit with it.
  kFail,
};

/// Replayed-store accounting from `AnnotationStore::Open`.
struct AnnotationStoreStats {
  /// Annotation records replayed from the log.
  uint64_t records_replayed = 0;
  /// Checkpoint frames replayed (all audits).
  uint64_t checkpoints_replayed = 0;
  /// Tenant quota-ledger frames replayed (all tenants).
  uint64_t ledgers_replayed = 0;
  /// Compaction trailer frames replayed (1 when the log was last written
  /// by `Compact()`, 0 for a never-compacted log).
  uint64_t trailers_replayed = 0;
  /// WAL-level recovery accounting (torn-tail truncation).
  WalRecoveryInfo recovery;
};

/// Group-commit telemetry (cumulative since open). `syncs`/`batches` is the
/// fsync-per-batch figure the multi-writer bench records: well below 1.0
/// per frame means the queue is coalescing concurrent writers as designed.
struct GroupCommitStats {
  /// Leader rounds (each settles one batch of queued frames).
  uint64_t batches = 0;
  /// Frames committed through the queue.
  uint64_t frames = 0;
  /// Flush calls (one per batch).
  uint64_t flushes = 0;
  /// fsync calls (at most one per batch, only when a member asked).
  uint64_t syncs = 0;
  /// Largest single batch settled so far.
  uint64_t max_batch_frames = 0;
};

/// Compaction telemetry (cumulative since open).
struct CompactionStats {
  /// Completed compactions (manual + automatic).
  uint64_t compactions = 0;
  /// The subset triggered by `auto_compact_garbage_ratio`.
  uint64_t auto_compactions = 0;
  /// File size before/after the most recent completed compaction.
  uint64_t last_bytes_before = 0;
  uint64_t last_bytes_after = 0;
  /// Live records / checkpoints / tenant ledgers the most recent compaction
  /// rewrote.
  uint64_t last_records = 0;
  uint64_t last_checkpoints = 0;
  uint64_t last_ledgers = 0;
};

/// One tenant's durable spend totals: exactly what its ledger frame
/// carries. Cumulative since the tenant's first ledger frame (compaction
/// preserves the totals in a single live frame per tenant).
using TenantBalance = walfmt::LedgerRecord;

/// A durable, shareable label store over one WAL file. Thread-safe: lookups
/// probe a lock-striped shard, appends serialize through the group-commit
/// queue, so concurrent `EvaluationService` jobs may share one store within
/// a batch. Checkpoint frames are keyed by audit id; concurrent audits must
/// use distinct ids (`LatestCheckpoint` hands back a copy, so it is safe
/// against any concurrent checkpoint append, same audit or not).
class AnnotationStore {
 public:
  struct Options {
    /// fsync checkpoint frames. Annotation and ledger records are flushed
    /// to the OS per append and never fsynced on their own; a checkpoint's
    /// fsync also makes every frame written before it durable.
    bool sync_checkpoints = false;
    /// When positive, `Compact()` runs automatically after an append pushes
    /// `garbage_ratio()` past this fraction (checked once the file exceeds
    /// `auto_compact_min_bytes`). A failed auto-compaction never fails the
    /// append that triggered it; the next trigger retries.
    double auto_compact_garbage_ratio = 0.0;
    /// Floor below which auto-compaction never bothers.
    uint64_t auto_compact_min_bytes = 1 << 16;
  };

  /// Opens (creating if absent) the store at `path`, replaying the log into
  /// the in-memory index and retaining the latest checkpoint per audit id.
  /// Torn or corrupt tails are truncated per WAL semantics; a frame of
  /// unknown type is rejected (the store owns its log exclusively). A stale
  /// `.compact` temp file from a compaction the process died inside is
  /// deleted — the rename never happened, so the old log is authoritative.
  static Result<std::unique_ptr<AnnotationStore>> Open(
      const std::string& path, const Options& options);
  static Result<std::unique_ptr<AnnotationStore>> Open(
      const std::string& path) {
    return Open(path, Options{});
  }

  ~AnnotationStore();

  /// The stored label for a triple, or nullopt when it was never annotated.
  std::optional<bool> Lookup(uint64_t cluster, uint64_t offset) const;

  /// Durably records one judgment. Idempotent on the index (a re-appended
  /// triple keeps its first label; the framework never re-judges a stored
  /// triple, so a conflicting append indicates a caller bug and is
  /// rejected). When `appended_bytes` is non-null it receives the exact
  /// on-disk bytes this call added to the log (0 for an idempotent no-op),
  /// so callers can meter store-byte quotas without re-deriving the frame
  /// encoding.
  Status Append(uint64_t audit_id, uint64_t cluster, uint64_t offset,
                bool label, uint64_t* appended_bytes = nullptr);

  /// Interleaves a checkpoint record into the log, replacing this audit's
  /// previous checkpoint as the resume point. `appended_bytes` as in
  /// `Append`.
  Status AppendCheckpoint(uint64_t audit_id, std::span<const uint8_t> snapshot,
                          uint64_t* appended_bytes = nullptr);

  /// Durably charges spend to a tenant by writing one cumulative ledger
  /// frame (`deltas` are added to the tenant's current balance and the new
  /// *totals* are what hits the log — replay is latest-wins, so a frame
  /// lost to a crash is healed by the next append rather than silently
  /// double-counted). Routed through the same group-commit queue as
  /// annotation appends and gated on the same `store.append` failpoint;
  /// the in-memory balance is updated only after the frame is settled, so
  /// `TenantBalances()` never reports spend the log cannot replay.
  Status AppendTenantSpend(const std::string& tenant, uint64_t oracle_delta,
                           uint64_t store_bytes_delta);

  /// Current balances for every tenant with at least one ledger frame,
  /// sorted by tenant id (copy — safe against concurrent appends).
  std::vector<TenantBalance> TenantBalances() const;

  /// The current balance for one tenant; nullopt when it never spent.
  std::optional<TenantBalance> TenantBalanceFor(const std::string& tenant) const;

  /// The latest replayed-or-appended checkpoint for `audit_id`; nullopt
  /// when the audit never checkpointed (fresh start). Returned by value —
  /// a copy taken under the checkpoint lock — so it stays valid whatever
  /// concurrent audits append (a pointer into the registry would dangle
  /// the moment another audit's first checkpoint grew the vector).
  std::optional<std::vector<uint8_t>> LatestCheckpoint(uint64_t audit_id) const;

  /// Rewrites the live label set plus the latest checkpoint per audit into
  /// a fresh log and atomically installs it (see the file comment). On
  /// failure before the rename the store keeps running on the old log; a
  /// post-rename directory-sync failure is reported but the new log is
  /// already installed and in use. Blocks new commits for the duration;
  /// safe to call concurrently with appends and lookups.
  Status Compact();

  /// Fraction of the log file occupied by superseded frames (old
  /// checkpoints, duplicate appends): 0 right after compaction, growing
  /// toward 1 as checkpoints replace each other.
  double garbage_ratio() const;

  /// Exact on-disk log size (header + every frame appended).
  uint64_t file_bytes() const;
  /// Bytes of the file still live (file_bytes - superseded frames).
  uint64_t live_bytes() const;

  GroupCommitStats group_commit_stats() const;
  CompactionStats compaction_stats() const;

  /// Distinct triples with a stored label.
  uint64_t num_labeled() const;
  /// Next record sequence number (monotone across reopens — compaction
  /// carries it through the trailer frame).
  uint64_t next_seq() const { return next_seq_; }
  const AnnotationStoreStats& stats() const { return stats_; }
  const std::string& path() const { return path_; }

  Status Flush();
  Status Sync();

  /// The WAL's sticky error — non-OK once the underlying log fails
  /// permanently (every subsequent append will fail). Long-lived drivers
  /// (the audit daemon) distinguish this from transient degradation: a
  /// sticky WAL fails the session, never the process. A successful
  /// `Compact()` installs a fresh log and clears the condition — the index
  /// only ever holds acknowledged records, so rewriting it is a recovery.
  Status wal_error() const;

 private:
  /// Lock-striped index shards: a power of two so the mixed key selects a
  /// shard with a mask. 16 stripes keep cross-writer contention negligible
  /// at service-batch concurrency while staying cheap to enumerate.
  static constexpr size_t kNumShards = 16;

  struct Shard {
    mutable std::mutex mu;
    /// Membership = "this triple has a stored label"; `correct` holds the
    /// subset labeled correct — together a boolean map without per-entry
    /// boxes, probed once per annotation on the hot path.
    FlatSet64 labeled;
    FlatSet64 correct;
  };

  struct CheckpointEntry {
    uint64_t audit_id = 0;
    std::vector<uint8_t> snapshot;
    /// On-disk size of the frame currently holding this checkpoint, so a
    /// replacement knows how many bytes it turned into garbage.
    uint64_t frame_bytes = 0;
  };

  struct LedgerEntry {
    TenantBalance balance;
    /// On-disk size of the live frame holding this balance (for garbage
    /// accounting when a newer cumulative frame supersedes it).
    uint64_t frame_bytes = 0;
  };

  /// One queued WAL write: the requester blocks until a commit leader
  /// settles it and reports the per-frame status. The leader also runs
  /// `apply` (the requester's index/accounting update) under the commit
  /// lock, in batch order — see CommitFrame for why the leader, not the
  /// requester, must do this. The pointer targets a live stack frame: the
  /// requester cannot unblock before `done` is set.
  struct Commit {
    uint8_t type = 0;
    std::span<const uint8_t> payload;
    bool sync = false;
    const std::function<void()>* apply = nullptr;
    Status status;
    bool done = false;
  };

  explicit AnnotationStore(const Options& options) : options_(options) {}

  static uint64_t Key(uint64_t cluster, uint64_t offset);
  Shard& ShardFor(uint64_t key);
  const Shard& ShardFor(uint64_t key) const;

  /// A settled frame's index update, for appends and replay alike. A
  /// superseded frame's bytes become garbage; `IndexLabel` returns the
  /// stored label, which a racing earlier record wins.
  bool IndexLabel(uint64_t key, bool label, uint64_t frame_bytes);
  void IndexCheckpoint(uint64_t audit_id, std::span<const uint8_t> snapshot,
                       uint64_t frame_bytes);
  void IndexLedger(TenantBalance balance, uint64_t frame_bytes);

  /// Decodes one replayed frame's payload into the index, checkpoints,
  /// ledgers and byte accounting; a compaction trailer is checked against
  /// everything replayed before it. Open-time only (single-threaded).
  Status Replay(uint8_t type, std::span<const uint8_t> payload);
  /// Decodes a log through `Replay` into a scratch store.
  friend Result<StoreVerifyInfo> VerifyStoreLog(const std::string& path);

  /// Routes one frame through the group-commit queue. On success the
  /// commit *leader* runs `apply` (index/accounting update) under the
  /// commit lock, in log frame order, before any batch member unblocks —
  /// so the in-memory winner of a racing key always matches what replay
  /// produces, and a concurrent `Compact()` (which drains the queue and
  /// takes the same lock) always observes index and accounting in step
  /// with the log.
  Status CommitFrame(uint8_t type, std::span<const uint8_t> payload,
                     bool sync, const std::function<void()>& apply);

  /// Runs `Compact()` when auto-compaction is configured and the garbage
  /// ratio crossed the threshold. Never surfaces a failure.
  void MaybeAutoCompact();

  double GarbageRatioLocked() const;

  Options options_;
  std::string path_;
  std::unique_ptr<WriteAheadLog> log_;
  std::array<Shard, kNumShards> shards_;
  std::atomic<uint64_t> next_seq_{0};

  /// Latest checkpoint per audit id (a handful of audits per store; linear
  /// scan beats a map). Guarded by `checkpoints_mu_`.
  mutable std::mutex checkpoints_mu_;
  std::vector<CheckpointEntry> checkpoints_;

  /// Latest cumulative balance per tenant (same shape as the checkpoint
  /// registry: a handful of tenants per store, linear scan). Guarded by
  /// `ledgers_mu_`.
  mutable std::mutex ledgers_mu_;
  std::vector<LedgerEntry> ledgers_;
  /// Serializes AppendTenantSpend calls: a ledger frame carries the *total*
  /// balance, so read-balance → encode → commit must be atomic per store or
  /// two concurrent spends for one tenant would both encode the same base
  /// and one delta would be lost.
  std::mutex ledger_append_mu_;

  /// Group-commit queue state; `commit_mu_` also guards `log_` itself
  /// between leader rounds and the byte accounting below.
  mutable std::mutex commit_mu_;
  std::condition_variable commit_cv_;
  std::vector<Commit*> commit_queue_;
  bool leader_active_ = false;
  /// Set only if compaction installed a new log but could not reopen it
  /// (fd exhaustion class): the store then refuses every later write
  /// instead of acknowledging labels into nothing.
  Status log_lost_;
  GroupCommitStats gc_stats_;
  CompactionStats compaction_stats_;
  /// Exact on-disk bytes (header + all frames) and the subset superseded.
  uint64_t file_bytes_ = 0;
  uint64_t garbage_bytes_ = 0;

  /// Running chained CRC over replayed frame payloads, consumed by the
  /// compaction-trailer integrity check during `Open` replay.
  Crc32cChain replay_crc_;

  AnnotationStoreStats stats_;
};

/// Annotator decorator that consults the store before paying the inner
/// oracle/human: stored triples are answered from the index (zero inner
/// calls — the saved judgments are exactly what the store exists to avoid
/// re-buying); misses are delegated and durably appended before being
/// returned. Wrap the production annotator with it and pass the result to
/// the session/service as usual. Distinct `StoredAnnotator` instances (one
/// per job) may share one `AnnotationStore` concurrently; the instance
/// itself belongs to its job's thread.
///
/// Rng parity: a hit consumes exactly the draws the inner annotator would
/// have made (`Annotator::BurnRngDraws`), so a store-backed run follows the
/// bare run's random path bit for bit even with *stochastic* simulation
/// annotators (Noisy, MajorityVote). Checkpoint resume depends on it: it
/// replays steps whose labels all come from the store. The deterministic
/// annotators (Oracle, Interactive/human) never touch the Rng, so for them
/// the burn is a no-op.
///
/// Failure semantics: a transient append failure (I/O error) is retried
/// with bounded seeded backoff; an exhausted budget is governed by
/// `Options::on_store_error`. Under `StoreErrorPolicy::kDegrade` (default)
/// the annotator enters *degraded read-only mode*: stored labels keep
/// serving from the index, new judgments still delegate to the inner
/// annotator but are no longer appended (`labels_dropped` counts them),
/// `status()` stays OK and `degraded()` / `degraded_cause()` report the
/// downgrade. Permanent errors (a conflicting label → FailedPrecondition)
/// are caller bugs: never retried, always sticky in `status()` regardless
/// of policy.
class StoredAnnotator final : public Annotator {
 public:
  struct Options {
    /// Exhausted-retry policy for store writes (see the class comment).
    StoreErrorPolicy on_store_error = StoreErrorPolicy::kDegrade;
    /// Retry schedule for transient append failures.
    BackoffPolicy backoff{};
  };

  /// All three pointers must outlive the annotator.
  StoredAnnotator(Annotator* inner, AnnotationStore* store, uint64_t audit_id,
                  const Options& options)
      : inner_(inner),
        store_(store),
        audit_id_(audit_id),
        options_(options) {}
  StoredAnnotator(Annotator* inner, AnnotationStore* store, uint64_t audit_id)
      : StoredAnnotator(inner, store, audit_id, Options{}) {}

  bool Annotate(const KgView& kg, const TripleRef& ref, Rng* rng) override;
  uint32_t AnnotateUnit(const KgView& kg, uint64_t cluster,
                        std::span<const uint64_t> offsets, Rng* rng) override;
  int JudgmentsPerTriple() const override {
    return inner_->JudgmentsPerTriple();
  }

  /// Triples answered from the store (no inner call).
  uint64_t store_hits() const { return store_hits_; }
  /// Triples delegated to the inner annotator (and appended).
  uint64_t oracle_calls() const { return oracle_calls_; }

  /// First store-append failure, sticky (the `Annotator` interface cannot
  /// surface a Status per judgment; durable drivers check this after the
  /// run — a non-OK value means the reported labels outran the log). Stays
  /// OK in degrade mode; check `degraded()` too.
  const Status& status() const { return status_; }

  /// True once the annotator dropped into degraded read-only mode.
  bool degraded() const override { return degraded_; }
  /// The degradation cause as the uniform `Annotator` surface, so sessions
  /// and reports describe the downgrade without knowing about stores.
  std::string degradation_note() const override {
    return degraded_ ? degraded_cause_.ToString() : std::string();
  }
  /// The exhausted error that triggered degradation (OK when healthy).
  const Status& degraded_cause() const { return degraded_cause_; }
  /// Append retries performed across all judgments.
  uint64_t retries() const { return retries_; }
  /// Judgments delegated but not persisted because the store was degraded.
  uint64_t labels_dropped() const { return labels_dropped_; }
  /// Exact on-disk bytes this annotator's appends added to the store —
  /// what a per-tenant store-byte quota meters.
  uint64_t bytes_appended() const { return bytes_appended_; }

  /// Drops the annotator into the same degraded read-only mode an
  /// exhausted write-retry budget produces, from the outside: used when a
  /// tenant's store-byte quota runs out mid-audit — stored labels keep
  /// serving, misses still delegate but are no longer persisted
  /// (`labels_dropped` counts them), and the audit continues. Idempotent.
  void ForceDegrade(const Status& cause) {
    if (degraded_) return;
    degraded_ = true;
    degraded_cause_ = cause;
  }

 private:
  /// Persists one miss's label, applying retry/degradation policy.
  void PersistLabel(const TripleRef& ref, bool label);

  Annotator* inner_;
  AnnotationStore* store_;
  uint64_t audit_id_;
  Options options_;
  uint64_t store_hits_ = 0;
  uint64_t oracle_calls_ = 0;
  Status status_;
  bool degraded_ = false;
  Status degraded_cause_;
  uint64_t retries_ = 0;
  uint64_t labels_dropped_ = 0;
  uint64_t bytes_appended_ = 0;
};

}  // namespace kgacc

#endif  // KGACC_STORE_ANNOTATION_STORE_H_
