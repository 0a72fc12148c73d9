#ifndef KGACC_STORE_CHECKPOINT_H_
#define KGACC_STORE_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <string>

#include "kgacc/eval/session.h"
#include "kgacc/store/annotation_store.h"
#include "kgacc/util/status.h"

/// \file checkpoint.h
/// Durable audits. `DurableAudit` is the one durable driver: the only code
/// that steps a store-backed session, in `kgacc_audit --store` and in
/// `kgaccd`. Its `CheckpointManager` interleaves periodic checkpoint
/// records with the annotation WAL, and resumes from the latest one on
/// recovery. A session is a deterministic function of its seed, its
/// configuration and its labels, and the labels are the only costly part,
/// so a checkpoint stores no session state: it is the session's identity
/// fingerprint (`EvaluationSession::EncodeFingerprint`) and its completed
/// step count. The division of labor with the store:
///
/// * every judgment is in the WAL the moment it is made (never lost);
/// * resume checks the fingerprint, then re-executes the recorded steps
///   on a fresh session. The session's `StoredAnnotator` serves their
///   labels from the store at zero oracle cost; the few steps after the
///   checkpoint re-execute the same way, landing on the byte-identical
///   report the uninterrupted run would have produced.
///
/// A record is a few dozen bytes whatever the audit's length, so
/// `every_steps = 1` costs one small frame per batch; a cadence of N only
/// moves where the durable step count lags, by at most N-1 steps.

namespace kgacc {

/// Snapshot cadence and durability for one audit's checkpoints.
struct CheckpointOptions {
  /// Snapshot after every N-th completed step (>= 1).
  uint64_t every_steps = 1;
  /// Exhausted-retry policy for snapshot appends; degrading stops
  /// checkpointing, and recovery recomputes from the last good snapshot.
  StoreErrorPolicy on_store_error = StoreErrorPolicy::kDegrade;
  /// Retry schedule for transient snapshot-append failures.
  BackoffPolicy backoff{};
};

/// Drives checkpointing for one (session, store, audit_id) binding. The
/// session and store must outlive the manager.
class CheckpointManager {
 public:
  CheckpointManager(AnnotationStore* store, uint64_t audit_id,
                    const CheckpointOptions& options = {});

  /// Step hook: checkpoints the session when its step count hits the
  /// cadence.
  /// Call after every successful `Step()` (or install via
  /// `EvaluationJob::on_step`).
  Status OnStep(const EvaluationSession& session);

  /// Checkpoints the session now, unless the last record this manager
  /// wrote or resumed from already holds its step count.
  Status Checkpoint(const EvaluationSession& session);

  /// True when the store holds a checkpoint for this audit id.
  bool CanResume() const;

  /// Brings a fresh `session` to the stored checkpoint by replay: checks
  /// that its fingerprint equals the stored one byte for byte, then calls
  /// `Step()` the recorded number of times. Build the session over the
  /// same design, configuration and seed, with a `StoredAnnotator` on this
  /// store and audit id so the replayed steps read their labels back.
  /// FailedPrecondition when there is nothing to resume from or the
  /// session already stepped; InvalidArgument for another record version,
  /// a fingerprint mismatch, or an audit that ends before the count.
  Status Resume(EvaluationSession* session);

  uint64_t checkpoints_written() const { return checkpoints_written_; }
  /// Exact on-disk bytes this manager's snapshot appends added to the
  /// store — the checkpoint half of a tenant's store-byte metering.
  uint64_t bytes_appended() const { return bytes_appended_; }

  /// True once snapshotting was abandoned after an exhausted retry budget
  /// (`StoreErrorPolicy::kDegrade` only). The audit keeps running without
  /// it.
  bool degraded() const { return degraded_; }
  /// The exhausted error that stopped checkpointing (OK while healthy).
  const Status& degraded_cause() const { return degraded_cause_; }
  /// Snapshot-append retries performed over the manager's lifetime.
  uint64_t retries() const { return retries_; }

 private:
  AnnotationStore* store_;
  uint64_t audit_id_;
  CheckpointOptions options_;
  uint64_t checkpoints_written_ = 0;
  /// Step count of the last record written or resumed from.
  std::optional<uint64_t> last_steps_;
  uint64_t bytes_appended_ = 0;
  bool degraded_ = false;
  Status degraded_cause_;
  uint64_t retries_ = 0;
};

/// One store-backed audit: a `StoredAnnotator` over the inner annotator,
/// an `EvaluationSession` on it, and a `CheckpointManager`, all on one
/// (store, audit id). The sampler, inner annotator and store must outlive
/// it.
class DurableAudit {
 public:
  struct Options {
    /// Checkpoint after every N-th completed step (>= 1).
    uint64_t checkpoint_every = 1;
    /// Exhausted-retry policy for both label and checkpoint appends.
    StoreErrorPolicy on_store_error = StoreErrorPolicy::kDegrade;
  };

  DurableAudit(Sampler& sampler, Annotator* inner, AnnotationStore* store,
               uint64_t audit_id, const EvaluationConfig& config,
               uint64_t seed, const Options& options);
  DurableAudit(Sampler& sampler, Annotator* inner, AnnotationStore* store,
               uint64_t audit_id, const EvaluationConfig& config,
               uint64_t seed)
      : DurableAudit(sampler, inner, store, audit_id, config, seed,
                     Options{}) {}

  DurableAudit(const DurableAudit&) = delete;
  DurableAudit& operator=(const DurableAudit&) = delete;

  /// Replays the stored checkpoint into the fresh session
  /// (`CheckpointManager::Resume`), then fails with the append error if
  /// the store refused a label the replay had to buy.
  Status Resume();

  /// One durable step, in the order that keeps a checkpoint from
  /// certifying labels the log lacks: step the session; fail with the
  /// append error if the store refused the step's labels; evaluate the
  /// `audit.kill` failpoint, which SIGKILLs the process here (the hard
  /// recovery case: labels on file, checkpoint not); checkpoint at the
  /// cadence. Errors name what failed and carry a sticky WAL error as a
  /// suffix.
  Result<StepOutcome> Step();

  /// Resumes when the store holds a checkpoint for a fresh session, steps
  /// until done, and finalizes: the durable equivalent of
  /// `EvaluationSession::Run`.
  Result<EvaluationResult> Run();

  /// Checkpoints now (`CheckpointManager::Checkpoint`).
  Status Checkpoint();

  EvaluationSession& session() { return session_; }
  StoredAnnotator& annotator() { return annotator_; }
  const CheckpointManager& checkpoints() const { return checkpoints_; }

  /// Labels or checkpoints stopped persisting after exhausted retries.
  bool degraded() const {
    return annotator_.degraded() || checkpoints_.degraded();
  }
  /// The cause of the first degradation (labels before checkpoints);
  /// empty while healthy.
  std::string degradation_note() const;
  /// Label- and checkpoint-append retries.
  uint64_t retries() const {
    return annotator_.retries() + checkpoints_.retries();
  }
  /// Exact on-disk bytes the audit's label and checkpoint appends added.
  uint64_t bytes_appended() const {
    return annotator_.bytes_appended() + checkpoints_.bytes_appended();
  }
  /// Store hits served by `Resume`'s replay, so a report can count only
  /// the steps this process ran.
  uint64_t replayed_hits() const { return replayed_hits_; }

 private:
  /// `cause` prefixed with what failed, plus the WAL's sticky error.
  Status Failed(const char* what, const Status& cause) const;

  AnnotationStore* store_;
  StoredAnnotator annotator_;
  EvaluationSession session_;
  CheckpointManager checkpoints_;
  uint64_t replayed_hits_ = 0;
};

}  // namespace kgacc

#endif  // KGACC_STORE_CHECKPOINT_H_
