#ifndef KGACC_STORE_CHECKPOINT_H_
#define KGACC_STORE_CHECKPOINT_H_

#include <cstdint>

#include "kgacc/eval/session.h"
#include "kgacc/store/annotation_store.h"
#include "kgacc/util/status.h"

/// \file checkpoint.h
/// Durable audits: `CheckpointManager` interleaves periodic checkpoint
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
  /// What to do when a snapshot append exhausts its retry budget.
  enum class OnError {
    /// Stop checkpointing, keep auditing: every judgment is still in the
    /// WAL, so the only loss is resume granularity — recovery recomputes
    /// from the last good snapshot at zero oracle cost. `degraded()`
    /// reports the downgrade.
    kDegrade,
    /// Surface the error from `OnStep`/`Checkpoint`; durable drivers abort.
    kFail,
  };

  /// Snapshot after every N-th completed step (>= 1).
  uint64_t every_steps = 1;
  /// Exhausted-retry policy for snapshot appends.
  OnError on_error = OnError::kDegrade;
  /// Retry schedule for transient snapshot-append failures.
  BackoffPolicy backoff;
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

  /// Unconditionally checkpoints the session now.
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
  Status Resume(EvaluationSession* session) const;

  uint64_t audit_id() const { return audit_id_; }
  uint64_t checkpoints_written() const { return checkpoints_written_; }
  /// Exact on-disk bytes this manager's snapshot appends added to the
  /// store — the checkpoint half of a tenant's store-byte metering.
  uint64_t bytes_appended() const { return bytes_appended_; }

  /// True once snapshotting was abandoned after an exhausted retry budget
  /// (OnError::kDegrade only). The audit keeps running without it.
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
  uint64_t bytes_appended_ = 0;
  bool degraded_ = false;
  Status degraded_cause_;
  uint64_t retries_ = 0;
};

/// Drives a session to completion under checkpoint protection: resumes from
/// the store when a checkpoint exists (unless the session already stepped),
/// then steps with `manager.OnStep` after every batch and finalizes. The
/// one-call durable equivalent of `EvaluationSession::Run`.
///
/// Pass the session's `StoredAnnotator` so its sticky append status is
/// checked every step: a judgment the WAL refused (I/O failure, label
/// conflict) fails the audit instead of letting the report silently outrun
/// its log. Omit it only when the annotator is not store-backed.
Result<EvaluationResult> RunDurableAudit(
    EvaluationSession& session, CheckpointManager& manager,
    const StoredAnnotator* annotator = nullptr);

}  // namespace kgacc

#endif  // KGACC_STORE_CHECKPOINT_H_
