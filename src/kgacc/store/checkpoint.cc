#include "kgacc/store/checkpoint.h"

#include <algorithm>
#include <csignal>
#include <span>
#include <string>
#include <utility>

#include "kgacc/util/codec.h"
#include "kgacc/util/failpoint.h"

namespace kgacc {

namespace {

/// Bump when the checkpoint record changes; a record of another version is
/// rejected outright (no cross-version migration — checkpoints are working
/// state, not archival data).
///
/// v1-v4 serialized the whole session (RNG, sampler bookkeeping, streaming
/// estimator, annotated sample, HPD warm carry, partial result).
/// v5: the record is the session fingerprint plus the completed step count,
///     and resume replays that many steps from the stored labels. Nothing
///     of a v1-v4 payload is readable as v5, so those fail the gate.
/// v6: the fingerprint drops the HPD solver byte, the ET warm-start bool and
///     the external-start fields; the library has one HPD solve path.
/// v7: the fingerprint drops the minimum sample, the c1 and c2 costs and the
///     design-effect clamp, which are constants of the library now.
constexpr uint8_t kSessionSnapshotVersion = 7;

/// The checkpoint record: version, completed steps, then the session
/// fingerprint to the end.
struct SnapshotRecord {
  uint8_t version = kSessionSnapshotVersion;
  uint64_t steps = 0;
  std::span<const uint8_t> fingerprint;

  static void Fields(auto& r, auto& c) {
    c.U8(r.version);
    c.Check(r.version == kSessionSnapshotVersion, [&] {
      return Status::InvalidArgument(
          "session snapshot version " + std::to_string(int(r.version)) +
          " is incompatible with this build (expects version " +
          std::to_string(int(kSessionSnapshotVersion)) +
          "); the audit must restart rather than resume");
    });
    c.Varint(r.steps);
    c.Rest(r.fingerprint);
  }
};

}  // namespace

CheckpointManager::CheckpointManager(AnnotationStore* store, uint64_t audit_id,
                                     const CheckpointOptions& options)
    : store_(store), audit_id_(audit_id), options_(options) {
  options_.every_steps = std::max<uint64_t>(options_.every_steps, 1);
}

Status CheckpointManager::OnStep(const EvaluationSession& session) {
  const uint64_t steps = static_cast<uint64_t>(session.iterations());
  if (steps == 0 || steps % options_.every_steps != 0) return Status::OK();
  return Checkpoint(session);
}

Status CheckpointManager::Checkpoint(const EvaluationSession& session) {
  if (degraded_) return Status::OK();  // Snapshotting was abandoned.
  const uint64_t steps = static_cast<uint64_t>(session.iterations());
  // The store already resumes to this step count; another record would only
  // cost a frame (and an fsync under sync_checkpoints).
  if (last_steps_ == steps) return Status::OK();
  ByteWriter fingerprint;
  session.EncodeFingerprint(&fingerprint);
  ByteWriter snapshot;
  EncodeFields(SnapshotRecord{.steps = steps,
                              .fingerprint = fingerprint.span()},
               &snapshot);
  uint64_t frame_bytes = 0;
  const Status appended = RetryWithBackoff(
      options_.backoff,
      [&] {
        return store_->AppendCheckpoint(audit_id_, snapshot.span(),
                                        &frame_bytes);
      },
      &retries_);
  if (appended.ok()) {
    ++checkpoints_written_;
    last_steps_ = steps;
    bytes_appended_ += frame_bytes;
    return Status::OK();
  }
  if (IsTransientError(appended) &&
      options_.on_store_error == StoreErrorPolicy::kDegrade) {
    degraded_ = true;
    degraded_cause_ = appended;
    return Status::OK();
  }
  return appended;
}

bool CheckpointManager::CanResume() const {
  return store_->LatestCheckpoint(audit_id_).has_value();
}

Status CheckpointManager::Resume(EvaluationSession* session) {
  // The record arrives by value: other audits on a shared store (daemon
  // worker threads) may append their own checkpoints while this one loads.
  const std::optional<std::vector<uint8_t>> snapshot =
      store_->LatestCheckpoint(audit_id_);
  if (!snapshot.has_value()) {
    return Status::FailedPrecondition(
        "no checkpoint stored for this audit id");
  }
  if (session->iterations() != 0 || session->done()) {
    return Status::FailedPrecondition(
        "resume replays into a fresh session; this one has already stepped");
  }
  KGACC_ASSIGN_OR_RETURN(
      const SnapshotRecord record,
      DecodeFields<SnapshotRecord>(*snapshot, "checkpoint snapshot"));
  ByteWriter live;
  session->EncodeFingerprint(&live);
  if (!std::ranges::equal(record.fingerprint, live.span())) {
    return Status::InvalidArgument(
        "session snapshot fingerprint does not match this session's design, "
        "configuration, or seed");
  }
  // Replay: the session is a deterministic function of its fingerprint and
  // its labels, and its annotator serves every label these steps drew the
  // first time from the store, at zero oracle cost.
  for (uint64_t step = 0; step < record.steps; ++step) {
    if (session->done()) {
      return Status::InvalidArgument(
          "checkpoint records " + std::to_string(record.steps) +
          " steps but the audit ends after " + std::to_string(step));
    }
    KGACC_RETURN_IF_ERROR(session->Step().status());
  }
  last_steps_ = record.steps;
  return Status::OK();
}

DurableAudit::DurableAudit(Sampler& sampler, Annotator* inner,
                           AnnotationStore* store, uint64_t audit_id,
                           const EvaluationConfig& config, uint64_t seed,
                           const Options& options)
    : store_(store),
      annotator_(inner, store, audit_id,
                 StoredAnnotator::Options{
                     .on_store_error = options.on_store_error}),
      session_(sampler, annotator_, config, seed),
      checkpoints_(store, audit_id,
                   CheckpointOptions{
                       .every_steps = options.checkpoint_every,
                       .on_store_error = options.on_store_error}) {}

Status DurableAudit::Resume() {
  KGACC_RETURN_IF_ERROR(checkpoints_.Resume(&session_));
  replayed_hits_ = annotator_.store_hits();
  if (!annotator_.status().ok()) {
    return Failed("annotation store append failed", annotator_.status());
  }
  return Status::OK();
}

Result<StepOutcome> DurableAudit::Step() {
  const Result<StepOutcome> outcome = session_.Step();
  if (!outcome.ok()) return Failed("evaluation step failed", outcome.status());
  // Fail before checkpointing a step whose labels never reached the log:
  // a checkpoint must not certify state the WAL cannot replay.
  if (!annotator_.status().ok()) {
    return Failed("annotation store append failed", annotator_.status());
  }
  if (FailpointHit("audit.kill")) std::raise(SIGKILL);
  const Status checkpointed = checkpoints_.OnStep(session_);
  if (!checkpointed.ok()) return Failed("checkpoint failed", checkpointed);
  return outcome;
}

Result<EvaluationResult> DurableAudit::Run() {
  if (checkpoints_.CanResume() && session_.iterations() == 0 &&
      !session_.done()) {
    KGACC_RETURN_IF_ERROR(Resume());
  }
  while (!session_.done()) KGACC_RETURN_IF_ERROR(Step().status());
  return session_.Finish();
}

Status DurableAudit::Checkpoint() { return checkpoints_.Checkpoint(session_); }

std::string DurableAudit::degradation_note() const {
  if (annotator_.degraded()) return annotator_.degradation_note();
  if (checkpoints_.degraded()) return checkpoints_.degraded_cause().ToString();
  return std::string();
}

Status DurableAudit::Failed(const char* what, const Status& cause) const {
  std::string message = std::string(what) + ": " + cause.ToString();
  const Status wal = store_->wal_error();
  if (!wal.ok()) {
    message += " (annotation WAL sticky-failed: " + wal.ToString() + ")";
  }
  return Status(cause.code(), std::move(message));
}

}  // namespace kgacc
