#ifndef KGACC_NET_PROTOCOL_H_
#define KGACC_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "kgacc/eval/evaluator.h"
#include "kgacc/net/frame.h"
#include "kgacc/util/codec.h"
#include "kgacc/util/status.h"

/// \file protocol.h
/// Message vocabulary of the kgaccd audit protocol, one struct per frame
/// type with bidirectional codec (Encode into a payload, Decode from one).
/// All integers travel as varints, all doubles as IEEE-754 bit patterns —
/// the same bit-exact discipline as the checkpoint codec, because the
/// final-report frame must render byte-identically on the client to what
/// an uninterrupted local run would have printed.
///
/// Conversation shape:
///
///   client                          daemon
///   ------                          ------
///   Hello                     -->
///                             <--   HelloAck (or Busy and close)
///   OpenAudit                 -->
///                             <--   AuditOpened | Busy | Error
///   StepBatch(n)              -->
///                             <--   IntervalUpdate   (after every step)
///                             <--   ...
///                             <--   AuditReport      (once done)
///   Heartbeat                 -->
///                             <--   HeartbeatAck
///
/// The daemon may interleave `Error` (session- or connection-scoped) and
/// `Drain` (shutting down; reconnect later) at any point. Every reply
/// carries the audit id it concerns, so one connection can multiplex
/// several audits.

namespace kgacc {

/// First four payload bytes of a Hello frame.
inline constexpr uint32_t kNetMagic = 0x4b474143;  // "KGAC"
/// Protocol revision; bumped on incompatible changes. v2 added the tenant
/// id to Hello and the QuotaExceeded frame; a v1 Hello (no tenant field)
/// still decodes — the daemon maps it to the default tenant.
inline constexpr uint64_t kNetVersion = 2;

/// Frame type bytes. Values are wire format — append only, never renumber.
enum class MessageType : uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kOpenAudit = 3,
  kAuditOpened = 4,
  kStepBatch = 5,
  kIntervalUpdate = 6,
  kAuditReport = 7,
  kCloseAudit = 8,
  kHeartbeat = 9,
  kHeartbeatAck = 10,
  kBusy = 11,
  kError = 12,
  kDrain = 13,
  kQuotaExceeded = 14,
};

/// Stable name for a frame type ("OpenAudit"), for diagnostics.
const char* MessageTypeName(uint8_t type);

/// Client greeting: proves the peer speaks this protocol before anything
/// else is interpreted.
struct HelloMsg {
  uint32_t magic = kNetMagic;
  uint64_t version = kNetVersion;
  /// Tenant this connection bills against. Empty (a v1 client, or one that
  /// never asked) maps to the daemon's default tenant.
  std::string tenant;
};

/// Server reply to Hello: advertised liveness parameters the client should
/// honor (send a heartbeat at least every `heartbeat_interval_ms` of idle
/// time; the server reaps peers silent for `idle_timeout_ms`).
struct HelloAckMsg {
  uint64_t version = kNetVersion;
  bool draining = false;
  uint64_t heartbeat_interval_ms = 5000;
  uint64_t idle_timeout_ms = 30000;
};

/// Opens (or reattaches/resumes) one audit session on the daemon.
struct OpenAuditMsg {
  /// Session key: the unit of sharding, durability, and reconnection.
  uint64_t audit_id = 0;
  /// Registered population to audit (daemon-side `--kg` name).
  std::string kg_name;
  /// Sampling design: srs|twcs|wcs|rcs|ssrs|sys.
  std::string design = "srs";
  /// Interval method: ahpd|hpd|et|wilson|wald|cp.
  std::string method = "ahpd";
  double alpha = 0.05;
  double epsilon = 0.05;
  uint64_t seed = 42;
  /// TWCS second-stage size.
  uint64_t twcs_m = 3;
  /// Session snapshot cadence in steps (>= 1).
  uint64_t checkpoint_every = 1;
  /// Hard per-session step budget (0 = server default / unlimited).
  uint64_t max_steps = 0;
  /// Wall-clock budget in seconds from open/resume (0 = none).
  double deadline_seconds = 0.0;
  /// Resume from the store's checkpoint when one exists (a fresh audit id
  /// simply starts at step 0 either way).
  bool resume = true;
};

/// Reply to OpenAudit.
struct AuditOpenedMsg {
  uint64_t audit_id = 0;
  /// The session was restored from a durable checkpoint (or reattached to
  /// a live session another connection abandoned).
  bool resumed = false;
  /// Step count the session continues from (0 for a fresh audit).
  uint64_t start_step = 0;
  /// Labels already in this audit's store.
  uint64_t labels_on_file = 0;
  /// Sampler and dataset names, for client-side report rendering.
  std::string design_name;
  std::string dataset_name;
};

/// Runs up to `steps` framework iterations of one audit. The daemon pushes
/// an IntervalUpdate after every completed step (the subscription — no
/// polling), then an AuditReport if the session converged or stopped.
struct StepBatchMsg {
  uint64_t audit_id = 0;
  uint64_t steps = 1;
};

/// Per-step convergence push: the point estimate and the current 1-alpha
/// interval after folding in one annotation batch.
struct IntervalUpdateMsg {
  uint64_t audit_id = 0;
  uint64_t step = 0;
  uint64_t annotated_triples = 0;
  double mu = 0.0;
  double lower = 0.0;
  double upper = 0.0;
  double moe = 0.0;
  bool done = false;
  uint8_t stop_reason = 0;
  /// The session's durable layer degraded to read-only persistence — the
  /// audit continues, but labels/checkpoints may no longer be persisted.
  bool degraded = false;
};

/// Final outcome of one audit: the full EvaluationResult (bit-exact) plus
/// the store accounting a durable client wants to display.
struct AuditReportMsg {
  uint64_t audit_id = 0;
  std::string design_name;
  std::string dataset_name;
  EvaluationResult result;
  /// Store accounting for this session's lifetime (on the daemon).
  uint64_t store_hits = 0;
  uint64_t oracle_calls = 0;
  uint64_t checkpoints_written = 0;
  uint64_t store_retries = 0;
  bool degraded = false;
  std::string degradation_note;
};

/// Detaches the connection from an audit (the session and its store stay
/// resumable on the daemon).
struct CloseAuditMsg {
  uint64_t audit_id = 0;
};

/// Liveness probe; the ack echoes the nonce.
struct HeartbeatMsg {
  uint64_t nonce = 0;
};

/// Explicit overload push-back — the admission-control answer that replaces
/// a silent hang. The client backs off and retries.
struct BusyMsg {
  uint64_t retry_after_ms = 50;
  std::string reason;
};

/// An error scoped to one audit (`fatal_to_session`) or to the whole
/// connection (`fatal_to_connection`; the daemon closes after sending).
struct ErrorMsg {
  uint8_t code = 0;  // StatusCode
  uint64_t audit_id = 0;
  bool fatal_to_session = false;
  bool fatal_to_connection = false;
  std::string message;

  Status ToStatus() const {
    return Status(static_cast<StatusCode>(code), message);
  }
};

/// Graceful-drain notice: the daemon stops admitting work, checkpoints
/// every live session, and exits. Clients reconnect to the restarted
/// daemon and resume.
struct DrainMsg {
  std::string message;
};

/// Hard quota rejection — the *non-retryable* counterpart of Busy. Busy
/// means "capacity will free up, back off and retry"; QuotaExceeded means
/// "this tenant's allowance is spent — retrying cannot help until an
/// operator raises the budget". Sent at OpenAudit admission (session cap,
/// exhausted budget) and mid-audit when the oracle budget runs out
/// (`fatal_to_session=false`: the session stays open, degraded to
/// store-hit-only annotation, and resumable).
struct QuotaExceededMsg {
  uint64_t audit_id = 0;  // 0 when the rejection is connection-scoped.
  /// Which quota tripped: "oracle_budget", "store_quota", "max_sessions".
  std::string quota;
  /// Remaining allowance under that quota at rejection time.
  uint64_t remaining = 0;
  /// The session was ended by this rejection (admission); false for the
  /// mid-audit budget-exhaustion push, where the session stays resumable.
  bool fatal_to_session = true;
  std::string message;

  Status ToStatus() const {
    return Status::QuotaExceeded(message.empty()
                                     ? "tenant quota exceeded: " + quota
                                     : message);
  }
};

/// Payload codecs. Encode appends to a fresh payload vector; Decode
/// consumes a payload span and rejects truncated or trailing bytes.
std::vector<uint8_t> EncodeHello(const HelloMsg& m);
std::vector<uint8_t> EncodeHelloAck(const HelloAckMsg& m);
std::vector<uint8_t> EncodeOpenAudit(const OpenAuditMsg& m);
std::vector<uint8_t> EncodeAuditOpened(const AuditOpenedMsg& m);
std::vector<uint8_t> EncodeStepBatch(const StepBatchMsg& m);
std::vector<uint8_t> EncodeIntervalUpdate(const IntervalUpdateMsg& m);
std::vector<uint8_t> EncodeAuditReport(const AuditReportMsg& m);
std::vector<uint8_t> EncodeCloseAudit(const CloseAuditMsg& m);
std::vector<uint8_t> EncodeHeartbeat(const HeartbeatMsg& m);
std::vector<uint8_t> EncodeHeartbeatAck(const HeartbeatMsg& m);
std::vector<uint8_t> EncodeBusy(const BusyMsg& m);
std::vector<uint8_t> EncodeError(const ErrorMsg& m);
std::vector<uint8_t> EncodeDrain(const DrainMsg& m);
std::vector<uint8_t> EncodeQuotaExceeded(const QuotaExceededMsg& m);

Result<HelloMsg> DecodeHello(std::span<const uint8_t> payload);
Result<HelloAckMsg> DecodeHelloAck(std::span<const uint8_t> payload);
Result<OpenAuditMsg> DecodeOpenAudit(std::span<const uint8_t> payload);
Result<AuditOpenedMsg> DecodeAuditOpened(std::span<const uint8_t> payload);
Result<StepBatchMsg> DecodeStepBatch(std::span<const uint8_t> payload);
Result<IntervalUpdateMsg> DecodeIntervalUpdate(
    std::span<const uint8_t> payload);
Result<AuditReportMsg> DecodeAuditReport(std::span<const uint8_t> payload);
Result<CloseAuditMsg> DecodeCloseAudit(std::span<const uint8_t> payload);
Result<HeartbeatMsg> DecodeHeartbeat(std::span<const uint8_t> payload);
Result<BusyMsg> DecodeBusy(std::span<const uint8_t> payload);
Result<ErrorMsg> DecodeError(std::span<const uint8_t> payload);
Result<DrainMsg> DecodeDrain(std::span<const uint8_t> payload);
Result<QuotaExceededMsg> DecodeQuotaExceeded(std::span<const uint8_t> payload);

/// Encodes a complete frame (header + payload + CRC) for a message.
template <typename EncodeFn, typename Msg>
std::vector<uint8_t> FrameOf(MessageType type, EncodeFn encode,
                             const Msg& m) {
  const std::vector<uint8_t> payload = encode(m);
  ByteWriter w;
  w.PutFrame(static_cast<uint8_t>(type), payload);
  return w.bytes();
}

}  // namespace kgacc

#endif  // KGACC_NET_PROTOCOL_H_
