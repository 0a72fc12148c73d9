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
/// Message vocabulary of the kgaccd audit protocol: one struct per frame
/// type, bound to its type byte (`kType`) and carrying its payload layout
/// as one field list (`Fields`, see util/codec.h) that both `FrameOf` and
/// `Decode<Msg>` run. All integers travel as varints, all doubles as
/// IEEE-754 bit patterns, because the final-report frame must render
/// byte-identically on the client to what an uninterrupted local run would
/// have printed.
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
/// id to Hello and the QuotaExceeded frame. The daemon answers any other
/// revision with a connection-fatal Error.
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

/// The status code an Error frame carries: any non-OK `StatusCode`.
Result<StatusCode> ErrorCodeFromByte(uint8_t byte);

/// Client greeting: proves the peer speaks this protocol before anything
/// else is interpreted.
struct HelloMsg {
  static constexpr MessageType kType = MessageType::kHello;
  uint32_t magic = kNetMagic;
  uint64_t version = kNetVersion;
  /// Tenant this connection bills against; empty maps to the daemon's
  /// default tenant.
  std::string tenant;

  static void Fields(auto& m, auto& c) {
    c.Fixed32(m.magic);
    c.Varint(m.version);
    c.String(m.tenant);
  }
};

/// Server reply to Hello: advertised liveness parameters the client should
/// honor (send a heartbeat at least every `heartbeat_interval_ms` of idle
/// time; the server reaps peers silent for `idle_timeout_ms`).
struct HelloAckMsg {
  static constexpr MessageType kType = MessageType::kHelloAck;
  uint64_t version = kNetVersion;
  bool draining = false;
  uint64_t heartbeat_interval_ms = 5000;
  uint64_t idle_timeout_ms = 30000;

  static void Fields(auto& m, auto& c) {
    c.Varint(m.version);
    c.Bool(m.draining);
    c.Varint(m.heartbeat_interval_ms);
    c.Varint(m.idle_timeout_ms);
  }
};

/// Opens (or reattaches/resumes) one audit session on the daemon.
struct OpenAuditMsg {
  static constexpr MessageType kType = MessageType::kOpenAudit;
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

  static void Fields(auto& m, auto& c) {
    c.Varint(m.audit_id);
    c.String(m.kg_name);
    c.String(m.design);
    c.String(m.method);
    c.Double(m.alpha);
    c.Double(m.epsilon);
    c.Varint(m.seed);
    c.Varint(m.twcs_m);
    c.Varint(m.checkpoint_every);
    c.Varint(m.max_steps);
    c.Double(m.deadline_seconds);
    c.Bool(m.resume);
  }
};

/// Reply to OpenAudit.
struct AuditOpenedMsg {
  static constexpr MessageType kType = MessageType::kAuditOpened;
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

  static void Fields(auto& m, auto& c) {
    c.Varint(m.audit_id);
    c.Bool(m.resumed);
    c.Varint(m.start_step);
    c.Varint(m.labels_on_file);
    c.String(m.design_name);
    c.String(m.dataset_name);
  }
};

/// Runs up to `steps` framework iterations of one audit. The daemon pushes
/// an IntervalUpdate after every completed step (the subscription — no
/// polling), then an AuditReport if the session converged or stopped.
struct StepBatchMsg {
  static constexpr MessageType kType = MessageType::kStepBatch;
  uint64_t audit_id = 0;
  uint64_t steps = 1;

  static void Fields(auto& m, auto& c) {
    c.Varint(m.audit_id);
    c.Varint(m.steps);
  }
};

/// Per-step convergence push: the point estimate and the current 1-alpha
/// interval after folding in one annotation batch.
struct IntervalUpdateMsg {
  static constexpr MessageType kType = MessageType::kIntervalUpdate;
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

  static void Fields(auto& m, auto& c) {
    c.Varint(m.audit_id);
    c.Varint(m.step);
    c.Varint(m.annotated_triples);
    c.Double(m.mu);
    c.Double(m.lower);
    c.Double(m.upper);
    c.Double(m.moe);
    c.Bool(m.done);
    c.U8(m.stop_reason);
    c.Bool(m.degraded);
  }
};

/// The field list of Algorithm 1's `EvaluationResult`, bit-exact.
void EvaluationResultFields(auto& r, auto& c) {
  c.Double(r.mu);
  c.Double(r.interval.lower);
  c.Double(r.interval.upper);
  c.Varint(r.annotated_triples);
  c.Varint(r.distinct_triples);
  c.Varint(r.distinct_entities);
  c.Double(r.cost_seconds);
  c.Double(r.cost_hours);
  c.Zigzag(r.iterations);
  c.Varint(r.winning_prior);
  c.Double(r.deff);
  c.Bool(r.converged);
  c.Enum(r.stop_reason, StopReasonFromByte);
  c.Bool(r.degraded);
  c.String(r.degradation_note);
  // A trace point is at least a one-byte varint plus two doubles.
  c.List(r.trace, 17, [](auto& p, auto& pc) {
    pc.Varint(p.n);
    pc.Double(p.moe);
    pc.Double(p.mu);
  });
}

/// Final outcome of one audit: the full EvaluationResult (bit-exact) plus
/// the store accounting a durable client wants to display.
struct AuditReportMsg {
  static constexpr MessageType kType = MessageType::kAuditReport;
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

  static void Fields(auto& m, auto& c) {
    c.Varint(m.audit_id);
    c.String(m.design_name);
    c.String(m.dataset_name);
    EvaluationResultFields(m.result, c);
    c.Varint(m.store_hits);
    c.Varint(m.oracle_calls);
    c.Varint(m.checkpoints_written);
    c.Varint(m.store_retries);
    c.Bool(m.degraded);
    c.String(m.degradation_note);
  }
};

/// Detaches the connection from an audit (the session and its store stay
/// resumable on the daemon).
struct CloseAuditMsg {
  static constexpr MessageType kType = MessageType::kCloseAudit;
  uint64_t audit_id = 0;

  static void Fields(auto& m, auto& c) { c.Varint(m.audit_id); }
};

/// Liveness probe; the ack echoes the nonce.
struct HeartbeatMsg {
  static constexpr MessageType kType = MessageType::kHeartbeat;
  uint64_t nonce = 0;

  static void Fields(auto& m, auto& c) { c.Varint(m.nonce); }
};

/// The daemon's answer to a Heartbeat, echoing its nonce.
struct HeartbeatAckMsg : HeartbeatMsg {
  static constexpr MessageType kType = MessageType::kHeartbeatAck;
};

/// Explicit overload push-back — the admission-control answer that replaces
/// a silent hang. The client backs off and retries.
struct BusyMsg {
  static constexpr MessageType kType = MessageType::kBusy;
  uint64_t retry_after_ms = 50;
  std::string reason;

  static void Fields(auto& m, auto& c) {
    c.Varint(m.retry_after_ms);
    c.String(m.reason);
  }
};

/// An error scoped to one audit (`fatal_to_session`) or to the whole
/// connection (`fatal_to_connection`; the daemon closes after sending).
struct ErrorMsg {
  static constexpr MessageType kType = MessageType::kError;
  /// Never kOk: an Error frame always carries a failure.
  StatusCode code = StatusCode::kInternal;
  uint64_t audit_id = 0;
  bool fatal_to_session = false;
  bool fatal_to_connection = false;
  std::string message;

  Status ToStatus() const { return Status(code, message); }

  static void Fields(auto& m, auto& c) {
    c.Enum(m.code, ErrorCodeFromByte);
    c.Varint(m.audit_id);
    c.Bool(m.fatal_to_session);
    c.Bool(m.fatal_to_connection);
    c.String(m.message);
  }
};

/// Graceful-drain notice: the daemon stops admitting work, checkpoints
/// every live session, and exits. Clients reconnect to the restarted
/// daemon and resume.
struct DrainMsg {
  static constexpr MessageType kType = MessageType::kDrain;
  std::string message;

  static void Fields(auto& m, auto& c) { c.String(m.message); }
};

/// Hard quota rejection — the *non-retryable* counterpart of Busy. Busy
/// means "capacity will free up, back off and retry"; QuotaExceeded means
/// "this tenant's allowance is spent — retrying cannot help until an
/// operator raises the budget". Sent at OpenAudit admission (session cap,
/// exhausted budget) and mid-audit when the oracle budget runs out
/// (`fatal_to_session=false`: the session stays open, degraded to
/// store-hit-only annotation, and resumable).
struct QuotaExceededMsg {
  static constexpr MessageType kType = MessageType::kQuotaExceeded;
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

  static void Fields(auto& m, auto& c) {
    c.Varint(m.audit_id);
    c.String(m.quota);
    c.Varint(m.remaining);
    c.Bool(m.fatal_to_session);
    c.String(m.message);
  }
};

/// A complete frame (header, payload, CRC) for a message.
template <typename Msg>
std::vector<uint8_t> FrameOf(const Msg& m) {
  ByteWriter payload;
  EncodeFields(m, &payload);
  ByteWriter frame;
  frame.PutFrame(static_cast<uint8_t>(Msg::kType), payload.span());
  return frame.bytes();
}

/// Decodes a `Msg` payload, rejecting truncated, out-of-range or trailing
/// bytes.
template <typename Msg>
Result<Msg> Decode(std::span<const uint8_t> payload) {
  return DecodeFields<Msg>(payload,
                           MessageTypeName(static_cast<uint8_t>(Msg::kType)));
}

}  // namespace kgacc

#endif  // KGACC_NET_PROTOCOL_H_
