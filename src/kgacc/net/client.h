#ifndef KGACC_NET_CLIENT_H_
#define KGACC_NET_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "kgacc/net/frame.h"
#include "kgacc/net/protocol.h"
#include "kgacc/net/socket.h"
#include "kgacc/util/backoff.h"

/// \file client.h
/// `AuditClient` — the resilient counterpart of `AuditDaemon`. One call,
/// `RunAudit`, drives an audit to its final report while absorbing every
/// failure the daemon's robustness model emits:
///
/// * `Busy` (admission control) → seeded jittered backoff, retry;
/// * transport death — daemon SIGKILL, torn frame, dropped connection,
///   heartbeat silence — → reconnect and reopen with `resume = true`; the
///   session continues from the daemon's durable checkpoint, so the final
///   report is byte-identical to an uninterrupted run and already-labeled
///   triples are never re-paid;
/// * `Drain` → treated as a transport death: back off, reconnect, resume
///   against the restarted daemon;
/// * session-fatal `Error` frames (deadline, step budget, WAL failure) →
///   surfaced to the caller as the carried Status;
/// * `QuotaExceeded` (tenant budget or cap spent) → surfaced *immediately*
///   as `kQuotaExceeded` — unlike `Busy`, retrying cannot help until an
///   operator raises the quota, so the client never burns its backoff
///   budget on it. The one exception is a non-fatal store-quota notice,
///   which merely announces degraded read-only persistence while the
///   audit keeps progressing.
///
/// The client heartbeats whenever the daemon goes quiet and counts the
/// acks; consecutive misses are a liveness verdict, not a hang.

namespace kgacc {

/// Client behavior knobs.
struct AuditClientOptions {
  /// Daemon port on 127.0.0.1.
  uint16_t port = 0;
  /// When set, called before every connection attempt to (re)discover the
  /// daemon's port, overriding `port`. This is how a client survives a
  /// daemon that restarts on a fresh ephemeral port: point the resolver at
  /// the daemon's --port-file and each reconnect chases the current port.
  std::function<Result<uint16_t>()> resolve_port;
  /// Steps requested per StepBatch frame.
  uint64_t batch_steps = 4;
  /// Blocking-read timeout; also the heartbeat probe cadence when the
  /// daemon is quiet. 0 = use the daemon's advertised interval.
  uint64_t recv_timeout_ms = 2000;
  /// Consecutive unanswered heartbeats before the connection is declared
  /// dead and rebuilt.
  int heartbeat_miss_limit = 3;
  /// Reconnect-and-resume attempts after transport failures before the
  /// audit is abandoned.
  int max_reconnects = 8;
  /// Backoff schedule for Busy frames, connect failures, and reconnects.
  BackoffPolicy backoff;
  /// Tenant id announced in Hello (empty = the daemon's "default" tenant).
  std::string tenant;
};

/// Counters describing how eventful one RunAudit call was.
struct AuditClientStats {
  uint64_t updates_received = 0;
  uint64_t busy_retries = 0;
  uint64_t reconnects = 0;
  uint64_t heartbeats_sent = 0;
  uint64_t heartbeat_acks = 0;
  /// The daemon reported the session degraded to read-only persistence.
  bool degraded_seen = false;
  /// QuotaExceeded frames received (admission rejections and mid-audit
  /// budget exhaustion alike).
  uint64_t quota_exceeded_frames = 0;
  /// The most recent QuotaExceeded frame (which quota, how much remains).
  QuotaExceededMsg last_quota_exceeded;
  /// The last AuditOpened reply (resume diagnostics).
  AuditOpenedMsg opened;
};

/// Drives audits against one daemon. Not thread-safe; one client per
/// thread.
class AuditClient {
 public:
  explicit AuditClient(const AuditClientOptions& options)
      : options_(options) {}

  /// Runs `open` to completion: handshake, open (resuming when the daemon
  /// holds a checkpoint), stream StepBatch frames, deliver every
  /// IntervalUpdate to `on_update` (when given), and return the final
  /// report. Reconnects and resumes transparently on transport failure.
  Result<AuditReportMsg> RunAudit(
      const OpenAuditMsg& open,
      const std::function<void(const IntervalUpdateMsg&)>& on_update = {});

  const AuditClientStats& stats() const { return stats_; }

 private:
  /// Connects, handshakes, opens the audit. Fills `stats_.opened`.
  Status Establish(OpenAuditMsg open);
  /// Blocking read of the next complete frame (assembler-buffered).
  /// kDeadlineExceeded = the daemon is quiet (heartbeat opportunity).
  Result<NetFrame> ReadFrame();
  Status SendFrame(const std::vector<uint8_t>& frame);
  void Disconnect();

  AuditClientOptions options_;
  AuditClientStats stats_;
  OwnedFd fd_;
  FrameAssembler assembler_;
  uint64_t effective_timeout_ms_ = 2000;
  uint64_t next_heartbeat_nonce_ = 1;
};

}  // namespace kgacc

#endif  // KGACC_NET_CLIENT_H_
