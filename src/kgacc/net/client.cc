#include "kgacc/net/client.h"

#include <chrono>
#include <thread>

namespace kgacc {

namespace {

void SleepMs(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

void AuditClient::Disconnect() {
  fd_.Reset();
  assembler_ = FrameAssembler();
}

Status AuditClient::SendFrame(const std::vector<uint8_t>& frame) {
  if (!fd_.valid()) return Status::IoError("not connected");
  return SendAll(fd_.get(), {frame.data(), frame.size()});
}

Result<NetFrame> AuditClient::ReadFrame() {
  NetFrame frame;
  while (true) {
    KGACC_ASSIGN_OR_RETURN(const bool have, assembler_.Next(&frame));
    if (have) return frame;
    uint8_t buf[4096];
    KGACC_ASSIGN_OR_RETURN(const size_t n,
                           RecvSome(fd_.get(), buf, sizeof(buf)));
    if (n == 0) {
      return Status::IoError("daemon closed the connection");
    }
    assembler_.Feed({buf, n});
  }
}

Status AuditClient::Establish(OpenAuditMsg open) {
  ExponentialBackoff backoff(options_.backoff);
  Status last = Status::IoError("never attempted");
  for (int attempt = 0; attempt < options_.backoff.max_attempts; ++attempt) {
    if (attempt > 0) SleepMs(backoff.NextDelayMs());
    Disconnect();
    uint16_t port = options_.port;
    if (options_.resolve_port) {
      auto resolved = options_.resolve_port();
      if (!resolved.ok()) {
        last = resolved.status();
        continue;
      }
      port = *resolved;
    }
    auto connected = ConnectTcp(port);
    if (!connected.ok()) {
      last = connected.status();
      continue;
    }
    fd_ = std::move(*connected);
    effective_timeout_ms_ = options_.recv_timeout_ms != 0
                                ? options_.recv_timeout_ms
                                : 2000;
    KGACC_RETURN_IF_ERROR(SetRecvTimeoutMs(fd_.get(), effective_timeout_ms_));

    HelloMsg hello;
    hello.tenant = options_.tenant;
    KGACC_RETURN_IF_ERROR(SendFrame(FrameOf(hello)));
    auto reply = ReadFrame();
    if (!reply.ok()) {
      last = reply.status();
      continue;
    }
    if (reply->type == static_cast<uint8_t>(MessageType::kBusy)) {
      ++stats_.busy_retries;
      last = Status::IoError("daemon busy at Hello");
      continue;
    }
    if (reply->type == static_cast<uint8_t>(MessageType::kError)) {
      KGACC_ASSIGN_OR_RETURN(
          const ErrorMsg err, Decode<ErrorMsg>(reply->payload));
      last = err.ToStatus();
      Disconnect();
      if (last.code() == StatusCode::kNotFound) {
        // The registry rejected our tenant: no reconnect fixes that until
        // an operator amends the tenants file. Surface it verbatim.
        return last;
      }
      // Anything else here is connection-scoped (e.g. the daemon saw our
      // Hello arrive torn) — rebuild and retry.
      continue;
    }
    if (reply->type != static_cast<uint8_t>(MessageType::kHelloAck)) {
      return Status::FailedPrecondition(
          std::string("handshake: expected HelloAck, got ") +
          MessageTypeName(reply->type));
    }
    KGACC_ASSIGN_OR_RETURN(
        const HelloAckMsg ack, Decode<HelloAckMsg>(reply->payload));
    if (options_.recv_timeout_ms == 0 && ack.heartbeat_interval_ms != 0) {
      effective_timeout_ms_ = ack.heartbeat_interval_ms;
      KGACC_RETURN_IF_ERROR(
          SetRecvTimeoutMs(fd_.get(), effective_timeout_ms_));
    }
    if (ack.draining) {
      last = Status::IoError("daemon is draining");
      Disconnect();
      continue;
    }

    KGACC_RETURN_IF_ERROR(SendFrame(FrameOf(open)));
    auto opened = ReadFrame();
    if (!opened.ok()) {
      last = opened.status();
      continue;
    }
    if (opened->type == static_cast<uint8_t>(MessageType::kBusy)) {
      ++stats_.busy_retries;
      KGACC_ASSIGN_OR_RETURN(
          const BusyMsg busy, Decode<BusyMsg>(opened->payload));
      last = Status::IoError("daemon busy at OpenAudit: " + busy.reason);
      Disconnect();
      continue;
    }
    if (opened->type == static_cast<uint8_t>(MessageType::kQuotaExceeded)) {
      // A spent quota is not load: no amount of backoff admits this audit
      // until an operator raises the budget. Surface it immediately.
      KGACC_ASSIGN_OR_RETURN(
          const QuotaExceededMsg exceeded,
          Decode<QuotaExceededMsg>(opened->payload));
      ++stats_.quota_exceeded_frames;
      stats_.last_quota_exceeded = exceeded;
      return exceeded.ToStatus();
    }
    if (opened->type == static_cast<uint8_t>(MessageType::kError)) {
      KGACC_ASSIGN_OR_RETURN(
          const ErrorMsg err, Decode<ErrorMsg>(opened->payload));
      if (err.fatal_to_connection) {
        // Stream-level failure (e.g. our OpenAudit arrived torn): the
        // connection is dead but the request is fine — rebuild and retry.
        last = err.ToStatus();
        Disconnect();
        continue;
      }
      return err.ToStatus();  // open rejections are not transient
    }
    if (opened->type != static_cast<uint8_t>(MessageType::kAuditOpened)) {
      return Status::FailedPrecondition(
          std::string("open: expected AuditOpened, got ") +
          MessageTypeName(opened->type));
    }
    KGACC_ASSIGN_OR_RETURN(
        stats_.opened, Decode<AuditOpenedMsg>(opened->payload));
    return Status::OK();
  }
  return Status::IoError("could not establish audit session: " +
                         last.ToString());
}

Result<AuditReportMsg> AuditClient::RunAudit(
    const OpenAuditMsg& open,
    const std::function<void(const IntervalUpdateMsg&)>& on_update) {
  OpenAuditMsg request = open;
  KGACC_RETURN_IF_ERROR(Establish(request));
  // Every re-establishment after a transport failure resumes: the daemon's
  // durable checkpoint carries the session across our reconnects.
  request.resume = true;

  int reconnects_left = options_.max_reconnects;
  ExponentialBackoff reconnect_backoff(options_.backoff);
  bool batch_outstanding = false;
  uint64_t updates_this_batch = 0;
  int heartbeat_misses = 0;
  bool heartbeat_outstanding = false;

  auto transport_failure = [&](const Status& cause) -> Status {
    Disconnect();
    if (reconnects_left <= 0) {
      return Status::IoError("audit abandoned after " +
                             std::to_string(options_.max_reconnects) +
                             " reconnects; last failure: " +
                             cause.ToString());
    }
    --reconnects_left;
    ++stats_.reconnects;
    SleepMs(reconnect_backoff.NextDelayMs());
    const Status re = Establish(request);
    if (re.ok()) {
      batch_outstanding = false;
      updates_this_batch = 0;
      heartbeat_misses = 0;
      heartbeat_outstanding = false;
    }
    return re;
  };

  while (true) {
    if (!batch_outstanding) {
      StepBatchMsg batch;
      batch.audit_id = request.audit_id;
      batch.steps = options_.batch_steps;
      const Status sent = SendFrame(FrameOf(batch));
      if (!sent.ok()) {
        KGACC_RETURN_IF_ERROR(transport_failure(sent));
        continue;
      }
      batch_outstanding = true;
      updates_this_batch = 0;
    }

    auto frame = ReadFrame();
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kDeadlineExceeded) {
        // Quiet daemon: probe liveness instead of hanging forever.
        if (heartbeat_outstanding) ++heartbeat_misses;
        if (heartbeat_misses >= options_.heartbeat_miss_limit) {
          KGACC_RETURN_IF_ERROR(transport_failure(Status::DeadlineExceeded(
              "daemon unresponsive: " +
              std::to_string(heartbeat_misses) + " heartbeats unanswered")));
          continue;
        }
        HeartbeatMsg probe;
        probe.nonce = next_heartbeat_nonce_++;
        ++stats_.heartbeats_sent;
        heartbeat_outstanding = true;
        const Status sent = SendFrame(FrameOf(probe));
        if (!sent.ok()) KGACC_RETURN_IF_ERROR(transport_failure(sent));
        continue;
      }
      // Torn/corrupt stream or dropped connection: rebuild and resume.
      KGACC_RETURN_IF_ERROR(transport_failure(frame.status()));
      continue;
    }

    const std::span<const uint8_t> payload(frame->payload.data(),
                                           frame->payload.size());
    switch (static_cast<MessageType>(frame->type)) {
      case MessageType::kIntervalUpdate: {
        KGACC_ASSIGN_OR_RETURN(const IntervalUpdateMsg update,
                               Decode<IntervalUpdateMsg>(payload));
        ++stats_.updates_received;
        ++updates_this_batch;
        if (update.degraded) stats_.degraded_seen = true;
        if (on_update) on_update(update);
        if (!update.done && updates_this_batch >= options_.batch_steps) {
          batch_outstanding = false;  // batch fully acknowledged
        }
        break;
      }
      case MessageType::kAuditReport: {
        KGACC_ASSIGN_OR_RETURN(AuditReportMsg report,
                               Decode<AuditReportMsg>(payload));
        if (report.degraded) stats_.degraded_seen = true;
        return report;
      }
      case MessageType::kHeartbeatAck: {
        ++stats_.heartbeat_acks;
        heartbeat_misses = 0;
        heartbeat_outstanding = false;
        break;
      }
      case MessageType::kBusy: {
        KGACC_ASSIGN_OR_RETURN(const BusyMsg busy, Decode<BusyMsg>(payload));
        // Admission push-back mid-stream: back off, re-request the batch.
        ++stats_.busy_retries;
        batch_outstanding = false;
        SleepMs(std::max<double>(static_cast<double>(busy.retry_after_ms),
                                 reconnect_backoff.NextDelayMs()));
        break;
      }
      case MessageType::kQuotaExceeded: {
        KGACC_ASSIGN_OR_RETURN(const QuotaExceededMsg exceeded,
                               Decode<QuotaExceededMsg>(payload));
        ++stats_.quota_exceeded_frames;
        stats_.last_quota_exceeded = exceeded;
        if (!exceeded.fatal_to_session && exceeded.quota == "store_quota") {
          // Informational: the audit keeps progressing under degraded
          // read-only persistence; the final report will say so.
          stats_.degraded_seen = true;
          break;
        }
        // Exhausted oracle budget (or an admission-grade rejection): the
        // session is checkpointed daemon-side and resumes once the budget
        // grows, but no retry loop here can make progress now.
        return exceeded.ToStatus();
      }
      case MessageType::kError: {
        KGACC_ASSIGN_OR_RETURN(const ErrorMsg err, Decode<ErrorMsg>(payload));
        if (err.fatal_to_session) return err.ToStatus();
        if (err.fatal_to_connection) {
          KGACC_RETURN_IF_ERROR(transport_failure(err.ToStatus()));
        }
        break;
      }
      case MessageType::kDrain: {
        // The daemon is going down gracefully; our session is
        // checkpointed. Reconnect against the restarted daemon.
        KGACC_RETURN_IF_ERROR(transport_failure(
            Status::IoError("daemon drained mid-audit")));
        break;
      }
      default:
        return Status::FailedPrecondition(
            std::string("unexpected frame from daemon: ") +
            MessageTypeName(frame->type));
    }
  }
}

}  // namespace kgacc
