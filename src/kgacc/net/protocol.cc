#include "kgacc/net/protocol.h"

#include "kgacc/util/codec.h"

namespace kgacc {

namespace {

/// Decode postlude: a conforming payload is consumed exactly.
Status ExpectDrained(const ByteReader& r, const char* what) {
  if (!r.empty()) {
    return Status::InvalidArgument(std::string("net: trailing bytes after ") +
                                   what + " payload");
  }
  return Status::OK();
}

void PutResult(ByteWriter* w, const EvaluationResult& result) {
  w->PutDouble(result.mu);
  w->PutDouble(result.interval.lower);
  w->PutDouble(result.interval.upper);
  w->PutVarint(result.annotated_triples);
  w->PutVarint(result.distinct_triples);
  w->PutVarint(result.distinct_entities);
  w->PutDouble(result.cost_seconds);
  w->PutDouble(result.cost_hours);
  w->PutZigzag(result.iterations);
  w->PutVarint(result.winning_prior);
  w->PutDouble(result.deff);
  w->PutBool(result.converged);
  w->PutU8(static_cast<uint8_t>(result.stop_reason));
  w->PutBool(result.degraded);
  w->PutString(result.degradation_note);
  w->PutVarint(result.trace.size());
  for (const TracePoint& p : result.trace) {
    w->PutVarint(p.n);
    w->PutDouble(p.moe);
    w->PutDouble(p.mu);
  }
}

Status GetResult(ByteReader* r, EvaluationResult* result) {
  KGACC_ASSIGN_OR_RETURN(result->mu, r->Double());
  KGACC_ASSIGN_OR_RETURN(result->interval.lower, r->Double());
  KGACC_ASSIGN_OR_RETURN(result->interval.upper, r->Double());
  KGACC_ASSIGN_OR_RETURN(result->annotated_triples, r->Varint());
  KGACC_ASSIGN_OR_RETURN(result->distinct_triples, r->Varint());
  KGACC_ASSIGN_OR_RETURN(result->distinct_entities, r->Varint());
  KGACC_ASSIGN_OR_RETURN(result->cost_seconds, r->Double());
  KGACC_ASSIGN_OR_RETURN(result->cost_hours, r->Double());
  KGACC_ASSIGN_OR_RETURN(const int64_t iterations, r->Zigzag());
  result->iterations = static_cast<int>(iterations);
  KGACC_ASSIGN_OR_RETURN(const uint64_t winning, r->Varint());
  result->winning_prior = static_cast<size_t>(winning);
  KGACC_ASSIGN_OR_RETURN(result->deff, r->Double());
  KGACC_ASSIGN_OR_RETURN(result->converged, r->Bool());
  KGACC_ASSIGN_OR_RETURN(const uint8_t reason, r->U8());
  KGACC_ASSIGN_OR_RETURN(result->stop_reason, StopReasonFromByte(reason));
  KGACC_ASSIGN_OR_RETURN(result->degraded, r->Bool());
  KGACC_ASSIGN_OR_RETURN(result->degradation_note, r->String());
  // A trace point is at least a one-byte varint plus two doubles.
  KGACC_ASSIGN_OR_RETURN(const uint64_t trace_points, r->Count(17));
  result->trace.clear();
  result->trace.reserve(static_cast<size_t>(trace_points));
  for (uint64_t i = 0; i < trace_points; ++i) {
    TracePoint p;
    KGACC_ASSIGN_OR_RETURN(p.n, r->Varint());
    KGACC_ASSIGN_OR_RETURN(p.moe, r->Double());
    KGACC_ASSIGN_OR_RETURN(p.mu, r->Double());
    result->trace.push_back(p);
  }
  return Status::OK();
}

}  // namespace

const char* MessageTypeName(uint8_t type) {
  switch (static_cast<MessageType>(type)) {
    case MessageType::kHello: return "Hello";
    case MessageType::kHelloAck: return "HelloAck";
    case MessageType::kOpenAudit: return "OpenAudit";
    case MessageType::kAuditOpened: return "AuditOpened";
    case MessageType::kStepBatch: return "StepBatch";
    case MessageType::kIntervalUpdate: return "IntervalUpdate";
    case MessageType::kAuditReport: return "AuditReport";
    case MessageType::kCloseAudit: return "CloseAudit";
    case MessageType::kHeartbeat: return "Heartbeat";
    case MessageType::kHeartbeatAck: return "HeartbeatAck";
    case MessageType::kBusy: return "Busy";
    case MessageType::kError: return "Error";
    case MessageType::kDrain: return "Drain";
    case MessageType::kQuotaExceeded: return "QuotaExceeded";
  }
  return "Unknown";
}

std::vector<uint8_t> EncodeHello(const HelloMsg& m) {
  ByteWriter w;
  w.PutFixed32(m.magic);
  w.PutVarint(m.version);
  w.PutString(m.tenant);
  return w.bytes();
}

Result<HelloMsg> DecodeHello(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  HelloMsg m;
  KGACC_ASSIGN_OR_RETURN(m.magic, r.Fixed32());
  KGACC_ASSIGN_OR_RETURN(m.version, r.Varint());
  // v1 Hellos end here; the tenant string is a v2 addition and its absence
  // means the default tenant.
  if (!r.empty()) {
    KGACC_ASSIGN_OR_RETURN(m.tenant, r.String());
  }
  KGACC_RETURN_IF_ERROR(ExpectDrained(r, "Hello"));
  return m;
}

std::vector<uint8_t> EncodeHelloAck(const HelloAckMsg& m) {
  ByteWriter w;
  w.PutVarint(m.version);
  w.PutBool(m.draining);
  w.PutVarint(m.heartbeat_interval_ms);
  w.PutVarint(m.idle_timeout_ms);
  return w.bytes();
}

Result<HelloAckMsg> DecodeHelloAck(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  HelloAckMsg m;
  KGACC_ASSIGN_OR_RETURN(m.version, r.Varint());
  KGACC_ASSIGN_OR_RETURN(m.draining, r.Bool());
  KGACC_ASSIGN_OR_RETURN(m.heartbeat_interval_ms, r.Varint());
  KGACC_ASSIGN_OR_RETURN(m.idle_timeout_ms, r.Varint());
  KGACC_RETURN_IF_ERROR(ExpectDrained(r, "HelloAck"));
  return m;
}

std::vector<uint8_t> EncodeOpenAudit(const OpenAuditMsg& m) {
  ByteWriter w;
  w.PutVarint(m.audit_id);
  w.PutString(m.kg_name);
  w.PutString(m.design);
  w.PutString(m.method);
  w.PutDouble(m.alpha);
  w.PutDouble(m.epsilon);
  w.PutVarint(m.seed);
  w.PutVarint(m.twcs_m);
  w.PutVarint(m.checkpoint_every);
  w.PutVarint(m.max_steps);
  w.PutDouble(m.deadline_seconds);
  w.PutBool(m.resume);
  return w.bytes();
}

Result<OpenAuditMsg> DecodeOpenAudit(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  OpenAuditMsg m;
  KGACC_ASSIGN_OR_RETURN(m.audit_id, r.Varint());
  KGACC_ASSIGN_OR_RETURN(m.kg_name, r.String());
  KGACC_ASSIGN_OR_RETURN(m.design, r.String());
  KGACC_ASSIGN_OR_RETURN(m.method, r.String());
  KGACC_ASSIGN_OR_RETURN(m.alpha, r.Double());
  KGACC_ASSIGN_OR_RETURN(m.epsilon, r.Double());
  KGACC_ASSIGN_OR_RETURN(m.seed, r.Varint());
  KGACC_ASSIGN_OR_RETURN(m.twcs_m, r.Varint());
  KGACC_ASSIGN_OR_RETURN(m.checkpoint_every, r.Varint());
  KGACC_ASSIGN_OR_RETURN(m.max_steps, r.Varint());
  KGACC_ASSIGN_OR_RETURN(m.deadline_seconds, r.Double());
  KGACC_ASSIGN_OR_RETURN(m.resume, r.Bool());
  KGACC_RETURN_IF_ERROR(ExpectDrained(r, "OpenAudit"));
  return m;
}

std::vector<uint8_t> EncodeAuditOpened(const AuditOpenedMsg& m) {
  ByteWriter w;
  w.PutVarint(m.audit_id);
  w.PutBool(m.resumed);
  w.PutVarint(m.start_step);
  w.PutVarint(m.labels_on_file);
  w.PutString(m.design_name);
  w.PutString(m.dataset_name);
  return w.bytes();
}

Result<AuditOpenedMsg> DecodeAuditOpened(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  AuditOpenedMsg m;
  KGACC_ASSIGN_OR_RETURN(m.audit_id, r.Varint());
  KGACC_ASSIGN_OR_RETURN(m.resumed, r.Bool());
  KGACC_ASSIGN_OR_RETURN(m.start_step, r.Varint());
  KGACC_ASSIGN_OR_RETURN(m.labels_on_file, r.Varint());
  KGACC_ASSIGN_OR_RETURN(m.design_name, r.String());
  KGACC_ASSIGN_OR_RETURN(m.dataset_name, r.String());
  KGACC_RETURN_IF_ERROR(ExpectDrained(r, "AuditOpened"));
  return m;
}

std::vector<uint8_t> EncodeStepBatch(const StepBatchMsg& m) {
  ByteWriter w;
  w.PutVarint(m.audit_id);
  w.PutVarint(m.steps);
  return w.bytes();
}

Result<StepBatchMsg> DecodeStepBatch(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  StepBatchMsg m;
  KGACC_ASSIGN_OR_RETURN(m.audit_id, r.Varint());
  KGACC_ASSIGN_OR_RETURN(m.steps, r.Varint());
  KGACC_RETURN_IF_ERROR(ExpectDrained(r, "StepBatch"));
  return m;
}

std::vector<uint8_t> EncodeIntervalUpdate(const IntervalUpdateMsg& m) {
  ByteWriter w;
  w.PutVarint(m.audit_id);
  w.PutVarint(m.step);
  w.PutVarint(m.annotated_triples);
  w.PutDouble(m.mu);
  w.PutDouble(m.lower);
  w.PutDouble(m.upper);
  w.PutDouble(m.moe);
  w.PutBool(m.done);
  w.PutU8(m.stop_reason);
  w.PutBool(m.degraded);
  return w.bytes();
}

Result<IntervalUpdateMsg> DecodeIntervalUpdate(
    std::span<const uint8_t> payload) {
  ByteReader r(payload);
  IntervalUpdateMsg m;
  KGACC_ASSIGN_OR_RETURN(m.audit_id, r.Varint());
  KGACC_ASSIGN_OR_RETURN(m.step, r.Varint());
  KGACC_ASSIGN_OR_RETURN(m.annotated_triples, r.Varint());
  KGACC_ASSIGN_OR_RETURN(m.mu, r.Double());
  KGACC_ASSIGN_OR_RETURN(m.lower, r.Double());
  KGACC_ASSIGN_OR_RETURN(m.upper, r.Double());
  KGACC_ASSIGN_OR_RETURN(m.moe, r.Double());
  KGACC_ASSIGN_OR_RETURN(m.done, r.Bool());
  KGACC_ASSIGN_OR_RETURN(m.stop_reason, r.U8());
  KGACC_ASSIGN_OR_RETURN(m.degraded, r.Bool());
  KGACC_RETURN_IF_ERROR(ExpectDrained(r, "IntervalUpdate"));
  return m;
}

std::vector<uint8_t> EncodeAuditReport(const AuditReportMsg& m) {
  ByteWriter w;
  w.PutVarint(m.audit_id);
  w.PutString(m.design_name);
  w.PutString(m.dataset_name);
  PutResult(&w, m.result);
  w.PutVarint(m.store_hits);
  w.PutVarint(m.oracle_calls);
  w.PutVarint(m.checkpoints_written);
  w.PutVarint(m.store_retries);
  w.PutBool(m.degraded);
  w.PutString(m.degradation_note);
  return w.bytes();
}

Result<AuditReportMsg> DecodeAuditReport(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  AuditReportMsg m;
  KGACC_ASSIGN_OR_RETURN(m.audit_id, r.Varint());
  KGACC_ASSIGN_OR_RETURN(m.design_name, r.String());
  KGACC_ASSIGN_OR_RETURN(m.dataset_name, r.String());
  KGACC_RETURN_IF_ERROR(GetResult(&r, &m.result));
  KGACC_ASSIGN_OR_RETURN(m.store_hits, r.Varint());
  KGACC_ASSIGN_OR_RETURN(m.oracle_calls, r.Varint());
  KGACC_ASSIGN_OR_RETURN(m.checkpoints_written, r.Varint());
  KGACC_ASSIGN_OR_RETURN(m.store_retries, r.Varint());
  KGACC_ASSIGN_OR_RETURN(m.degraded, r.Bool());
  KGACC_ASSIGN_OR_RETURN(m.degradation_note, r.String());
  KGACC_RETURN_IF_ERROR(ExpectDrained(r, "AuditReport"));
  return m;
}

std::vector<uint8_t> EncodeCloseAudit(const CloseAuditMsg& m) {
  ByteWriter w;
  w.PutVarint(m.audit_id);
  return w.bytes();
}

Result<CloseAuditMsg> DecodeCloseAudit(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  CloseAuditMsg m;
  KGACC_ASSIGN_OR_RETURN(m.audit_id, r.Varint());
  KGACC_RETURN_IF_ERROR(ExpectDrained(r, "CloseAudit"));
  return m;
}

std::vector<uint8_t> EncodeHeartbeat(const HeartbeatMsg& m) {
  ByteWriter w;
  w.PutVarint(m.nonce);
  return w.bytes();
}

std::vector<uint8_t> EncodeHeartbeatAck(const HeartbeatMsg& m) {
  return EncodeHeartbeat(m);
}

Result<HeartbeatMsg> DecodeHeartbeat(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  HeartbeatMsg m;
  KGACC_ASSIGN_OR_RETURN(m.nonce, r.Varint());
  KGACC_RETURN_IF_ERROR(ExpectDrained(r, "Heartbeat"));
  return m;
}

std::vector<uint8_t> EncodeBusy(const BusyMsg& m) {
  ByteWriter w;
  w.PutVarint(m.retry_after_ms);
  w.PutString(m.reason);
  return w.bytes();
}

Result<BusyMsg> DecodeBusy(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  BusyMsg m;
  KGACC_ASSIGN_OR_RETURN(m.retry_after_ms, r.Varint());
  KGACC_ASSIGN_OR_RETURN(m.reason, r.String());
  KGACC_RETURN_IF_ERROR(ExpectDrained(r, "Busy"));
  return m;
}

std::vector<uint8_t> EncodeError(const ErrorMsg& m) {
  ByteWriter w;
  w.PutU8(m.code);
  w.PutVarint(m.audit_id);
  w.PutBool(m.fatal_to_session);
  w.PutBool(m.fatal_to_connection);
  w.PutString(m.message);
  return w.bytes();
}

Result<ErrorMsg> DecodeError(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  ErrorMsg m;
  KGACC_ASSIGN_OR_RETURN(m.code, r.U8());
  KGACC_ASSIGN_OR_RETURN(m.audit_id, r.Varint());
  KGACC_ASSIGN_OR_RETURN(m.fatal_to_session, r.Bool());
  KGACC_ASSIGN_OR_RETURN(m.fatal_to_connection, r.Bool());
  KGACC_ASSIGN_OR_RETURN(m.message, r.String());
  KGACC_RETURN_IF_ERROR(ExpectDrained(r, "Error"));
  return m;
}

std::vector<uint8_t> EncodeDrain(const DrainMsg& m) {
  ByteWriter w;
  w.PutString(m.message);
  return w.bytes();
}

Result<DrainMsg> DecodeDrain(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  DrainMsg m;
  KGACC_ASSIGN_OR_RETURN(m.message, r.String());
  KGACC_RETURN_IF_ERROR(ExpectDrained(r, "Drain"));
  return m;
}

std::vector<uint8_t> EncodeQuotaExceeded(const QuotaExceededMsg& m) {
  ByteWriter w;
  w.PutVarint(m.audit_id);
  w.PutString(m.quota);
  w.PutVarint(m.remaining);
  w.PutBool(m.fatal_to_session);
  w.PutString(m.message);
  return w.bytes();
}

Result<QuotaExceededMsg> DecodeQuotaExceeded(
    std::span<const uint8_t> payload) {
  ByteReader r(payload);
  QuotaExceededMsg m;
  KGACC_ASSIGN_OR_RETURN(m.audit_id, r.Varint());
  KGACC_ASSIGN_OR_RETURN(m.quota, r.String());
  KGACC_ASSIGN_OR_RETURN(m.remaining, r.Varint());
  KGACC_ASSIGN_OR_RETURN(m.fatal_to_session, r.Bool());
  KGACC_ASSIGN_OR_RETURN(m.message, r.String());
  KGACC_RETURN_IF_ERROR(ExpectDrained(r, "QuotaExceeded"));
  return m;
}

}  // namespace kgacc
