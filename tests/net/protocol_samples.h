#ifndef KGACC_TESTS_NET_PROTOCOL_SAMPLES_H_
#define KGACC_TESTS_NET_PROTOCOL_SAMPLES_H_

// One non-default instance of every kgaccd message, each with the frame
// bytes the protocol pins for it: a field list that moves, drops or
// widens a field no longer matches. Every field differs from its default,
// and the report carries a trace, so each field is on the wire.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "kgacc/net/protocol.h"

namespace kgacc::samples {

inline std::vector<uint8_t> FromHex(std::string_view hex) {
  std::vector<uint8_t> bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<uint8_t>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

inline AuditReportMsg Report() {
  AuditReportMsg m;
  m.audit_id = 42;
  m.design_name = "TWCS";
  m.dataset_name = "yago";
  m.result.mu = 0.9;
  m.result.interval = {0.85, 0.95};
  m.result.annotated_triples = 120;
  m.result.distinct_triples = 118;
  m.result.distinct_entities = 40;
  m.result.cost_seconds = 3600.5;
  m.result.cost_hours = 1.0001;
  m.result.iterations = 12;
  m.result.winning_prior = 1;
  m.result.deff = 1.25;
  m.result.converged = false;
  m.result.stop_reason = StopReason::kTripleCapReached;
  m.result.degraded = true;
  m.result.degradation_note = "disk full";
  m.result.trace = {{30, 0.2, 0.8}, {60, 0.1, 0.85}};
  m.store_hits = 20;
  m.oracle_calls = 100;
  m.checkpoints_written = 4;
  m.store_retries = 1;
  m.degraded = true;
  m.degradation_note = "disk full";
  return m;
}

/// Calls `visit(msg, golden_frame_hex)` once per message type.
template <typename Visit>
void ForEach(Visit&& visit) {
  HelloMsg hello;
  hello.tenant = "acme";
  visit(hello, "010a4341474b020461636d65aea094f3");

  HelloAckMsg ack;
  ack.draining = true;
  ack.heartbeat_interval_ms = 250;
  ack.idle_timeout_ms = 1500;
  visit(ack, "02060201fa01dc0bbe3e08d2");

  OpenAuditMsg open;
  open.audit_id = 42;
  open.kg_name = "yago";
  open.design = "twcs";
  open.method = "wilson";
  open.alpha = 0.1;
  open.epsilon = 0.03;
  open.seed = 7;
  open.twcs_m = 5;
  open.checkpoint_every = 3;
  open.max_steps = 900;
  open.deadline_seconds = 12.5;
  open.resume = false;
  visit(open,
        "03302a047961676f04747763730677696c736f6e9a9999999999b93fb81e85eb"
        "51b89e3f07050384070000000000002940006cb375cb");

  AuditOpenedMsg opened;
  opened.audit_id = 42;
  opened.resumed = true;
  opened.start_step = 17;
  opened.labels_on_file = 300;
  opened.design_name = "TWCS";
  opened.dataset_name = "yago";
  visit(opened, "040f2a0111ac020454574353047961676f72330829");

  StepBatchMsg batch;
  batch.audit_id = 42;
  batch.steps = 8;
  visit(batch, "05022a081aca6cee");

  IntervalUpdateMsg update;
  update.audit_id = 42;
  update.step = 9;
  update.annotated_triples = 150;
  update.mu = 0.875;
  update.lower = 0.81;
  update.upper = 0.93;
  update.moe = 0.06;
  update.done = true;
  update.stop_reason = 2;
  update.degraded = true;
  visit(update,
        "06272a099601000000000000ec3fec51b81e85ebe93fc3f5285c8fc2ed3fb81e"
        "85eb51b8ae3f010201b1298c5e");

  visit(Report(),
        "077f2a0454574353047961676fcdccccccccccec3f333333333333eb3f666666"
        "666666ee3f787628000000000021ac4071ac8bdb6800f03f1801000000000000"
        "f43f000101096469736b2066756c6c021e9a9999999999c93f9a9999999999e9"
        "3f3c9a9999999999b93f333333333333eb3f1464040101096469736b2066756c"
        "6cfd140c2e");

  CloseAuditMsg close;
  close.audit_id = 42;
  visit(close, "08012a2ea3c800");

  HeartbeatMsg beat;
  beat.nonce = 77;
  visit(beat, "09014dd9c68510");
  visit(HeartbeatAckMsg{beat}, "0a014daa06abfa");

  BusyMsg busy;
  busy.retry_after_ms = 120;
  busy.reason = "connection limit";
  visit(busy, "0b127810636f6e6e656374696f6e206c696d6974c43d9ed7");

  ErrorMsg err;
  err.code = StatusCode::kNotFound;
  err.audit_id = 42;
  err.fatal_to_session = true;
  err.message = "no such kg";
  visit(err, "0c0f042a01000a6e6f2073756368206b67e609e4f9");

  DrainMsg drain;
  drain.message = "daemon draining";
  visit(drain, "0d100f6461656d6f6e20647261696e696e67a770f690");

  QuotaExceededMsg quota;
  quota.audit_id = 42;
  quota.quota = "oracle_budget";
  quota.remaining = 5;
  quota.fatal_to_session = false;
  quota.message = "budget spent";
  visit(quota,
        "0e1e2a0d6f7261636c655f62756467657405000c627564676574207370656e74"
        "e70aa5ed");
}

}  // namespace kgacc::samples

#endif  // KGACC_TESTS_NET_PROTOCOL_SAMPLES_H_
