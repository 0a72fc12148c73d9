// kgacc_client — networked audit client for kgaccd.
//
// Opens (or resumes) one audit on a running kgaccd, streams step batches,
// prints per-step interval updates with --progress, and renders the final
// report exactly as a local `kgacc_audit` run would — the daemon ships the
// full bit-exact EvaluationResult, so the text/JSON output diffs byte for
// byte against an uninterrupted run. The transport is disposable: kill the
// daemon mid-audit (or cut the connection) and this client backs off,
// reconnects, and resumes from the daemon's durable checkpoint without
// re-paying a single already-labeled triple.
//
// Store accounting goes to stderr as one machine-grepped line:
//   [client] oracle_calls=... store_hits=... reconnects=...
//
// Examples:
//   kgacc_client --port 7471 --kg demo --audit-id 42
//   kgacc_client --port-file port.txt --kg demo --audit-id 42 --json
//   kgacc_client --port 7471 --kg demo --audit-id 7 --max-steps 50
//   kgacc_client --port 7471 --kg demo --audit-id 7 --deadline-seconds 30

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "kgacc/eval/report.h"
#include "kgacc/kgacc.h"
#include "kgacc/net/client.h"
#include "kgacc/util/arg_parser.h"

namespace {

using namespace kgacc;

ArgParser BuildParser() {
  ArgParser parser;
  parser.AddFlag("port", "daemon port on 127.0.0.1")
      .AddFlag("port-file",
               "read the daemon port from this file (waits up to "
               "--port-wait-ms for it to appear)")
      .AddFlag("port-wait-ms",
               "how long to wait for --port-file (default 10000)")
      .AddFlag("kg", "daemon-registered population name (required)")
      .AddFlag("tenant",
               "tenant id announced at Hello (default: the daemon's "
               "'default' tenant)")
      .AddFlag("audit-id",
               "audit identity: the unit of durability and resume "
               "(default: the seed)")
      .AddFlag("design",
               "sampling design: srs|twcs|wcs|rcs|ssrs|sys (default srs)")
      .AddFlag("method",
               "interval method: ahpd|hpd|et|wilson|wald|cp (default ahpd)")
      .AddFlag("alpha", "significance level (default 0.05)")
      .AddFlag("epsilon", "margin-of-error budget (default 0.05)")
      .AddFlag("seed", "random seed (default 42)")
      .AddFlag("m", "TWCS second-stage size (default 3)")
      .AddFlag("checkpoint-every",
               "daemon checkpoint cadence in steps (default 1)")
      .AddFlag("max-steps", "session step budget (default 0 = unlimited)")
      .AddFlag("deadline-seconds",
               "session wall-clock deadline (default 0 = none)")
      .AddFlag("no-resume",
               "do not resume from an existing checkpoint on first open "
               "(reconnects always resume)")
      .AddFlag("batch-steps", "steps per StepBatch frame (default 4)")
      .AddFlag("reconnects",
               "reconnect-and-resume budget after transport failures "
               "(default 8)")
      .AddFlag("recv-timeout-ms",
               "read timeout / heartbeat cadence (default 2000)")
      .AddFlag("heartbeat-miss-limit",
               "unanswered heartbeats before reconnecting (default 3)")
      .AddFlag("progress", "print each interval update to stderr")
      .AddFlag("json", "emit a JSON record instead of the text report")
      .AddFlag("help", "show this help");
  return parser;
}

Result<uint16_t> ReadPortFile(const std::string& port_file,
                              int64_t wait_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(wait_ms);
  while (true) {
    FILE* f = std::fopen(port_file.c_str(), "r");
    if (f != nullptr) {
      unsigned port = 0;
      const int scanned = std::fscanf(f, "%u", &port);
      std::fclose(f);
      if (scanned == 1 && port > 0 && port < 65536) {
        return static_cast<uint16_t>(port);
      }
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded("no daemon port in " + port_file +
                                      " after " + std::to_string(wait_ms) +
                                      "ms");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

int RunMain(int argc, char** argv) {
  const ArgParser parser = BuildParser();
  const auto parsed = parser.Parse(argc - 1, argv + 1);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.status().ToString().c_str(),
                 parser.HelpText().c_str());
    return 2;
  }
  if (parsed->Has("help")) {
    std::printf("%s", parser.HelpText().c_str());
    return 0;
  }

  const std::string kg_name = parsed->GetString("kg");
  if (kg_name.empty()) {
    std::fprintf(stderr, "--kg is required\n%s", parser.HelpText().c_str());
    return 2;
  }
  const std::string port_file = parsed->GetString("port-file");
  const auto port_wait_ms =
      parsed->GetInt("port-wait-ms", 10000, 0, INT64_MAX);
  if (!port_wait_ms.ok()) {
    std::fprintf(stderr, "%s\n", port_wait_ms.status().ToString().c_str());
    return 2;
  }
  Result<uint16_t> port = Status::InvalidArgument(
      "one of --port / --port-file is required");
  if (parsed->Has("port")) {
    const auto flag = parsed->GetInt("port", 0, 0, 65535);
    if (!flag.ok()) {
      std::fprintf(stderr, "%s\n", flag.status().ToString().c_str());
      return 2;
    }
    port = static_cast<uint16_t>(*flag);
  } else if (!port_file.empty()) {
    port = ReadPortFile(port_file, *port_wait_ms);
  }
  if (!port.ok()) {
    std::fprintf(stderr, "%s\n", port.status().ToString().c_str());
    return 2;
  }
  const auto method = ParseIntervalMethod(parsed->GetString("method", "ahpd"));
  if (!method.ok()) {
    std::fprintf(stderr, "%s\n", method.status().ToString().c_str());
    return 2;
  }
  const auto alpha = parsed->GetDouble("alpha", 0.05);
  const auto epsilon = parsed->GetDouble("epsilon", 0.05);
  const auto seed = parsed->GetInt("seed", 42, 0, INT64_MAX);
  // The daemon checks m against the design it opens.
  const auto m = parsed->GetInt("m", 3, 0, INT64_MAX);
  const auto audit_id =
      parsed->GetInt("audit-id", seed.value_or(42), 0, INT64_MAX);
  const auto checkpoint_every =
      parsed->GetInt("checkpoint-every", 1, 1, INT64_MAX);
  const auto max_steps = parsed->GetInt("max-steps", 0, 0, INT64_MAX);
  const auto deadline = parsed->GetDouble("deadline-seconds", 0.0);
  const auto no_resume = parsed->GetBool("no-resume", false);
  // A zero-step batch is never answered.
  const auto batch_steps = parsed->GetInt("batch-steps", 4, 1, INT64_MAX);
  const auto reconnects = parsed->GetInt("reconnects", 8, 0, INT_MAX);
  const auto recv_timeout =
      parsed->GetInt("recv-timeout-ms", 2000, 0, INT64_MAX);
  const auto miss_limit =
      parsed->GetInt("heartbeat-miss-limit", 3, 0, INT_MAX);
  const auto progress = parsed->GetBool("progress", false);
  const auto json = parsed->GetBool("json", false);
  for (const Status& s :
       {alpha.status(), epsilon.status(), seed.status(), m.status(),
        audit_id.status(), checkpoint_every.status(), max_steps.status(),
        deadline.status(), no_resume.status(), batch_steps.status(),
        reconnects.status(), recv_timeout.status(), miss_limit.status(),
        progress.status(), json.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 2;
    }
  }

  OpenAuditMsg open;
  open.audit_id = static_cast<uint64_t>(*audit_id);
  open.kg_name = kg_name;
  open.design = parsed->GetString("design", "srs");
  open.method = parsed->GetString("method", "ahpd");
  open.alpha = *alpha;
  open.epsilon = *epsilon;
  open.seed = static_cast<uint64_t>(*seed);
  open.twcs_m = static_cast<uint64_t>(*m);
  open.checkpoint_every = static_cast<uint64_t>(*checkpoint_every);
  open.max_steps = static_cast<uint64_t>(*max_steps);
  open.deadline_seconds = *deadline;
  open.resume = !*no_resume;

  AuditClientOptions options;
  options.port = *port;
  if (!parsed->Has("port") && !port_file.empty()) {
    // Re-resolve on every reconnect: a restarted daemon on an ephemeral
    // port rewrites its --port-file, and the client must chase it.
    const int64_t wait = *port_wait_ms;
    options.resolve_port = [port_file, wait]() {
      return ReadPortFile(port_file, wait);
    };
  }
  options.batch_steps = static_cast<uint64_t>(*batch_steps);
  options.recv_timeout_ms = static_cast<uint64_t>(*recv_timeout);
  options.heartbeat_miss_limit = static_cast<int>(*miss_limit);
  options.max_reconnects = static_cast<int>(*reconnects);
  options.tenant = parsed->GetString("tenant");

  AuditClient client(options);
  const bool show_progress = *progress;
  const auto report = client.RunAudit(open, [&](const IntervalUpdateMsg& u) {
    if (show_progress) {
      std::fprintf(stderr,
                   "[step %llu] n=%llu mu=%.4f [%.4f, %.4f] moe=%.4f%s\n",
                   static_cast<unsigned long long>(u.step),
                   static_cast<unsigned long long>(u.annotated_triples),
                   u.mu, u.lower, u.upper, u.moe,
                   u.degraded ? " DEGRADED" : "");
    }
  });
  if (!report.ok()) {
    std::fprintf(stderr, "audit failed: %s\n",
                 report.status().ToString().c_str());
    if (client.stats().quota_exceeded_frames != 0) {
      const QuotaExceededMsg& q = client.stats().last_quota_exceeded;
      std::fprintf(stderr, "[client] quota_exceeded=%s remaining=%llu\n",
                   q.quota.c_str(),
                   static_cast<unsigned long long>(q.remaining));
    }
    return 1;
  }

  // Render the report with the daemon-shipped result: identical inputs to
  // what a local run feeds the renderer, hence identical bytes.
  ReportContext context;
  context.dataset_name = report->dataset_name;
  context.design_name = report->design_name;
  EvaluationConfig config;
  config.method = *method;
  config.alpha = *alpha;
  config.moe_threshold = *epsilon;
  if (*json) {
    std::printf("%s\n",
                RenderJsonReport(context, config, report->result).c_str());
  } else {
    std::printf("%s",
                RenderTextReport(context, config, report->result).c_str());
  }
  const AuditClientStats& stats = client.stats();
  std::fprintf(stderr,
               "[client] audit_id=%llu oracle_calls=%llu store_hits=%llu "
               "checkpoints=%llu retries=%llu resumed=%d start_step=%llu "
               "labels_on_file=%llu updates=%llu reconnects=%llu "
               "busy_retries=%llu heartbeats=%llu degraded=%d\n",
               static_cast<unsigned long long>(report->audit_id),
               static_cast<unsigned long long>(report->oracle_calls),
               static_cast<unsigned long long>(report->store_hits),
               static_cast<unsigned long long>(report->checkpoints_written),
               static_cast<unsigned long long>(report->store_retries),
               stats.opened.resumed ? 1 : 0,
               static_cast<unsigned long long>(stats.opened.start_step),
               static_cast<unsigned long long>(stats.opened.labels_on_file),
               static_cast<unsigned long long>(stats.updates_received),
               static_cast<unsigned long long>(stats.reconnects),
               static_cast<unsigned long long>(stats.busy_retries),
               static_cast<unsigned long long>(stats.heartbeats_sent),
               report->degraded ? 1 : 0);
  return report->result.converged ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) { return RunMain(argc, argv); }
