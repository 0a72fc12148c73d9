// kgaccd — the crash-tolerant networked audit daemon.
//
// Serves the kgacc audit protocol (net/protocol.h) over loopback TCP:
// clients open audits against registered knowledge graphs, stream
// annotation step batches, and receive per-step interval updates plus a
// final report that renders byte-identically to a local `kgacc_audit` run.
// Every judgment lands in a per-audit write-ahead annotation store before
// it is consumed, and sessions checkpoint into the same log, so a SIGKILL
// of this process loses *nothing*: restart it, reconnect the client, and
// the audit resumes from the last checkpoint to the identical report —
// already-labeled triples are never re-paid.
//
// Robustness surface: per-connection heartbeats with idle reaping, session
// step budgets and wall-clock deadlines, admission control with explicit
// Busy push-back, degrade-vs-fail store taxonomy, and graceful drain on
// SIGTERM/SIGINT (stop admitting, checkpoint every live session, flush,
// exit 0). Chaos hooks: `--failpoints` (or KGACC_FAILPOINTS) arms the
// `net.*` and store failpoints, and `audit.kill=every:N` SIGKILLs the
// daemon between its N-th step and that step's checkpoint.
//
// Examples:
//   kgaccd --kg demo=facts.tsv --store-dir /var/lib/kgacc
//   kgaccd --kg a=a.tsv,b=b.tsv --port 7471 --workers 4
//   kgaccd --kg demo=facts.tsv --store-dir s --port 0 --port-file port.txt
//   kgaccd --kg demo=facts.tsv --store-dir s --failpoints net.accept=once
//   kgaccd --kg demo=facts.tsv --store-dir s --failpoints audit.kill=every:7

#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <vector>

#include "kgacc/kgacc.h"
#include "kgacc/net/server.h"
#include "kgacc/util/arg_parser.h"

namespace {

using namespace kgacc;

AuditDaemon* g_daemon = nullptr;

// Signal path: an atomic flag flip plus one write() on the wake pipe —
// both async-signal-safe. The poll loop does the actual drain.
void HandleDrainSignal(int) {
  if (g_daemon != nullptr) g_daemon->RequestDrain();
}

ArgParser BuildParser() {
  ArgParser parser;
  parser
      .AddFlag("kg",
               "registered populations as name=path.tsv[,name=path...] "
               "(required)")
      .AddFlag("store-dir",
               "directory for per-audit annotation stores (required)")
      .AddFlag("port", "listen port on 127.0.0.1 (default 0 = ephemeral)")
      .AddFlag("port-file",
               "write the bound port here once listening (for scripts "
               "using --port=0)")
      .AddFlag("workers", "step-execution workers (default: hardware)")
      .AddFlag("max-sessions", "admission: live session cap (default 64)")
      .AddFlag("max-inflight",
               "admission: in-flight step batches per connection "
               "(default 4)")
      .AddFlag("max-connections", "admission: connection cap (default 64)")
      .AddFlag("heartbeat-interval-ms",
               "advertised client heartbeat cadence (default 5000)")
      .AddFlag("idle-timeout-ms",
               "reap connections silent this long (default 30000)")
      .AddFlag("default-max-steps",
               "step budget when the client requests none (default 0 = "
               "unlimited)")
      .AddFlag("checkpoint-every",
               "checkpoint cadence floor in steps (default 1)")
      .AddFlag("compact-threshold",
               "auto-compact a KG store once this fraction of its log is "
               "garbage (default 0 = drain-time compaction only)")
      .AddFlag("tenants",
               "tenants file: one 'id key=value...' line per tenant "
               "(oracle_budget, store_quota, weight, max_sessions, "
               "max_inflight_steps; '*' = fallback). Omitted = open "
               "single-tenant mode with unlimited budgets")
      .AddFlag("failpoints",
               "fault-injection spec, name=policy;... (also read from "
               "KGACC_FAILPOINTS); see failpoint.h for the grammar")
      .AddFlag("help", "show this help");
  return parser;
}

std::vector<std::pair<std::string, std::string>> ParseKgSpec(
    const std::string& spec) {
  std::vector<std::pair<std::string, std::string>> kgs;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    if (end > start) {
      const std::string item = spec.substr(start, end - start);
      const size_t eq = item.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
        return {};
      }
      kgs.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    }
    start = end + 1;
  }
  return kgs;
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

  std::string failpoints = parsed->GetString("failpoints");
  if (failpoints.empty()) {
    const char* env = std::getenv("KGACC_FAILPOINTS");
    if (env != nullptr) failpoints = env;
  }
  if (!failpoints.empty()) {
    const Status armed = FailpointRegistry::Instance().Arm(failpoints);
    if (!armed.ok()) {
      std::fprintf(stderr, "bad --failpoints: %s\n",
                   armed.ToString().c_str());
      return 2;
    }
    std::fprintf(stderr, "[kgaccd] failpoints armed: %s\n",
                 failpoints.c_str());
  }

  const std::string kg_spec = parsed->GetString("kg");
  const std::string store_dir = parsed->GetString("store-dir");
  if (kg_spec.empty() || store_dir.empty()) {
    std::fprintf(stderr, "--kg and --store-dir are required\n%s",
                 parser.HelpText().c_str());
    return 2;
  }
  const auto named = ParseKgSpec(kg_spec);
  if (named.empty()) {
    std::fprintf(stderr, "--kg must be name=path[,name=path...], got "
                 "'%s'\n", kg_spec.c_str());
    return 2;
  }

  const auto port = parsed->GetInt("port", 0, 0, 65535);
  const auto workers = parsed->GetInt("workers", 0, 0, INT_MAX);
  const auto max_sessions = parsed->GetInt("max-sessions", 64, 0, INT64_MAX);
  const auto max_inflight = parsed->GetInt("max-inflight", 4, 0, INT64_MAX);
  const auto max_connections =
      parsed->GetInt("max-connections", 64, 0, INT64_MAX);
  const auto heartbeat_ms =
      parsed->GetInt("heartbeat-interval-ms", 5000, 0, INT64_MAX);
  const auto idle_ms = parsed->GetInt("idle-timeout-ms", 30000, 0, INT64_MAX);
  const auto default_max_steps =
      parsed->GetInt("default-max-steps", 0, 0, INT64_MAX);
  const auto checkpoint_every =
      parsed->GetInt("checkpoint-every", 1, 1, INT64_MAX);
  const auto compact_threshold = parsed->GetDouble("compact-threshold", 0.0);
  for (const Status& s :
       {port.status(), workers.status(), max_sessions.status(),
        max_inflight.status(), max_connections.status(),
        heartbeat_ms.status(), idle_ms.status(), default_max_steps.status(),
        checkpoint_every.status(), compact_threshold.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 2;
    }
  }

  AuditDaemon::Options options;
  options.port = static_cast<uint16_t>(*port);
  options.store_dir = store_dir;
  options.workers = static_cast<int>(*workers);
  options.max_sessions = static_cast<size_t>(*max_sessions);
  options.max_inflight_batches_per_conn = static_cast<size_t>(*max_inflight);
  options.max_connections = static_cast<size_t>(*max_connections);
  options.heartbeat_interval_ms = static_cast<uint64_t>(*heartbeat_ms);
  options.idle_timeout_ms = static_cast<uint64_t>(*idle_ms);
  options.default_max_steps = static_cast<uint64_t>(*default_max_steps);
  options.checkpoint_every = static_cast<uint64_t>(*checkpoint_every);
  options.auto_compact_garbage_ratio = *compact_threshold;

  const std::string tenants_file = parsed->GetString("tenants");
  if (!tenants_file.empty()) {
    auto registry = TenantRegistry::LoadFile(tenants_file);
    if (!registry.ok()) {
      std::fprintf(stderr, "bad --tenants %s: %s\n", tenants_file.c_str(),
                   registry.status().ToString().c_str());
      return 2;
    }
    options.tenants = std::move(*registry);
    std::fprintf(stderr, "[kgaccd] tenants loaded: %zu explicit%s\n",
                 options.tenants.tenants().size(),
                 options.tenants.open() ? "" : " (closed registry)");
  }

  AuditDaemon daemon(options);

  // The populations must outlive the daemon; a deque never reallocates
  // already-emplaced elements, so registered pointers stay stable.
  std::deque<KnowledgeGraph> kgs;
  for (const auto& [name, path] : named) {
    auto kg = LoadKgFromTsv(path);
    if (!kg.ok()) {
      std::fprintf(stderr, "cannot load --kg %s=%s: %s\n", name.c_str(),
                   path.c_str(), kg.status().ToString().c_str());
      return 1;
    }
    kgs.push_back(std::move(*kg));
    daemon.RegisterKg(name, &kgs.back());
    std::fprintf(stderr, "[kgaccd] registered %s: %llu triples\n",
                 name.c_str(),
                 static_cast<unsigned long long>(kgs.back().num_triples()));
  }

  const Status started = daemon.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start daemon: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  g_daemon = &daemon;
  std::signal(SIGTERM, HandleDrainSignal);
  std::signal(SIGINT, HandleDrainSignal);

  std::fprintf(stderr, "[kgaccd] listening on 127.0.0.1:%u (store-dir %s)\n",
               daemon.port(), store_dir.c_str());
  const std::string port_file = parsed->GetString("port-file");
  if (!port_file.empty()) {
    // Write-then-rename so a polling script never reads a partial file.
    const std::string tmp = port_file + ".tmp";
    FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write --port-file %s\n",
                   port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", daemon.port());
    std::fclose(f);
    std::rename(tmp.c_str(), port_file.c_str());
  }

  daemon.Wait();
  g_daemon = nullptr;
  std::fprintf(stderr, "[kgaccd] drained: %s\n",
               daemon.StatsLine().c_str());
  if (daemon.ledger() != nullptr) {
    for (const TenantBalance& balance : daemon.ledger()->Balances()) {
      std::fprintf(stderr,
                   "[kgaccd] tenant %s: oracle_spent=%llu store_bytes=%llu\n",
                   balance.tenant.c_str(),
                   static_cast<unsigned long long>(balance.oracle_spent),
                   static_cast<unsigned long long>(balance.store_bytes));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RunMain(argc, argv); }
