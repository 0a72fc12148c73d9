// Networked-audit throughput: an in-process `AuditDaemon` on loopback,
// hammered by concurrent `AuditClient` threads running full audits end to
// end (open -> step batches -> interval updates -> final report). Reports
// audits/sec and annotation steps/sec for the cold-audit phase, report
// replays/sec for the finished-audit reopen path (the resume fast path:
// zero oracle calls, one round trip), and a chaos cell with the
// `net.read.torn` failpoint armed to price reconnect-and-resume under a
// lossy transport, and a two-tenant fairness window on a single-worker
// daemon whose served-step split CI gates against the 3:1 DRR weights
// (`check_perf_regression.py --net-fresh`). Emits BENCH_net.json, opening
// with the `host` record (bench_util.h) as the step and service records
// do; the throughput rows are informational — the byte-identity and
// crash-tolerance *contracts* are gated by tests/net/daemon_test.cc and
// the CI daemon stage — but the fairness row is a machine-independent
// ratio and is gated.
//
// Knobs: KGACC_NET_CLIENTS (default 4), KGACC_NET_AUDITS per client
// (default 6), KGACC_NET_FAIRNESS_SECONDS (default 2), KGACC_SEED.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "kgacc/net/client.h"
#include "kgacc/net/server.h"
#include "kgacc/tenant/tenant.h"
#include "kgacc/util/failpoint.h"

#include "bench_util.h"

namespace {

using namespace kgacc;

int EnvInt(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

KnowledgeGraph BenchKg() {
  KnowledgeGraphBuilder builder;
  for (int s = 0; s < 400; ++s) {
    const int facts = 1 + (s * 7 + 3) % 6;
    for (int o = 0; o < facts; ++o) {
      const bool correct = (s * 31 + o * 17) % 10 != 0;
      builder.Add("s" + std::to_string(s), "p" + std::to_string(o % 4),
                  "o" + std::to_string(s * 10 + o), correct);
    }
  }
  return *builder.Build();
}

struct Phase {
  uint64_t audits = 0;
  uint64_t steps = 0;
  uint64_t reconnects = 0;
  uint64_t busy_retries = 0;
  double seconds = 0.0;
};

/// Runs `audits_per_client` full audits on each of `clients` threads, ids
/// offset so every audit is distinct. Returns the aggregate.
Phase RunAudits(uint16_t port, int clients, int audits_per_client,
                uint64_t id_base, uint64_t seed) {
  std::vector<Phase> per_thread(clients);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      AuditClientOptions options;
      options.port = port;
      options.batch_steps = 8;
      options.recv_timeout_ms = 2000;
      for (int a = 0; a < audits_per_client; ++a) {
        OpenAuditMsg open;
        open.audit_id =
            id_base + static_cast<uint64_t>(c) * audits_per_client + a;
        open.kg_name = "bench";
        open.seed = seed + open.audit_id;
        open.checkpoint_every = 8;
        AuditClient client(options);
        auto report = client.RunAudit(open);
        if (!report.ok()) {
          std::fprintf(stderr, "audit %llu failed: %s\n",
                       static_cast<unsigned long long>(open.audit_id),
                       report.status().ToString().c_str());
          continue;
        }
        ++per_thread[c].audits;
        per_thread[c].steps += client.stats().updates_received;
        per_thread[c].reconnects += client.stats().reconnects;
        per_thread[c].busy_retries += client.stats().busy_retries;
      }
    });
  }
  for (auto& t : threads) t.join();
  Phase total;
  total.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  for (const Phase& p : per_thread) {
    total.audits += p.audits;
    total.steps += p.steps;
    total.reconnects += p.reconnects;
    total.busy_retries += p.busy_retries;
  }
  return total;
}

}  // namespace

int main() {
  const uint64_t seed = bench::BaseSeed();
  const int clients = EnvInt("KGACC_NET_CLIENTS", 4);
  const int audits_per_client = EnvInt("KGACC_NET_AUDITS", 6);

  const KnowledgeGraph kg = BenchKg();
  const std::string store_dir =
      std::filesystem::temp_directory_path().string() + "/kgacc_bench_net_" +
      std::to_string(::getpid());
  std::filesystem::remove_all(store_dir);
  std::filesystem::create_directories(store_dir);

  AuditDaemon::Options options;
  options.port = 0;
  options.store_dir = store_dir;
  options.checkpoint_every = 8;
  AuditDaemon daemon(options);
  daemon.RegisterKg("bench", &kg);
  const Status started = daemon.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "daemon: %s\n", started.ToString().c_str());
    return 1;
  }

  std::printf("kgaccd network throughput — %d clients x %d audits, %llu "
              "triples\n",
              clients, audits_per_client,
              static_cast<unsigned long long>(kg.num_triples()));
  bench::Rule(72);

  // Phase 1: cold audits, every label paid to the oracle over the wire.
  const Phase cold =
      RunAudits(daemon.port(), clients, audits_per_client, 1000, seed);
  std::printf("cold audits      %6llu audits  %8.1f audits/s  %9.1f steps/s\n",
              static_cast<unsigned long long>(cold.audits),
              cold.audits / cold.seconds, cold.steps / cold.seconds);

  // Phase 2: reopen every finished audit — the report-replay fast path
  // (resume to done, zero oracle calls, one round trip each).
  const Phase replay =
      RunAudits(daemon.port(), clients, audits_per_client, 1000, seed);
  std::printf("report replays   %6llu audits  %8.1f replays/s\n",
              static_cast<unsigned long long>(replay.audits),
              replay.audits / replay.seconds);

  // Phase 3: the same cold workload with a lossy transport — one read in
  // 40 torn. Clients reconnect and resume; nothing fails, it just costs.
  Phase chaos;
  {
    ScopedFailpoints fp("net.read.torn=every:40");
    if (!fp.status().ok()) {
      std::fprintf(stderr, "failpoints: %s\n",
                   fp.status().ToString().c_str());
      return 1;
    }
    chaos = RunAudits(daemon.port(), clients, audits_per_client, 5000, seed);
  }
  std::printf("torn-read chaos  %6llu audits  %8.1f audits/s  %6llu "
              "reconnects\n",
              static_cast<unsigned long long>(chaos.audits),
              chaos.audits / chaos.seconds,
              static_cast<unsigned long long>(chaos.reconnects));
  bench::Rule(72);
  std::printf("daemon: %s\n", daemon.StatsLine().c_str());
  daemon.Stop();

  // Phase 4: weighted fairness under contention. A single-worker daemon with
  // a 3:1 DRR weight split, two tenants looping full audits flat out for a
  // fixed wall-clock window. The served-step share is a property of the
  // scheduler, not the machine, so CI gates |heavy_share - 0.75| via
  // check_perf_regression.py (skipped when the window saw too few audits).
  uint64_t heavy_steps = 0, light_steps = 0, fair_completions = 0;
  double fair_seconds = 0.0;
  {
    const std::string fair_dir = store_dir + "_fair";
    std::filesystem::remove_all(fair_dir);
    std::filesystem::create_directories(fair_dir);
    AuditDaemon::Options fair_options;
    fair_options.port = 0;
    fair_options.store_dir = fair_dir;
    fair_options.checkpoint_every = 8;
    fair_options.workers = 1;  // One lane: contention is the point.
    auto registry = TenantRegistry::Parse("heavy weight=3\nlight weight=1\n");
    if (!registry.ok()) {
      std::fprintf(stderr, "registry: %s\n",
                   registry.status().ToString().c_str());
      return 1;
    }
    fair_options.tenants = *std::move(registry);
    AuditDaemon fair_daemon(fair_options);
    fair_daemon.RegisterKg("bench", &kg);
    const Status fair_started = fair_daemon.Start();
    if (!fair_started.ok()) {
      std::fprintf(stderr, "fair daemon: %s\n",
                   fair_started.ToString().c_str());
      return 1;
    }
    const int window_seconds = EnvInt("KGACC_NET_FAIRNESS_SECONDS", 2);
    // Several sessions per tenant keep each tenant's queue backlogged on
    // the single worker — with one outstanding batch per session the
    // scheduler would never face a choice and the share would measure
    // client round-trips, not DRR weights.
    const int sessions_per_tenant = EnvInt("KGACC_NET_FAIRNESS_SESSIONS", 4);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(window_seconds);
    const auto fair_start = std::chrono::steady_clock::now();
    std::atomic<uint64_t> steps_by_side[2] = {{0}, {0}};
    std::atomic<uint64_t> done_by_side[2] = {{0}, {0}};
    auto spin = [&](const char* tenant, int side, uint64_t id_base) {
      AuditClientOptions copts;
      copts.port = fair_daemon.port();
      copts.tenant = tenant;
      copts.batch_steps = 8;
      copts.recv_timeout_ms = 2000;
      for (uint64_t a = 0; std::chrono::steady_clock::now() < deadline; ++a) {
        OpenAuditMsg open;
        open.audit_id = id_base + a;
        open.kg_name = "bench";
        open.seed = seed + open.audit_id;
        open.checkpoint_every = 8;
        AuditClient client(copts);
        if (!client.RunAudit(open).ok()) continue;
        steps_by_side[side].fetch_add(client.stats().updates_received,
                                      std::memory_order_relaxed);
        done_by_side[side].fetch_add(1, std::memory_order_relaxed);
      }
    };
    std::vector<std::thread> spinners;
    for (int t = 0; t < sessions_per_tenant; ++t) {
      spinners.emplace_back(spin, "heavy", 0,
                            uint64_t{100000} + uint64_t(t) * 10000);
      spinners.emplace_back(spin, "light", 1,
                            uint64_t{200000} + uint64_t(t) * 10000);
    }
    for (auto& t : spinners) t.join();
    heavy_steps = steps_by_side[0].load();
    light_steps = steps_by_side[1].load();
    fair_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - fair_start)
                       .count();
    fair_completions = done_by_side[0].load() + done_by_side[1].load();
    fair_daemon.Stop();
    std::filesystem::remove_all(fair_dir);
  }
  const uint64_t fair_steps = heavy_steps + light_steps;
  const double heavy_share =
      fair_steps == 0 ? 0.0
                      : static_cast<double>(heavy_steps) /
                            static_cast<double>(fair_steps);
  std::printf("tenant fairness  %6llu audits  heavy share %.3f "
              "(weights 3:1 -> 0.750)\n",
              static_cast<unsigned long long>(fair_completions), heavy_share);
  bench::Rule(72);

  const uint64_t expected =
      static_cast<uint64_t>(clients) * audits_per_client;
  const bool complete = cold.audits == expected &&
                        replay.audits == expected &&
                        chaos.audits == expected;
  if (!complete) std::fprintf(stderr, "some audits failed\n");

  std::FILE* json = std::fopen("BENCH_net.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "[\n  %s,\n"
                 "  {\"bench\": \"net_cold_audits\", \"clients\": %d, "
                 "\"audits\": %llu, \"audits_per_sec\": %.2f, "
                 "\"steps_per_sec\": %.2f},\n",
                 bench::HostRecordJson().c_str(), clients,
                 static_cast<unsigned long long>(cold.audits),
                 cold.audits / cold.seconds, cold.steps / cold.seconds);
    std::fprintf(json,
                 "  {\"bench\": \"net_report_replay\", \"clients\": %d, "
                 "\"replays_per_sec\": %.2f},\n",
                 clients, replay.audits / replay.seconds);
    std::fprintf(json,
                 "  {\"bench\": \"net_chaos_torn_read\", \"clients\": %d, "
                 "\"audits_per_sec\": %.2f, \"reconnects\": %llu},\n",
                 clients, chaos.audits / chaos.seconds,
                 static_cast<unsigned long long>(chaos.reconnects));
    std::fprintf(json,
                 "  {\"bench\": \"net_tenant_fairness\", \"heavy_weight\": 3, "
                 "\"light_weight\": 1, \"heavy_share\": %.4f, "
                 "\"expected_share\": 0.75, \"heavy_steps\": %llu, "
                 "\"light_steps\": %llu, \"completions\": %llu, "
                 "\"seconds\": %.2f}\n"
                 "]\n",
                 heavy_share, static_cast<unsigned long long>(heavy_steps),
                 static_cast<unsigned long long>(light_steps),
                 static_cast<unsigned long long>(fair_completions),
                 fair_seconds);
    std::fclose(json);
    std::printf("wrote BENCH_net.json\n");
  }
  std::filesystem::remove_all(store_dir);
  return complete ? 0 : 1;
}
