// End-to-end multi-tenancy on the audit daemon, per ISSUE: two tenants
// share one daemon; one exhausts its oracle budget mid-stream and is
// checkpointed (non-fatal QuotaExceeded — never a kill) while the other's
// audit completes byte-identical to a solo run; a daemon restart replays
// bitwise-identical ledger balances and a raised budget resumes the
// starved audit without re-paying a label; admission rejections are
// QuotaExceeded (a spent budget), distinct from Busy (transient load), and
// the client surfaces them immediately instead of backing off.

#include "kgacc/net/server.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "kgacc/eval/report.h"
#include "kgacc/eval/session.h"
#include "kgacc/kg/knowledge_graph.h"
#include "kgacc/net/client.h"
#include "kgacc/sampling/srs.h"
#include "kgacc/tenant/tenant.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

std::string TempDir(const char* name) {
  const std::string dir = testing::TempDir() + "/kgacc_tenant_daemon_" +
                          name + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Same deterministic clustered population the daemon tests use.
KnowledgeGraph TestKg() {
  KnowledgeGraphBuilder builder;
  for (int s = 0; s < 200; ++s) {
    const int facts = 1 + (s * 7 + 3) % 5;
    for (int o = 0; o < facts; ++o) {
      const bool bad_subject = (s % 11) == 0;
      const bool correct = bad_subject ? ((s + o) % 3 == 0)
                                       : ((s * 31 + o * 17) % 10 != 0);
      builder.Add("s" + std::to_string(s), "p" + std::to_string(o % 3),
                  "o" + std::to_string(s * 10 + o), correct);
    }
  }
  return *builder.Build();
}

EvaluationResult ReferenceRun(const KnowledgeGraph& kg, uint64_t seed) {
  OracleAnnotator oracle;
  SrsSampler sampler(kg, SrsConfig{});
  EvaluationConfig config;
  EvaluationSession session(sampler, oracle, config, seed);
  auto result = session.Run();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

std::string RenderedJson(const std::string& dataset,
                         const std::string& design,
                         const EvaluationResult& result) {
  ReportContext context;
  context.dataset_name = dataset;
  context.design_name = design;
  EvaluationConfig config;
  return RenderJsonReport(context, config, result);
}

AuditDaemon::Options DaemonOptions(const std::string& store_dir,
                                   const std::string& tenants_spec) {
  AuditDaemon::Options options;
  options.port = 0;
  options.store_dir = store_dir;
  options.workers = 2;
  if (!tenants_spec.empty()) {
    auto registry = TenantRegistry::Parse(tenants_spec);
    EXPECT_TRUE(registry.ok()) << registry.status().ToString();
    options.tenants = std::move(*registry);
  }
  return options;
}

AuditClientOptions ClientOptions(uint16_t port, const std::string& tenant) {
  AuditClientOptions options;
  options.port = port;
  options.recv_timeout_ms = 2000;
  options.tenant = tenant;
  return options;
}

/// A raw protocol peer whose Hello announces a tenant — for the admission
/// cases where the real client's retry machinery would get in the way.
class TenantPeer {
 public:
  Status Connect(uint16_t port, const std::string& tenant) {
    auto fd = ConnectTcp(port);
    if (!fd.ok()) return fd.status();
    fd_ = std::move(*fd);
    KGACC_RETURN_IF_ERROR(SetRecvTimeoutMs(fd_.get(), 1500));
    HelloMsg hello;
    hello.tenant = tenant;
    KGACC_RETURN_IF_ERROR(Send(FrameOf(hello)));
    auto ack = Read();
    if (!ack.ok()) return ack.status();
    if (ack->type != static_cast<uint8_t>(MessageType::kHelloAck)) {
      return Status::Internal(std::string("expected HelloAck, got ") +
                              MessageTypeName(ack->type));
    }
    return Status::OK();
  }

  Status Send(const std::vector<uint8_t>& bytes) {
    return SendAll(fd_.get(), {bytes.data(), bytes.size()});
  }

  Result<NetFrame> Read() {
    NetFrame frame;
    while (true) {
      KGACC_ASSIGN_OR_RETURN(const bool have, assembler_.Next(&frame));
      if (have) return frame;
      uint8_t buf[4096];
      KGACC_ASSIGN_OR_RETURN(const size_t n,
                             RecvSome(fd_.get(), buf, sizeof(buf)));
      if (n == 0) return Status::IoError("peer: daemon closed connection");
      assembler_.Feed({buf, n});
    }
  }

 private:
  OwnedFd fd_;
  FrameAssembler assembler_;
};

TEST(TenantDaemonTest, BudgetExhaustionStarvesOneTenantNotTheOther) {
  const KnowledgeGraph kg = TestKg();
  const EvaluationResult reference = ReferenceRun(kg, 42);
  const std::string dir = TempDir("exhaustion");
  // A budget an audit cannot finish under: distinct-label spend is at most
  // annotated_triples, so half of it trips mid-stream.
  const uint64_t budget =
      std::max<uint64_t>(5, reference.annotated_triples / 2);

  uint64_t alice_leg1_spend = 0;
  std::vector<TenantBalance> balances_at_shutdown;
  {
    AuditDaemon daemon(DaemonOptions(
        dir, "alice oracle_budget=" + std::to_string(budget) +
                 " weight=1\n"
                 "bob weight=3\n"));
    daemon.RegisterKg("kg", &kg);
    ASSERT_TRUE(daemon.Start().ok());

    // Alice runs into her budget mid-stream: the session is checkpointed
    // and the rejection is surfaced as QuotaExceeded — immediately, with
    // zero Busy-style backoff rounds (a spent budget is not load).
    OpenAuditMsg alice_open;
    alice_open.audit_id = 1;
    alice_open.kg_name = "kg";
    AuditClient alice(ClientOptions(daemon.port(), "alice"));
    auto alice_report = alice.RunAudit(alice_open);
    ASSERT_FALSE(alice_report.ok());
    EXPECT_EQ(alice_report.status().code(), StatusCode::kQuotaExceeded);
    EXPECT_GE(alice.stats().quota_exceeded_frames, 1u);
    EXPECT_EQ(alice.stats().last_quota_exceeded.quota, "oracle_budget");
    EXPECT_FALSE(alice.stats().last_quota_exceeded.fatal_to_session);
    EXPECT_EQ(alice.stats().busy_retries, 0u);
    EXPECT_GE(daemon.stats().quota_exhaustions.load(), 1u);
    // Exhaustion is not a session failure: the audit is parked, resumable.
    EXPECT_EQ(daemon.stats().sessions_failed.load(), 0u);

    // Bob is untouched by his neighbour's bankruptcy: byte-identical to
    // the storeless solo run.
    OpenAuditMsg bob_open;
    bob_open.audit_id = 2;
    bob_open.kg_name = "kg";
    AuditClient bob(ClientOptions(daemon.port(), "bob"));
    auto bob_report = bob.RunAudit(bob_open);
    ASSERT_TRUE(bob_report.ok()) << bob_report.status().ToString();
    EXPECT_EQ(RenderedJson("kg", bob_report->design_name,
                           bob_report->result),
              RenderedJson("kg", "SRS", reference));

    // A *new* audit under the spent budget is rejected at admission —
    // again QuotaExceeded, not Busy, and no backoff loop burned time on
    // it. (Re-opening audit 1 itself would re-adopt the parked session,
    // which deliberately skips admission.)
    OpenAuditMsg fresh_open;
    fresh_open.audit_id = 3;
    fresh_open.kg_name = "kg";
    AuditClient again(ClientOptions(daemon.port(), "alice"));
    auto rejected = again.RunAudit(fresh_open);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kQuotaExceeded);
    EXPECT_EQ(again.stats().last_quota_exceeded.quota, "oracle_budget");
    EXPECT_EQ(again.stats().busy_retries, 0u);
    EXPECT_GE(daemon.stats().quota_rejections.load(), 1u);

    // The durable spend sits exactly in [budget, full-audit): the gate
    // stops the session on the first step boundary at or past the budget.
    ASSERT_NE(daemon.ledger(), nullptr);
    alice_leg1_spend = daemon.ledger()->Balance("alice").oracle_spent;
    EXPECT_GE(alice_leg1_spend, budget);
    EXPECT_LT(alice_leg1_spend, reference.annotated_triples);
    daemon.Stop();
    balances_at_shutdown = daemon.ledger()->Balances();
    ASSERT_EQ(balances_at_shutdown.size(), 2u);  // alice and bob
  }

  // Restart with a raised budget: the ledger replays bitwise-identical
  // balances, and alice's parked audit resumes from its checkpoint to the
  // byte-identical reference without re-paying a single label.
  {
    AuditDaemon daemon(
        DaemonOptions(dir, "alice weight=1\nbob weight=3\n"));
    daemon.RegisterKg("kg", &kg);
    ASSERT_TRUE(daemon.Start().ok());
    ASSERT_NE(daemon.ledger(), nullptr);
    const std::vector<TenantBalance> replayed = daemon.ledger()->Balances();
    ASSERT_EQ(replayed.size(), balances_at_shutdown.size());
    for (size_t i = 0; i < replayed.size(); ++i) {
      EXPECT_EQ(replayed[i].tenant, balances_at_shutdown[i].tenant);
      EXPECT_EQ(replayed[i].oracle_spent,
                balances_at_shutdown[i].oracle_spent);
      EXPECT_EQ(replayed[i].store_bytes,
                balances_at_shutdown[i].store_bytes);
    }

    OpenAuditMsg alice_open;
    alice_open.audit_id = 1;
    alice_open.kg_name = "kg";
    AuditClient alice(ClientOptions(daemon.port(), "alice"));
    auto report = alice.RunAudit(alice_open);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(alice.stats().opened.resumed);
    EXPECT_GT(alice.stats().opened.start_step, 0u);
    EXPECT_EQ(RenderedJson("kg", report->design_name, report->result),
              RenderedJson("kg", "SRS", reference));
    // Labels paid before the exhaustion were never re-paid: the two legs
    // sum to exactly the ledger's final balance.
    EXPECT_EQ(daemon.ledger()->Balance("alice").oracle_spent,
              alice_leg1_spend + report->oracle_calls);
    daemon.Stop();
  }
}

TEST(TenantDaemonTest, StoreQuotaOverrunDegradesButCompletesTheAudit) {
  const KnowledgeGraph kg = TestKg();
  const EvaluationResult reference = ReferenceRun(kg, 42);
  const std::string dir = TempDir("store_quota");
  // One byte of store quota: the first charged frame trips it, the
  // annotator drops to read-only, and the audit still converges.
  AuditDaemon daemon(DaemonOptions(dir, "carol store_quota=1\n"));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  OpenAuditMsg open;
  open.audit_id = 1;
  open.kg_name = "kg";
  AuditClient carol(ClientOptions(daemon.port(), "carol"));
  auto report = carol.RunAudit(open);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Soft quota: persistence degraded, result unharmed — still the
  // reference bytes.
  EXPECT_TRUE(report->degraded);
  EXPECT_TRUE(carol.stats().degraded_seen);
  EXPECT_GE(carol.stats().quota_exceeded_frames, 1u);
  EXPECT_EQ(carol.stats().last_quota_exceeded.quota, "store_quota");
  // The statistical payload is the reference bytes; only the degradation
  // marker (flag + cause note) differs, by design.
  EvaluationResult normalized = report->result;
  EXPECT_NE(normalized.degradation_note.find("quota"), std::string::npos)
      << normalized.degradation_note;
  normalized.degraded = false;
  normalized.degradation_note.clear();
  EXPECT_EQ(RenderedJson("kg", report->design_name, normalized),
            RenderedJson("kg", "SRS", reference));
  EXPECT_GE(daemon.stats().quota_degraded.load(), 1u);
  EXPECT_EQ(daemon.stats().sessions_failed.load(), 0u);
  daemon.Stop();
}

TEST(TenantDaemonTest, UnknownTenantOnClosedRegistryIsNotFound) {
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("unknown");
  // Closed registry (no '*'): only alice exists.
  AuditDaemon daemon(DaemonOptions(dir, "alice weight=1\n"));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  OpenAuditMsg open;
  open.audit_id = 1;
  open.kg_name = "kg";
  auto options = ClientOptions(daemon.port(), "mallory");
  options.max_reconnects = 1;
  options.backoff.max_attempts = 2;
  AuditClient client(options);
  auto report = client.RunAudit(open);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);

  // The registered tenant is unaffected.
  AuditClient alice(ClientOptions(daemon.port(), "alice"));
  auto ok_report = alice.RunAudit(open);
  EXPECT_TRUE(ok_report.ok()) << ok_report.status().ToString();
  daemon.Stop();
}

TEST(TenantDaemonTest, TenantSessionCapIsQuotaExceededNotBusy) {
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("session_cap");
  auto options = DaemonOptions(dir, "alice max_sessions=1\n* weight=1\n");
  options.max_sessions = 8;  // Daemon-wide cap far above the tenant's.
  AuditDaemon daemon(options);
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  // First session occupies alice's only slot via a raw connection that
  // holds the audit open.
  TenantPeer holder;
  ASSERT_TRUE(holder.Connect(daemon.port(), "alice").ok());
  OpenAuditMsg first;
  first.audit_id = 1;
  first.kg_name = "kg";
  ASSERT_TRUE(holder.Send(FrameOf(first)).ok());
  auto opened = holder.Read();
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_EQ(opened->type, static_cast<uint8_t>(MessageType::kAuditOpened));

  // A second session for the same tenant trips the per-tenant cap: the
  // frame is QuotaExceeded naming the quota, not a generic Busy.
  OpenAuditMsg second = first;
  second.audit_id = 2;
  ASSERT_TRUE(holder.Send(FrameOf(second)).ok());
  auto rejected = holder.Read();
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  ASSERT_EQ(rejected->type,
            static_cast<uint8_t>(MessageType::kQuotaExceeded));
  auto msg = Decode<QuotaExceededMsg>(rejected->payload);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->quota, "max_sessions");
  EXPECT_TRUE(msg->fatal_to_session);
  EXPECT_GE(daemon.stats().quota_rejections.load(), 1u);

  // Another tenant is not crowded out by alice's cap.
  OpenAuditMsg other = first;
  other.audit_id = 3;
  AuditClient bob(ClientOptions(daemon.port(), "bob"));
  auto report = bob.RunAudit(other);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  daemon.Stop();
}

}  // namespace
}  // namespace kgacc
