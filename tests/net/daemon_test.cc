#include "kgacc/net/server.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "kgacc/eval/report.h"
#include "kgacc/eval/session.h"
#include "kgacc/kg/knowledge_graph.h"
#include "kgacc/net/client.h"
#include "kgacc/net/socket.h"
#include "kgacc/sampling/srs.h"
#include "kgacc/util/failpoint.h"

#include <gtest/gtest.h>

// End-to-end coverage of the audit daemon's robustness model, in-process:
// a real AuditDaemon on a loopback socket, driven by the real AuditClient
// and by a raw protocol peer for the adversarial cases. The recurring
// assertion is the crash-tolerance contract — whatever happens to
// connections or processes, the audit's final report is byte-identical to
// an uninterrupted run and already-paid labels are never re-paid.

namespace kgacc {
namespace {

std::string TempDir(const char* name) {
  const std::string dir = testing::TempDir() + "/kgacc_daemon_test_" + name +
                          "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A deterministic ~600-triple population with clustered errors — small
/// enough that default-config audits converge in well under a second.
KnowledgeGraph TestKg() {
  KnowledgeGraphBuilder builder;
  for (int s = 0; s < 200; ++s) {
    const int facts = 1 + (s * 7 + 3) % 5;
    for (int o = 0; o < facts; ++o) {
      // Cluster-correlated labels: "bad" subjects are wrong more often.
      const bool bad_subject = (s % 11) == 0;
      const bool correct = bad_subject ? ((s + o) % 3 == 0)
                                       : ((s * 31 + o * 17) % 10 != 0);
      builder.Add("s" + std::to_string(s), "p" + std::to_string(o % 3),
                  "o" + std::to_string(s * 10 + o), correct);
    }
  }
  return *builder.Build();
}

/// The local, storeless, networkless reference run the daemon must match.
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

AuditDaemon::Options DaemonOptions(const std::string& store_dir) {
  AuditDaemon::Options options;
  options.port = 0;
  options.store_dir = store_dir;
  options.workers = 2;
  return options;
}

AuditClientOptions ClientOptions(uint16_t port) {
  AuditClientOptions options;
  options.port = port;
  options.recv_timeout_ms = 2000;
  return options;
}

/// A raw protocol peer for the adversarial tests: speaks exactly the bytes
/// the test tells it to, no retries, no cleverness.
class TestPeer {
 public:
  Status Connect(uint16_t port, bool hello = true) {
    auto fd = ConnectTcp(port);
    if (!fd.ok()) return fd.status();
    fd_ = std::move(*fd);
    KGACC_RETURN_IF_ERROR(SetRecvTimeoutMs(fd_.get(), 1500));
    if (hello) {
      KGACC_RETURN_IF_ERROR(Send(FrameOf(HelloMsg{})));
      auto ack = Read();
      if (!ack.ok()) return ack.status();
      if (ack->type != static_cast<uint8_t>(MessageType::kHelloAck)) {
        return Status::Internal(std::string("expected HelloAck, got ") +
                                MessageTypeName(ack->type));
      }
    }
    return Status::OK();
  }

  Status Send(const std::vector<uint8_t>& bytes) {
    return SendAll(fd_.get(), {bytes.data(), bytes.size()});
  }

  /// Next frame, or kDeadlineExceeded on a quiet socket, or IoError once
  /// the daemon closed on us.
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

  /// True when the daemon has closed the connection (EOF or reset).
  bool ReadUntilClosed() {
    for (int i = 0; i < 20; ++i) {
      auto frame = Read();
      if (!frame.ok()) {
        return frame.status().code() != StatusCode::kDeadlineExceeded;
      }
    }
    return false;
  }

 private:
  OwnedFd fd_;
  FrameAssembler assembler_;
};

TEST(AuditDaemonTest, HappyPathMatchesLocalRunByteForByte) {
  const KnowledgeGraph kg = TestKg();
  const EvaluationResult reference = ReferenceRun(kg, 42);

  const std::string dir = TempDir("happy");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  OpenAuditMsg open;
  open.audit_id = 1;
  open.kg_name = "kg";
  AuditClient client(ClientOptions(daemon.port()));
  uint64_t updates = 0;
  auto report = client.RunAudit(open, [&](const IntervalUpdateMsg& update) {
    ++updates;
    EXPECT_GT(update.annotated_triples, 0u);
    EXPECT_GE(update.upper, update.lower);
  });
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The subscription delivered one update per step, and the shipped result
  // renders byte-identically to the storeless local run.
  EXPECT_EQ(updates, static_cast<uint64_t>(reference.iterations));
  EXPECT_EQ(RenderedJson("kg", report->design_name, report->result),
            RenderedJson("kg", "SRS", reference));
  EXPECT_GT(report->oracle_calls, 0u);
  EXPECT_FALSE(report->degraded);
  EXPECT_EQ(daemon.stats().sessions_opened.load(), 1u);
  EXPECT_EQ(daemon.stats().sessions_failed.load(), 0u);
  daemon.Stop();
}

TEST(AuditDaemonTest, SanitizedKgNamesNeverShareAStoreFile) {
  // Regression: the store filename maps non-alphanumerics to '_', so "a b"
  // and "a_b" used to alias onto one WAL file — two AnnotationStore
  // instances over one log with separate stdio buffers, i.e. interleaved
  // frames and corruption. The hash suffix keeps the mapping injective:
  // distinct registered names get distinct files and audit independently.
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("aliasing");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("a b", &kg);
  daemon.RegisterKg("a_b", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  OpenAuditMsg open;
  open.audit_id = 1;
  open.kg_name = "a b";
  AuditClient first(ClientOptions(daemon.port()));
  auto report1 = first.RunAudit(open);
  ASSERT_TRUE(report1.ok()) << report1.status().ToString();

  open.audit_id = 2;
  open.kg_name = "a_b";
  AuditClient second(ClientOptions(daemon.port()));
  auto report2 = second.RunAudit(open);
  ASSERT_TRUE(report2.ok()) << report2.status().ToString();
  // The stores are independent: the second KG repaid nothing from the
  // first one's labels (they are different namespaces, whatever the
  // sanitized name says).
  EXPECT_GT(report2->oracle_calls, 0u);
  daemon.Stop();

  // Exactly one per-KG store each (plus the daemon's tenant quota ledger,
  // which is not a KG namespace).
  size_t kg_wal_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".wal") continue;
    kg_wal_files +=
        entry.path().filename().string().rfind("kg_", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(kg_wal_files, 2u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/tenant_ledger.wal"));
}

TEST(AuditDaemonTest, ReopeningAFinishedAuditRepaysNothing) {
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("reopen");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  OpenAuditMsg open;
  open.audit_id = 9;
  open.kg_name = "kg";
  AuditClient first(ClientOptions(daemon.port()));
  auto report1 = first.RunAudit(open);
  ASSERT_TRUE(report1.ok()) << report1.status().ToString();
  ASSERT_GT(report1->oracle_calls, 0u);

  // Same audit id, same store: the daemon resumes the finished session to
  // its end state and replays the report — zero oracle spend.
  AuditClient second(ClientOptions(daemon.port()));
  auto report2 = second.RunAudit(open);
  ASSERT_TRUE(report2.ok()) << report2.status().ToString();
  EXPECT_TRUE(second.stats().opened.resumed);
  EXPECT_GT(second.stats().opened.labels_on_file, 0u);
  EXPECT_EQ(report2->oracle_calls, 0u);
  EXPECT_EQ(report2->store_hits, 0u);
  EXPECT_EQ(RenderedJson("kg", report1->design_name, report1->result),
            RenderedJson("kg", report2->design_name, report2->result));
  daemon.Stop();
}

TEST(AuditDaemonTest, FinishedAuditWritesEachCheckpointOnce) {
  // At a cadence of one step, every step writes its checkpoint as it runs.
  // The final checkpoint of a finished audit, and a reopen of it, would
  // only repeat the last record (and its fsync), so neither writes one.
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("ckpt_once");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  OpenAuditMsg open;
  open.audit_id = 11;
  open.kg_name = "kg";
  open.checkpoint_every = 1;
  AuditClient first(ClientOptions(daemon.port()));
  auto report1 = first.RunAudit(open);
  ASSERT_TRUE(report1.ok()) << report1.status().ToString();
  EXPECT_EQ(report1->checkpoints_written,
            static_cast<uint64_t>(report1->result.iterations));

  AuditClient second(ClientOptions(daemon.port()));
  auto report2 = second.RunAudit(open);
  ASSERT_TRUE(report2.ok()) << report2.status().ToString();
  EXPECT_TRUE(second.stats().opened.resumed);
  EXPECT_EQ(report2->checkpoints_written, 0u);
  daemon.Stop();
}

TEST(AuditDaemonTest, DaemonRestartMidAuditResumesByteIdentical) {
  const KnowledgeGraph kg = TestKg();
  const EvaluationResult reference = ReferenceRun(kg, 42);
  ASSERT_GE(reference.iterations, 4);
  const std::string dir = TempDir("restart");

  OpenAuditMsg open;
  open.audit_id = 5;
  open.kg_name = "kg";

  // Leg 1: a step budget stops the session halfway — the session fails
  // with kDeadlineExceeded (explicitly, to the client) but its labels and
  // checkpoint are durable. Then the daemon goes away entirely.
  {
    AuditDaemon daemon(DaemonOptions(dir));
    daemon.RegisterKg("kg", &kg);
    ASSERT_TRUE(daemon.Start().ok());
    OpenAuditMsg budgeted = open;
    budgeted.max_steps = static_cast<uint64_t>(reference.iterations) / 2;
    AuditClient client(ClientOptions(daemon.port()));
    auto report = client.RunAudit(budgeted);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(daemon.stats().deadline_exceeded.load(), 1u);
    EXPECT_EQ(daemon.stats().sessions_failed.load(), 0u);  // budget != bug
    daemon.Stop();
  }

  // Leg 2: a fresh daemon process-equivalent over the same store resumes
  // the audit (no budget this time) to the byte-identical reference.
  {
    AuditDaemon daemon(DaemonOptions(dir));
    daemon.RegisterKg("kg", &kg);
    ASSERT_TRUE(daemon.Start().ok());
    AuditClient client(ClientOptions(daemon.port()));
    auto report = client.RunAudit(open);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(client.stats().opened.resumed);
    EXPECT_GT(client.stats().opened.start_step, 0u);
    EXPECT_GT(client.stats().opened.labels_on_file, 0u);
    // The resumed leg pays only the not-yet-labeled triples.
    EXPECT_LT(report->oracle_calls,
              static_cast<uint64_t>(reference.annotated_triples));
    EXPECT_EQ(RenderedJson("kg", report->design_name, report->result),
              RenderedJson("kg", "SRS", reference));
    EXPECT_EQ(daemon.stats().sessions_resumed.load(), 1u);
    daemon.Stop();
  }
}

TEST(AuditDaemonTest, SessionLimitAnswersBusyNeverHangs) {
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("busy");
  auto options = DaemonOptions(dir);
  options.max_sessions = 1;
  AuditDaemon daemon(options);
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  TestPeer peer;
  ASSERT_TRUE(peer.Connect(daemon.port()).ok());
  OpenAuditMsg first;
  first.audit_id = 1;
  first.kg_name = "kg";
  ASSERT_TRUE(peer.Send(FrameOf(first)).ok());
  auto opened = peer.Read();
  ASSERT_TRUE(opened.ok());
  ASSERT_EQ(opened->type, static_cast<uint8_t>(MessageType::kAuditOpened));

  OpenAuditMsg second = first;
  second.audit_id = 2;  // a *different* session: over the limit
  ASSERT_TRUE(peer.Send(FrameOf(second)).ok());
  auto busy = peer.Read();
  ASSERT_TRUE(busy.ok());
  ASSERT_EQ(busy->type, static_cast<uint8_t>(MessageType::kBusy));
  auto msg = Decode<BusyMsg>(busy->payload);
  ASSERT_TRUE(msg.ok());
  EXPECT_GT(msg->retry_after_ms, 0u);
  EXPECT_FALSE(msg->reason.empty());
  EXPECT_GE(daemon.stats().busy_rejections.load(), 1u);
  daemon.Stop();
}

TEST(AuditDaemonTest, UnknownKgIsAnExplicitNotFoundError) {
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("notfound");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  OpenAuditMsg open;
  open.audit_id = 1;
  open.kg_name = "no-such-population";
  AuditClient client(ClientOptions(daemon.port()));
  auto report = client.RunAudit(open);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
  daemon.Stop();
}

TEST(AuditDaemonTest, FramesBeforeHelloFailTheConnection) {
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("hello_first");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  TestPeer peer;
  ASSERT_TRUE(peer.Connect(daemon.port(), /*hello=*/false).ok());
  HeartbeatMsg probe;
  probe.nonce = 1;
  ASSERT_TRUE(peer.Send(FrameOf(probe)).ok());
  auto reply = peer.Read();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, static_cast<uint8_t>(MessageType::kError));
  auto err = Decode<ErrorMsg>(reply->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_TRUE(err->fatal_to_connection);
  EXPECT_TRUE(peer.ReadUntilClosed());
  daemon.Stop();
}

TEST(AuditDaemonTest, VersionOneHelloIsConnectionFatal) {
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("v1_hello");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  TestPeer peer;
  ASSERT_TRUE(peer.Connect(daemon.port(), /*hello=*/false).ok());
  // A v1 Hello: magic and version, no tenant string.
  ByteWriter v1;
  v1.Fixed32(kNetMagic);
  v1.Varint(1);
  ByteWriter frame;
  frame.PutFrame(static_cast<uint8_t>(MessageType::kHello), v1.span());
  ASSERT_TRUE(peer.Send(frame.bytes()).ok());
  auto reply = peer.Read();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, static_cast<uint8_t>(MessageType::kError));
  auto err = Decode<ErrorMsg>(reply->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_TRUE(err->fatal_to_connection);
  EXPECT_TRUE(peer.ReadUntilClosed());
  daemon.Stop();
}

TEST(AuditClientTest, ErrorFrameCarryingOkFailsTheAuditInsteadOfAborting) {
  // A scripted daemon: it answers the handshake and the open, then pushes
  // an Error whose code byte is 0 (OK) and which claims to end the session.
  auto listener = ListenTcp(0);
  ASSERT_TRUE(listener.ok());
  const auto port = LocalPort(listener->get());
  ASSERT_TRUE(port.ok());
  ByteWriter not_an_error;
  not_an_error.U8(0);
  not_an_error.Varint(5);
  not_an_error.Bool(true);
  not_an_error.Bool(false);
  not_an_error.String("all is well");
  ByteWriter script;
  const std::vector<uint8_t> ack = FrameOf(HelloAckMsg{});
  script.Rest(ack);
  AuditOpenedMsg opened;
  opened.audit_id = 5;
  const std::vector<uint8_t> opened_frame = FrameOf(opened);
  script.Rest(opened_frame);
  script.PutFrame(static_cast<uint8_t>(MessageType::kError),
                  not_an_error.span());

  std::atomic<bool> client_done{false};
  std::thread fake([&] {
    OwnedFd conn;
    while (!conn.valid() && !client_done.load()) {
      auto accepted = AcceptTcp(listener->get());
      if (!accepted.ok()) return;
      if (accepted->valid()) {
        conn = std::move(*accepted);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (!conn.valid()) return;
    (void)SendAll(conn.get(), script.span());
    // Hold the connection open until the client has read the script.
    while (!client_done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  AuditClientOptions options = ClientOptions(*port);
  options.max_reconnects = 0;
  AuditClient client(options);
  OpenAuditMsg open;
  open.audit_id = 5;
  open.kg_name = "kg";
  const auto report = client.RunAudit(open);
  client_done = true;
  fake.join();
  EXPECT_FALSE(report.ok());
}

TEST(AuditDaemonTest, GarbageBytesFailTheConnectionNotTheDaemon) {
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("garbage");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  TestPeer vandal;
  ASSERT_TRUE(vandal.Connect(daemon.port()).ok());
  std::vector<uint8_t> garbage(256);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<uint8_t>(0xA5 ^ (i * 13));
  }
  ASSERT_TRUE(vandal.Send(garbage).ok());
  EXPECT_TRUE(vandal.ReadUntilClosed());
  EXPECT_GE(daemon.stats().connections_failed.load(), 1u);

  // The daemon shrugged it off: a well-behaved audit still completes.
  OpenAuditMsg open;
  open.audit_id = 3;
  open.kg_name = "kg";
  AuditClient client(ClientOptions(daemon.port()));
  auto report = client.RunAudit(open);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  daemon.Stop();
}

TEST(AuditDaemonTest, HeartbeatsAckedAndDropFailpointIsCountedNotFatal) {
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("heartbeat");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  TestPeer peer;
  ASSERT_TRUE(peer.Connect(daemon.port()).ok());
  HeartbeatMsg probe;
  probe.nonce = 7;
  ASSERT_TRUE(peer.Send(FrameOf(probe)).ok());
  auto ack = peer.Read();
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  ASSERT_EQ(ack->type, static_cast<uint8_t>(MessageType::kHeartbeatAck));
  auto decoded = Decode<HeartbeatAckMsg>(ack->payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->nonce, 7u);
  EXPECT_EQ(daemon.stats().heartbeats_acked.load(), 1u);

  {
    ScopedFailpoints fp("net.heartbeat.drop=once");
    ASSERT_TRUE(fp.status().ok());
    probe.nonce = 8;
    ASSERT_TRUE(peer.Send(FrameOf(probe)).ok());
    auto dropped = peer.Read();  // nothing comes back
    ASSERT_FALSE(dropped.ok());
    EXPECT_EQ(dropped.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(daemon.stats().heartbeat_acks_dropped.load(), 1u);
    EXPECT_GE(daemon.stats().faults_injected.load(), 1u);
  }

  // Disarmed: liveness is back, same connection.
  probe.nonce = 9;
  ASSERT_TRUE(peer.Send(FrameOf(probe)).ok());
  ack = peer.Read();
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->type, static_cast<uint8_t>(MessageType::kHeartbeatAck));
  daemon.Stop();
}

TEST(AuditDaemonTest, TornReadFailpointCostsOneConnectionAuditStillLands) {
  const KnowledgeGraph kg = TestKg();
  const EvaluationResult reference = ReferenceRun(kg, 42);
  const std::string dir = TempDir("torn");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  ScopedFailpoints fp("net.read.torn=once");
  ASSERT_TRUE(fp.status().ok());
  OpenAuditMsg open;
  open.audit_id = 6;
  open.kg_name = "kg";
  AuditClient client(ClientOptions(daemon.port()));
  auto report = client.RunAudit(open);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The injected bit flip killed exactly one connection (CRC caught it);
  // the client rebuilt and the audit finished on the reference bytes.
  EXPECT_GE(daemon.stats().faults_injected.load(), 1u);
  EXPECT_GE(daemon.stats().connections_failed.load(), 1u);
  EXPECT_EQ(RenderedJson("kg", report->design_name, report->result),
            RenderedJson("kg", "SRS", reference));
  daemon.Stop();
}

TEST(AuditDaemonTest, GracefulDrainCheckpointsAndResumesElsewhere) {
  const KnowledgeGraph kg = TestKg();
  const EvaluationResult reference = ReferenceRun(kg, 42);
  const std::string dir = TempDir("drain");

  // A raw peer runs a few steps, then the daemon drains underneath it.
  {
    AuditDaemon daemon(DaemonOptions(dir));
    daemon.RegisterKg("kg", &kg);
    ASSERT_TRUE(daemon.Start().ok());
    TestPeer peer;
    ASSERT_TRUE(peer.Connect(daemon.port()).ok());
    OpenAuditMsg open;
    open.audit_id = 8;
    open.kg_name = "kg";
    ASSERT_TRUE(peer.Send(FrameOf(open)).ok());
    auto opened = peer.Read();
    ASSERT_TRUE(opened.ok());
    ASSERT_EQ(opened->type, static_cast<uint8_t>(MessageType::kAuditOpened));
    StepBatchMsg batch;
    batch.audit_id = 8;
    batch.steps = 2;
    ASSERT_TRUE(peer.Send(FrameOf(batch)).ok());
    for (int i = 0; i < 2; ++i) {
      auto update = peer.Read();
      ASSERT_TRUE(update.ok()) << update.status().ToString();
      ASSERT_EQ(update->type,
                static_cast<uint8_t>(MessageType::kIntervalUpdate));
    }

    daemon.RequestDrain();
    // The peer is told, then the connection closes; Stop() returns — no
    // hang waiting on the abandoned session, which checkpointed instead.
    bool saw_drain = false;
    for (int i = 0; i < 20; ++i) {
      auto frame = peer.Read();
      if (!frame.ok()) break;
      if (frame->type == static_cast<uint8_t>(MessageType::kDrain)) {
        saw_drain = true;
      }
    }
    EXPECT_TRUE(saw_drain);
    daemon.Wait();
  }

  // The drained checkpoint is a full resume point: a second daemon over
  // the same store finishes the audit on the reference bytes.
  {
    AuditDaemon daemon(DaemonOptions(dir));
    daemon.RegisterKg("kg", &kg);
    ASSERT_TRUE(daemon.Start().ok());
    OpenAuditMsg open;
    open.audit_id = 8;
    open.kg_name = "kg";
    AuditClient client(ClientOptions(daemon.port()));
    auto report = client.RunAudit(open);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(client.stats().opened.resumed);
    EXPECT_EQ(client.stats().opened.start_step, 2u);
    EXPECT_EQ(RenderedJson("kg", report->design_name, report->result),
              RenderedJson("kg", "SRS", reference));
    daemon.Stop();
  }
}

// ---------------------------------------------------------------------------
// Opens run on the audit's home worker, not the poll thread. The `net.open`
// failpoint sits at the start of the worker-side open: `sleep:MS` holds an
// open in flight, `once` fails one.
// ---------------------------------------------------------------------------

OpenAuditMsg OpenFor(uint64_t audit_id) {
  OpenAuditMsg open;
  open.audit_id = audit_id;
  open.kg_name = "kg";
  return open;
}

Status SendOpen(TestPeer& peer, uint64_t audit_id) {
  return peer.Send(FrameOf(OpenFor(audit_id)));
}

/// Lets a just-sent open reach its worker (and its injected sleep).
void LetTheOpenStart() {
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

TEST(AuditDaemonOpenTest, SlowOpenNeverStallsOtherConnections) {
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("open_async");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());
  ScopedFailpoints fp("net.open=sleep:300");
  ASSERT_TRUE(fp.status().ok());

  TestPeer opener;
  ASSERT_TRUE(opener.Connect(daemon.port()).ok());
  ASSERT_TRUE(SendOpen(opener, 1).ok());
  LetTheOpenStart();

  // While that open sleeps on its worker, a second client is served at
  // once: handshake and heartbeat both land well inside the 300 ms.
  const auto start = std::chrono::steady_clock::now();
  TestPeer other;
  ASSERT_TRUE(other.Connect(daemon.port()).ok());  // Hello -> HelloAck
  HeartbeatMsg probe;
  probe.nonce = 5;
  ASSERT_TRUE(other.Send(FrameOf(probe)).ok());
  auto ack = other.Read();
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->type, static_cast<uint8_t>(MessageType::kHeartbeatAck));
  EXPECT_LT(elapsed_ms, 100.0);

  auto opened = opener.Read();
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->type, static_cast<uint8_t>(MessageType::kAuditOpened));
  daemon.Stop();
}

TEST(AuditDaemonOpenTest, FailedOpenIsSessionFatalAndARetryResumes) {
  const KnowledgeGraph kg = TestKg();
  const EvaluationResult reference = ReferenceRun(kg, 42);
  ASSERT_GE(reference.iterations, 4);
  const std::string dir = TempDir("open_fail");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  // A budgeted first leg leaves a durable mid-audit checkpoint.
  OpenAuditMsg budgeted = OpenFor(4);
  budgeted.max_steps = static_cast<uint64_t>(reference.iterations) / 2;
  AuditClient first(ClientOptions(daemon.port()));
  ASSERT_EQ(first.RunAudit(budgeted).status().code(),
            StatusCode::kDeadlineExceeded);

  {
    ScopedFailpoints fp("net.open=once");
    ASSERT_TRUE(fp.status().ok());
    AuditClient failed(ClientOptions(daemon.port()));
    auto report = failed.RunAudit(OpenFor(4));
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kIoError);
    EXPECT_NE(report.status().message().find("net.open"), std::string::npos)
        << report.status().ToString();
    EXPECT_GE(daemon.stats().faults_injected.load(), 1u);
  }

  // The daemon kept serving, and the failed open left nothing behind: the
  // retry resumes the checkpoint to the uninterrupted run's bytes.
  AuditClient retry(ClientOptions(daemon.port()));
  auto report = retry.RunAudit(OpenFor(4));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(retry.stats().opened.resumed);
  EXPECT_GT(retry.stats().opened.start_step, 0u);
  EXPECT_EQ(RenderedJson("kg", report->design_name, report->result),
            RenderedJson("kg", "SRS", reference));
  EXPECT_EQ(daemon.stats().sessions_failed.load(), 0u);
  daemon.Stop();
}

TEST(AuditDaemonOpenTest, OutOfRangeTwcsMIsASessionFatalInvalidArgument) {
  const KnowledgeGraph kg = TestKg();
  const EvaluationResult reference = ReferenceRun(kg, 42);
  const std::string dir = TempDir("bad_twcs_m");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  // m = 0, and 2^32, whose int cast is 0: TwcsConfig cannot hold either,
  // so admission answers an Error frame before any sampler is built.
  TestPeer peer;
  ASSERT_TRUE(peer.Connect(daemon.port()).ok());
  uint64_t audit_id = 1;
  for (const uint64_t m : {uint64_t{0}, uint64_t{1} << 32}) {
    OpenAuditMsg open = OpenFor(audit_id++);
    open.design = "twcs";
    open.twcs_m = m;
    ASSERT_TRUE(peer.Send(FrameOf(open)).ok());
    auto reply = peer.Read();
    ASSERT_TRUE(reply.ok()) << "m=" << m << ": " << reply.status().ToString();
    ASSERT_EQ(reply->type, static_cast<uint8_t>(MessageType::kError));
    auto err = Decode<ErrorMsg>(reply->payload);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err->code, StatusCode::kInvalidArgument) << err->message;
    EXPECT_EQ(err->audit_id, open.audit_id);
    EXPECT_TRUE(err->fatal_to_session);
    EXPECT_FALSE(err->fatal_to_connection);
  }

  // The same daemon then serves a normal audit to the reference report.
  AuditClient client(ClientOptions(daemon.port()));
  auto report = client.RunAudit(OpenFor(audit_id));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(RenderedJson("kg", report->design_name, report->result),
            RenderedJson("kg", "SRS", reference));
  EXPECT_EQ(daemon.stats().sessions_opened.load(), 1u);
  daemon.Stop();
}

TEST(AuditDaemonOpenTest, DuplicateOpenWhileOpeningAnswersBusy) {
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("open_dup");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());
  ScopedFailpoints fp("net.open=sleep:300");
  ASSERT_TRUE(fp.status().ok());

  TestPeer opener;
  ASSERT_TRUE(opener.Connect(daemon.port()).ok());
  ASSERT_TRUE(SendOpen(opener, 2).ok());
  LetTheOpenStart();

  TestPeer rival;
  ASSERT_TRUE(rival.Connect(daemon.port()).ok());
  ASSERT_TRUE(SendOpen(rival, 2).ok());
  auto busy = rival.Read();
  ASSERT_TRUE(busy.ok()) << busy.status().ToString();
  EXPECT_EQ(busy->type, static_cast<uint8_t>(MessageType::kBusy));

  auto opened = opener.Read();
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->type, static_cast<uint8_t>(MessageType::kAuditOpened));
  EXPECT_EQ(daemon.stats().sessions_opened.load(), 1u);
  daemon.Stop();
}

TEST(AuditDaemonOpenTest, StepBatchSentBeforeAuditOpenedRunsAfterTheOpen) {
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("open_pipelined");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());
  ScopedFailpoints fp("net.open=sleep:100");
  ASSERT_TRUE(fp.status().ok());

  TestPeer peer;
  ASSERT_TRUE(peer.Connect(daemon.port()).ok());
  ASSERT_TRUE(SendOpen(peer, 3).ok());
  StepBatchMsg batch;
  batch.audit_id = 3;
  batch.steps = 2;
  ASSERT_TRUE(peer.Send(FrameOf(batch)).ok());

  auto opened = peer.Read();
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_EQ(opened->type, static_cast<uint8_t>(MessageType::kAuditOpened));
  for (uint64_t step = 1; step <= 2; ++step) {
    auto frame = peer.Read();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame->type, static_cast<uint8_t>(MessageType::kIntervalUpdate));
    auto update = Decode<IntervalUpdateMsg>(frame->payload);
    ASSERT_TRUE(update.ok());
    EXPECT_EQ(update->step, step);
  }
  daemon.Stop();
}

TEST(AuditDaemonOpenTest, DetachWhileOpeningCheckpointsAndReadopts) {
  const KnowledgeGraph kg = TestKg();
  const EvaluationResult reference = ReferenceRun(kg, 42);
  const std::string dir = TempDir("open_detach");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());
  {
    ScopedFailpoints fp("net.open=sleep:200");
    ASSERT_TRUE(fp.status().ok());
    TestPeer quitter;
    ASSERT_TRUE(quitter.Connect(daemon.port()).ok());
    ASSERT_TRUE(SendOpen(quitter, 6).ok());
    LetTheOpenStart();
  }  // The connection closes mid-open; the failpoint disarms.

  // The client meets Busy until the open lands (its backoff outlasts the
  // open), then re-adopts the detached session and finishes on the
  // reference bytes.
  auto patient = ClientOptions(daemon.port());
  patient.backoff.max_attempts = 40;
  patient.backoff.initial_delay_ms = 20.0;
  AuditClient client(patient);
  auto report = client.RunAudit(OpenFor(6));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(RenderedJson("kg", report->design_name, report->result),
            RenderedJson("kg", "SRS", reference));
  EXPECT_EQ(daemon.stats().sessions_opened.load(), 1u);
  daemon.Stop();
}

TEST(AuditDaemonOpenTest, DrainWithQueuedOpensExitsAndRestartResumes) {
  const KnowledgeGraph kg = TestKg();
  const EvaluationResult reference = ReferenceRun(kg, 42);
  ASSERT_GE(reference.iterations, 4);
  const std::string dir = TempDir("open_drain");
  auto options = DaemonOptions(dir);
  options.workers = 1;  // one home worker: later opens queue behind the first
  {
    AuditDaemon daemon(options);
    daemon.RegisterKg("kg", &kg);
    ASSERT_TRUE(daemon.Start().ok());
    OpenAuditMsg budgeted = OpenFor(1);
    budgeted.max_steps = static_cast<uint64_t>(reference.iterations) / 2;
    AuditClient client(ClientOptions(daemon.port()));
    ASSERT_EQ(client.RunAudit(budgeted).status().code(),
              StatusCode::kDeadlineExceeded);

    ScopedFailpoints fp("net.open=sleep:300");
    ASSERT_TRUE(fp.status().ok());
    TestPeer running;  // resumes audit 1's checkpoint
    ASSERT_TRUE(running.Connect(daemon.port()).ok());
    ASSERT_TRUE(SendOpen(running, 1).ok());
    LetTheOpenStart();
    // Audits 2 and 3 queue behind it, 2 with a batch queued behind its
    // open; 3's connection goes away while its open is still queued.
    TestPeer queued;
    ASSERT_TRUE(queued.Connect(daemon.port()).ok());
    ASSERT_TRUE(SendOpen(queued, 2).ok());
    StepBatchMsg batch;
    batch.audit_id = 2;
    batch.steps = 2;
    ASSERT_TRUE(queued.Send(FrameOf(batch)).ok());
    {
      TestPeer abandoned;
      ASSERT_TRUE(abandoned.Connect(daemon.port()).ok());
      ASSERT_TRUE(SendOpen(abandoned, 3).ok());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    // Drain discards the queued opens, waits for the running one, and the
    // poll loop exits: no hang, no crash on a half-built session.
    daemon.RequestDrain();
    daemon.Wait();
    EXPECT_EQ(daemon.stats().sessions_opened.load(), 2u);  // leg 1 + resume
    EXPECT_EQ(daemon.stats().steps_executed.load(),
              static_cast<uint64_t>(reference.iterations) / 2);
  }

  // A restart over the same store resumes audit 1 from its checkpoint and
  // runs the discarded audits from scratch, all to the reference bytes.
  AuditDaemon daemon(options);
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());
  for (uint64_t id : {1, 2, 3}) {
    AuditClient client(ClientOptions(daemon.port()));
    auto report = client.RunAudit(OpenFor(id));
    ASSERT_TRUE(report.ok()) << "audit " << id << ": "
                             << report.status().ToString();
    EXPECT_EQ(client.stats().opened.resumed, id == 1) << "audit " << id;
    EXPECT_EQ(RenderedJson("kg", report->design_name, report->result),
              RenderedJson("kg", "SRS", reference))
        << "audit " << id;
  }
  daemon.Stop();
}

TEST(AuditDaemonTest, DrainingDaemonAnswersBusyAtOpen) {
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("drain_busy");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());
  const uint16_t port = daemon.port();
  daemon.RequestDrain();
  daemon.Wait();

  // With the daemon gone, a client with a tight budget gives up with an
  // explicit transport error — never a hang.
  OpenAuditMsg open;
  open.audit_id = 1;
  open.kg_name = "kg";
  auto options = ClientOptions(port);
  options.max_reconnects = 1;
  options.backoff.max_attempts = 2;
  AuditClient client(options);
  auto report = client.RunAudit(open);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace kgacc
