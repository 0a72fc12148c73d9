#include "kgacc/net/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>

#include "kgacc/sampling/cluster.h"
#include "kgacc/sampling/srs.h"
#include "kgacc/sampling/stratified.h"
#include "kgacc/sampling/systematic.h"
#include "kgacc/util/codec.h"
#include "kgacc/util/failpoint.h"

namespace kgacc {

namespace {

using Clock = std::chrono::steady_clock;

/// DRR cost of an open, in steps: a sampler build is charged like one step,
/// so a tenant opening many audits takes its weighted turns like one
/// sending many batches.
constexpr uint64_t kOpenCost = 1;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The sampling designs a protocol design string can name.
enum class SamplingDesign { kSrs, kTwcs, kWcs, kRcs, kSsrs, kSys };

/// Also checks TWCS's second-stage size, which `TwcsConfig` holds as a
/// positive int. Cheap: the daemon rejects an unknown design or a bad m at
/// admission, before any build.
Result<SamplingDesign> ParseSamplingDesign(const std::string& design,
                                           uint64_t twcs_m) {
  if (design == "srs") return SamplingDesign::kSrs;
  if (design == "twcs") {
    if (twcs_m < 1 || twcs_m > static_cast<uint64_t>(INT_MAX)) {
      return Status::InvalidArgument(
          "twcs second-stage size m must be in [1, " +
          std::to_string(INT_MAX) + "], got " + std::to_string(twcs_m));
    }
    return SamplingDesign::kTwcs;
  }
  if (design == "wcs") return SamplingDesign::kWcs;
  if (design == "rcs") return SamplingDesign::kRcs;
  if (design == "ssrs") return SamplingDesign::kSsrs;
  if (design == "sys") return SamplingDesign::kSys;
  return Status::InvalidArgument("unknown sampling design: " + design);
}

std::unique_ptr<Sampler> BuildSampler(const KnowledgeGraph& kg,
                                      SamplingDesign design, int twcs_m,
                                      bool srs_without_replacement) {
  switch (design) {
    case SamplingDesign::kSrs:
      return std::make_unique<SrsSampler>(
          kg, SrsConfig{.without_replacement = srs_without_replacement});
    case SamplingDesign::kTwcs:
      return std::make_unique<TwcsSampler>(
          kg, TwcsConfig{.second_stage_size = twcs_m});
    case SamplingDesign::kWcs:
      return std::make_unique<WcsSampler>(kg, ClusterConfig{});
    case SamplingDesign::kRcs:
      return std::make_unique<RcsSampler>(kg, ClusterConfig{});
    case SamplingDesign::kSsrs:
      return std::make_unique<StratifiedSampler>(kg, StratifiedConfig{});
    case SamplingDesign::kSys:
      return std::make_unique<SystematicSampler>(kg, SystematicConfig{});
  }
  return nullptr;
}

}  // namespace

Result<std::unique_ptr<Sampler>> MakeSamplerForDesign(
    const KnowledgeGraph& kg, const std::string& design, uint64_t twcs_m,
    bool srs_without_replacement) {
  KGACC_ASSIGN_OR_RETURN(const SamplingDesign parsed,
                         ParseSamplingDesign(design, twcs_m));
  return BuildSampler(kg, parsed, static_cast<int>(twcs_m),
                      srs_without_replacement);
}

/// One TCP peer. Owned and touched exclusively by the poll thread.
struct AuditDaemon::Connection {
  OwnedFd fd;
  /// Generation stamp: events from workers target (fd, gen), so a recycled
  /// descriptor never receives a dead connection's frames.
  uint64_t gen = 0;
  FrameAssembler assembler;
  /// Bytes queued for the peer; [outbox_off, size) is still unsent.
  std::vector<uint8_t> outbox;
  size_t outbox_off = 0;
  bool hello_done = false;
  /// Flush the outbox, then close cleanly (used for courtesy replies on
  /// connections the daemon is rejecting or draining).
  bool close_after_flush = false;
  Clock::time_point last_activity = Clock::now();
  /// StepBatch frames admitted but not yet completed by a worker.
  size_t inflight_batches = 0;
  /// Audit ids attached to this connection.
  std::vector<uint64_t> audits;
  /// Normalized tenant id from Hello and its registry config (points into
  /// the daemon's immutable Options::tenants; set once Hello succeeds).
  std::string tenant;
  const TenantConfig* tenant_config = nullptr;

  explicit Connection(OwnedFd sock, uint64_t generation)
      : fd(std::move(sock)), gen(generation) {}
};

/// One audit session: the durable unit that outlives connections. The poll
/// thread owns the registry and all metadata; while `busy` is set, the
/// evaluation members (sampler, audit, design_name) belong
/// to the worker running the open or batch and the poll thread must not
/// touch them. While `opening` is set they are not built yet.
struct AuditDaemon::Session {
  /// What the worker-side open needs from the OpenAudit request, parsed
  /// and validated at admission.
  struct OpenParams {
    const KnowledgeGraph* kg = nullptr;
    SamplingDesign design = SamplingDesign::kSrs;
    int twcs_m = 0;
    uint64_t seed = 0;
    uint64_t checkpoint_every = 1;
    bool resume = false;
  };

  uint64_t audit_id = 0;
  std::string kg_name;
  /// Admitted, but its open has not completed: set by the poll thread at
  /// admission, cleared when the open's event is drained.
  bool opening = false;
  OpenParams open;
  std::string design_name;
  /// The KG's shared store (co-owned with the daemon registry and any
  /// sibling session auditing the same KG; appends group-commit).
  std::shared_ptr<AnnotationStore> store;
  std::unique_ptr<Sampler> sampler;
  OracleAnnotator inner;
  /// The store-backed annotator, session and checkpoints, built by the
  /// open.
  std::unique_ptr<DurableAudit> audit;
  EvaluationConfig config;
  /// Step budget (0 = unlimited) and wall-clock deadline from open/adopt.
  uint64_t max_steps = 0;
  double deadline_seconds = 0.0;
  Clock::time_point opened_at = Clock::now();
  /// Owning connection (-1 = detached, awaiting re-adoption).
  int conn_fd = -1;
  uint64_t conn_gen = 0;
  int home_worker = 0;
  /// Owning tenant (from the opening connection's Hello) and its config —
  /// a pointer into the daemon's immutable Options::tenants, stable for
  /// the daemon's life.
  std::string tenant;
  const TenantConfig* tenant_config = nullptr;
  /// An open or batch is executing on the pool (poll thread sets before
  /// SubmitTo, clears when it drains the item's event).
  bool busy = false;
  /// Written by the worker while busy; read by the poll thread after.
  bool failed = false;
  bool finished = false;
  bool degraded_notified = false;
  /// The tenant's oracle budget ran out mid-audit: the session idles at
  /// its checkpoint (each further batch re-answers with a non-fatal
  /// QuotaExceeded) instead of dying. Worker-written, like `failed`.
  bool quota_exhausted = false;
  /// Spend already charged to the ledger — advanced only on a successful
  /// Charge, so a failed append leaves the delta pending for the next
  /// step (never lost, never double-counted).
  uint64_t metered_oracle_calls = 0;
  uint64_t metered_store_bytes = 0;
  /// Steps completed, atomically mirrored for the poll thread (AuditOpened
  /// on re-adoption reads it while a batch may be running).
  std::atomic<uint64_t> steps_done{0};
};

AuditDaemon::AuditDaemon(const Options& options) : options_(options) {}

AuditDaemon::~AuditDaemon() {
  if (started_.load(std::memory_order_acquire)) Stop();
}

void AuditDaemon::RegisterKg(const std::string& name,
                             const KnowledgeGraph* kg) {
  kgs_[name] = kg;
}

Status AuditDaemon::Start() {
  if (started_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("daemon already started");
  }
  if (options_.store_dir.empty()) {
    return Status::InvalidArgument("AuditDaemon requires a store_dir");
  }
  if (mkdir(options_.store_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("mkdir(" + options_.store_dir +
                           "): " + std::strerror(errno));
  }
  KGACC_ASSIGN_OR_RETURN(OwnedFd listener, ListenTcp(options_.port));
  KGACC_ASSIGN_OR_RETURN(port_, LocalPort(listener.get()));
  listener_ = std::move(listener);
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  wake_read_ = OwnedFd(pipe_fds[0]);
  wake_write_ = OwnedFd(pipe_fds[1]);
  KGACC_RETURN_IF_ERROR(SetNonBlocking(wake_read_.get()));
  KGACC_RETURN_IF_ERROR(SetNonBlocking(wake_write_.get()));
  int workers = options_.workers;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (workers <= 0) workers = 1;
  pool_ = std::make_unique<ThreadPool>(workers);
  worker_sched_.assign(static_cast<size_t>(workers),
                       DrrScheduler(kDrrQuantum));
  worker_busy_.assign(static_cast<size_t>(workers), 0);
  // The tenant ledger shares the store directory but never a KG store's
  // filename (those carry a `kg_` prefix). Appends flush to the OS per
  // frame — enough to survive the SIGKILL the daemon is built around —
  // and the drain epilogue fsyncs.
  AnnotationStore::Options ledger_options;
  auto ledger =
      QuotaLedger::Open(options_.store_dir + "/tenant_ledger.wal",
                        ledger_options);
  if (!ledger.ok()) return ledger.status();
  ledger_ = std::move(*ledger);
  started_.store(true, std::memory_order_release);
  poll_thread_ = std::thread(&AuditDaemon::PollLoop, this);
  return Status::OK();
}

void AuditDaemon::RequestDrain() {
  draining_.store(true, std::memory_order_release);
  WakePoll();
}

void AuditDaemon::Wait() {
  if (poll_thread_.joinable()) poll_thread_.join();
}

void AuditDaemon::Stop() {
  RequestDrain();
  Wait();
  pool_.reset();
}

void AuditDaemon::WakePoll() {
  if (!wake_write_.valid()) return;
  const uint8_t byte = 1;
  // Best-effort: a full pipe already guarantees a pending wakeup.
  (void)!write(wake_write_.get(), &byte, 1);
}

void AuditDaemon::QueueFrame(Connection& conn, std::vector<uint8_t> frame) {
  if (conn.outbox.empty()) {
    conn.outbox = std::move(frame);
  } else {
    conn.outbox.insert(conn.outbox.end(), frame.begin(), frame.end());
  }
}

void AuditDaemon::QueueError(Connection& conn, StatusCode code,
                             uint64_t audit_id, bool fatal_to_session,
                             bool fatal_to_connection,
                             const std::string& message) {
  ErrorMsg err;
  err.code = code;
  err.audit_id = audit_id;
  err.fatal_to_session = fatal_to_session;
  err.fatal_to_connection = fatal_to_connection;
  err.message = message;
  QueueFrame(conn, FrameOf(err));
  if (fatal_to_connection) conn.close_after_flush = true;
}

void AuditDaemon::QueueBusy(Connection& conn, const std::string& reason) {
  stats_.busy_rejections.fetch_add(1, std::memory_order_relaxed);
  BusyMsg busy;
  busy.reason = reason;
  QueueFrame(conn, FrameOf(busy));
}

void AuditDaemon::QueueQuotaExceeded(Connection& conn, uint64_t audit_id,
                                     const std::string& quota,
                                     uint64_t remaining,
                                     const std::string& message) {
  stats_.quota_rejections.fetch_add(1, std::memory_order_relaxed);
  QuotaExceededMsg exceeded;
  exceeded.audit_id = audit_id;
  exceeded.quota = quota;
  exceeded.remaining = remaining;
  exceeded.fatal_to_session = true;
  exceeded.message = message;
  QueueFrame(conn, FrameOf(exceeded));
}

bool AuditDaemon::FlushOutbox(Connection& conn) {
  if (conn.outbox_off >= conn.outbox.size()) return true;
  if (FailpointHit("net.write")) {
    stats_.faults_injected.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  while (conn.outbox_off < conn.outbox.size()) {
    const ssize_t n =
        send(conn.fd.get(), conn.outbox.data() + conn.outbox_off,
             conn.outbox.size() - conn.outbox_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // POLLOUT
      return false;
    }
    conn.outbox_off += static_cast<size_t>(n);
  }
  conn.outbox.clear();
  conn.outbox_off = 0;
  return true;
}

void AuditDaemon::DropQueuedBatches(Session& session) {
  if (session.home_worker < 0 ||
      static_cast<size_t>(session.home_worker) >= worker_sched_.size()) {
    return;
  }
  DrrRemoved removed =
      worker_sched_[session.home_worker].RemoveId(session.audit_id);
  if (session.opening && !session.busy) {
    // The open was still queued and went too; it held no admission slot.
    removed.items -= 1;
    removed.cost -= kOpenCost;
  }
  if (removed.items == 0) return;
  auto tit = tenant_inflight_steps_.find(session.tenant);
  if (tit != tenant_inflight_steps_.end()) {
    tit->second -= std::min(tit->second, removed.cost);
    if (tit->second == 0) tenant_inflight_steps_.erase(tit);
  }
  auto cit = conns_.find(session.conn_fd);
  if (cit != conns_.end() && cit->second->gen == session.conn_gen) {
    Connection& conn = *cit->second;
    conn.inflight_batches -= std::min(conn.inflight_batches, removed.items);
  }
}

void AuditDaemon::DetachSession(Session& session) {
  DropQueuedBatches(session);
  if (session.opening && !session.busy) {
    // Its open was queued, never started: nothing was built or stepped, so
    // the session simply never existed. A reconnect opens it afresh.
    sessions_.erase(session.audit_id);
    return;
  }
  session.conn_fd = -1;
  session.conn_gen = 0;
  // A running open or batch checkpoints when its event drains.
  if (!session.busy && !session.finished && !session.failed) {
    // Bound the reconnect replay: a detached session re-adopts from its
    // freshest possible snapshot. Best effort — every label is already in
    // the WAL regardless.
    (void)session.audit->Checkpoint();
  }
}

void AuditDaemon::CloseConnection(int fd, const Status& cause) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (!cause.ok()) {
    stats_.connections_failed.fetch_add(1, std::memory_order_relaxed);
  }
  for (uint64_t audit_id : it->second->audits) {
    auto sit = sessions_.find(audit_id);
    if (sit != sessions_.end() && sit->second->conn_fd == fd) {
      DetachSession(*sit->second);
    }
  }
  conns_.erase(it);
}

void AuditDaemon::DoAccept() {
  while (true) {
    auto accepted = AcceptTcp(listener_.get());
    if (!accepted.ok()) return;  // transient; the loop retries next wake
    if (!accepted->valid()) return;
    if (FailpointHit("net.accept")) {
      // Injected accept fault: the peer sees an immediate close and
      // retries with backoff — never a hang, never a daemon crash.
      stats_.faults_injected.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    if (conns_.size() >= options_.max_connections || draining()) {
      // Courtesy push-back for a connection the daemon will not serve:
      // a Busy frame (best effort into the socket buffer), then close.
      stats_.busy_rejections.fetch_add(1, std::memory_order_relaxed);
      BusyMsg busy;
      busy.reason = draining() ? "daemon is draining" : "connection limit";
      const std::vector<uint8_t> frame = FrameOf(busy);
      (void)!send(accepted->get(), frame.data(), frame.size(), MSG_NOSIGNAL);
      continue;
    }
    const int fd = accepted->get();
    conns_.emplace(fd, std::make_unique<Connection>(std::move(*accepted),
                                                    next_conn_gen_++));
  }
}

bool AuditDaemon::ServiceReadable(Connection& conn) {
  uint8_t buf[4096];
  while (true) {
    ssize_t n = recv(conn.fd.get(), buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConnection(conn.fd.get(),
                      Status::IoError(std::string("recv: ") +
                                      std::strerror(errno)));
      return false;
    }
    if (n == 0) {
      // Clean close by the peer; its sessions checkpoint and detach.
      CloseConnection(conn.fd.get(), Status::OK());
      return false;
    }
    conn.last_activity = Clock::now();
    if (FailpointHit("net.read.torn")) {
      // Injected torn read: flip one bit mid-chunk. The frame CRC turns
      // this into a descriptive connection failure downstream.
      stats_.faults_injected.fetch_add(1, std::memory_order_relaxed);
      buf[static_cast<size_t>(n) / 2] ^= 0x40;
    }
    conn.assembler.Feed({buf, static_cast<size_t>(n)});
    while (true) {
      NetFrame frame;
      const auto next = conn.assembler.Next(&frame);
      if (!next.ok()) {
        // Corrupt stream: tell the peer why (best effort — its read side
        // usually still works), then fail the connection, not the daemon.
        ErrorMsg err;
        err.code = next.status().code();
        err.fatal_to_connection = true;
        err.message = next.status().message();
        const std::vector<uint8_t> bytes = FrameOf(err);
        (void)!send(conn.fd.get(), bytes.data(), bytes.size(), MSG_NOSIGNAL);
        CloseConnection(conn.fd.get(), next.status());
        return false;
      }
      if (!*next) break;
      if (!HandleFrame(conn, frame)) return false;
    }
    if (static_cast<size_t>(n) < sizeof(buf)) break;
  }
  return true;
}

bool AuditDaemon::HandleFrame(Connection& conn, const NetFrame& frame) {
  const auto type = static_cast<MessageType>(frame.type);
  const std::span<const uint8_t> payload(frame.payload.data(),
                                         frame.payload.size());
  if (!conn.hello_done && type != MessageType::kHello) {
    const Status cause = Status::FailedPrecondition(
        std::string("protocol violation: expected Hello, got ") +
        MessageTypeName(frame.type));
    QueueError(conn, cause.code(), 0, false, true, cause.message());
    return true;  // close_after_flush delivers the error, then closes
  }
  // One decode path for every client message: a body that fails its
  // field list is connection-fatal.
  const auto decode = [&](auto& msg) {
    auto decoded = Decode<std::remove_cvref_t<decltype(msg)>>(payload);
    if (decoded.ok()) {
      msg = std::move(decoded).value();
      return true;
    }
    QueueError(conn, decoded.status().code(), 0, false, true,
               decoded.status().message());
    return false;
  };
  switch (type) {
    case MessageType::kHello: {
      HelloMsg msg;
      if (!decode(msg)) return true;
      if (msg.magic != kNetMagic || msg.version != kNetVersion) {
        QueueError(conn, StatusCode::kInvalidArgument, 0, false, true,
                   "protocol mismatch: peer speaks magic " +
                       std::to_string(msg.magic) + " v" +
                       std::to_string(msg.version));
        return true;
      }
      const std::string tenant = TenantRegistry::Normalize(msg.tenant);
      const TenantConfig* tenant_config = options_.tenants.Lookup(tenant);
      if (tenant_config == nullptr) {
        QueueError(conn, StatusCode::kNotFound, 0, false, true,
                   "unknown tenant '" + tenant +
                       "' (closed registry with no '*' fallback)");
        return true;
      }
      conn.tenant = tenant;
      conn.tenant_config = tenant_config;
      conn.hello_done = true;
      HelloAckMsg ack;
      ack.draining = draining();
      ack.heartbeat_interval_ms = options_.heartbeat_interval_ms;
      ack.idle_timeout_ms = options_.idle_timeout_ms;
      QueueFrame(conn, FrameOf(ack));
      return true;
    }
    case MessageType::kOpenAudit: {
      OpenAuditMsg msg;
      if (decode(msg)) HandleOpenAudit(conn, msg);
      return true;
    }
    case MessageType::kStepBatch: {
      StepBatchMsg msg;
      if (decode(msg)) HandleStepBatch(conn, msg);
      return true;
    }
    case MessageType::kCloseAudit: {
      CloseAuditMsg msg;
      if (!decode(msg)) return true;
      auto sit = sessions_.find(msg.audit_id);
      if (sit != sessions_.end() &&
          sit->second->conn_fd == conn.fd.get()) {
        DetachSession(*sit->second);
        std::erase(conn.audits, msg.audit_id);
      }
      return true;
    }
    case MessageType::kHeartbeat: {
      HeartbeatMsg msg;
      if (!decode(msg)) return true;
      if (FailpointHit("net.heartbeat.drop")) {
        // Injected dead-air: the ack vanishes; the client's miss counter
        // and the idle reaper are the detectors under test.
        stats_.faults_injected.fetch_add(1, std::memory_order_relaxed);
        stats_.heartbeat_acks_dropped.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      stats_.heartbeats_acked.fetch_add(1, std::memory_order_relaxed);
      QueueFrame(conn, FrameOf(HeartbeatAckMsg{msg}));
      return true;
    }
    default: {
      QueueError(conn, StatusCode::kInvalidArgument, 0, false, true,
                 std::string("unexpected frame from client: ") +
                     MessageTypeName(frame.type));
      return true;
    }
  }
}

Result<std::shared_ptr<AnnotationStore>> AuditDaemon::StoreForKg(
    const std::string& name) {
  auto it = stores_.find(name);
  if (it != stores_.end()) return it->second;
  AnnotationStore::Options store_options;
  store_options.sync_checkpoints = options_.sync_checkpoints;
  store_options.auto_compact_garbage_ratio =
      options_.auto_compact_garbage_ratio;
  // Registered names are client-chosen; keep the filename shell-safe, and
  // make it injective by suffixing a hash of the *raw* name — sanitization
  // alone would alias distinct KGs ("a b" and "a_b") onto one WAL file,
  // and two AnnotationStore instances over one log corrupt it (interleaved
  // frames through separate stdio buffers, conflicting truncation).
  std::string sanitized;
  sanitized.reserve(name.size());
  for (const char c : name) {
    sanitized.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0
                            ? c
                            : '_');
  }
  char tag[16];
  std::snprintf(tag, sizeof(tag), "%08x", Crc32c(name.data(), name.size()));
  const std::string path =
      options_.store_dir + "/kg_" + sanitized + "-" + tag + ".wal";
  // Belt over the hash: if two live names ever resolve to one path, refuse
  // the second instead of silently sharing the file.
  const auto claimed = store_paths_.emplace(path, name);
  if (!claimed.second && claimed.first->second != name) {
    return Status::FailedPrecondition(
        "KG '" + name + "' resolves to store file '" + path +
        "' already in use by KG '" + claimed.first->second + "'");
  }
  auto store = AnnotationStore::Open(path, store_options);
  if (!store.ok()) return store.status();
  std::shared_ptr<AnnotationStore> shared = std::move(*store);
  stores_.emplace(name, shared);
  return shared;
}

void AuditDaemon::HandleOpenAudit(Connection& conn, const OpenAuditMsg& msg) {
  if (draining()) {
    QueueBusy(conn, "daemon is draining; reconnect after restart");
    return;
  }
  auto sit = sessions_.find(msg.audit_id);
  if (sit != sessions_.end()) {
    Session& session = *sit->second;
    if (session.opening) {
      // Transient: once the open lands, a retry re-adopts (or, from the
      // opening connection, is already attached).
      QueueBusy(conn, "audit " + std::to_string(msg.audit_id) +
                          " is still opening");
      return;
    }
    if (session.conn_fd >= 0 && session.conn_fd != conn.fd.get() &&
        conns_.count(session.conn_fd) != 0) {
      QueueError(conn, StatusCode::kFailedPrecondition, msg.audit_id, false,
                 false,
                 "audit " + std::to_string(msg.audit_id) +
                     " is attached to another live connection");
      return;
    }
    if (session.tenant != conn.tenant) {
      QueueError(conn, StatusCode::kFailedPrecondition, msg.audit_id, false,
                 false,
                 "audit " + std::to_string(msg.audit_id) +
                     " belongs to tenant '" + session.tenant + "'");
      return;
    }
    // Re-adoption: the session survived its connection. Budgets restart
    // from the adopt point; the evaluation state continues untouched.
    // Tenant quota admission is deliberately skipped — a live session
    // reattaching is not new work, and an exhausted budget already stops
    // its steps.
    session.conn_fd = conn.fd.get();
    session.conn_gen = conn.gen;
    if (!session.busy) {
      session.max_steps =
          msg.max_steps != 0 ? msg.max_steps : options_.default_max_steps;
      session.deadline_seconds = msg.deadline_seconds;
      session.opened_at = Clock::now();
    }
    if (std::find(conn.audits.begin(), conn.audits.end(), msg.audit_id) ==
        conn.audits.end()) {
      conn.audits.push_back(msg.audit_id);
    }
    stats_.sessions_resumed.fetch_add(1, std::memory_order_relaxed);
    AuditOpenedMsg opened;
    opened.audit_id = msg.audit_id;
    opened.resumed = true;
    opened.start_step = session.steps_done.load(std::memory_order_relaxed);
    opened.labels_on_file = session.store->num_labeled();
    opened.design_name = session.design_name;
    opened.dataset_name = session.kg_name;
    QueueFrame(conn, FrameOf(opened));
    return;
  }

  if (sessions_.size() >= options_.max_sessions) {
    QueueBusy(conn, "session limit (" +
                        std::to_string(options_.max_sessions) + ") reached");
    return;
  }
  // Tenant quota admission. Exhausted budgets *reject* new audits (even
  // resumable ones — an operator must raise the budget first); a live
  // session hitting the budget mid-run degrades instead (see RunBatch).
  // QuotaExceeded is not Busy: retrying cannot help until the quota grows.
  const TenantConfig& tenant_config = *conn.tenant_config;
  if (tenant_config.max_sessions != 0) {
    size_t live = 0;
    for (const auto& [id, s] : sessions_) {
      if (s->tenant == conn.tenant) ++live;
    }
    if (live >= tenant_config.max_sessions) {
      QueueQuotaExceeded(
          conn, msg.audit_id, "max_sessions", 0,
          "tenant '" + conn.tenant + "' session cap (" +
              std::to_string(tenant_config.max_sessions) + ") reached");
      return;
    }
  }
  const TenantBalance spent = ledger_->Balance(conn.tenant);
  if (tenant_config.oracle_budget != 0 &&
      spent.oracle_spent >= tenant_config.oracle_budget) {
    QueueQuotaExceeded(
        conn, msg.audit_id, "oracle_budget",
        RemainingAllowance(tenant_config.oracle_budget, spent.oracle_spent),
        "tenant '" + conn.tenant + "' oracle-call budget (" +
            std::to_string(tenant_config.oracle_budget) + ") exhausted");
    return;
  }
  if (tenant_config.store_byte_quota != 0 &&
      spent.store_bytes >= tenant_config.store_byte_quota) {
    QueueQuotaExceeded(
        conn, msg.audit_id, "store_quota",
        RemainingAllowance(tenant_config.store_byte_quota, spent.store_bytes),
        "tenant '" + conn.tenant + "' store-byte quota (" +
            std::to_string(tenant_config.store_byte_quota) + ") exhausted");
    return;
  }
  const auto kg_it = kgs_.find(msg.kg_name);
  if (kg_it == kgs_.end()) {
    QueueError(conn, StatusCode::kNotFound, msg.audit_id, true, false,
               "no registered knowledge graph named '" + msg.kg_name + "'");
    return;
  }
  const auto method = ParseIntervalMethod(msg.method);
  if (!method.ok()) {
    QueueError(conn, method.status().code(), msg.audit_id, true, false,
               method.status().message());
    return;
  }
  const auto design = ParseSamplingDesign(msg.design, msg.twcs_m);
  if (!design.ok()) {
    QueueError(conn, design.status().code(), msg.audit_id, true, false,
               design.status().message());
    return;
  }
  auto store = StoreForKg(msg.kg_name);
  if (!store.ok()) {
    QueueError(conn, store.status().code(), msg.audit_id, true, false,
               "cannot open annotation store: " + store.status().message());
    return;
  }

  auto session = std::make_unique<Session>();
  session->audit_id = msg.audit_id;
  session->kg_name = msg.kg_name;
  session->opening = true;
  session->open.kg = kg_it->second;
  session->open.design = *design;
  session->open.twcs_m = static_cast<int>(msg.twcs_m);
  session->open.seed = msg.seed;
  session->open.checkpoint_every =
      std::max<uint64_t>(msg.checkpoint_every, options_.checkpoint_every);
  session->open.resume = msg.resume;
  session->tenant = conn.tenant;
  session->tenant_config = conn.tenant_config;
  session->config.method = *method;
  session->config.alpha = msg.alpha;
  session->config.moe_threshold = msg.epsilon;
  session->store = std::move(*store);
  session->max_steps =
      msg.max_steps != 0 ? msg.max_steps : options_.default_max_steps;
  session->deadline_seconds = msg.deadline_seconds;
  session->opened_at = Clock::now();
  session->conn_fd = conn.fd.get();
  session->conn_gen = conn.gen;
  session->home_worker = static_cast<int>(
      msg.audit_id % static_cast<uint64_t>(pool_->num_threads()));
  conn.audits.push_back(msg.audit_id);
  // The open queues on the home worker like a batch, so every StepBatch
  // the client sends after it (even before AuditOpened arrives) runs
  // after it, and its sampler build never blocks this thread.
  const int worker = session->home_worker;
  worker_sched_[worker].Push(conn.tenant, tenant_config.weight,
                             DrrItem{msg.audit_id, kOpenCost});
  sessions_.emplace(msg.audit_id, std::move(session));
  PumpWorker(worker);
}

Result<bool> AuditDaemon::OpenSession(Session& session) {
  if (FailpointHit("net.open")) {
    stats_.faults_injected.fetch_add(1, std::memory_order_relaxed);
    return Status::IoError("injected open failure (failpoint net.open)");
  }
  const Session::OpenParams& p = session.open;
  session.sampler = BuildSampler(*p.kg, p.design, p.twcs_m,
                                 /*srs_without_replacement=*/false);
  session.design_name = session.sampler->name();
  session.audit = std::make_unique<DurableAudit>(
      *session.sampler, &session.inner, session.store.get(),
      session.audit_id, session.config, p.seed,
      DurableAudit::Options{.checkpoint_every = p.checkpoint_every});
  if (!p.resume || !session.audit->checkpoints().CanResume()) return false;
  KGACC_RETURN_IF_ERROR(session.audit->Resume());
  session.steps_done.store(
      static_cast<uint64_t>(session.audit->session().iterations()),
      std::memory_order_relaxed);
  stats_.sessions_resumed.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void AuditDaemon::RunOpen(Session* session, int conn_fd, uint64_t conn_gen,
                          int worker) {
  Event ev;
  ev.conn_fd = conn_fd;
  ev.conn_gen = conn_gen;
  ev.audit_id = session->audit_id;
  ev.worker = worker;
  ev.open = true;
  const auto resumed = OpenSession(*session);
  if (resumed.ok()) {
    AuditOpenedMsg opened;
    opened.audit_id = session->audit_id;
    opened.resumed = *resumed;
    opened.start_step = session->steps_done.load(std::memory_order_relaxed);
    opened.labels_on_file = session->store->num_labeled();
    opened.design_name = session->design_name;
    opened.dataset_name = session->kg_name;
    ev.frames = FrameOf(opened);
  } else {
    ErrorMsg err;
    err.code = resumed.status().code();
    err.audit_id = session->audit_id;
    err.fatal_to_session = true;
    err.message = "cannot open audit " + std::to_string(session->audit_id) +
                  ": " + resumed.status().message();
    ev.frames = FrameOf(err);
    ev.session_failed = true;
  }
  {
    std::lock_guard<std::mutex> lock(events_mu_);
    events_.push_back(std::move(ev));
  }
  WakePoll();
}

void AuditDaemon::HandleStepBatch(Connection& conn, const StepBatchMsg& msg) {
  auto sit = sessions_.find(msg.audit_id);
  if (sit == sessions_.end() || sit->second->conn_fd != conn.fd.get()) {
    QueueError(conn, StatusCode::kFailedPrecondition, msg.audit_id, true,
               false,
               "audit " + std::to_string(msg.audit_id) +
                   " is not open on this connection");
    return;
  }
  if (draining()) {
    QueueBusy(conn, "daemon is draining; reconnect after restart");
    return;
  }
  if (msg.steps == 0) return;
  if (conn.inflight_batches >= options_.max_inflight_batches_per_conn) {
    QueueBusy(conn, "in-flight batch limit (" +
                        std::to_string(
                            options_.max_inflight_batches_per_conn) +
                        ") reached");
    return;
  }
  Session& session = *sit->second;
  const TenantConfig& tenant_config = *session.tenant_config;
  if (tenant_config.max_inflight_steps != 0) {
    uint64_t inflight = 0;
    auto tit = tenant_inflight_steps_.find(session.tenant);
    if (tit != tenant_inflight_steps_.end()) inflight = tit->second;
    if (inflight + msg.steps > tenant_config.max_inflight_steps) {
      // Transient back-pressure, not a budget violation: the cap frees as
      // batches complete, so Busy (retry-later) is the honest answer.
      QueueBusy(conn, "tenant '" + session.tenant +
                          "' in-flight step cap (" +
                          std::to_string(tenant_config.max_inflight_steps) +
                          ") reached");
      return;
    }
  }
  ++conn.inflight_batches;
  tenant_inflight_steps_[session.tenant] += msg.steps;
  // Weighted fairness: batches queue per worker in tenant DRR queues
  // (cost = steps) instead of running FIFO, so a heavy tenant's backlog
  // cannot starve a light tenant sharing the worker.
  worker_sched_[session.home_worker].Push(
      session.tenant, tenant_config.weight,
      DrrItem{session.audit_id, msg.steps});
  PumpWorker(session.home_worker);
}

void AuditDaemon::PumpWorker(int worker) {
  if (worker < 0 || static_cast<size_t>(worker) >= worker_sched_.size()) {
    return;
  }
  if (worker_busy_[worker] != 0) return;
  DrrScheduler& sched = worker_sched_[worker];
  while (!sched.empty()) {
    const std::optional<DrrItem> item = sched.Pop();
    if (!item.has_value()) break;
    auto sit = sessions_.find(item->id);
    if (sit == sessions_.end()) continue;  // evicted with work still queued
    Session& session = *sit->second;
    session.busy = true;
    worker_busy_[worker] = 1;
    Session* sp = &session;
    const int fd = session.conn_fd;
    const uint64_t gen = session.conn_gen;
    if (session.opening) {
      // An opening session's first (and only servable) item is its open:
      // it was queued ahead of every batch, and holds the worker slot
      // until it completes.
      pool_->SubmitTo(worker, [this, sp, fd, gen, worker] {
        RunOpen(sp, fd, gen, worker);
      });
      return;
    }
    const uint64_t steps = item->cost;
    pool_->SubmitTo(worker, [this, sp, steps, fd, gen, worker] {
      RunBatch(sp, steps, fd, gen, worker);
    });
    return;
  }
}

std::vector<uint8_t> AuditDaemon::BuildReportFrame(
    Session& session, const EvaluationResult& result) {
  AuditReportMsg report;
  report.audit_id = session.audit_id;
  report.design_name = session.design_name;
  report.dataset_name = session.kg_name;
  report.result = result;
  DurableAudit& audit = *session.audit;
  // The store accounting covers the steps this session's batches ran, not
  // the open's checkpoint replay.
  report.store_hits = audit.annotator().store_hits() - audit.replayed_hits();
  report.oracle_calls = audit.annotator().oracle_calls();
  report.checkpoints_written = audit.checkpoints().checkpoints_written();
  report.store_retries = audit.retries();
  report.degraded = audit.degraded();
  report.degradation_note = audit.degradation_note();
  return FrameOf(report);
}

void AuditDaemon::RunBatch(Session* session, uint64_t steps, int conn_fd,
                           uint64_t conn_gen, int worker) {
  Event ev;
  ev.conn_fd = conn_fd;
  ev.conn_gen = conn_gen;
  ev.audit_id = session->audit_id;
  ev.worker = worker;
  ev.steps = steps;
  ev.tenant = session->tenant;
  auto fail_session = [&](StatusCode code, const std::string& message,
                          bool count_failed) {
    ErrorMsg err;
    err.code = code;
    err.audit_id = session->audit_id;
    err.fatal_to_session = true;
    err.message = message;
    const std::vector<uint8_t> frame = FrameOf(err);
    ev.frames.insert(ev.frames.end(), frame.begin(), frame.end());
    ev.session_failed = true;
    session->failed = true;
    if (count_failed) {
      stats_.sessions_failed.fetch_add(1, std::memory_order_relaxed);
    }
  };
  auto push_quota_exceeded = [&](const std::string& quota, uint64_t remaining,
                                 const std::string& message) {
    QuotaExceededMsg exceeded;
    exceeded.audit_id = session->audit_id;
    exceeded.quota = quota;
    exceeded.remaining = remaining;
    exceeded.fatal_to_session = false;
    exceeded.message = message;
    const std::vector<uint8_t> frame = FrameOf(exceeded);
    ev.frames.insert(ev.frames.end(), frame.begin(), frame.end());
  };
  const TenantConfig& tenant_config = *session->tenant_config;
  DurableAudit& audit = *session->audit;

  for (uint64_t i = 0; i < steps; ++i) {
    if (session->failed || session->finished) break;
    if (session->max_steps != 0 &&
        session->steps_done.load(std::memory_order_relaxed) >=
            session->max_steps) {
      stats_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      fail_session(StatusCode::kDeadlineExceeded,
                   "session step budget (" +
                       std::to_string(session->max_steps) +
                       " steps) exhausted; reopen with a larger budget to "
                       "continue from the checkpoint",
                   /*count_failed=*/false);
      break;
    }
    if (session->deadline_seconds > 0.0 &&
        SecondsSince(session->opened_at) > session->deadline_seconds) {
      stats_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      fail_session(StatusCode::kDeadlineExceeded,
                   "session wall-clock deadline (" +
                       std::to_string(session->deadline_seconds) +
                       "s) exceeded; reopen to continue from the checkpoint",
                   /*count_failed=*/false);
      break;
    }
    if (tenant_config.oracle_budget != 0) {
      // Pre-step budget gate: stop at a step boundary once the tenant's
      // durable spend (plus any delta a failed charge left pending) meets
      // the budget. The session checkpoints and idles — a non-fatal
      // QuotaExceeded per batch, never a kill — so the audit resumes the
      // moment the budget grows. Overshoot is bounded by one step's calls.
      const uint64_t unmetered =
          audit.annotator().oracle_calls() - session->metered_oracle_calls;
      const uint64_t durable =
          ledger_->Balance(session->tenant).oracle_spent;
      if (durable + unmetered >= tenant_config.oracle_budget) {
        if (!session->quota_exhausted) {
          session->quota_exhausted = true;
          stats_.quota_exhaustions.fetch_add(1, std::memory_order_relaxed);
        }
        (void)audit.Checkpoint();
        push_quota_exceeded(
            "oracle_budget",
            RemainingAllowance(tenant_config.oracle_budget,
                               durable + unmetered),
            "tenant '" + session->tenant + "' oracle-call budget (" +
                std::to_string(tenant_config.oracle_budget) +
                ") exhausted at step " +
                std::to_string(
                    session->steps_done.load(std::memory_order_relaxed)) +
                "; session checkpointed — reopen once the budget grows");
        break;
      }
    }

    const auto outcome = audit.Step();
    if (!outcome.ok()) {
      fail_session(outcome.status().code(), outcome.status().message(),
                   /*count_failed=*/true);
      break;
    }
    session->steps_done.fetch_add(1, std::memory_order_relaxed);
    stats_.steps_executed.fetch_add(1, std::memory_order_relaxed);

    // Meter the step's spend durably. Deltas are computed against the
    // last *successfully charged* totals, so a failed append simply rolls
    // the delta into the next step's charge — acknowledged spend is never
    // lost and never double-counted (Charge acks only after the durable
    // cumulative frame settles).
    const uint64_t oracle_now = audit.annotator().oracle_calls();
    const uint64_t bytes_now = audit.bytes_appended();
    const uint64_t oracle_delta = oracle_now - session->metered_oracle_calls;
    const uint64_t bytes_delta = bytes_now - session->metered_store_bytes;
    if (oracle_delta != 0 || bytes_delta != 0) {
      const Status charged =
          ledger_->Charge(session->tenant, oracle_delta, bytes_delta);
      if (charged.ok()) {
        session->metered_oracle_calls = oracle_now;
        session->metered_store_bytes = bytes_now;
      }
    }
    if (tenant_config.store_byte_quota != 0 &&
        !audit.annotator().degraded()) {
      const uint64_t durable_bytes =
          ledger_->Balance(session->tenant).store_bytes;
      const uint64_t unmetered_bytes =
          bytes_now - session->metered_store_bytes;
      if (durable_bytes + unmetered_bytes >=
          tenant_config.store_byte_quota) {
        // Soft quota: the audit keeps running, but new oracle labels stop
        // being persisted (store hits keep serving) — the same degraded
        // read-only mode a sticky WAL failure drops into. Checkpoints
        // still append so the session stays resumable.
        audit.annotator().ForceDegrade(Status::QuotaExceeded(
            "tenant '" + session->tenant + "' store-byte quota (" +
            std::to_string(tenant_config.store_byte_quota) + ") exhausted"));
        stats_.quota_degraded.fetch_add(1, std::memory_order_relaxed);
        push_quota_exceeded(
            "store_quota", 0,
            "tenant '" + session->tenant + "' store-byte quota (" +
                std::to_string(tenant_config.store_byte_quota) +
                ") exhausted; annotation persistence degraded to read-only");
      }
    }

    const bool degraded = audit.degraded();
    if (degraded && !session->degraded_notified) {
      session->degraded_notified = true;
      stats_.sessions_degraded.fetch_add(1, std::memory_order_relaxed);
    }

    // The per-step interval push. Finish() mid-run snapshots the partial
    // result — the only place the asymmetric HPD bounds live. Once done,
    // it is the final result the report carries.
    const auto partial = audit.session().Finish();
    IntervalUpdateMsg update;
    update.audit_id = session->audit_id;
    update.step = session->steps_done.load(std::memory_order_relaxed);
    update.annotated_triples = outcome->annotated_triples;
    update.mu = outcome->mu;
    if (partial.ok()) {
      update.lower = partial->interval.lower;
      update.upper = partial->interval.upper;
      update.moe = partial->interval.Moe();
    } else {
      update.moe = outcome->moe;
    }
    update.done = outcome->done;
    update.stop_reason = static_cast<uint8_t>(outcome->stop_reason);
    update.degraded = degraded;
    const std::vector<uint8_t> frame = FrameOf(update);
    ev.frames.insert(ev.frames.end(), frame.begin(), frame.end());

    if (outcome->done) {
      if (!partial.ok()) {
        fail_session(partial.status().code(),
                     "finalization failed: " + partial.status().ToString(),
                     /*count_failed=*/true);
        break;
      }
      // Final snapshot: a reopened finished audit restores directly to
      // done and regenerates this identical report.
      (void)audit.Checkpoint();
      (void)session->store->Flush();
      const std::vector<uint8_t> report_frame =
          BuildReportFrame(*session, *partial);
      ev.frames.insert(ev.frames.end(), report_frame.begin(),
                       report_frame.end());
      ev.session_finished = true;
      session->finished = true;
      break;
    }
  }

  {
    std::lock_guard<std::mutex> lock(events_mu_);
    events_.push_back(std::move(ev));
  }
  WakePoll();
}

void AuditDaemon::DrainEvents() {
  std::deque<Event> events;
  {
    std::lock_guard<std::mutex> lock(events_mu_);
    events.swap(events_);
  }
  for (Event& ev : events) {
    Connection* conn = nullptr;
    auto cit = conns_.find(ev.conn_fd);
    if (cit != conns_.end() && cit->second->gen == ev.conn_gen) {
      conn = cit->second.get();
    }
    if (conn != nullptr && !ev.frames.empty()) {
      QueueFrame(*conn, std::move(ev.frames));
    }
    // The worker slot frees before any early-out.
    if (ev.worker >= 0 &&
        static_cast<size_t>(ev.worker) < worker_busy_.size()) {
      worker_busy_[ev.worker] = 0;
    }
    auto sit = sessions_.find(ev.audit_id);
    if (ev.open) {
      if (sit != sessions_.end()) {
        Session& session = *sit->second;
        session.busy = false;
        session.opening = false;
        if (ev.session_failed) {
          // Nothing durable happened; the client got the fatal Error. Any
          // batches it queued behind the open are dropped with it.
          if (conn != nullptr) std::erase(conn->audits, ev.audit_id);
          DropQueuedBatches(session);
          sessions_.erase(sit);
        } else {
          stats_.sessions_opened.fetch_add(1, std::memory_order_relaxed);
          if (session.conn_fd < 0) {
            // Detached while opening: checkpoint now, as after a batch.
            (void)session.audit->Checkpoint();
          }
        }
      }
      if (ev.worker >= 0) PumpWorker(ev.worker);
      continue;
    }
    // Return the batch's reservations: the connection's inflight slot and
    // the tenant's inflight-step account.
    if (conn != nullptr && conn->inflight_batches > 0) {
      --conn->inflight_batches;
    }
    auto tit = tenant_inflight_steps_.find(ev.tenant);
    if (tit != tenant_inflight_steps_.end()) {
      tit->second -= std::min(tit->second, ev.steps);
      if (tit->second == 0) tenant_inflight_steps_.erase(tit);
    }
    if (sit != sessions_.end()) {
      Session& session = *sit->second;
      session.busy = false;
      if (ev.session_finished || ev.session_failed) {
        // The session leaves the registry; its store (flushed WAL +
        // checkpoints) remains the durable artifact a reopen resumes from.
        if (ev.session_failed && !session.finished) {
          (void)session.audit->Checkpoint();
        }
        if (conn != nullptr) std::erase(conn->audits, ev.audit_id);
        DropQueuedBatches(session);
        sessions_.erase(sit);
      } else if (session.conn_fd < 0) {
        // Detached mid-batch: checkpoint now that the worker is done.
        (void)session.audit->Checkpoint();
      }
    }
    // The freed worker serves its next queued batch (DRR order).
    if (ev.worker >= 0) PumpWorker(ev.worker);
  }
}

void AuditDaemon::ReapIdle() {
  std::vector<int> stale;
  for (const auto& [fd, conn] : conns_) {
    const double idle_ms =
        SecondsSince(conn->last_activity) * 1000.0;
    if (idle_ms > static_cast<double>(options_.idle_timeout_ms)) {
      stale.push_back(fd);
    }
  }
  for (int fd : stale) {
    stats_.idle_reaped.fetch_add(1, std::memory_order_relaxed);
    // A reaped peer is not a protocol failure: sessions checkpoint and
    // detach, and the client resumes on reconnect.
    CloseConnection(fd, Status::OK());
  }
}

void AuditDaemon::DoDrain() {
  // Stop admitting: the listener closes (new connects are refused by the
  // kernel), live clients get a Drain notice, pending batches are shed.
  listener_.Reset();
  DrainMsg notice;
  notice.message = "daemon draining; sessions checkpointed, reconnect to "
                   "resume";
  for (auto& [fd, conn] : conns_) {
    QueueFrame(*conn, FrameOf(notice));
    conn->close_after_flush = true;
  }
  for (DrrScheduler& sched : worker_sched_) sched.Clear();
  tenant_inflight_steps_.clear();
  // Opens that were still queued went with the queues: those sessions were
  // never built, so they leave the registry (a restart reopens them from
  // the store). Running opens finish first; the poll loop waits for them.
  std::erase_if(sessions_, [](const auto& entry) {
    return entry.second->opening && !entry.second->busy;
  });
}

void AuditDaemon::PollLoop() {
  bool drain_started = false;
  while (true) {
    if (draining() && !drain_started) {
      drain_started = true;
      DoDrain();
    }
    if (drain_started) {
      bool any_busy = false;
      for (const auto& [id, session] : sessions_) {
        if (session->busy) any_busy = true;
      }
      bool events_pending;
      {
        std::lock_guard<std::mutex> lock(events_mu_);
        events_pending = !events_.empty();
      }
      if (!any_busy && !events_pending) break;
    }

    std::vector<pollfd> fds;
    fds.push_back({wake_read_.get(), POLLIN, 0});
    if (listener_.valid()) fds.push_back({listener_.get(), POLLIN, 0});
    std::vector<int> conn_fds;
    for (const auto& [fd, conn] : conns_) {
      short events = POLLIN;
      if (conn->outbox_off < conn->outbox.size()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
      conn_fds.push_back(fd);
    }
    const int timeout_ms = drain_started ? 10 : 100;
    const int ready = poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) break;  // poll itself failed; bail out

    // Drain the wake pipe (level-triggered; one read clears any backlog).
    uint8_t scratch[256];
    while (read(wake_read_.get(), scratch, sizeof(scratch)) > 0) {
    }

    DrainEvents();

    size_t index = 1;
    if (listener_.valid()) {
      if ((fds[index].revents & POLLIN) != 0) DoAccept();
      ++index;
    }
    for (size_t i = 0; i < conn_fds.size(); ++i) {
      const int fd = conn_fds[i];
      const short revents = fds[index + i].revents;
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed by an earlier handler
      Connection& conn = *it->second;
      if ((revents & (POLLERR | POLLHUP)) != 0) {
        CloseConnection(fd, Status::OK());
        continue;
      }
      if ((revents & POLLIN) != 0 && !ServiceReadable(conn)) continue;
      if (!FlushOutbox(conn)) {
        CloseConnection(fd, Status::IoError("connection write failed"));
        continue;
      }
      if (conn.close_after_flush &&
          conn.outbox_off >= conn.outbox.size()) {
        CloseConnection(fd, Status::OK());
      }
    }
    if (!drain_started) ReapIdle();
  }

  // Drain epilogue: every live session checkpoints, then every per-KG
  // store settles once — flush, fsync, and a final compaction so a restart
  // replays a minimal log (the checkpoints just written superseded their
  // predecessors; compacting here also heals a sticky WAL, since the index
  // holds only acknowledged records). A compaction failure is harmless:
  // whichever log it left installed is complete and durable.
  for (auto& [id, session] : sessions_) {
    if (!session->finished && !session->failed) {
      (void)session->audit->Checkpoint();
    }
  }
  for (auto& [name, store] : stores_) {
    (void)store->Flush();
    (void)store->Sync();
    (void)store->Compact();
  }
  if (ledger_ != nullptr) {
    // Same settle for the tenant ledger: fsync the balances and fold each
    // tenant's history to its single live frame.
    (void)ledger_->Flush();
    (void)ledger_->Sync();
    (void)ledger_->Compact();
  }
  for (auto& [fd, conn] : conns_) {
    (void)FlushOutbox(*conn);
  }
  conns_.clear();
  sessions_.clear();
}

std::string AuditDaemon::StatsLine() const {
  auto v = [](const std::atomic<uint64_t>& a) {
    return std::to_string(a.load(std::memory_order_relaxed));
  };
  return "accepted=" + v(stats_.connections_accepted) +
         " conn_failed=" + v(stats_.connections_failed) +
         " idle_reaped=" + v(stats_.idle_reaped) +
         " busy=" + v(stats_.busy_rejections) +
         " deadline=" + v(stats_.deadline_exceeded) +
         " opened=" + v(stats_.sessions_opened) +
         " resumed=" + v(stats_.sessions_resumed) +
         " failed=" + v(stats_.sessions_failed) +
         " degraded=" + v(stats_.sessions_degraded) +
         " steps=" + v(stats_.steps_executed) +
         " quota_rejected=" + v(stats_.quota_rejections) +
         " quota_exhausted=" + v(stats_.quota_exhaustions) +
         " quota_degraded=" + v(stats_.quota_degraded) +
         " hb_acked=" + v(stats_.heartbeats_acked) +
         " hb_dropped=" + v(stats_.heartbeat_acks_dropped) +
         " faults=" + v(stats_.faults_injected);
}

}  // namespace kgacc
