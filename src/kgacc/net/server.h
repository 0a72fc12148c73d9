#ifndef KGACC_NET_SERVER_H_
#define KGACC_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "kgacc/eval/session.h"
#include "kgacc/kg/knowledge_graph.h"
#include "kgacc/net/frame.h"
#include "kgacc/net/protocol.h"
#include "kgacc/net/socket.h"
#include "kgacc/store/annotation_store.h"
#include "kgacc/store/checkpoint.h"
#include "kgacc/tenant/drr.h"
#include "kgacc/tenant/tenant.h"
#include "kgacc/util/thread_pool.h"

/// \file server.h
/// `AuditDaemon` — the crash-tolerant networked audit service behind the
/// `kgaccd` tool. One poll()-loop thread owns every socket and does
/// admission only: drain and cap checks, tenant quotas, KG / method /
/// design-name lookup (with the range of TWCS's m), and opening the KG's
/// shared store on first use (that first store replay is the one heavy
/// step left on it). Everything else runs on the audit's *home worker*:
/// an audit's open and all its batches run on thread `audit_id % workers`
/// of a `ThreadPool` (whose tasks never move between workers), one item
/// in flight per worker, in per-worker weighted DRR order: first the
/// audit's open — sampler build (a TWCS PPS alias table is O(#clusters)),
/// then the session's `DurableAudit` (store/checkpoint.h) and its resume —
/// then its step batches, each step a `DurableAudit::Step`. Workers hand
/// encoded reply frames (AuditOpened, IntervalUpdate, AuditReport, Error)
/// back to the poll thread through an event queue + self-pipe, so sockets
/// are never touched off-thread and one client's open never stalls another
/// client's frames.
///
/// Open edge cases: a duplicate OpenAudit for an audit whose open has not
/// completed answers `Busy`; a StepBatch sent before AuditOpened queues
/// behind the open; a detach while the open runs checkpoints when it
/// completes (as a detach mid-batch does); a queued open is discarded with
/// its connection or by drain, leaving no session behind, while drain waits
/// for running opens.
///
/// Robustness model, in one paragraph: the *session* (audit id + durable
/// `AnnotationStore` file) is the unit that survives; the *connection* is
/// the unit that fails. A torn frame, dead peer, idle timeout, or client
/// crash costs exactly one connection — the session checkpoints and waits
/// to be re-adopted by a reconnect (`OpenAudit{resume}` with the same audit
/// id). A daemon SIGKILL costs every connection but no labels: stores
/// replay on restart, and a reopened session resumes by replaying its
/// checkpointed step count from the stored labels (zero oracle calls, not
/// counted in the report's `store_hits`) to the byte-identical report. Overload is an explicit `Busy` frame (admission
/// control), never a silent hang; budget and wall-clock exhaustion are
/// explicit `Error` frames (`kDeadlineExceeded`); a degraded store demotes
/// the session to read-only persistence and tells the client; a sticky WAL
/// failure kills the session, never the daemon.
///
/// Fault-injection sites (`util/failpoint`): `net.accept` drops a freshly
/// accepted connection, `net.read.torn` flips one bit in a received chunk
/// (the frame CRC catches it downstream), `net.write` fails a connection
/// flush, `net.heartbeat.drop` suppresses one HeartbeatAck, `net.open`
/// fails (or, armed `sleep:MS`, delays) the worker-side open. All five map
/// injected faults to client-visible statuses and robustness counters.
/// `audit.kill` SIGKILLs the daemon between a step and its checkpoint (see
/// `DurableAudit`); the store failpoints apply as in `kgacc_audit`.

namespace kgacc {

/// The audit daemon. Construct, `RegisterKg` the populations it may audit,
/// `Start()`, and eventually `Stop()` (or deliver SIGTERM to `kgaccd`,
/// which calls `RequestDrain`).
class AuditDaemon {
 public:
  struct Options {
    /// Listen port (0 = ephemeral; read back with `port()`).
    uint16_t port = 0;
    /// Directory for per-KG annotation stores (`kg_<name>-<hash>.wal`). Every
    /// session auditing the same registered KG shares one store — labels
    /// bought by any audit serve every later audit of that KG, and
    /// concurrent sessions append through the store's group-commit queue.
    std::string store_dir;
    /// Step-execution workers (0 = hardware concurrency).
    int workers = 0;
    /// Admission control: live (unfinished) sessions the daemon holds.
    size_t max_sessions = 64;
    /// Admission control: unacknowledged StepBatch frames per connection.
    size_t max_inflight_batches_per_conn = 4;
    /// Admission control: simultaneous connections.
    size_t max_connections = 64;
    /// Liveness advertisement to clients (HelloAck).
    uint64_t heartbeat_interval_ms = 5000;
    /// Connections silent this long are reaped (their sessions checkpoint
    /// and detach; nothing is lost).
    uint64_t idle_timeout_ms = 30000;
    /// Step budget applied when OpenAudit asks for none (0 = unlimited).
    uint64_t default_max_steps = 0;
    /// fsync checkpoint frames (the daemon's whole point is surviving
    /// kill -9, so default on).
    bool sync_checkpoints = true;
    /// Session snapshot cadence floor; OpenAudit may ask for coarser.
    uint64_t checkpoint_every = 1;
    /// Auto-compaction threshold handed to every per-KG store (0 = manual
    /// only; drain always compacts). See
    /// `AnnotationStore::Options::auto_compact_garbage_ratio`.
    double auto_compact_garbage_ratio = 0.0;
    /// Tenant id -> quota/weight table. The default (open) registry admits
    /// every tenant with unlimited budgets — single-tenant compatibility
    /// mode. Load a tenants file (`TenantRegistry::LoadFile`) to enforce
    /// per-tenant oracle budgets, store-byte quotas, scheduling weights,
    /// and session/inflight caps. Spend is metered durably in
    /// `store_dir/tenant_ledger.wal`, so budgets survive SIGKILL.
    TenantRegistry tenants;
  };

  /// Per-visit DRR credit for a weight-1 tenant, in steps: about one
  /// StepBatch, so one scheduler visit serves about `weight` batches.
  static constexpr uint64_t kDrrQuantum = 8;

  /// Monotone robustness counters, readable concurrently with operation.
  struct Stats {
    std::atomic<uint64_t> connections_accepted{0};
    /// Connections failed for cause (torn frame, protocol error, net.write).
    std::atomic<uint64_t> connections_failed{0};
    /// Connections reaped by the idle timeout.
    std::atomic<uint64_t> idle_reaped{0};
    /// Admission-control rejections (Busy frames sent).
    std::atomic<uint64_t> busy_rejections{0};
    /// Sessions stopped by a wall-clock deadline or step budget.
    std::atomic<uint64_t> deadline_exceeded{0};
    std::atomic<uint64_t> sessions_opened{0};
    /// Sessions restored from a durable checkpoint (or re-adopted live).
    std::atomic<uint64_t> sessions_resumed{0};
    /// Sessions failed by a sticky store/evaluation error.
    std::atomic<uint64_t> sessions_failed{0};
    /// Sessions that dropped to degraded read-only persistence.
    std::atomic<uint64_t> sessions_degraded{0};
    std::atomic<uint64_t> steps_executed{0};
    /// Admissions refused with a QuotaExceeded frame (tenant budget or cap
    /// already spent — distinct from transient `busy_rejections`).
    std::atomic<uint64_t> quota_rejections{0};
    /// Sessions whose tenant exhausted its oracle budget mid-audit (the
    /// session checkpoints and idles instead of dying).
    std::atomic<uint64_t> quota_exhaustions{0};
    /// Sessions demoted to degraded read-only annotation by a store-byte
    /// quota overrun.
    std::atomic<uint64_t> quota_degraded{0};
    std::atomic<uint64_t> heartbeats_acked{0};
    /// HeartbeatAcks suppressed by the net.heartbeat.drop failpoint.
    std::atomic<uint64_t> heartbeat_acks_dropped{0};
    /// net.* failpoint activations observed.
    std::atomic<uint64_t> faults_injected{0};
  };

  explicit AuditDaemon(const Options& options);
  ~AuditDaemon();

  AuditDaemon(const AuditDaemon&) = delete;
  AuditDaemon& operator=(const AuditDaemon&) = delete;

  /// Registers a population under a client-addressable name. All
  /// registrations must happen before `Start()`; `kg` must outlive the
  /// daemon.
  void RegisterKg(const std::string& name, const KnowledgeGraph* kg);

  /// Binds the listener, spawns the worker pool and the poll thread.
  Status Start();

  /// Initiates graceful drain: stop admitting, notify clients, checkpoint
  /// every live session, flush stores, exit the poll loop. Callable from a
  /// signal handler path (sets a flag and writes the wake pipe).
  void RequestDrain();

  /// Blocks until the poll loop has exited (i.e. drain completed).
  void Wait();

  /// RequestDrain + Wait.
  void Stop();

  /// The bound listen port (valid after Start()).
  uint16_t port() const { return port_; }

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  const Stats& stats() const { return stats_; }

  /// The durable tenant spend ledger (valid after Start()). Exposed for
  /// tests and the kgaccd stats path; budget checks live in the daemon.
  QuotaLedger* ledger() { return ledger_.get(); }
  const QuotaLedger* ledger() const { return ledger_.get(); }

  /// Renders the robustness counters as one log line.
  std::string StatsLine() const;

 private:
  struct Connection;
  struct Session;

  /// A worker-to-poll-thread handoff, posted when a worker finishes one DRR
  /// item (an open or a step batch): frames to queue on a connection, the
  /// worker slot to free, and session lifecycle transitions to apply.
  struct Event {
    int conn_fd = -1;
    uint64_t conn_gen = 0;
    uint64_t audit_id = 0;
    /// Worker whose DRR slot the item held; freed so the poll thread can
    /// pump the next queued item.
    int worker = -1;
    /// The item was the session's open (AuditOpened or the fatal Error is
    /// in `frames`), not a step batch.
    bool open = false;
    /// Steps this batch reserved against its tenant's inflight cap.
    uint64_t steps = 0;
    /// Tenant the reservation belongs to.
    std::string tenant;
    /// Encoded frames to append to the connection's outbox.
    std::vector<uint8_t> frames;
    /// The session sticky-failed, or its open failed (evict after flushing
    /// frames).
    bool session_failed = false;
    /// The session finished (report already in `frames`).
    bool session_finished = false;
  };

  void PollLoop();
  void DoAccept();
  /// Reads whatever the socket has, feeds the assembler, dispatches every
  /// complete frame. Returns false when the connection must be closed.
  bool ServiceReadable(Connection& conn);
  bool HandleFrame(Connection& conn, const NetFrame& frame);
  /// Admission on the poll thread; registers the session as opening and
  /// queues its open on the home worker.
  void HandleOpenAudit(Connection& conn, const OpenAuditMsg& msg);
  void HandleStepBatch(Connection& conn, const StepBatchMsg& msg);
  /// Opens a session on a pool worker — builds its sampler and
  /// `DurableAudit`, resumes it — and posts AuditOpened or the fatal Error
  /// back. Like RunBatch, it owns the
  /// session's evaluation members until its event is drained.
  void RunOpen(Session* session, int conn_fd, uint64_t conn_gen, int worker);
  /// The worker-side body of RunOpen. True when it resumed a checkpoint.
  Result<bool> OpenSession(Session& session);
  /// Runs one batch of steps on a pool worker; posts events back. The
  /// session pointer stays valid for the batch's duration: sessions are
  /// only evicted by the poll thread after the batch's event.
  void RunBatch(Session* session, uint64_t steps, int conn_fd,
                uint64_t conn_gen, int worker);
  /// If `worker` is idle, pops its DRR scheduler and dispatches the next
  /// queued open or batch (weighted fairness across tenants).
  void PumpWorker(int worker);
  /// Removes a session's still-queued items (its batches, and its open if
  /// that has not started) from its worker's scheduler, returning the
  /// admission slots (connection inflight counter, tenant inflight steps)
  /// the batches held.
  void DropQueuedBatches(Session& session);
  /// Flushes as much outbox as the socket accepts. False = failed.
  bool FlushOutbox(Connection& conn);
  void QueueFrame(Connection& conn, std::vector<uint8_t> frame);
  void QueueError(Connection& conn, StatusCode code, uint64_t audit_id,
                  bool fatal_to_session, bool fatal_to_connection,
                  const std::string& message);
  void QueueBusy(Connection& conn, const std::string& reason);
  /// Admission-path quota rejection: a fatal-to-session QuotaExceeded
  /// frame naming the spent quota and the remaining allowance.
  void QueueQuotaExceeded(Connection& conn, uint64_t audit_id,
                          const std::string& quota, uint64_t remaining,
                          const std::string& message);
  /// Closes a connection, detaching (and checkpointing) its sessions.
  void CloseConnection(int fd, const Status& cause);
  /// Detaches one session from its connection; checkpoints unless busy.
  /// A session whose open is still queued is discarded instead (erased
  /// from the registry): nothing was built or stepped yet.
  void DetachSession(Session& session);
  void DrainEvents();
  void ReapIdle();
  void WakePoll();
  void DoDrain();
  /// The shared annotation store for a registered KG, opened on first use
  /// (`store_dir/kg_<sanitized-name>-<crc32-of-raw-name>.wal`; the hash
  /// suffix keeps distinct names from aliasing one file) and kept for the
  /// daemon's life.
  Result<std::shared_ptr<AnnotationStore>> StoreForKg(const std::string& name);
  /// Builds the final AuditReport frame for a finished session.
  std::vector<uint8_t> BuildReportFrame(Session& session,
                                        const EvaluationResult& result);

  Options options_;
  Stats stats_;
  std::map<std::string, const KnowledgeGraph*> kgs_;
  /// One shared store per KG name (poll-thread-opened; the store itself is
  /// thread-safe, so worker-side sessions append concurrently).
  std::map<std::string, std::shared_ptr<AnnotationStore>> stores_;
  /// Resolved store path -> raw KG name that owns it; `StoreForKg` refuses
  /// a second name resolving to an already-claimed path (two stores over
  /// one WAL would corrupt it).
  std::map<std::string, std::string> store_paths_;

  OwnedFd listener_;
  uint16_t port_ = 0;
  OwnedFd wake_read_;
  OwnedFd wake_write_;
  std::unique_ptr<ThreadPool> pool_;
  std::thread poll_thread_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};

  /// Durable per-tenant spend; opened in Start() at
  /// `store_dir/tenant_ledger.wal`. Thread-safe — workers charge it
  /// directly from RunBatch.
  std::unique_ptr<QuotaLedger> ledger_;

  /// Poll-thread-owned state (workers never touch it).
  std::map<int, std::unique_ptr<Connection>> conns_;
  std::map<uint64_t, std::unique_ptr<Session>> sessions_;
  uint64_t next_conn_gen_ = 1;
  /// Per-worker weighted DRR queues replacing FIFO dispatch: opens (cost
  /// `kOpenCost`) and batches (cost = steps) queue here and `PumpWorker`
  /// serves them one-at-a-time per worker in tenant-weighted shares.
  /// Poll-thread-owned.
  std::vector<DrrScheduler> worker_sched_;
  /// 1 while an open or batch is executing on that worker (DRR serves the
  /// next item only when the slot frees — the fairness grain is one item).
  std::vector<uint8_t> worker_busy_;
  /// Steps queued or running per tenant, against
  /// `TenantConfig::max_inflight_steps` (breach is a transient Busy).
  std::map<std::string, uint64_t> tenant_inflight_steps_;

  /// Worker -> poll thread event queue.
  std::mutex events_mu_;
  std::deque<Event> events_;
};

/// Builds the sampler a design string names: srs|twcs|wcs|rcs|ssrs|sys,
/// the vocabulary of the protocol and of `kgacc_audit`. `twcs_m` is the
/// TWCS second-stage size, InvalidArgument outside [1, INT_MAX] when the
/// design is TWCS (the daemon's OpenAudit admission runs the same check);
/// `srs_without_replacement` selects the finite-population SRS draw. The
/// cost is the design's precomputation: O(#clusters) for the PPS designs
/// (TWCS, WCS).
Result<std::unique_ptr<Sampler>> MakeSamplerForDesign(
    const KnowledgeGraph& kg, const std::string& design, uint64_t twcs_m,
    bool srs_without_replacement = false);

}  // namespace kgacc

#endif  // KGACC_NET_SERVER_H_
