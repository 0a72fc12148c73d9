// kgbench — the end-to-end benchmark of kgacc.
//
//   kgbench --workload <replicate|daemon-reopen> --seed N
//           --seconds S --trace <0|1> [--out-dir DIR] [--corrupt-expected]
//
// Untraced runs (--trace 0) time one workload for S seconds and print its
// end-to-end metrics; the last stdout line is the JSON result. Traced runs
// (--trace 1) run the layer-by-layer suite instead (the same suite whatever
// the workload; see README.md) and print the per-layer metrics.
//
// Every input is generated here from --seed; the library only ever sees
// the generated KGs and audit specs. Outputs are checked outside the timed
// regions; a mismatch counts as a failed operation and fails the run.
// --corrupt-expected perturbs one expected report so the checks can be
// shown to fire.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "kgacc/eval/service.h"
#include "kgacc/eval/session.h"
#include "kgacc/kg/knowledge_graph.h"
#include "kgacc/kg/profiles.h"
#include "kgacc/net/client.h"
#include "kgacc/net/server.h"
#include "kgacc/sampling/cluster.h"
#include "kgacc/sampling/srs.h"
#include "kgacc/store/annotation_store.h"
#include "kgacc/store/checkpoint.h"
#include "kgacc/intervals/credible.h"

namespace kgbench {
namespace {

using namespace kgacc;

// ---------------------------------------------------------------------------
// Workload constants. The populations are fixed (they are part of the
// workload definition, like the paper's datasets); the audits run over them
// are drawn from --seed.
// ---------------------------------------------------------------------------

/// Seed of the synthetic label generator behind every population.
constexpr uint64_t kKgSeed = 42;
/// The daemon KG: the DBPEDIA profile scaled to ~10^6 triples.
constexpr uint64_t kBigScale = 107;
const char* const kBigKgName = "dbpedia-1m";
/// replicate: a pool of distinct batches cycled by the closed loop. 128
/// jobs per batch keep the per-batch latency sample above 1,000 per run;
/// 8 batches give 1,024 distinct jobs, so one run averages over many seeds.
constexpr int kReplicateBatchJobs = 128;
constexpr int kReplicatePoolBatches = 8;
/// Jobs re-run serially with RunEvaluation as the replicate output check.
constexpr int kReplicateChecks = 8;
/// daemon-reopen: finished audits reopened by the loop. Two of every three
/// are TWCS: the two designs' reopen times form two modes (the run prints
/// both), and with an even split the median op falls in the gap between
/// them and jumps from run to run.
constexpr int kReopenAudits = 144;
/// fsync of checkpoint frames in daemon-reopen. kgaccd's default is on, and
/// every reopen then fsyncs its final checkpoint; fsync latency on a shared
/// virtual disk drifts by 2x within minutes, which halved the workload's
/// rate in slow phases. The traced ladder prices the fsync'd path instead
/// (its fsync, service and daemon rungs run with it on).
constexpr bool kSyncCheckpoints = false;
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Audits per ladder rung in the traced run.
constexpr int kLadderAudits = 64;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  bool corrupt_expected = false;
};

/// Failure tallies of one run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;

  void Fail(const std::string& what) {
    ++failed;
    if (notes.size() < 20) notes.push_back(what);
  }
};

unsigned Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

// ---------------------------------------------------------------------------
// Populations
// ---------------------------------------------------------------------------

/// Materializes a synthetic population as a `KnowledgeGraph`, so the oracle
/// is a plain label lookup (no per-label Beta draw in the measured path).
/// Subjects are per cluster, predicates per offset (which keeps every
/// triple distinct) and objects come from a shared pool of 65,521 terms.
Result<KnowledgeGraph> Materialize(const KgView& view) {
  KnowledgeGraphBuilder builder;
  std::string s, p, o;
  for (uint64_t c = 0; c < view.num_clusters(); ++c) {
    s = "e" + std::to_string(c);
    const uint64_t size = view.cluster_size(c);
    for (uint64_t off = 0; off < size; ++off) {
      p = "p" + std::to_string(off);
      o = "v" + std::to_string((c * 7919 + off * 104729) % 65521);
      builder.Add(s, p, o, view.label(c, off));
    }
  }
  return builder.Build();
}

Result<KnowledgeGraph> BuildProfileKg(const DatasetProfile& profile) {
  KGACC_ASSIGN_OR_RETURN(const SyntheticKg syn, MakeKg(profile, kKgSeed));
  return Materialize(syn);
}

DatasetProfile BigProfile() {
  DatasetProfile p = DbpediaProfile();
  p.name = kBigKgName;
  p.num_facts *= kBigScale;
  p.num_clusters *= kBigScale;
  return p;
}

EvaluationConfig AuditConfig() {
  EvaluationConfig config;  // aHPD, default priors, alpha = epsilon = 0.05
  config.method = IntervalMethod::kAhpd;
  config.alpha = 0.05;
  config.moe_threshold = 0.05;
  return config;
}

std::string FreshDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path, ec);
  return path;
}

// ---------------------------------------------------------------------------
// Daemon plumbing
// ---------------------------------------------------------------------------

Result<std::unique_ptr<AuditDaemon>> StartDaemon(const std::string& store_dir,
                                                 const KnowledgeGraph* kg,
                                                 bool sync_checkpoints) {
  AuditDaemon::Options options;  // kgaccd defaults apart from the fsync
  options.port = 0;
  options.store_dir = store_dir;
  options.sync_checkpoints = sync_checkpoints;
  auto daemon = std::make_unique<AuditDaemon>(options);
  daemon->RegisterKg(kBigKgName, kg);
  KGACC_RETURN_IF_ERROR(daemon->Start());
  return daemon;
}

OpenAuditMsg AuditSpec(uint64_t audit_id, const std::string& design,
                       uint64_t seed) {
  OpenAuditMsg open;
  open.audit_id = audit_id;
  open.kg_name = kBigKgName;
  open.design = design;
  open.method = "ahpd";
  open.alpha = 0.05;
  open.epsilon = 0.05;
  open.seed = seed;
  open.twcs_m = 3;
  open.checkpoint_every = 1;
  return open;
}

/// One client-observed audit: connect to final report.
struct ClientAudit {
  Status status;
  AuditReportMsg report;
  AuditClientStats stats;
  double op_ms = 0.0;
  Clock::time_point done{};
  /// StepBatch round trips: the time between the updates that complete
  /// consecutive batches, the first timed from the start of the audit.
  std::vector<double> batch_ms;
};

ClientAudit RunClientAudit(uint16_t port, const OpenAuditMsg& open) {
  AuditClientOptions options;  // kgacc_client defaults: 4 steps per batch
  options.port = port;
  ClientAudit out;
  AuditClient client(options);
  const auto start = Clock::now();
  auto last = start;
  uint64_t in_batch = 0;
  auto report = client.RunAudit(open, [&](const IntervalUpdateMsg& update) {
    ++in_batch;
    if (update.done || in_batch >= options.batch_steps) {
      const auto now = Clock::now();
      out.batch_ms.push_back(MsBetween(last, now));
      last = now;
      in_batch = 0;
    }
  });
  out.done = Clock::now();
  out.op_ms = MsBetween(start, out.done);
  out.stats = client.stats();
  if (report.ok()) {
    out.report = std::move(report).value();
  } else {
    out.status = report.status();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Result of one untraced workload run.
// ---------------------------------------------------------------------------

/// Every rate and percentile is taken per window and reported as the median
/// over windows: the timed loop's samples, in completion order, are cut
/// into this many runs of equal count, so a stall elsewhere on the host
/// moves one window, not the figure.
constexpr int kWindows = 10;

/// One latency sample and when it completed, in seconds from the start of
/// the timed loop.
struct Timed {
  double at = 0.0;
  double ms = 0.0;
};

struct WorkloadResult {
  std::vector<double> setup_s;
  double loop_seconds = 0.0;
  /// One sample per successful operation.
  std::vector<Timed> op_ms;
  std::vector<Timed> batch_ms;
  double annotations_per_audit = 0.0;
  Tally tally;
};

std::vector<std::vector<Timed>> Windows(std::vector<Timed> samples,
                                        double loop_seconds) {
  std::erase_if(samples, [&](const Timed& t) { return t.at >= loop_seconds; });
  std::sort(samples.begin(), samples.end(),
            [](const Timed& a, const Timed& b) { return a.at < b.at; });
  std::vector<std::vector<Timed>> windows;
  const size_t per_window = samples.size() / kWindows;
  if (per_window == 0) return windows;
  for (int w = 0; w < kWindows; ++w) {
    windows.emplace_back(samples.begin() + w * per_window,
                         samples.begin() + (w + 1) * per_window);
  }
  return windows;
}

/// The q-quantile per window, median over windows. When a window is too
/// small to leave ten samples beyond its q-quantile, the quantile is taken
/// over the whole loop instead: a per-window p99 of a few hundred samples
/// is close to a window maximum and swings from run to run.
double WindowedQuantile(const std::vector<Timed>& samples,
                        double loop_seconds, double q) {
  const auto windows = Windows(samples, loop_seconds);
  if (windows.empty() ||
      static_cast<double>(windows[0].size()) * (1.0 - q) < 10.0) {
    std::vector<double> all;
    for (const Timed& t : samples) {
      if (t.at < loop_seconds) all.push_back(t.ms);
    }
    return Quantile(std::move(all), q);
  }
  std::vector<double> per_window;
  for (const auto& window : windows) {
    std::vector<double> ms;
    for (const Timed& t : window) ms.push_back(t.ms);
    per_window.push_back(Quantile(std::move(ms), q));
  }
  return Median(per_window);
}

/// Completions per second in each window (the first starts at the loop's
/// start, each later one at its predecessor's last completion).
std::vector<double> WindowRates(const std::vector<Timed>& ops,
                                double loop_seconds) {
  std::vector<double> rates;
  double edge = 0.0;
  for (const auto& window : Windows(ops, loop_seconds)) {
    const double end = window.back().at;
    if (end > edge) rates.push_back(window.size() / (end - edge));
    edge = end;
  }
  return rates;
}

/// Records one successful client audit; its batches are stamped with the
/// audit's completion time.
void AddClientSamples(const ClientAudit& a, Clock::time_point loop_start,
                      WorkloadResult* r) {
  const double at = MsBetween(loop_start, a.done) / 1000.0;
  r->op_ms.push_back({at, a.op_ms});
  for (double ms : a.batch_ms) r->batch_ms.push_back({at, ms});
}

/// The bounded end-to-end metrics. The p99s go to `tails`, which is
/// printed but not part of the JSON result: on a shared host, contention
/// episodes moved their ten-seed spread by 25-75%, past any usable bound.
MetricSet EndToEndMetrics(const WorkloadResult& r, MetricSet* tails) {
  const double t = r.loop_seconds;
  MetricSet m;
  m.Add("setup_s", Median(r.setup_s), "s");
  m.Add("ops_per_s", Median(WindowRates(r.op_ms, t)), "1/s");
  m.Add("op_ms_p50", WindowedQuantile(r.op_ms, t, 0.5), "ms");
  m.Add("batch_ms_p50", WindowedQuantile(r.batch_ms, t, 0.5), "ms");
  m.Add("annotations_per_audit", r.annotations_per_audit, "count");
  m.Add("peak_rss_mb", PeakRssMb(), "MB");
  tails->Add("op_ms_p99", WindowedQuantile(r.op_ms, t, 0.99), "ms");
  tails->Add("batch_ms_p99", WindowedQuantile(r.batch_ms, t, 0.99), "ms");
  return m;
}

// ---------------------------------------------------------------------------
// replicate: the paper's Table-3 protocol as repeated RunBatch calls.
// ---------------------------------------------------------------------------

struct ReplicateRig {
  std::vector<std::unique_ptr<KnowledgeGraph>> kgs;
  /// Prototypes per (profile, design): untimed (job clock only) and timed.
  std::vector<std::unique_ptr<ProbeSampler>> plain_protos;
  std::vector<std::unique_ptr<ProbeSampler>> timed_protos;
  OracleAnnotator oracle;
  ProbeAnnotator timed_oracle{&oracle};
  std::unique_ptr<EvaluationService> service;
  /// pool[b][j]: job j of batch b. Its global index g = b * J + j picks the
  /// profile (g % 4), the design (g / 4 % 2) and the seed.
  std::vector<std::vector<EvaluationJob>> pool;
  std::vector<std::vector<EvaluationJobOutcome>> reference;
  /// Per-job latency slots, written by the job's own worker.
  std::vector<double> job_ms;
};

std::unique_ptr<Sampler> MakeDesign(const KnowledgeGraph& kg, int design) {
  if (design == 0) return std::make_unique<SrsSampler>(kg, SrsConfig{});
  return std::make_unique<TwcsSampler>(
      kg, TwcsConfig{.second_stage_size = 3});
}

Result<std::unique_ptr<ReplicateRig>> SetUpReplicate(uint64_t seed) {
  auto rig = std::make_unique<ReplicateRig>();
  for (const DatasetProfile& profile : SmallProfiles()) {
    KGACC_ASSIGN_OR_RETURN(KnowledgeGraph kg, BuildProfileKg(profile));
    rig->kgs.push_back(std::make_unique<KnowledgeGraph>(std::move(kg)));
  }
  for (const auto& kg : rig->kgs) {
    for (int design = 0; design < 2; ++design) {
      rig->plain_protos.push_back(
          std::make_unique<ProbeSampler>(MakeDesign(*kg, design), false));
      rig->timed_protos.push_back(
          std::make_unique<ProbeSampler>(MakeDesign(*kg, design), true));
    }
  }
  EvaluationService::Options service_options;
  service_options.num_threads = static_cast<int>(Nproc());
  rig->service = std::make_unique<EvaluationService>(service_options);
  for (const auto& p : rig->plain_protos) rig->service->RegisterPrototype(p.get());
  for (const auto& p : rig->timed_protos) rig->service->RegisterPrototype(p.get());
  rig->job_ms.assign(kReplicateBatchJobs, 0.0);
  const EvaluationConfig config = AuditConfig();
  for (int b = 0; b < kReplicatePoolBatches; ++b) {
    std::vector<EvaluationJob> batch;
    for (int j = 0; j < kReplicateBatchJobs; ++j) {
      const uint64_t g = static_cast<uint64_t>(b) * kReplicateBatchJobs + j;
      EvaluationJob job;
      job.sampler = rig->plain_protos[(g % 4) * 2 + (g / 4) % 2].get();
      job.annotator = &rig->oracle;
      job.config = config;
      job.seed = EvaluationService::DeriveJobSeed(seed, g);
      job.label = std::to_string(g);
      double* slot = &rig->job_ms[j];
      job.robustness = [slot, g] {
        *slot = ProbeJobDone(g, 0);
        return JobRobustness{};
      };
      batch.push_back(std::move(job));
    }
    rig->pool.push_back(std::move(batch));
  }
  // Warm-up pass, part of set-up: spawns the workers, fills the per-context
  // caches, and records each batch's reference outcomes.
  for (const auto& batch : rig->pool) {
    rig->reference.push_back(rig->service->RunBatch(batch).outcomes);
  }
  return rig;
}

/// Serial re-runs of a seeded subset of jobs must match the service bit
/// for bit (results are thread-count-deterministic by contract).
void CheckReplicateSerial(const ReplicateRig& rig, uint64_t seed,
                          bool corrupt, Tally* tally) {
  Rng pick(seed ^ 0x5eed5eedULL);
  const uint64_t total =
      static_cast<uint64_t>(kReplicatePoolBatches) * kReplicateBatchJobs;
  for (int k = 0; k < kReplicateChecks; ++k) {
    const uint64_t g = pick.UniformInt(total);
    const EvaluationJob& job =
        rig.pool[g / kReplicateBatchJobs][g % kReplicateBatchJobs];
    std::unique_ptr<Sampler> sampler =
        MakeDesign(*rig.kgs[g % 4], static_cast<int>((g / 4) % 2));
    OracleAnnotator oracle;
    auto serial = RunEvaluation(*sampler, oracle, job.config, job.seed);
    EvaluationResult expected =
        rig.reference[g / kReplicateBatchJobs][g % kReplicateBatchJobs].result;
    if (corrupt && k == 0) expected.mu += 1e-3;
    ++tally->attempted;
    if (!serial.ok()) {
      tally->Fail("serial job " + std::to_string(g) + ": " +
                  serial.status().ToString());
    } else if (!SameResult(*serial, expected)) {
      tally->Fail("serial job " + std::to_string(g) +
                  " differs from the service result");
    }
  }
}

WorkloadResult RunReplicate(const Options& opt) {
  WorkloadResult r;
  std::unique_ptr<ReplicateRig> rig;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rig.reset();
    if (rep == kSetupReps - 1) RestartPeakRss();
    const auto start = Clock::now();
    auto made = SetUpReplicate(opt.seed);
    r.setup_s.push_back(SecondsSince(start));
    if (!made.ok()) {
      r.tally.Fail("setup: " + made.status().ToString());
      return r;
    }
    rig = std::move(made).value();
  }
  double annotated = 0.0;
  uint64_t jobs = 0;
  for (const auto& batch : rig->reference) {
    for (const auto& outcome : batch) {
      ++jobs;
      ++r.tally.attempted;
      if (!outcome.status.ok()) {
        r.tally.Fail("warm-up job: " + outcome.status.ToString());
      }
      annotated += static_cast<double>(outcome.result.annotated_triples);
    }
  }
  r.annotations_per_audit = annotated / static_cast<double>(jobs);

  const auto loop_start = Clock::now();
  const auto deadline =
      loop_start + std::chrono::duration<double>(opt.seconds);
  for (uint64_t iter = 0; Clock::now() < deadline; ++iter) {
    const size_t b = iter % rig->pool.size();
    const auto start = Clock::now();
    const EvaluationBatchResult batch = rig->service->RunBatch(rig->pool[b]);
    const double ms = MsBetween(start, Clock::now());
    const double begin_s = MsBetween(loop_start, start) / 1000.0;
    r.batch_ms.push_back({begin_s + ms / 1000.0, ms});
    for (size_t j = 0; j < batch.outcomes.size(); ++j) {
      ++r.tally.attempted;
      const EvaluationJobOutcome& outcome = batch.outcomes[j];
      if (!outcome.status.ok()) {
        r.tally.Fail("job: " + outcome.status.ToString());
        continue;
      }
      if (!SameResult(outcome.result, rig->reference[b][j].result)) {
        r.tally.Fail("batch " + std::to_string(b) + " job " +
                     std::to_string(j) + " differs from its first run");
        continue;
      }
      // A batch's completions are spread evenly over its interval, so the
      // throughput windows do not quantize on batch boundaries.
      const double at =
          begin_s + ms / 1000.0 * (j + 1) / batch.outcomes.size();
      r.op_ms.push_back({at, rig->job_ms[j]});
    }
  }
  r.loop_seconds = opt.seconds;
  CheckReplicateSerial(*rig, opt.seed, opt.corrupt_expected, &r.tally);
  return r;
}

// ---------------------------------------------------------------------------
// daemon-reopen: reopening finished audits on a restarted daemon.
// ---------------------------------------------------------------------------

const char* ReopenDesign(int i) { return i % 3 == 0 ? "srs" : "twcs"; }

WorkloadResult RunDaemonReopen(const Options& opt, const std::string& work_dir) {
  WorkloadResult r;
  const unsigned clients = Nproc();
  std::unique_ptr<KnowledgeGraph> kg;
  std::unique_ptr<AuditDaemon> daemon;
  std::vector<AuditReportMsg> expected(kReopenAudits);
  auto spec = [&](int i) {
    return AuditSpec(1 + static_cast<uint64_t>(i), ReopenDesign(i),
                     EvaluationService::DeriveJobSeed(opt.seed, i));
  };
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (daemon) daemon->Stop();
    daemon.reset();
    kg.reset();
    if (rep == kSetupReps - 1) RestartPeakRss();
    const std::string dir =
        FreshDir(work_dir + "/reopen-store-" + std::to_string(rep));
    const auto start = Clock::now();
    auto built = BuildProfileKg(BigProfile());
    if (!built.ok()) {
      r.tally.Fail("kg: " + built.status().ToString());
      return r;
    }
    kg = std::make_unique<KnowledgeGraph>(std::move(built).value());
    {
      auto first = StartDaemon(dir, kg.get(), kSyncCheckpoints);
      if (!first.ok()) {
        r.tally.Fail("daemon: " + first.status().ToString());
        return r;
      }
      std::vector<std::thread> threads;
      std::vector<Status> failures(clients);
      for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          for (int i = static_cast<int>(c); i < kReopenAudits;
               i += static_cast<int>(clients)) {
            ClientAudit a = RunClientAudit((*first)->port(), spec(i));
            if (!a.status.ok()) failures[c] = a.status;
            expected[i] = std::move(a.report);
          }
        });
      }
      for (auto& t : threads) t.join();
      (*first)->Stop();
      for (const Status& s : failures) {
        if (!s.ok()) {
          r.tally.Fail("populate: " + s.ToString());
          return r;
        }
      }
    }
    // A fresh daemon over the same directory replays the log from disk on
    // the first open; one untimed reopen pays that lazy open.
    auto second = StartDaemon(dir, kg.get(), kSyncCheckpoints);
    if (!second.ok()) {
      r.tally.Fail("daemon: " + second.status().ToString());
      return r;
    }
    daemon = std::move(second).value();
    const ClientAudit warm = RunClientAudit(daemon->port(), spec(0));
    r.setup_s.push_back(SecondsSince(start));
    if (!warm.status.ok()) {
      r.tally.Fail("warm reopen: " + warm.status.ToString());
      return r;
    }
  }
  double annotated = 0.0;
  for (const AuditReportMsg& e : expected) {
    annotated += static_cast<double>(e.result.annotated_triples);
  }
  r.annotations_per_audit = annotated / kReopenAudits;
  if (opt.corrupt_expected) expected[0].result.mu += 1e-3;

  // Closed loop: client c owns the audits i == c (mod nproc), so no two
  // clients ever hold one audit, and walks them in a seeded order.
  std::vector<std::vector<ClientAudit>> per_client(clients);
  std::vector<std::vector<int>> which(clients);
  std::map<std::string, std::vector<double>> by_design;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(opt.seconds);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<int> mine;
      for (int i = static_cast<int>(c); i < kReopenAudits;
           i += static_cast<int>(clients)) {
        mine.push_back(i);
      }
      Rng order(opt.seed * 31 + c);
      for (size_t k = mine.size(); k > 1; --k) {
        std::swap(mine[k - 1], mine[order.UniformInt(k)]);
      }
      for (size_t k = 0; Clock::now() < deadline; ++k) {
        const int i = mine[k % mine.size()];
        per_client[c].push_back(RunClientAudit(daemon->port(), spec(i)));
        which[c].push_back(i);
      }
    });
  }
  for (auto& t : threads) t.join();
  r.loop_seconds = opt.seconds;
  for (unsigned c = 0; c < clients; ++c) {
    for (size_t k = 0; k < per_client[c].size(); ++k) {
      const ClientAudit& a = per_client[c][k];
      const int i = which[c][k];
      ++r.tally.attempted;
      if (!a.status.ok()) {
        r.tally.Fail("reopen " + std::to_string(i) + ": " +
                     a.status.ToString());
        continue;
      }
      if (!a.stats.opened.resumed) {
        r.tally.Fail("reopen " + std::to_string(i) + " was not resumed");
        continue;
      }
      if (!SameResult(a.report.result, expected[i].result) ||
          a.report.design_name != expected[i].design_name ||
          a.report.dataset_name != expected[i].dataset_name) {
        r.tally.Fail("reopen " + std::to_string(i) +
                     " differs from the report set-up received");
        continue;
      }
      AddClientSamples(a, start, &r);
      by_design[ReopenDesign(i)].push_back(a.op_ms);
    }
  }
  for (const auto& [design, ms] : by_design) {
    std::printf("note: %s reopens: %zu, op_ms_p50 %.3f\n", design.c_str(),
                ms.size(), Median(ms));
  }
  daemon->Stop();
  return r;
}

// ---------------------------------------------------------------------------
// Traced suite: per-layer metrics and the ladder.
// ---------------------------------------------------------------------------

struct TracedResult {
  MetricSet metrics;
  Tally tally;
};

/// Replicate, untraced then traced, for the session/sampling/oracle/
/// intervals/service layers and the tracing overhead.
void TraceReplicate(const Options& opt, double phase_seconds,
                    TracedResult* out) {
  auto made = SetUpReplicate(opt.seed);
  if (!made.ok()) {
    out->tally.Fail("replicate setup: " + made.status().ToString());
    return;
  }
  ReplicateRig& rig = **made;

  // Untraced reference rate.
  uint64_t plain_ops = 0;
  double plain_seconds = 0.0;
  {
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(phase_seconds);
    for (uint64_t iter = 0; Clock::now() < deadline; ++iter) {
      const auto start = Clock::now();
      const auto batch = rig.service->RunBatch(rig.pool[iter % rig.pool.size()]);
      plain_seconds += SecondsSince(start);
      plain_ops += batch.outcomes.size();
    }
  }

  // Traced pool: timed samplers, the timed oracle, step hooks, job spans.
  std::atomic<uint64_t> batch_span{0};
  std::vector<std::vector<EvaluationJob>> traced = rig.pool;
  for (auto& batch : traced) {
    for (size_t j = 0; j < batch.size(); ++j) {
      EvaluationJob& job = batch[j];
      for (size_t p = 0; p < rig.plain_protos.size(); ++p) {
        if (job.sampler == rig.plain_protos[p].get()) {
          job.sampler = rig.timed_protos[p].get();
        }
      }
      job.annotator = &rig.timed_oracle;
      job.on_step = [](const EvaluationSession&) {
        ProbeStepDone();
        return Status::OK();
      };
      const uint64_t g = std::stoull(job.label);
      job.robustness = [&batch_span, g] {
        ProbeJobDone(g, batch_span.load(std::memory_order_relaxed));
        return JobRobustness{};
      };
    }
  }
  ResetProbes();
  uint64_t traced_ops = 0;
  double traced_seconds = 0.0;
  std::vector<double> submit_ms, barrier_ms;
  double run_s = 0.0, wall_s = 0.0, stolen = 0.0;
  HpdSolveStats first_cycle;
  uint64_t first_cycle_audits = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(phase_seconds);
  for (uint64_t iter = 0;
       iter < traced.size() || Clock::now() < deadline; ++iter) {
    const size_t b = iter % traced.size();
    ScopedSpan span("service.batch", 0, 0, true);
    batch_span.store(span.id());
    const auto start = Clock::now();
    const auto batch = rig.service->RunBatch(traced[b]);
    traced_seconds += SecondsSince(start);
    traced_ops += batch.outcomes.size();
    for (size_t j = 0; j < batch.outcomes.size(); ++j) {
      ++out->tally.attempted;
      if (!batch.outcomes[j].status.ok() ||
          !SameResult(batch.outcomes[j].result, rig.reference[b][j].result)) {
        out->tally.Fail("traced replicate job differs from untraced");
      }
    }
    const ServiceBatchStats& s = batch.stats;
    submit_ms.push_back(s.submit_seconds * 1000.0);
    barrier_ms.push_back(s.barrier_seconds * 1000.0);
    run_s += s.run_seconds;
    wall_s += s.wall_seconds * s.num_threads;
    stolen += static_cast<double>(s.stolen_groups);
    if (iter < traced.size()) {
      first_cycle += s.hpd;
      first_cycle_audits += batch.outcomes.size();
    }
  }
  const double batches = static_cast<double>(submit_ms.size());

  uint64_t nb = 0, batch_ns = 0, units = 0, oracle_ns = 0, steps = 0;
  double step_ns = 0.0;
  std::vector<double> step_us;
  for (const ThreadProbe* p : AllProbes()) {
    nb += p->batches;
    batch_ns += p->batch_ns;
    units += p->units;
    oracle_ns += p->oracle_ns;
    steps += p->steps;
    step_ns += p->step_ns_sum;
    step_us.insert(step_us.end(), p->step_us.begin(), p->step_us.end());
  }
  // Both per-call figures include one pair of clock reads (printed below),
  // which dominates a label lookup: read them as upper bounds.
  std::printf("note: one clock-read pair costs %.1f ns on this host\n",
              ClockPairNs());
  MetricSet& m = out->metrics;
  m.Add("sampling.ns_per_batch",
        nb > 0 ? static_cast<double>(batch_ns) / nb : 0.0, "ns");
  m.Add("oracle.ns_per_unit",
        units > 0 ? static_cast<double>(oracle_ns) / units : 0.0, "ns");
  m.Add("oracle.share", step_ns > 0 ? oracle_ns / step_ns : 0.0, "share");
  m.Add("session.step_us_p50", Quantile(step_us, 0.5), "us");
  m.Add("session.step_us_p99", Quantile(step_us, 0.99), "us");
  m.Add("session.self_us_per_step",
        steps > 0 ? (step_ns - static_cast<double>(batch_ns + oracle_ns)) /
                        static_cast<double>(steps) / 1000.0
                  : 0.0,
        "us");
  const double solves = static_cast<double>(first_cycle.total_solves());
  uint64_t quantiles = 0;
  for (const HpdPathTally* t :
       {&first_cycle.limiting, &first_cycle.newton, &first_cycle.slsqp,
        &first_cycle.slsqp_fallback, &first_cycle.onedim}) {
    quantiles += t->quantile_evals;
  }
  const double audits = static_cast<double>(first_cycle_audits);
  m.Add("intervals.hpd_solves_per_audit", solves / audits, "count");
  m.Add("intervals.beta_evals_per_solve",
        solves > 0 ? first_cycle.total_beta_evals() / solves : 0.0, "count");
  m.Add("intervals.quantile_evals_per_audit", quantiles / audits, "count");
  m.Add("intervals.newton_share",
        solves > 0 ? first_cycle.newton.solves / solves : 0.0, "share");
  m.Add("intervals.fallback_solves",
        static_cast<double>(first_cycle.slsqp_fallback.solves +
                            first_cycle.onedim.solves),
        "count");
  m.Add("service.submit_ms", Median(submit_ms), "ms");
  m.Add("service.barrier_ms", Median(barrier_ms), "ms");
  m.Add("service.utilization", wall_s > 0 ? run_s / wall_s : 0.0, "share");
  m.Add("service.stolen_groups", batches > 0 ? stolen / batches : 0.0,
        "count");
  const double plain_rate = plain_ops / plain_seconds;
  const double traced_rate = traced_ops / traced_seconds;
  m.Add("trace.overhead", 1.0 - traced_rate / plain_rate, "share");
}

/// One ladder audit: a cold SRS aHPD audit of the daemon KG.
struct LadderSpec {
  uint64_t audit_id;
  uint64_t seed;
};

/// Rungs 2 and 3: session + StoredAnnotator + CheckpointManager over one
/// AnnotationStore, sequentially, mirroring the daemon's per-step order.
Status RunStoredRung(const KnowledgeGraph& kg,
                     const std::vector<LadderSpec>& specs,
                     const std::string& path, bool sync, uint64_t rung_span,
                     std::vector<EvaluationResult>* results,
                     std::vector<double>* checkpoint_us, double* ms_per_audit,
                     std::unique_ptr<AnnotationStore>* store_out) {
  AnnotationStore::Options store_options;
  store_options.sync_checkpoints = sync;
  KGACC_ASSIGN_OR_RETURN(std::unique_ptr<AnnotationStore> store,
                         AnnotationStore::Open(path, store_options));
  const EvaluationConfig config = AuditConfig();
  OracleAnnotator oracle;
  const auto start = Clock::now();
  for (size_t k = 0; k < specs.size(); ++k) {
    const LadderSpec& spec = specs[k];
    ScopedSpan audit_span("audit", rung_span, spec.audit_id, true);
    const bool sampled = k % 8 == 0;
    SrsSampler sampler(kg, SrsConfig{});
    StoredAnnotator annotator(&oracle, store.get(), spec.audit_id);
    EvaluationSession session(sampler, annotator, config, spec.seed);
    CheckpointManager ckpt(store.get(), spec.audit_id);
    while (!session.done()) {
      {
        ScopedSpan step("session.step", 0, spec.audit_id, sampled);
        KGACC_RETURN_IF_ERROR(session.Step().status());
      }
      KGACC_RETURN_IF_ERROR(annotator.status());
      ScopedSpan span("store.checkpoint", 0, spec.audit_id, sampled);
      const auto t0 = Clock::now();
      KGACC_RETURN_IF_ERROR(ckpt.OnStep(session));
      if (checkpoint_us != nullptr) {
        checkpoint_us->push_back(MsBetween(t0, Clock::now()) * 1000.0);
      }
    }
    KGACC_ASSIGN_OR_RETURN(EvaluationResult result, session.Finish());
    KGACC_RETURN_IF_ERROR(ckpt.Checkpoint(session));
    KGACC_RETURN_IF_ERROR(store->Flush());
    results->push_back(std::move(result));
  }
  *ms_per_audit = SecondsSince(start) * 1000.0 / specs.size();
  *store_out = std::move(store);
  return Status::OK();
}

void CheckRung(const char* rung, const std::vector<EvaluationResult>& got,
               const std::vector<EvaluationResult>& want, Tally* tally) {
  for (size_t k = 0; k < want.size(); ++k) {
    ++tally->attempted;
    if (k >= got.size() || !SameResult(got[k], want[k])) {
      tally->Fail(std::string(rung) + " audit " + std::to_string(k) +
                  " differs from the bare session");
    }
  }
}

/// The read path: opens the populated fsync-rung store, restores each
/// audit's checkpoint (checked against the bare session), and builds each
/// design's sampler on the daemon KG.
void TraceReadPath(const KnowledgeGraph& kg,
                   const std::vector<LadderSpec>& specs,
                   const std::vector<EvaluationResult>& bare,
                   const std::string& store_path, TracedResult* out) {
  MetricSet& m = out->metrics;
  const EvaluationConfig config = AuditConfig();
  std::vector<double> open_ms;
  bool mmap_used = false;
  std::unique_ptr<AnnotationStore> reopened;
  for (int rep = 0; rep < 3; ++rep) {
    reopened.reset();
    ScopedSpan span("store.open", 0, 0, true);
    const auto t0 = Clock::now();
    auto store = AnnotationStore::Open(store_path, AnnotationStore::Options{});
    open_ms.push_back(MsBetween(t0, Clock::now()));
    if (!store.ok()) {
      out->tally.Fail("store reopen: " + store.status().ToString());
      return;
    }
    reopened = std::move(store).value();
    mmap_used = reopened->stats().recovery.used_mmap;
  }
  m.Add("store.open_ms", Median(open_ms), "ms");
  m.Add("store.open_mmap", mmap_used ? 1.0 : 0.0, "count");
  std::vector<double> restore_us;
  OracleAnnotator oracle;
  for (size_t k = 0; k < specs.size(); ++k) {
    SrsSampler sampler(kg, SrsConfig{});
    StoredAnnotator annotator(&oracle, reopened.get(), specs[k].audit_id);
    EvaluationSession session(sampler, annotator, config, specs[k].seed);
    CheckpointManager ckpt(reopened.get(), specs[k].audit_id);
    ScopedSpan span("store.restore", 0, specs[k].audit_id, true);
    const auto t0 = Clock::now();
    const Status restored = ckpt.Resume(&session);
    restore_us.push_back(MsBetween(t0, Clock::now()) * 1000.0);
    ++out->tally.attempted;
    auto result = session.Finish();
    if (!restored.ok() || !result.ok() || !SameResult(*result, bare[k])) {
      out->tally.Fail("restored audit " + std::to_string(k) +
                      " differs from the bare session");
    }
  }
  m.Add("store.restore_us", Median(restore_us), "us");
  for (const char* design : {"srs", "twcs"}) {
    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
      ScopedSpan span("sampling.construct", 0, 0, true);
      const auto t0 = Clock::now();
      auto sampler = MakeSamplerForDesign(kg, design, 3);
      ms.push_back(MsBetween(t0, Clock::now()));
      if (!sampler.ok()) out->tally.Fail("sampler construct");
    }
    m.Add(std::string("sampling.construct_ms.") + design, Median(ms), "ms");
  }
}

void TraceLadder(const Options& opt, const std::string& work_dir,
                 TracedResult* out) {
  MetricSet& m = out->metrics;
  const auto build_start = Clock::now();
  auto built = BuildProfileKg(BigProfile());
  const double build_s = SecondsSince(build_start);
  if (!built.ok()) {
    out->tally.Fail("kg: " + built.status().ToString());
    return;
  }
  const KnowledgeGraph kg = std::move(built).value();
  m.Add("kg.build_s", build_s, "s");

  std::vector<LadderSpec> specs;
  for (uint64_t i = 0; i < kLadderAudits; ++i) {
    specs.push_back({1 + i, EvaluationService::DeriveJobSeed(opt.seed, i)});
  }
  const EvaluationConfig config = AuditConfig();
  const std::string dir = FreshDir(work_dir + "/ladder");

  // Rung 1: a bare EvaluationSession::Step loop.
  std::vector<EvaluationResult> bare;
  double rung_session_ms = 0.0;
  {
    ScopedSpan rung("ladder.session", 0, 0, true);
    OracleAnnotator oracle;
    const auto start = Clock::now();
    for (size_t k = 0; k < specs.size(); ++k) {
      ScopedSpan audit_span("audit", rung.id(), specs[k].audit_id, true);
      SrsSampler sampler(kg, SrsConfig{});
      EvaluationSession session(sampler, oracle, config, specs[k].seed);
      while (!session.done()) {
        ScopedSpan step("session.step", 0, specs[k].audit_id, k % 8 == 0);
        const auto stepped = session.Step();
        if (!stepped.ok()) {
          out->tally.Fail("bare session: " + stepped.status().ToString());
          return;
        }
      }
      auto result = session.Finish();
      ++out->tally.attempted;
      if (!result.ok()) {
        out->tally.Fail("bare session: " + result.status().ToString());
        return;
      }
      bare.push_back(std::move(result).value());
    }
    rung_session_ms = SecondsSince(start) * 1000.0 / specs.size();
  }
  double annotated = 0.0;
  for (const auto& r : bare) annotated += r.annotated_triples;
  m.Add("ladder.annotations_per_audit", annotated / bare.size(), "count");

  // Rungs 2 and 3: the store without and with fsync'd checkpoints.
  double rung_store_ms = 0.0, rung_fsync_ms = 0.0;
  std::vector<double> checkpoint_us;
  std::unique_ptr<AnnotationStore> nosync_store, sync_store;
  const std::string sync_path = dir + "/fsync.wal";
  {
    std::vector<EvaluationResult> got;
    ScopedSpan rung("ladder.store", 0, 0, true);
    const Status s = RunStoredRung(kg, specs, dir + "/nosync.wal", false,
                                   rung.id(), &got, nullptr, &rung_store_ms,
                                   &nosync_store);
    if (!s.ok()) out->tally.Fail("store rung: " + s.ToString());
    CheckRung("store rung", got, bare, &out->tally);
  }
  nosync_store.reset();
  {
    std::vector<EvaluationResult> got;
    ScopedSpan rung("ladder.fsync", 0, 0, true);
    const Status s =
        RunStoredRung(kg, specs, sync_path, true, rung.id(), &got,
                      &checkpoint_us, &rung_fsync_ms, &sync_store);
    if (!s.ok()) out->tally.Fail("fsync rung: " + s.ToString());
    CheckRung("fsync rung", got, bare, &out->tally);
  }
  if (sync_store != nullptr) {
    const GroupCommitStats gc = sync_store->group_commit_stats();
    m.Add("store.checkpoint_us_p50", Quantile(checkpoint_us, 0.5), "us");
    m.Add("store.checkpoint_us_p99", Quantile(checkpoint_us, 0.99), "us");
    m.Add("store.fsyncs_per_audit",
          static_cast<double>(gc.syncs) / specs.size(), "count");
    m.Add("store.bytes_per_audit",
          static_cast<double>(sync_store->file_bytes()) / specs.size(),
          "bytes");
    m.Add("store.space_amp",
          static_cast<double>(sync_store->file_bytes()) /
              std::max<uint64_t>(1, sync_store->live_bytes()),
          "ratio");
  }
  sync_store.reset();

  // Rung 4: the same audits through EvaluationService at nproc threads,
  // all jobs sharing one fsync'd store.
  double rung_service_ms = 0.0;
  {
    ScopedSpan rung("ladder.service", 0, 0, true);
    AnnotationStore::Options store_options;
    store_options.sync_checkpoints = true;
    auto store = AnnotationStore::Open(dir + "/service.wal", store_options);
    if (!store.ok()) {
      out->tally.Fail("service store: " + store.status().ToString());
      return;
    }
    EvaluationService::Options service_options;
    service_options.num_threads = static_cast<int>(Nproc());
    EvaluationService service(service_options);
    ProbeSampler proto(std::make_unique<SrsSampler>(kg, SrsConfig{}), false);
    OracleAnnotator oracle;
    std::vector<std::unique_ptr<CheckpointManager>> managers;
    std::vector<double> job_ms(specs.size(), 0.0);
    std::vector<EvaluationJob> jobs;
    const uint64_t rung_id = rung.id();
    for (size_t k = 0; k < specs.size(); ++k) {
      managers.push_back(std::make_unique<CheckpointManager>(
          store->get(), specs[k].audit_id));
      EvaluationJob job;
      job.sampler = &proto;
      job.annotator = &oracle;
      job.store = store->get();
      job.audit_id = specs[k].audit_id;
      job.config = config;
      job.seed = specs[k].seed;
      CheckpointManager* mgr = managers.back().get();
      AnnotationStore* raw_store = store->get();
      job.on_step = [mgr, raw_store](const EvaluationSession& session) {
        KGACC_RETURN_IF_ERROR(mgr->OnStep(session));
        if (session.done()) {
          KGACC_RETURN_IF_ERROR(mgr->Checkpoint(session));
          KGACC_RETURN_IF_ERROR(raw_store->Flush());
        }
        return Status::OK();
      };
      double* slot = &job_ms[k];
      const uint64_t audit = specs[k].audit_id;
      job.robustness = [slot, audit, rung_id] {
        *slot = ProbeJobDone(audit, rung_id);
        return JobRobustness{};
      };
      jobs.push_back(std::move(job));
    }
    const GroupCommitStats before = (*store)->group_commit_stats();
    const auto batch = service.RunBatch(jobs);
    const GroupCommitStats after = (*store)->group_commit_stats();
    std::vector<EvaluationResult> got;
    for (const auto& outcome : batch.outcomes) {
      if (!outcome.status.ok()) {
        out->tally.Fail("service rung: " + outcome.status.ToString());
      }
      got.push_back(outcome.result);
    }
    CheckRung("service rung", got, bare, &out->tally);
    rung_service_ms = Mean(job_ms);
    const uint64_t commits = after.batches - before.batches;
    m.Add("store.frames_per_commit",
          commits > 0 ? static_cast<double>(after.frames - before.frames) /
                            commits
                      : 0.0,
          "count");
    uint64_t hits = 0, calls = 0;
    for (const auto& outcome : batch.outcomes) {
      hits += outcome.store_hits;
      calls += outcome.store_oracle_calls;
    }
    m.Add("store.hit_ratio",
          hits + calls > 0 ? static_cast<double>(hits) / (hits + calls) : 0.0,
          "share");
  }

  // Rung 5: kgaccd over loopback, nproc closed-loop clients.
  double rung_daemon_ms = 0.0;
  {
    ScopedSpan rung("ladder.daemon", 0, 0, true);
    auto daemon = StartDaemon(FreshDir(dir + "/daemon"), &kg, true);
    if (!daemon.ok()) {
      out->tally.Fail("ladder daemon: " + daemon.status().ToString());
      return;
    }
    const unsigned clients = Nproc();
    std::atomic<size_t> next{0};
    std::vector<ClientAudit> audits(specs.size());
    std::vector<std::thread> threads;
    const uint64_t rung_id = rung.id();
    for (unsigned c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        for (size_t k = next.fetch_add(1); k < specs.size();
             k = next.fetch_add(1)) {
          ScopedSpan span("client.audit", rung_id, specs[k].audit_id, true);
          audits[k] = RunClientAudit(
              (*daemon)->port(),
              AuditSpec(specs[k].audit_id, "srs", specs[k].seed));
        }
      });
    }
    for (auto& t : threads) t.join();
    std::vector<double> op_ms;
    std::vector<EvaluationResult> got;
    uint64_t reconnects = 0, busy = 0;
    for (const ClientAudit& a : audits) {
      if (!a.status.ok()) out->tally.Fail("daemon rung: " + a.status.ToString());
      op_ms.push_back(a.op_ms);
      got.push_back(a.report.result);
      reconnects += a.stats.reconnects;
      busy += a.stats.busy_retries;
    }
    CheckRung("daemon rung", got, bare, &out->tally);
    rung_daemon_ms = Mean(op_ms);
    m.Add("net.reconnects", static_cast<double>(reconnects), "count");
    m.Add("net.busy_retries", static_cast<double>(busy), "count");
    m.Add("daemon.connections_failed",
          static_cast<double>((*daemon)->stats().connections_failed.load()),
          "count");
    m.Add("daemon.steps_executed",
          static_cast<double>((*daemon)->stats().steps_executed.load()),
          "count");
    (*daemon)->Stop();
  }
  m.Add("ladder.session", rung_session_ms, "ms");
  m.Add("ladder.store", rung_store_ms, "ms");
  m.Add("ladder.fsync", rung_fsync_ms, "ms");
  m.Add("ladder.service", rung_service_ms, "ms");
  m.Add("ladder.daemon", rung_daemon_ms, "ms");

  TraceReadPath(kg, specs, bare, sync_path, out);
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

int Usage(const char* msg) {
  std::fprintf(stderr,
               "kgbench: %s\nusage: kgbench --workload "
               "<replicate|daemon-reopen> --seed N --seconds S "
               "--trace <0|1> [--out-dir DIR] [--corrupt-expected]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--corrupt-expected") {
      opt.corrupt_expected = true;
      continue;
    }
    if ((v = value()) == nullptr) return Usage(("missing value for " + arg).c_str());
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--out-dir") {
      opt.out_dir = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload != "replicate" && opt.workload != "daemon-reopen") {
    return Usage("unknown workload");
  }
  if (!(opt.seconds > 0.0)) return Usage("--seconds must be positive");

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string work_dir = FreshDir(
      opt.out_dir + "/stores-" + std::to_string(static_cast<long>(getpid())));
  const HostInfo host = DetectHost(work_dir);
  const std::string tag = opt.workload + "-seed" + std::to_string(opt.seed) +
                          (opt.trace ? "-trace" : "");
  std::printf("kgbench %s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("host %s\n", HostJson(host).c_str());
  std::fflush(stdout);

  MetricSet metrics;
  MetricSet tails;
  Tally tally;
  std::string span_summary;
  if (!opt.trace) {
    WorkloadResult r;
    if (opt.workload == "replicate") {
      r = RunReplicate(opt);
    } else {
      r = RunDaemonReopen(opt, work_dir);
    }
    metrics = EndToEndMetrics(r, &tails);
    tally = r.tally;
    std::printf("samples: ops=%zu batches=%zu setups=%zu windows=%d\n",
                r.op_ms.size(), r.batch_ms.size(), r.setup_s.size(),
                kWindows);
    std::printf("window rates (1/s):");
    for (double rate : WindowRates(r.op_ms, r.loop_seconds)) {
      std::printf(" %.1f", rate);
    }
    std::printf("\nsetups (s):");
    for (double s : r.setup_s) std::printf(" %.3f", s);
    std::printf("\n");
  } else {
    Tracer::Enable(true);
    TracedResult t;
    TraceReplicate(opt, std::min(3.0, std::max(0.5, opt.seconds / 4)), &t);
    TraceLadder(opt, work_dir, &t);
    Tracer::Enable(false);
    metrics = t.metrics;
    tally = t.tally;
  }
  const double error_rate =
      tally.attempted > 0
          ? static_cast<double>(tally.failed) / tally.attempted
          : 1.0;
  std::printf("%s", metrics.Table().c_str());
  if (!opt.trace) {
    std::printf("printed, not bounded:\n%s", tails.Table().c_str());
  }
  std::printf("  %-36s %16.6g %s\n", "error_rate", error_rate, "ratio");
  for (const std::string& note : tally.notes) {
    std::printf("  error: %s\n", note.c_str());
  }

  const std::string header =
      "{\"workload\": \"" + opt.workload + "\", \"seed\": " +
      std::to_string(opt.seed) + ", \"seconds\": " + JsonNumber(opt.seconds) +
      ", \"trace\": " + (opt.trace ? "1" : "0") + ", \"host\": " +
      HostJson(host) + "}";
  if (opt.trace) {
    span_summary = Tracer::WriteFile(opt.out_dir + "/" + tag + "-spans.json",
                                     header);
    std::printf("%s", span_summary.c_str());
  }
  std::filesystem::remove_all(work_dir, ec);

  const bool correct = tally.failed == 0 && tally.attempted > 0;
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(tally.attempted) +
      ", \"failed\": " + std::to_string(tally.failed) +
      ", \"metrics\": " + metrics.Json() + "}";
  if (std::FILE* rec =
          std::fopen((opt.out_dir + "/" + tag + ".json").c_str(), "w")) {
    std::fprintf(rec,
                 "{\"header\": %s, \"error_rate\": %s, \"result\": %s}\n",
                 header.c_str(), JsonNumber(error_rate).c_str(),
                 result.c_str());
    std::fclose(rec);
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace kgbench

int main(int argc, char** argv) { return kgbench::Main(argc, argv); }
