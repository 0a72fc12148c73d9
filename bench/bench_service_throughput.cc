// EvaluationService throughput: sweeps worker threads x batch sizes over
// the same mixed audit workload, reports audits/sec, triples/sec, heap
// allocations per audit, the batch timing split (spawn/submit/run/barrier),
// worker utilization (summed task busy time over wall time x threads) and
// tasks run off their home worker, and verifies along the way that the
// numbers coming back are identical at every thread count and every
// repeat. Emits BENCH_service.json: a `host` record naming the machine
// (hardware threads, CPU model, compiler, build type), then one
// machine-readable record per sweep cell.
//
// Every cell repeats RunBatch on one persistent service until it has
// accumulated at least KGACC_MIN_CELL_MS (default 100 ms) of wall time and
// at least three runs, then reports the *median* run — a single 3 ms run
// is timer noise, and the old single-run protocol also charged pool
// spin-up and cold contexts to every cell. The per-cell record carries the
// run count so the JSON is honest about how much measurement backs it.
//
// The 32-job cells exist for continuity with the earlier single-cell
// record; the 256- and 2048-job cells are the ones that say anything about
// steady-state throughput (many jobs per worker, so the one-job tail and
// each context's first sampler clone amortize away). The closing
// service_thread_scaling record is the 4-thread / 1-thread audits/s ratio
// on the largest cell — check_perf_regression.py gates it as a blocking CI
// check on hosts with at least 4 hardware threads.
//
// Knobs: KGACC_SEED, KGACC_THREADS = max thread count to sweep to
// (default: hardware), KGACC_MIN_CELL_MS = minimum measured wall time per
// cell (default 100).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "kgacc/store/checkpoint.h"

// Global allocation counter: every operator new in the process ticks it, so
// (delta / audits) is the whole-pipeline allocation cost of one audit.
#include "kgacc/util/alloc_counter.h"

#include "bench_util.h"

namespace {

double MinCellSeconds() {
  if (const char* env = std::getenv("KGACC_MIN_CELL_MS")) {
    const double ms = std::atof(env);
    if (ms > 0.0) return ms / 1000.0;
  }
  return 0.1;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace

int main() {
  using namespace kgacc;
  const uint64_t seed = bench::BaseSeed();
  const double min_cell_seconds = MinCellSeconds();
  const unsigned hw = std::thread::hardware_concurrency();
  const int hardware_threads = hw > 0 ? static_cast<int>(hw) : 1;

  const auto kg = *MakeKg(NellProfile(), seed);
  OracleAnnotator annotator;
  SrsSampler srs(kg, SrsConfig{});
  TwcsSampler twcs(kg, TwcsConfig{});
  const IntervalMethod methods[] = {
      IntervalMethod::kWald, IntervalMethod::kWilson,
      IntervalMethod::kClopperPearson, IntervalMethod::kAhpd};

  int max_threads = bench::Threads();
  if (max_threads <= 0) {
    // Let the service's own 0-means-hardware resolution decide the ceiling,
    // so the sweep matches what a default-constructed service actually uses.
    max_threads = EvaluationService().num_threads();
  }
  // Always sweep 1/2/4 (oversubscription on small boxes is harmless and
  // still exercises the cross-thread determinism check), plus the full
  // hardware width when it exceeds 4.
  std::vector<int> thread_sweep = {1, 2, 4};
  if (max_threads > 4) thread_sweep.push_back(max_threads);
  const std::vector<int> job_sweep = {32, 256, 2048};

  std::printf("EvaluationService throughput (NELL-like KG, "
              "Wald/Wilson/CP/aHPD x SRS/TWCS, shared job cursor)\n");
  std::printf("cells run until >= %.0f ms of wall time; audits/s is the "
              "median run\n", min_cell_seconds * 1000.0);
  bench::Rule(102);
  std::printf("%6s %8s %5s %10s %12s %14s %12s %10s %10s %5s\n", "jobs",
              "threads", "runs", "wall(s)", "audits/s", "triples/s",
              "allocs/audit", "run(s)", "barrier(s)", "util");
  bench::Rule(102);

  std::FILE* json = std::fopen("BENCH_service.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "[\n  %s", bench::HostRecordJson().c_str());
  }
  bool deterministic = true;
  // Cross-worker HPD solver and kernel counters summed over every sweep
  // cell: the service-level evals- and kernel-calls-per-solve records the
  // perf gate checks, so solver efficiency is guarded under parallel load
  // too, not just in the single-threaded step bench.
  HpdSolveStats sweep_hpd;
  BetaKernelStats sweep_kernel;
  // Median audits/s per (jobs, threads) cell, feeding the closing
  // thread-scaling record.
  std::map<int, std::map<int, double>> cell_audits_per_second;

  for (const int jobs_n : job_sweep) {
    // A representative mixed workload: methods x designs x split seeds.
    std::vector<EvaluationJob> jobs;
    jobs.reserve(jobs_n);
    for (int i = 0; i < jobs_n; ++i) {
      EvaluationJob job;
      job.sampler = (i % 2 == 0) ? static_cast<const Sampler*>(&srs)
                                 : static_cast<const Sampler*>(&twcs);
      job.annotator = &annotator;
      job.config.method = methods[(i / 2) % 4];
      job.seed = EvaluationService::DeriveJobSeed(seed, i);
      jobs.push_back(std::move(job));
    }

    uint64_t reference_triples = 0;
    for (size_t s = 0; s < thread_sweep.size(); ++s) {
      // One persistent service per cell: the pool spawns once (charged to
      // the first run's spawn_seconds) and worker contexts stay warm
      // across the repeat loop, which is exactly how a long-lived service
      // process behaves.
      EvaluationService service(
          EvaluationService::Options{.num_threads = thread_sweep[s]});
      std::vector<double> run_audits_per_second;
      std::vector<double> run_wall_seconds;
      double total_wall = 0.0;
      double spawn_seconds = 0.0;
      double submit_seconds = 0.0;
      double run_seconds = 0.0;
      double barrier_seconds = 0.0;
      size_t groups = 0;
      size_t failed = 0;
      // Robustness counters summed over the cell's runs — all zero under
      // the bench's healthy unarmed default, so the JSON doubles as a
      // regression record that plain batches never degrade or retry.
      size_t degraded_jobs = 0;
      uint64_t total_retries = 0;
      uint64_t annotated_triples = 0;
      HpdSolveStats cell_hpd;
      const uint64_t allocs_before = alloc_counter::Current();
      while (run_wall_seconds.size() < 3 || total_wall < min_cell_seconds) {
        const EvaluationBatchResult batch = service.RunBatch(jobs);
        const ServiceBatchStats& stats = batch.stats;
        if (run_wall_seconds.empty()) {
          annotated_triples = stats.annotated_triples;
          failed = stats.failed;
          groups = stats.groups;
        } else if (stats.annotated_triples != annotated_triples) {
          deterministic = false;  // Repeats of one cell must agree.
        }
        run_audits_per_second.push_back(stats.audits_per_second);
        run_wall_seconds.push_back(stats.wall_seconds);
        total_wall += stats.wall_seconds;
        spawn_seconds += stats.spawn_seconds;
        submit_seconds += stats.submit_seconds;
        run_seconds += stats.run_seconds;
        barrier_seconds += stats.barrier_seconds;
        degraded_jobs += stats.degraded_jobs;
        total_retries += stats.total_retries;
        cell_hpd += stats.hpd;
        sweep_kernel += stats.kernel;
        if (run_wall_seconds.size() >= 512) break;  // Pathology guard.
      }
      const uint64_t allocs = alloc_counter::Current() - allocs_before;
      const size_t runs = run_wall_seconds.size();
      if (s == 0) {
        reference_triples = annotated_triples;
      } else if (annotated_triples != reference_triples) {
        deterministic = false;  // Thread counts must agree.
      }
      const double median_audits = Median(run_audits_per_second);
      const double median_wall = Median(run_wall_seconds);
      const double median_triples =
          median_wall > 0.0 ? static_cast<double>(annotated_triples) /
                                  median_wall
                            : 0.0;
      const double allocs_per_audit =
          static_cast<double>(allocs) /
          (static_cast<double>(jobs.size()) * static_cast<double>(runs));
      sweep_hpd += cell_hpd;
      const double evals_per_solve =
          cell_hpd.total_solves() > 0
              ? static_cast<double>(cell_hpd.total_beta_evals()) /
                    static_cast<double>(cell_hpd.total_solves())
              : 0.0;
      // Per-run means for the split (spawn is a one-off, reported whole).
      const double mean_submit = submit_seconds / static_cast<double>(runs);
      const double mean_run = run_seconds / static_cast<double>(runs);
      const double mean_barrier =
          barrier_seconds / static_cast<double>(runs);
      const double utilization =
          total_wall > 0.0
              ? run_seconds / (total_wall * service.num_threads())
              : 0.0;
      cell_audits_per_second[jobs_n][thread_sweep[s]] = median_audits;
      std::printf(
          "%6d %8d %5zu %10.3f %12.1f %14.0f %12.1f %10.4f %10.4f %5.3f\n",
          jobs_n, service.num_threads(), runs, median_wall, median_audits,
          median_triples, allocs_per_audit, mean_run, mean_barrier,
          utilization);
      if (json != nullptr) {
        std::fprintf(
            json,
            ",\n  {\"bench\": \"service_throughput\", \"jobs\": %d, "
            "\"threads\": %d, \"runs\": %zu, \"wall_seconds\": %.6f, "
            "\"audits_per_second\": %.2f, "
            "\"triples_per_second\": %.2f, "
            "\"annotated_triples\": %llu, "
            "\"allocations_per_audit\": %.2f, \"failed\": %zu, "
            "\"groups\": %zu, "
            "\"spawn_seconds\": %.6f, \"submit_seconds\": %.6f, "
            "\"run_seconds\": %.6f, \"barrier_seconds\": %.6f, "
            "\"utilization\": %.4f, \"degraded_jobs\": %zu, "
            "\"total_retries\": %llu, "
            "\"hpd_solves\": %llu, \"hpd_newton_solves\": %llu, "
            "\"hpd_beta_evals_per_solve\": %.2f}",
            jobs_n, service.num_threads(), runs, median_wall, median_audits,
            median_triples,
            static_cast<unsigned long long>(annotated_triples),
            allocs_per_audit, failed, groups, spawn_seconds,
            mean_submit, mean_run, mean_barrier, utilization, degraded_jobs,
            static_cast<unsigned long long>(total_retries),
            static_cast<unsigned long long>(cell_hpd.total_solves()),
            static_cast<unsigned long long>(cell_hpd.newton.solves),
            evals_per_solve);
      }
    }
  }
  // ---- Durable multi-writer cell -----------------------------------------
  // N concurrent jobs share ONE annotation store with kgaccd's durability:
  // labels are flushed to the OS, checkpoints are fsynced
  // (`sync_checkpoints`). Each job checkpoints itself every step (the
  // durable-audit shape), and every frame funnels through the store's
  // group-commit queue, so one fsync settles a batch holding several jobs'
  // checkpoints and labels. The cell's fsync bill is `commit_syncs`
  // (`fsyncs_per_label` divides it by the labels paid): below one per
  // checkpoint when coalescing works. The superseded snapshots litter the
  // log — exactly the garbage the closing compaction record then measures
  // reclaiming. The second batch re-runs the same jobs against the
  // now-populated store: every triple must answer from the index (zero
  // oracle calls), the durable replay fast path.
  {
    const char* store_path = "BENCH_store.wal";
    std::remove(store_path);
    AnnotationStore::Options store_options;
    store_options.sync_checkpoints = true;
    auto store_open = AnnotationStore::Open(store_path, store_options);
    if (!store_open.ok()) {
      std::fprintf(stderr, "cannot open bench store: %s\n",
                   store_open.status().ToString().c_str());
      return 1;
    }
    AnnotationStore* store = store_open->get();
    const int durable_jobs_n = 16;
    const int durable_threads = std::min(4, std::max(1, max_threads));
    std::vector<std::unique_ptr<CheckpointManager>> managers;
    std::vector<EvaluationJob> jobs;
    jobs.reserve(durable_jobs_n);
    for (int i = 0; i < durable_jobs_n; ++i) {
      EvaluationJob job;
      job.sampler = (i % 2 == 0) ? static_cast<const Sampler*>(&srs)
                                 : static_cast<const Sampler*>(&twcs);
      job.annotator = &annotator;
      job.config.method = methods[(i / 2) % 4];
      // A looser MoE keeps the fsync-bound cell short; the throughput
      // story lives in the sweep above, this cell is about commit batching.
      job.config.moe_threshold = 0.1;
      job.seed = EvaluationService::DeriveJobSeed(seed, 4096 + i);
      job.store = store;
      job.audit_id = static_cast<uint64_t>(i) + 1;
      managers.push_back(std::make_unique<CheckpointManager>(
          store, job.audit_id, CheckpointOptions{}));
      CheckpointManager* manager = managers.back().get();
      job.on_step = [manager](const EvaluationSession& session) {
        return manager->OnStep(session);
      };
      jobs.push_back(std::move(job));
    }
    EvaluationService service(
        EvaluationService::Options{.num_threads = durable_threads});
    const EvaluationBatchResult write_batch = service.RunBatch(jobs);
    const EvaluationBatchResult replay_batch = service.RunBatch(jobs);
    const ServiceBatchStats& ws = write_batch.stats;
    const ServiceBatchStats& rs = replay_batch.stats;
    if (rs.store_oracle_calls != 0 || rs.annotated_triples !=
        ws.annotated_triples) {
      deterministic = false;  // Replay must be free and identical.
    }
    const double fsyncs_per_label =
        ws.store_oracle_calls > 0
            ? static_cast<double>(ws.store_commit_syncs) /
                  static_cast<double>(ws.store_oracle_calls)
            : 0.0;
    std::printf("durable multi-writer: %d jobs x 1 store, %d threads: "
                "%llu labels, %llu group commits, %llu fsyncs "
                "(%.3f/label), replay oracle calls: %llu\n",
                durable_jobs_n, durable_threads,
                static_cast<unsigned long long>(ws.store_oracle_calls),
                static_cast<unsigned long long>(ws.store_commit_batches),
                static_cast<unsigned long long>(ws.store_commit_syncs),
                fsyncs_per_label,
                static_cast<unsigned long long>(rs.store_oracle_calls));
    if (json != nullptr) {
      std::fprintf(
          json,
          ",\n  {\"bench\": \"store_multi_writer\", \"jobs\": %d, "
          "\"threads\": %d, \"wall_seconds\": %.6f, \"failed\": %zu, "
          "\"degraded_jobs\": %zu, \"total_retries\": %llu, "
          "\"store_oracle_calls\": %llu, \"store_hits\": %llu, "
          "\"commit_batches\": %llu, \"commit_frames\": %llu, "
          "\"commit_syncs\": %llu, \"fsyncs_per_label\": %.4f, "
          "\"replay_oracle_calls\": %llu, \"replay_store_hits\": %llu, "
          "\"replay_identical\": %s}",
          durable_jobs_n, durable_threads, ws.wall_seconds, ws.failed,
          ws.degraded_jobs + rs.degraded_jobs,
          static_cast<unsigned long long>(ws.total_retries +
                                          rs.total_retries),
          static_cast<unsigned long long>(ws.store_oracle_calls),
          static_cast<unsigned long long>(ws.store_hits),
          static_cast<unsigned long long>(ws.store_commit_batches),
          static_cast<unsigned long long>(ws.store_commit_frames),
          static_cast<unsigned long long>(ws.store_commit_syncs),
          fsyncs_per_label,
          static_cast<unsigned long long>(rs.store_oracle_calls),
          static_cast<unsigned long long>(rs.store_hits),
          rs.store_oracle_calls == 0 &&
                  rs.annotated_triples == ws.annotated_triples
              ? "true"
              : "false");
    }
    // Compaction space amplification: live bytes are known exactly from
    // the store's byte accounting, so `bytes_after / live_before` is a
    // machine-independent structural ratio (trailer + header overhead
    // only) — the absolute gate check_perf_regression.py enforces.
    const uint64_t bytes_before = store->file_bytes();
    const uint64_t live_before = store->live_bytes();
    const Status compacted = store->Compact();
    if (!compacted.ok()) {
      std::fprintf(stderr, "bench store compaction failed: %s\n",
                   compacted.ToString().c_str());
      return 1;
    }
    const uint64_t bytes_after = store->file_bytes();
    const double amp_before =
        live_before > 0 ? static_cast<double>(bytes_before) /
                              static_cast<double>(live_before)
                        : 0.0;
    const double amp_after =
        live_before > 0 ? static_cast<double>(bytes_after) /
                              static_cast<double>(live_before)
                        : 0.0;
    std::printf("store compaction: %llu -> %llu bytes (%llu live), "
                "amplification %.2fx -> %.4fx\n",
                static_cast<unsigned long long>(bytes_before),
                static_cast<unsigned long long>(bytes_after),
                static_cast<unsigned long long>(live_before), amp_before,
                amp_after);
    if (json != nullptr) {
      std::fprintf(json,
                   ",\n  {\"bench\": \"store_compaction\", "
                   "\"bytes_before\": %llu, \"live_before\": %llu, "
                   "\"bytes_after\": %llu, "
                   "\"space_amplification_before\": %.4f, "
                   "\"space_amplification_after\": %.4f}",
                   static_cast<unsigned long long>(bytes_before),
                   static_cast<unsigned long long>(live_before),
                   static_cast<unsigned long long>(bytes_after), amp_before,
                   amp_after);
    }
    std::remove(store_path);
  }

  // Thread-scaling ratio on the largest (steadiest) cell: median 4-thread
  // audits/s over median 1-thread audits/s. The gate only enforces it on
  // hosts with >= 4 hardware threads — on smaller boxes the ratio measures
  // the scheduler, not the service — so the record carries the hardware
  // width alongside the ratio.
  const int scaling_jobs = job_sweep.back();
  const auto& scaling_cell = cell_audits_per_second[scaling_jobs];
  const double one_thread = scaling_cell.count(1) ? scaling_cell.at(1) : 0.0;
  const double four_thread = scaling_cell.count(4) ? scaling_cell.at(4) : 0.0;
  const double scaling_ratio =
      one_thread > 0.0 ? four_thread / one_thread : 0.0;
  if (json != nullptr) {
    // The machine-independent summary record the perf gate compares: beta
    // evaluations per HPD solve aggregated over the whole sweep (every
    // thread count and batch size), the Newton share, the solves that left
    // Newton's basin for the 1-D root fallback, and the incomplete-beta
    // kernel calls per HPD solve. The kernel count covers every method of
    // the mix (Clopper-Pearson's quantile inversions included), so it also
    // moves when a non-HPD interval changes its kernel bill.
    const double sweep_evals_per_solve =
        sweep_hpd.total_solves() > 0
            ? static_cast<double>(sweep_hpd.total_beta_evals()) /
                  static_cast<double>(sweep_hpd.total_solves())
            : 0.0;
    const double newton_share =
        sweep_hpd.total_solves() > 0
            ? static_cast<double>(sweep_hpd.newton.solves) /
                  static_cast<double>(sweep_hpd.total_solves())
            : 0.0;
    const double kernel_calls_per_solve =
        sweep_hpd.total_solves() > 0
            ? static_cast<double>(sweep_kernel.calls) /
                  static_cast<double>(sweep_hpd.total_solves())
            : 0.0;
    std::fprintf(json,
                 ",\n  {\"bench\": \"service_hpd_summary\", "
                 "\"hpd_solves\": %llu, \"hpd_beta_evals_per_solve\": %.2f, "
                 "\"hpd_newton_share\": %.3f, \"hpd_fallback_solves\": %llu, "
                 "\"kernel_calls_per_solve\": %.2f}",
                 static_cast<unsigned long long>(sweep_hpd.total_solves()),
                 sweep_evals_per_solve, newton_share,
                 static_cast<unsigned long long>(sweep_hpd.onedim.solves),
                 kernel_calls_per_solve);
    std::fprintf(json,
                 ",\n  {\"bench\": \"service_thread_scaling\", "
                 "\"jobs\": %d, \"threads_scaling_ratio\": %.3f, "
                 "\"audits_per_second_1t\": %.2f, "
                 "\"audits_per_second_4t\": %.2f, "
                 "\"hardware_threads\": %d, \"min_cell_seconds\": %.3f}",
                 scaling_jobs, scaling_ratio, one_thread, four_thread,
                 hardware_threads, min_cell_seconds);
    std::fprintf(json, "\n]\n");
    std::fclose(json);
  }
  bench::Rule(110);
  std::printf("threads scaling ratio (4t/1t, %d jobs): %.2f "
              "(%d hardware threads)\n",
              scaling_jobs, scaling_ratio, hardware_threads);
  std::printf("deterministic across thread counts and repeats: %s\n",
              deterministic ? "yes" : "NO — BUG");
  std::printf("wrote BENCH_service.json\n");
  return deterministic ? 0 : 1;
}
