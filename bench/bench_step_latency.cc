// Per-step latency of EvaluationSession::Step() as the accumulated sample
// grows: the streaming-estimator contract says one step costs O(batch)
// regardless of how many triples are already annotated, so the per-step
// latency measured around n = 1k, 10k, and 50k annotated triples must stay
// flat for every design (before the EstimatorAccumulator it grew linearly:
// each step re-walked the whole sample and cold-started the HPD solvers).
//
// Latency is reported as p50/p90/p99 quantiles rather than a mean: the
// historical distinct-set rehash spikes polluted the mean by ~7x (SRS 50k:
// mean 1270 us vs median 171 us in the PR 2 record) while leaving the
// median untouched, which is exactly the difference between "typical step"
// and "worst step" that a quantile row makes visible. With FlatSet64's
// incremental migration the tail should now sit near the median.
//
// Emits BENCH_step.json: a `host` record first (bench_util.h), then one
// record per (design, checkpoint) with the p50/p90/p99 step latency over a
// measurement window, plus one summary record per design with the 50k/1k
// p50 flatness ratio. One 1k window and one 50k window are noisy enough to
// flip a verdict on their own (one run read SSRS at 2.016), so each design
// runs three independently seeded sessions: the summary's ratio and `flat`
// verdict are the median of the three sessions' ratios, all three are
// listed in `latency_ratios`, and the per-checkpoint records and solver
// counters are the first session's.
//
// Each window additionally snapshots the thread-local HPD solver counters
// (credible.h): how many solves each path took (the 2x2 Newton KKT primary,
// its 1-D root fallback, limiting closed forms) and how many incomplete-beta
// evaluations (CDF + PDF + quantile) they spent per solve — so the Newton
// path's eval reduction is *measured* in the checked-in record, not
// asserted. The summary row carries the aggregate evals-per-solve and the
// incomplete-beta kernel calls per solve (math/special.h counters, which
// also count the calls inside each quantile inversion) and the
// continued-fraction iterations per kernel call, the kernel's own work per
// call; all three are gated by tools/check_perf_regression.py alongside the
// latency ratios.
//
// Before the step windows, the record times TWCS and WCS sampler
// construction (each builds the PPS alias table over every cluster) on the
// dbpedia-1m population kgaccd reopens audits over: the DBPEDIA profile
// scaled 107x, 314,152 clusters, once as the procedural `SyntheticKg` (a
// virtual call per cluster size) and once materialized as the
// `KnowledgeGraph` kgaccd holds (sizes read inline). One
// `sampler_construct` record per (view, design) carries the median and the
// cost per 10^6 clusters. It is wall clock, so it is recorded, not gated.
// Each build here gets freshly mapped pages for its O(n) buffers, so the
// record includes their first-touch page faults: on the record's host, in
// three alternating runs, the KnowledgeGraph TWCS median read 2.9-3.7 ms,
// and 3.0-3.7 ms with glibc's mmap threshold raised
// (MALLOC_MMAP_THRESHOLD_=33554432) so the buffers come from the heap.
// kgbench's traced `sampling.construct_ms.twcs` runs in a process whose
// heap already holds such blocks.
//
// Knobs: KGACC_SEED, KGACC_REPS = steps per measurement window (default 60).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

using namespace kgacc;

/// Quantile with linear interpolation over the sorted window.
double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

struct Checkpoint {
  uint64_t target_n = 0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  uint64_t measured_at_n = 0;
  int steps_timed = 0;
  /// HPD solver and incomplete-beta kernel counters accumulated over this
  /// window's steps.
  HpdSolveStats hpd;
  BetaKernelStats kernel;
};

double EvalsPerSolve(const HpdSolveStats& stats) {
  return stats.total_solves() == 0
             ? 0.0
             : static_cast<double>(stats.total_beta_evals()) /
                   static_cast<double>(stats.total_solves());
}

double NewtonShare(const HpdSolveStats& stats) {
  // Share of the *numeric* (non-limiting) solves the Newton path handled.
  const uint64_t numeric = stats.newton.solves + stats.onedim.solves;
  return numeric == 0 ? 0.0
                      : static_cast<double>(stats.newton.solves) /
                            static_cast<double>(numeric);
}

double KernelCallsPerSolve(const BetaKernelStats& kernel,
                           const HpdSolveStats& stats) {
  return stats.total_solves() == 0
             ? 0.0
             : static_cast<double>(kernel.calls) /
                   static_cast<double>(stats.total_solves());
}

double CfIterationsPerCall(const BetaKernelStats& kernel) {
  return kernel.calls == 0 ? 0.0
                           : static_cast<double>(kernel.cf_iterations) /
                                 static_cast<double>(kernel.calls);
}

/// Runs one session to each checkpoint in turn and times a window of
/// `window` steps there. Fails on a step error.
Result<std::vector<Checkpoint>> MeasureSession(
    Sampler& sampler, Annotator& annotator, const EvaluationConfig& config,
    uint64_t seed, int window, const std::vector<uint64_t>& checkpoints) {
  SessionScratch scratch;
  EvaluationSession session(sampler, annotator, config, seed, &scratch);
  std::vector<Checkpoint> measured;
  for (const uint64_t target : checkpoints) {
    // Advance (unmeasured) until the sample reaches the checkpoint.
    while (!session.done() && session.accumulator().num_triples() < target) {
      KGACC_RETURN_IF_ERROR(session.Step().status());
    }
    // Measure a window of steps at this sample size.
    Checkpoint cp;
    cp.target_n = target;
    cp.measured_at_n = session.accumulator().num_triples();
    std::vector<double> step_us;
    step_us.reserve(window);
    ResetThreadHpdStats();
    ResetThreadBetaKernelStats();
    for (int s = 0; s < window && !session.done(); ++s) {
      const auto start = std::chrono::steady_clock::now();
      const auto outcome = session.Step();
      const std::chrono::duration<double, std::micro> elapsed =
          std::chrono::steady_clock::now() - start;
      KGACC_RETURN_IF_ERROR(outcome.status());
      step_us.push_back(elapsed.count());
    }
    cp.steps_timed = static_cast<int>(step_us.size());
    cp.p50_us = Quantile(step_us, 0.50);
    cp.p90_us = Quantile(step_us, 0.90);
    cp.p99_us = Quantile(step_us, 0.99);
    cp.hpd = ThreadHpdStatsSnapshot();
    cp.kernel = ThreadBetaKernelStatsSnapshot();
    measured.push_back(cp);
  }
  return measured;
}

/// The 50k/1k p50 ratio of one session's windows.
double FlatnessRatio(const std::vector<Checkpoint>& measured) {
  return measured.front().p50_us > 0.0
             ? measured.back().p50_us / measured.front().p50_us
             : 0.0;
}

/// The population as kgaccd holds it: a `KnowledgeGraph` with one subject
/// per cluster, one predicate per offset (which keeps every triple
/// distinct), and objects from a shared pool of 65,521 terms.
KnowledgeGraph Materialize(const KgView& view) {
  KnowledgeGraphBuilder builder;
  std::string s, p, o;
  for (uint64_t c = 0; c < view.num_clusters(); ++c) {
    s = "e" + std::to_string(c);
    for (uint64_t off = 0; off < view.cluster_size(c); ++off) {
      p = "p" + std::to_string(off);
      o = "v" + std::to_string((c * 7919 + off * 104729) % 65521);
      builder.Add(s, p, o, view.label(c, off));
    }
  }
  return *builder.Build();
}

/// Times TWCS and WCS sampler construction over the dbpedia-1m population,
/// procedural and materialized, and appends one `sampler_construct` record
/// per (view, design) to `json`.
void RecordSamplerConstruction(std::FILE* json) {
  constexpr int kReps = 21;
  DatasetProfile profile = DbpediaProfile();
  profile.num_facts *= 107;
  profile.num_clusters *= 107;
  const auto synthetic = *MakeKg(profile, 42);
  const KnowledgeGraph materialized = Materialize(synthetic);
  const auto record = [&](const char* view, const char* design, auto build) {
    std::vector<double> ms;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      const auto sampler = build();
      const std::chrono::duration<double, std::milli> elapsed =
          std::chrono::steady_clock::now() - start;
      ms.push_back(elapsed.count());
    }
    const double median = Quantile(ms, 0.50);
    const uint64_t clusters = synthetic.num_clusters();
    const double per_million = median * 1e6 / static_cast<double>(clusters);
    std::printf("%s sampler construction over dbpedia-1m as %s (%llu "
                "clusters): median %.3f ms, %.2f ms per 10^6 clusters\n",
                design, view, static_cast<unsigned long long>(clusters),
                median, per_million);
    if (json != nullptr) {
      std::fprintf(json,
                   ",\n  {\"bench\": \"sampler_construct\", "
                   "\"design\": \"%s\", \"kg\": \"dbpedia-1m\", "
                   "\"view\": \"%s\", \"clusters\": %llu, \"reps\": %d, "
                   "\"median_ms\": %.3f, \"ms_per_million_clusters\": %.3f}",
                   design, view, static_cast<unsigned long long>(clusters),
                   kReps, median, per_million);
    }
  };
  const auto both_designs = [&](const char* view, const KgView& kg) {
    record(view, "TWCS", [&kg] { return TwcsSampler(kg, TwcsConfig{}); });
    record(view, "WCS", [&kg] { return WcsSampler(kg, ClusterConfig{}); });
  };
  both_designs("SyntheticKg", synthetic);
  both_designs("KnowledgeGraph", materialized);
}

}  // namespace

int main() {
  const uint64_t seed = bench::BaseSeed();
  const int window = bench::Reps(60);
  const std::vector<uint64_t> checkpoints = {1000, 10000, 50000};

  // A mid-size synthetic population: large enough that a 50k-triple audit
  // samples a small fraction, small enough to build instantly.
  SyntheticKgConfig kg_cfg;
  kg_cfg.num_clusters = 200000;
  kg_cfg.mean_cluster_size = 3.0;
  kg_cfg.accuracy = 0.9;
  kg_cfg.seed = seed;
  const auto kg = *SyntheticKg::Create(kg_cfg);
  OracleAnnotator annotator;

  // One audit per design, batch sizes tuned so every step annotates ~100
  // triples (the latency of interest is per *step*, not per triple).
  struct Design {
    const char* name;
    std::unique_ptr<Sampler> sampler;
  };
  std::vector<Design> designs;
  designs.push_back({"SRS", std::make_unique<SrsSampler>(
                                kg, SrsConfig{.batch_size = 100})});
  designs.push_back({"TWCS", std::make_unique<TwcsSampler>(
                                 kg, TwcsConfig{.batch_clusters = 34,
                                                .second_stage_size = 3})});
  designs.push_back({"RCS", std::make_unique<RcsSampler>(
                                kg, ClusterConfig{.batch_clusters = 34})});
  designs.push_back({"SSRS", std::make_unique<StratifiedSampler>(
                                 kg, StratifiedConfig{.batch_size = 100})});

  // An audit that never converges inside the measurement range: the MoE
  // budget is unreachable, so only the triple cap stops the session.
  EvaluationConfig config;
  config.method = IntervalMethod::kAhpd;
  config.moe_threshold = 1e-9;
  config.max_triples = checkpoints.back() + 20000;

  std::FILE* json = std::fopen("BENCH_step.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "[\n  %s", bench::HostRecordJson().c_str());
  }
  RecordSamplerConstruction(json);

  std::printf("EvaluationSession::Step() latency vs accumulated sample size "
              "(aHPD, %d-step windows)\n", window);
  bench::Rule(120);
  std::printf("%6s %9s | %26s | %26s | %9s | %6s %6s %6s %5s\n", "design",
              "n=1k p50", "n=10k p50/p90/p99 (us)", "n=50k p50/p90/p99 (us)",
              "50k/1k", "ev/slv", "kc/slv", "cf/kc", "newt");
  bench::Rule(120);
  bool all_flat = true;

  constexpr int kSessions = 3;
  for (Design& design : designs) {
    // Session 0 keeps the record's historical seed; its windows supply the
    // per-checkpoint records and the solver counters.
    std::vector<Checkpoint> measured;
    double ratios[kSessions];
    for (int r = 0; r < kSessions; ++r) {
      auto session = MeasureSession(*design.sampler, annotator, config,
                                    seed + 17 + r, window, checkpoints);
      if (!session.ok()) {
        std::fprintf(stderr, "[%s] step failed: %s\n", design.name,
                     session.status().ToString().c_str());
        return 1;
      }
      ratios[r] = FlatnessRatio(*session);
      if (r == 0) measured = *std::move(session);
    }
    std::vector<double> sorted(ratios, ratios + kSessions);
    std::sort(sorted.begin(), sorted.end());
    const double ratio = sorted[kSessions / 2];
    all_flat = all_flat && ratio <= 2.0;
    HpdSolveStats design_hpd;
    BetaKernelStats design_kernel;
    for (const Checkpoint& cp : measured) {
      design_hpd += cp.hpd;
      design_kernel += cp.kernel;
    }
    std::printf("%6s %9.1f | %8.1f %8.1f %8.1f | %8.1f %8.1f %8.1f | %8.2fx"
                " | %6.1f %6.1f %6.1f %5.0f%%  (ratios %.2f %.2f %.2f)\n",
                design.name, measured[0].p50_us, measured[1].p50_us,
                measured[1].p90_us, measured[1].p99_us, measured[2].p50_us,
                measured[2].p90_us, measured[2].p99_us, ratio,
                EvalsPerSolve(design_hpd),
                KernelCallsPerSolve(design_kernel, design_hpd),
                CfIterationsPerCall(design_kernel),
                100.0 * NewtonShare(design_hpd), ratios[0], ratios[1],
                ratios[2]);

    if (json != nullptr) {
      for (const Checkpoint& cp : measured) {
        std::fprintf(json,
                     ",\n  {\"bench\": \"step_latency\", \"design\": \"%s\", "
                     "\"checkpoint_n\": %llu, \"measured_at_n\": %llu, "
                     "\"p50_step_us\": %.3f, \"p90_step_us\": %.3f, "
                     "\"p99_step_us\": %.3f, \"steps_timed\": %d, "
                     "\"hpd_solves\": %llu, \"hpd_newton_solves\": %llu, "
                     "\"hpd_onedim_solves\": %llu, "
                     "\"hpd_limiting_solves\": %llu, "
                     "\"hpd_beta_evals_per_solve\": %.2f, "
                     "\"kernel_calls_per_solve\": %.2f}",
                     design.name,
                     static_cast<unsigned long long>(cp.target_n),
                     static_cast<unsigned long long>(cp.measured_at_n),
                     cp.p50_us, cp.p90_us, cp.p99_us, cp.steps_timed,
                     static_cast<unsigned long long>(cp.hpd.total_solves()),
                     static_cast<unsigned long long>(cp.hpd.newton.solves),
                     static_cast<unsigned long long>(cp.hpd.onedim.solves),
                     static_cast<unsigned long long>(cp.hpd.limiting.solves),
                     EvalsPerSolve(cp.hpd),
                     KernelCallsPerSolve(cp.kernel, cp.hpd));
      }
      std::fprintf(json,
                   ",\n  {\"bench\": \"step_latency_summary\", "
                   "\"design\": \"%s\", \"latency_ratio_50k_over_1k\": %.3f, "
                   "\"latency_ratios\": [%.3f, %.3f, %.3f], "
                   "\"flat\": %s, \"hpd_beta_evals_per_solve\": %.2f, "
                   "\"hpd_newton_share\": %.3f, "
                   "\"kernel_calls_per_solve\": %.2f, "
                   "\"cf_iterations_per_call\": %.2f}",
                   design.name, ratio, ratios[0], ratios[1], ratios[2],
                   ratio <= 2.0 ? "true" : "false",
                   EvalsPerSolve(design_hpd), NewtonShare(design_hpd),
                   KernelCallsPerSolve(design_kernel, design_hpd),
                   CfIterationsPerCall(design_kernel));
    }
  }
  if (json != nullptr) {
    std::fprintf(json, "\n]\n");
    std::fclose(json);
  }
  bench::Rule(120);
  std::printf("per-step cost flat (median 50k p50 within 2x of 1k over %d "
              "sessions) for every design: %s\n", kSessions,
              all_flat ? "yes" : "NO");
  std::printf("wrote BENCH_step.json\n");
  return 0;
}
