#ifndef KGACC_BENCH_BENCH_UTIL_H_
#define KGACC_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "kgacc/kgacc.h"

/// \file bench_util.h
/// Shared plumbing for the experiment harness: replication counts, the
/// mean +- std cells the paper's tables print, and significance marks.

namespace kgacc::bench {

/// Replications per configuration. Defaults to the paper's 1,000; override
/// with the KGACC_REPS environment variable for quicker passes.
int Reps(int fallback = 1000);

/// Base seed for all harness runs; override with KGACC_SEED.
uint64_t BaseSeed();

/// Worker threads for the harness's `EvaluationService`; defaults to the
/// hardware concurrency, override with KGACC_THREADS. Thread count never
/// changes the numbers — only the wall-clock time.
int Threads();

/// The process-wide evaluation service the harness fans repetitions out
/// on (constructed on first use with `Threads()` workers).
EvaluationService& SharedService();

/// "123±45" / "1.23±0.45" formatting used throughout the tables.
std::string MeanStd(const SampleSummary& s, int precision);

/// Runs one (population, design, method) configuration through the full
/// iterative framework `reps` times. Repetitions execute as one parallel
/// `EvaluationService` batch (seed + i per rep), reproducing the serial
/// protocol bit for bit.
struct BenchConfig {
  IntervalMethod method = IntervalMethod::kAhpd;
  double alpha = 0.05;
  double epsilon = 0.05;
  std::vector<BetaPrior> priors = DefaultUninformativePriors();
  bool twcs = false;
  int twcs_m = 3;
};

ReplicationSummary RunConfig(const KgView& kg, const BenchConfig& config,
                             int reps, uint64_t seed);

/// Paper-style significance marks versus aHPD (pooled t-test, p < 0.01):
/// dagger for Wald, double-dagger for Wilson.
std::string SignificanceMarks(const ReplicationSummary& ahpd,
                              const ReplicationSummary& wald,
                              const ReplicationSummary& wilson);

/// The measuring host as one JSON record, `{"bench": "host", ...}`:
/// hardware threads (`nproc`), CPU model, compiler and build type — the
/// host fields kgbench prints, so a checked-in record names its machine.
std::string HostRecordJson();

/// Prints a horizontal rule of width `n`.
void Rule(int n);

}  // namespace kgacc::bench

#endif  // KGACC_BENCH_BENCH_UTIL_H_
