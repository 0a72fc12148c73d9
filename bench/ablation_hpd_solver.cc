// Ablation A: the three HPD solvers — the library's 2x2 Newton KKT path,
// the paper's SLSQP formulation (the `kgacc_reference` target), and the
// independent 1-D reduction (u(l) = F^{-1}(F(l) + 1 - alpha), Brent root of
// the density gap). Verifies they agree, exiting 1 when Newton's worst
// endpoint gap to either reference exceeds 1e-8, and compares their
// throughput with google-benchmark across posterior shapes arising in real
// runs. `--benchmark_filter='^$'` runs the agreement check alone.

#include <cmath>
#include <algorithm>
#include <cstdio>

#include <benchmark/benchmark.h>

#include "kgacc/kgacc.h"
#include "reference/slsqp.h"

namespace {

using namespace kgacc;

struct Shape {
  double a, b;
};

// Posteriors representative of early / late iterations on the four paper
// datasets (YAGO-like extreme, NELL/DBPEDIA-like skewed, FACTBENCH-like
// central).
const Shape kShapes[] = {
    {31.0, 1.5}, {28.0, 4.0}, {96.0, 11.0}, {155.0, 28.0}, {205.0, 177.0},
};

void BM_HpdNewtonKkt(benchmark::State& state) {
  const Shape shape = kShapes[state.range(0)];
  const auto d = *BetaDistribution::Create(shape.a, shape.b);
  for (auto _ : state) {
    auto hpd = HpdInterval(d, 0.05);  // Default path: 2x2 Newton KKT.
    benchmark::DoNotOptimize(hpd);
  }
  state.SetLabel("Beta(" + std::to_string(shape.a) + "," +
                 std::to_string(shape.b) + ")");
}
BENCHMARK(BM_HpdNewtonKkt)->DenseRange(0, 4);

void BM_HpdSlsqp(benchmark::State& state) {
  const Shape shape = kShapes[state.range(0)];
  const auto d = *BetaDistribution::Create(shape.a, shape.b);
  for (auto _ : state) {
    auto hpd = HpdIntervalSqp(d, 0.05);  // The pure SQP reference.
    benchmark::DoNotOptimize(hpd);
  }
  state.SetLabel("Beta(" + std::to_string(shape.a) + "," +
                 std::to_string(shape.b) + ")");
}
BENCHMARK(BM_HpdSlsqp)->DenseRange(0, 4);

void BM_HpdOneDim(benchmark::State& state) {
  const Shape shape = kShapes[state.range(0)];
  const auto d = *BetaDistribution::Create(shape.a, shape.b);
  for (auto _ : state) {
    auto hpd = HpdIntervalByRoot(d, 0.05);
    benchmark::DoNotOptimize(hpd);
  }
  state.SetLabel("Beta(" + std::to_string(shape.a) + "," +
                 std::to_string(shape.b) + ")");
}
BENCHMARK(BM_HpdOneDim)->DenseRange(0, 4);

void BM_EqualTailed(benchmark::State& state) {
  const Shape shape = kShapes[state.range(0)];
  const auto d = *BetaDistribution::Create(shape.a, shape.b);
  for (auto _ : state) {
    auto et = EqualTailedInterval(d, 0.05);
    benchmark::DoNotOptimize(et);
  }
}
BENCHMARK(BM_EqualTailed)->DenseRange(0, 4);

}  // namespace

int main(int argc, char** argv) {
  using namespace kgacc;
  // Correctness cross-check before timing: Newton must agree with both
  // references.
  std::printf("Ablation A: Newton KKT vs SLSQP vs 1-D reduction agreement "
              "check\n");
  double worst = 0.0;
  int sqp_failures = 0;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const double a = 1.2 + rng.Uniform() * 300.0;
    const double b = 1.2 + rng.Uniform() * 100.0;
    const auto d = *BetaDistribution::Create(a, b);
    const auto newton = *HpdInterval(d, 0.05);
    const auto sqp = HpdIntervalSqp(d, 0.05);
    const auto oned = *HpdIntervalByRoot(d, 0.05);
    const auto gap = [&newton](const Interval& other) {
      return std::max(std::fabs(newton.interval.lower - other.lower),
                      std::fabs(newton.interval.upper - other.upper));
    };
    worst = std::max(worst, gap(oned.interval));
    // The SQP reference has no fallback; a non-converged solve is counted.
    if (sqp.ok()) {
      worst = std::max(worst, gap(sqp->interval));
    } else {
      ++sqp_failures;
    }
  }
  std::printf("Worst endpoint disagreement over 200 random posteriors: "
              "%.2e (SQP did not converge on %d)\n\n", worst, sqp_failures);
  if (worst > 1e-8) {
    std::fprintf(stderr, "Newton disagrees with a reference solver by more "
                         "than 1e-8\n");
    return 1;
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
