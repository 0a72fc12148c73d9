// Ablation B: value of the ET warm start for the Newton KKT HPD solve
// (Alg. 1 line 20). Compares Newton iteration counts and wall time between
// warm (ET-interval) and cold (mode±0.25) starts, both passed as `start`
// and built once outside the timed loop, so the timings compare Newton
// alone.

#include <algorithm>
#include <cstdio>

#include <benchmark/benchmark.h>

#include "kgacc/kgacc.h"

namespace {

using namespace kgacc;

/// Times `HpdInterval` from the start `make_start` returns for the
/// posterior Beta(range(0), range(1)).
template <typename MakeStart>
void RunFromStart(benchmark::State& state, MakeStart make_start) {
  const auto d = *BetaDistribution::Create(
      static_cast<double>(state.range(0)), static_cast<double>(state.range(1)));
  const Interval start = make_start(d);
  int64_t total_iters = 0;
  int64_t calls = 0;
  for (auto _ : state) {
    const auto hpd = *HpdInterval(d, 0.05, &start);
    total_iters += hpd.solver_iterations;
    ++calls;
    benchmark::DoNotOptimize(hpd);
  }
  state.counters["newton_iters"] =
      static_cast<double>(total_iters) / static_cast<double>(calls);
}

void BM_HpdWarmStart(benchmark::State& state) {
  RunFromStart(state, [](const BetaDistribution& d) {
    return *EqualTailedInterval(d, 0.05);
  });
}
BENCHMARK(BM_HpdWarmStart)
    ->Args({28, 4})
    ->Args({96, 11})
    ->Args({205, 177});

void BM_HpdColdStart(benchmark::State& state) {
  RunFromStart(state, [](const BetaDistribution& d) {
    return Interval{std::max(0.0, d.Mode() - 0.25),
                    std::min(1.0, d.Mode() + 0.25)};
  });
}
BENCHMARK(BM_HpdColdStart)
    ->Args({28, 4})
    ->Args({96, 11})
    ->Args({205, 177});

}  // namespace

BENCHMARK_MAIN();
