#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace kgacc::bench {

int Reps(int fallback) {
  if (const char* env = std::getenv("KGACC_REPS")) {
    const int reps = std::atoi(env);
    if (reps > 0) return reps;
  }
  return fallback;
}

uint64_t BaseSeed() {
  if (const char* env = std::getenv("KGACC_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20250226;  // The paper's arXiv date, for want of a better ritual.
}

int Threads() {
  if (const char* env = std::getenv("KGACC_THREADS")) {
    const int threads = std::atoi(env);
    if (threads > 0) return threads;
  }
  return 0;  // EvaluationService resolves 0 to the hardware concurrency.
}

EvaluationService& SharedService() {
  static EvaluationService service(
      EvaluationService::Options{.num_threads = Threads()});
  return service;
}

std::string MeanStd(const SampleSummary& s, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f±%.*f", precision, s.mean, precision,
                s.stddev);
  return buf;
}

ReplicationSummary RunConfig(const KgView& kg, const BenchConfig& config,
                             int reps, uint64_t seed) {
  OracleAnnotator annotator;
  EvaluationConfig eval;
  eval.method = config.method;
  eval.alpha = config.alpha;
  eval.moe_threshold = config.epsilon;
  eval.priors = config.priors;
  if (config.twcs) {
    TwcsSampler sampler(kg, TwcsConfig{.second_stage_size = config.twcs_m});
    return *RunReplicationsParallel(SharedService(), sampler, annotator, eval,
                                    reps, seed);
  }
  SrsSampler sampler(kg, SrsConfig{});
  return *RunReplicationsParallel(SharedService(), sampler, annotator, eval,
                                  reps, seed);
}

std::string SignificanceMarks(const ReplicationSummary& ahpd,
                              const ReplicationSummary& wald,
                              const ReplicationSummary& wilson) {
  std::string marks;
  const auto vs_wald = PooledTTest(ahpd.cost_hours, wald.cost_hours);
  if (vs_wald.ok() && vs_wald->SignificantAt(0.01)) marks += "†";
  const auto vs_wilson = PooledTTest(ahpd.cost_hours, wilson.cost_hours);
  if (vs_wilson.ok() && vs_wilson->SignificantAt(0.01)) marks += "‡";
  return marks.empty() ? "" : marks;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string HostRecordJson() {
  const unsigned hw = std::thread::hardware_concurrency();
  return "{\"bench\": \"host\", \"nproc\": " +
         std::to_string(hw > 0 ? hw : 1) + ", \"cpu\": \"" +
         JsonEscape(CpuModel()) + "\", \"compiler\": \"" +
         JsonEscape(KGACC_BENCH_COMPILER) + "\", \"build_type\": \"" +
         JsonEscape(KGACC_BENCH_BUILD_TYPE) + "\"}";
}

void Rule(int n) {
  for (int i = 0; i < n; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace kgacc::bench
