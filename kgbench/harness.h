#ifndef KGBENCH_HARNESS_H_
#define KGBENCH_HARNESS_H_

// Measurement plumbing shared by the kgbench workloads: clocks and order
// statistics, the host fingerprint, metric output, an in-memory span
// recorder, and the forwarding `Sampler` / `Annotator` decorators the
// benchmark wraps around the library's own objects to time calls into the
// sampling and oracle layers from outside.

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "kgacc/eval/annotator.h"
#include "kgacc/eval/evaluator.h"
#include "kgacc/sampling/sampler.h"

namespace kgbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);
double MsBetween(Clock::time_point a, Clock::time_point b);

/// Quantile by linear interpolation between closest ranks (the default of
/// numpy and R type 7). Returns 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// The host a record was measured on.
struct HostInfo {
  unsigned nproc = 1;
  std::string cpu;
  std::string compiler;
  std::string build_type;
  std::string kernel;
  /// Filesystem of the directory the stores live in; fsync cost depends
  /// on it.
  std::string store_fs;
};

HostInfo DetectHost(const std::string& store_dir);
std::string HostJson(const HostInfo& host);

/// Returns freed heap memory to the OS and restarts the peak-RSS count
/// from the current footprint, so that earlier set-up repetitions do not
/// stack up in the peak.
void RestartPeakRss();
/// Peak resident set size since the last `RestartPeakRss` (since start
/// when it was never called or the kernel does not support the restart).
double PeakRssMb();

std::string JsonEscape(const std::string& s);
/// Shortest round-trip decimal form of a finite double (non-finite -> 0).
std::string JsonNumber(double v);

/// Named metrics with units, in insertion order.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// `{"name": {"value": v, "unit": "u"}, ...}`
  std::string Json() const;
  /// One aligned `name  value unit` line per metric.
  std::string Table() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// True when the two results are bit-identical in every reported field.
bool SameResult(const kgacc::EvaluationResult& a,
                const kgacc::EvaluationResult& b);

// ---------------------------------------------------------------------------
// Spans. Kept in per-thread memory and written out once, at exit. A span
// has a name, start, end, parent span and audit id; a layer's self time is
// its duration minus the union of its children's intervals.
// ---------------------------------------------------------------------------

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t audit = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;
};

class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();
  /// A fresh span id (never 0).
  static uint64_t NewId();
  static int64_t Now();
  static int64_t ToNs(Clock::time_point t);
  /// Appends a finished span to this thread's buffer. No-op when disabled
  /// or once the global span cap is reached.
  static void Record(const Span& span);
  /// Number of spans this thread has recorded (an index into its buffer).
  static size_t ThreadMark();
  /// Sets the audit id of this thread's spans recorded since `mark`.
  static void PatchAudit(size_t mark, uint64_t audit);
  /// Writes every span plus the per-name self-time summary as JSON; the
  /// summary is also returned as text lines.
  static std::string WriteFile(const std::string& path,
                               const std::string& header_json);
};

/// RAII span on the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t parent, uint64_t audit, bool active);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return span_.id; }

 private:
  Span span_;
  bool active_;
};

// ---------------------------------------------------------------------------
// Per-thread probe state written by the decorators below. Workers write
// only their own slot; the main thread reads or resets the slots only
// between service batches, when every worker is idle.
// ---------------------------------------------------------------------------

struct ThreadProbe {
  Clock::time_point job_start{};
  Clock::time_point step_start{};
  /// Span bookkeeping for the job in flight on this thread.
  bool sampled = false;
  uint64_t job_count = 0;
  uint64_t audit_span = 0;
  uint64_t step_span = 0;
  size_t span_mark = 0;
  // Counters (traced mode only).
  uint64_t batches = 0;
  uint64_t batch_ns = 0;
  uint64_t units = 0;
  uint64_t oracle_ns = 0;
  uint64_t steps = 0;
  double step_ns_sum = 0.0;
  std::vector<float> step_us;
};

ThreadProbe& LocalProbe();
/// Every thread's probe (main thread only, workers idle).
std::vector<ThreadProbe*> AllProbes();
void ResetProbes();

/// Cost of one pair of clock reads: the floor under every per-call timing.
double ClockPairNs();

/// Forwarding sampler. Always stamps the job start on `Reset()` (the
/// session and the service reset the sampler once per job); in timed mode
/// it also times `NextBatch`, marks step starts and records spans.
class ProbeSampler final : public kgacc::Sampler {
 public:
  ProbeSampler(std::unique_ptr<kgacc::Sampler> inner, bool timed)
      : inner_(std::move(inner)), timed_(timed) {}

  kgacc::Status NextBatch(kgacc::Rng* rng, kgacc::SampleBatch* batch) override;
  void Reset() override;
  kgacc::EstimatorKind estimator() const override {
    return inner_->estimator();
  }
  const kgacc::KgView& kg() const override { return inner_->kg(); }
  const char* name() const override { return inner_->name(); }
  const std::vector<double>* stratum_weights() const override {
    return inner_->stratum_weights();
  }
  void SaveState(kgacc::ByteWriter* w) const override { inner_->SaveState(w); }
  kgacc::Status LoadState(kgacc::ByteReader* r) override {
    return inner_->LoadState(r);
  }
  std::unique_ptr<kgacc::Sampler> Clone() const override;

 private:
  std::unique_ptr<kgacc::Sampler> inner_;
  bool timed_;
};

/// Forwarding annotator that times `AnnotateUnit` (the oracle is the
/// benchmark's own label lookup, so its cost is reported apart).
class ProbeAnnotator final : public kgacc::Annotator {
 public:
  explicit ProbeAnnotator(kgacc::Annotator* inner) : inner_(inner) {}
  bool Annotate(const kgacc::KgView& kg, const kgacc::TripleRef& ref,
                kgacc::Rng* rng) override {
    return inner_->Annotate(kg, ref, rng);
  }
  uint32_t AnnotateUnit(const kgacc::KgView& kg, uint64_t cluster,
                        std::span<const uint64_t> offsets,
                        kgacc::Rng* rng) override;
  int JudgmentsPerTriple() const override {
    return inner_->JudgmentsPerTriple();
  }
  void BurnRngDraws(kgacc::Rng* rng) override { inner_->BurnRngDraws(rng); }

 private:
  kgacc::Annotator* inner_;
};

/// Closes the step in flight on this thread (called from `on_step`).
void ProbeStepDone();
/// Closes the job in flight on this thread; returns its latency in ms.
double ProbeJobDone(uint64_t audit, uint64_t parent_span);

}  // namespace kgbench

#endif  // KGBENCH_HARNESS_H_
