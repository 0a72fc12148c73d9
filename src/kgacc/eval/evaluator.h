#ifndef KGACC_EVAL_EVALUATOR_H_
#define KGACC_EVAL_EVALUATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "kgacc/estimate/accumulator.h"
#include "kgacc/eval/annotator.h"
#include "kgacc/intervals/ahpd.h"
#include "kgacc/intervals/frequentist.h"
#include "kgacc/sampling/sampler.h"
#include "kgacc/util/status.h"

/// \file evaluator.h
/// The iterative KG accuracy evaluation framework of Fig. 1 / §2.3 and the
/// full Algorithm 1: sample a batch -> annotate -> estimate -> build the
/// 1-alpha interval -> stop when MoE <= epsilon. All interval methods (the
/// frequentist baselines and the Bayesian CrIs, including aHPD) run through
/// the same loop, so efficiency comparisons isolate the interval choice.

namespace kgacc {

/// Interval construction strategies selectable in the loop.
enum class IntervalMethod {
  kWald,
  kWilson,
  kAgrestiCoull,
  kClopperPearson,
  kEqualTailed,  ///< ET CrI under priors[0].
  kHpd,          ///< HPD CrI under priors[0].
  kAhpd,         ///< Adaptive HPD over the whole prior set (Algorithm 1).
};

/// Human-readable method name ("aHPD", "Wilson", ...).
const char* IntervalMethodName(IntervalMethod method);

/// Parses the CLI and protocol method vocabulary:
/// ahpd|hpd|et|wilson|wald|cp.
Result<IntervalMethod> ParseIntervalMethod(const std::string& name);

/// Minimum annotated triples before the stop rule may fire — the usual
/// n >= 30 normal-approximation floor; also what makes the earliest Wald
/// zero-width halt occur at n = 30 (Example 1).
inline constexpr uint64_t kMinSampleTriples = 30;

/// Configuration of one evaluation run. Every field can change the result,
/// so every field is part of the session fingerprint a checkpoint resumes
/// under (`EvaluationSession::EncodeFingerprint`).
struct EvaluationConfig {
  IntervalMethod method = IntervalMethod::kAhpd;
  /// Significance level alpha (paper default 0.05).
  double alpha = 0.05;
  /// MoE upper bound epsilon (paper default 0.05).
  double moe_threshold = 0.05;
  /// Prior set: all priors compete under kAhpd; kEqualTailed / kHpd use the
  /// first entry. Ignored by the frequentist methods.
  std::vector<BetaPrior> priors = DefaultUninformativePriors();
  /// Safety cap on annotations; exceeding it reports convergence failure.
  uint64_t max_triples = 1000000;
  /// Manual-effort budget in seconds (0 = unlimited). When the accumulated
  /// annotation cost reaches it the evaluation stops early — the
  /// budget-exhaustion regime §6.5 discusses: the cheaper the interval
  /// method, the more audits finish inside a fixed budget.
  double max_cost_seconds = 0.0;
  /// Apply the finite-population correction (1 - n/N) to SRS estimates.
  /// Only meaningful with a without-replacement sampler on small KGs, where
  /// it lets the interval shrink to zero at full census (§2.2). Off by
  /// default to match the paper's with-replacement protocol.
  bool finite_population_correction = false;
  /// When true, records (n, MoE) after every batch for plotting.
  bool record_trace = false;
};

/// One point of the convergence trace.
struct TracePoint {
  uint64_t n = 0;
  double moe = 0.0;
  double mu = 0.0;
};

/// Why an evaluation run ended.
enum class StopReason {
  /// MoE <= epsilon with the minimum sample satisfied (success).
  kConverged,
  /// Hit the max_triples safety cap.
  kTripleCapReached,
  /// Exhausted the manual-effort budget (max_cost_seconds).
  kBudgetExhausted,
  /// A without-replacement design consumed the whole population.
  kPopulationExhausted,
};

/// Stable name for a stop reason ("converged", ...).
const char* StopReasonName(StopReason reason);

/// Decodes a serialized stop reason; bytes outside the enum are rejected.
Result<StopReason> StopReasonFromByte(uint8_t byte);

/// Outcome of one evaluation run.
struct EvaluationResult {
  /// Final accuracy estimate mu-hat.
  double mu = 0.0;
  /// The reported 1-alpha interval.
  Interval interval;
  /// Annotated triples n_S (estimator sample size, duplicates included).
  uint64_t annotated_triples = 0;
  /// Distinct triples manually verified.
  uint64_t distinct_triples = 0;
  /// Distinct entities identified.
  uint64_t distinct_entities = 0;
  /// Manual effort per the cost model.
  double cost_seconds = 0.0;
  double cost_hours = 0.0;
  /// Batches drawn (framework iterations).
  int iterations = 0;
  /// Winning prior index (aHPD only; 0 otherwise).
  size_t winning_prior = 0;
  /// Design effect in force at the final iteration (1 for SRS).
  double deff = 1.0;
  /// True when the MoE criterion was met before hitting a cap.
  bool converged = false;
  /// Why the run ended (kConverged iff `converged`).
  StopReason stop_reason = StopReason::kConverged;
  /// The annotator reported a degraded durable layer (labels judged after
  /// the downgrade were served but no longer persisted). The estimate is
  /// still exact; only durability was lost. Resumed and networked runs
  /// surface this uniformly in the rendered report.
  bool degraded = false;
  /// Human-readable cause of the degradation (empty when healthy).
  std::string degradation_note;
  /// Convergence trace (only when record_trace).
  std::vector<TracePoint> trace;
};

/// Runs the full iterative procedure with the given sampler (already bound
/// to a population), annotator, and configuration. `seed` determines the
/// entire stochastic path; rerunning with the same arguments reproduces the
/// result bit for bit.
///
/// This is a convenience wrapper that drives an `EvaluationSession`
/// (eval/session.h) to completion; use the session directly for stepwise
/// control, or `EvaluationService` (eval/service.h) to fan many evaluations
/// out over a thread pool.
Result<EvaluationResult> RunEvaluation(Sampler& sampler, Annotator& annotator,
                                       const EvaluationConfig& config,
                                       uint64_t seed);

/// Builds the configured 1-alpha interval from an estimate (one pass of
/// phase 3). Exposed separately so callers can construct intervals from
/// pre-collected samples; `RunEvaluation` uses this internally. The Kish
/// design-effect adjustment is applied for every non-SRS estimator kind.
///
/// `warm`, when given, carries the per-prior HPD intervals across
/// successive calls of one iterative run (kHpd / kAhpd only): each step's
/// Newton solve then starts from the previous step's interval instead of
/// the ET interval.
Result<Interval> BuildInterval(const EvaluationConfig& config,
                               EstimatorKind kind,
                               const AccuracyEstimate& estimate,
                               size_t* winning_prior = nullptr,
                               double* deff_out = nullptr,
                               AhpdWarmState* warm = nullptr);

}  // namespace kgacc

#endif  // KGACC_EVAL_EVALUATOR_H_
