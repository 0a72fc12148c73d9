#ifndef KGACC_EVAL_SESSION_H_
#define KGACC_EVAL_SESSION_H_

#include <cstdint>
#include <limits>

#include "kgacc/estimate/accumulator.h"
#include "kgacc/eval/evaluator.h"
#include "kgacc/sampling/sample.h"
#include "kgacc/sampling/sampler.h"
#include "kgacc/util/random.h"
#include "kgacc/util/status.h"

/// \file session.h
/// Incremental form of the iterative evaluation framework (Fig. 1 /
/// Algorithm 1). `EvaluationSession` exposes the monolithic loop of
/// `RunEvaluation` as explicit, resumable steps:
///
///   phase 1  draw a batch        -+
///   phase 2  annotate it          |  one Step()
///   phase 3  estimate + interval  |
///   phase 4  stop-rule check     -+
///
/// so callers can interleave audits, inspect convergence mid-flight, or
/// schedule many sessions on a thread pool (`EvaluationService`). Driving a
/// session to completion reproduces `RunEvaluation` bit for bit: the same
/// seed yields the identical `EvaluationResult`.
///
/// Per-step cost is O(batch), independent of the accumulated sample size:
/// phase 3 estimates from a streaming `EstimatorAccumulator` rather than
/// re-walking the sample, and the HPD solvers warm-start from the previous
/// step's solution (`AhpdWarmState`).

namespace kgacc {

class ByteWriter;

/// Validates the stop-rule parameters shared by `RunEvaluation` and
/// `EvaluationSession`: positive MoE budget, alpha in (0,1), an annotation
/// cap no smaller than kMinSampleTriples (a configuration that previously
/// looped past the cap check silently), and priors whose a and b are
/// finite and positive with a + b at most kMaxPriorWeight (InvalidArgument
/// naming the prior).
Status ValidateEvaluationConfig(const EvaluationConfig& config);

/// Snapshot of a session after one step.
struct StepOutcome {
  /// True once a stop rule has fired; further Step() calls are no-ops.
  bool done = false;
  /// The stop rule that fired (meaningful only when `done`).
  StopReason stop_reason = StopReason::kConverged;
  /// Annotated triples n_S so far.
  uint64_t annotated_triples = 0;
  /// Current accuracy estimate mu-hat (0 before the first estimate).
  double mu = 0.0;
  /// Current margin of error (infinity before the first interval).
  double moe = std::numeric_limits<double>::infinity();
};

/// Reusable storage for running many sessions back to back on one worker
/// (the per-context scratch of `EvaluationService`). A session built on a
/// scratch draws into its `SampleBatch` and accumulates into its
/// `AnnotatedSample`, so consecutive audits inherit warm buffer capacity —
/// in particular the distinct-set tables, which otherwise re-grow from 16
/// slots on every job. One scratch serves one session at a time; it must
/// outlive any session built on it.
struct SessionScratch {
  SampleBatch batch;
  AnnotatedSample sample;
};

/// One in-flight evaluation: a sampler bound to a population, an annotation
/// oracle, a configuration, and the RNG stream derived from `seed`.
///
/// The sampler and annotator must outlive the session. The sampler is
/// Reset() on construction and mutated by Step(); it must not be shared
/// with a concurrently running session (clone it via `Sampler::Clone`).
class EvaluationSession {
 public:
  /// `scratch`, when given, supplies the batch and sample storage (cleared
  /// on construction) instead of session-owned members; results are
  /// identical either way.
  EvaluationSession(Sampler& sampler, Annotator& annotator,
                    const EvaluationConfig& config, uint64_t seed,
                    SessionScratch* scratch = nullptr);

  /// Runs one framework iteration: draw + annotate one batch, re-estimate,
  /// rebuild the 1-alpha interval, and evaluate the stop rules. Returns the
  /// post-step snapshot; once `done`, further calls return the same
  /// snapshot without drawing. Errors (invalid config, estimator or solver
  /// failure) are returned as statuses, exactly as `RunEvaluation` would.
  Result<StepOutcome> Step();

  /// True once a stop rule has fired.
  bool done() const { return done_; }

  /// Finalizes and returns the result accumulated so far: fills in the
  /// distinct-triple/entity tallies and the cost-model charges. Fails with
  /// FailedPrecondition when no units were ever drawn (empty population).
  /// May be called mid-run for a partial-result snapshot; the session can
  /// keep stepping afterwards.
  Result<EvaluationResult> Finish();

  /// Drives the session to completion (Step until done) and finalizes —
  /// the full `RunEvaluation` semantics.
  Result<EvaluationResult> Run();

  /// The distinct entities and triples annotated so far (what the cost
  /// model charges).
  const AnnotatedSample& sample() const { return *sample_; }

  /// The streaming estimator state Step() estimates from, and the source
  /// of the running totals (n_S, tau_S, units): every unit is folded in
  /// once, so phase 3's cost does not grow with the sample and the
  /// session holds no per-unit history.
  const EstimatorAccumulator& accumulator() const { return accumulator_; }

  /// Batches drawn so far.
  int iterations() const { return result_.iterations; }

  /// Encodes the session's identity: the seed, the design name, and every
  /// configuration field that can change the result (the annotator's
  /// panel size included, since it scales the cost). A session is a
  /// deterministic function of this identity and its labels, which is what
  /// lets `CheckpointManager` resume by replaying steps: two sessions with
  /// equal fingerprints, fed the same labels, take the same path bit for
  /// bit.
  void EncodeFingerprint(ByteWriter* w) const;

 private:
  /// Builds the snapshot for the current state.
  StepOutcome Snapshot() const;

  Sampler& sampler_;
  Annotator& annotator_;
  EvaluationConfig config_;
  /// Judgments per triple, from the annotator; scales the fact cost c2.
  int annotators_per_triple_;
  uint64_t seed_;
  Rng rng_;
  Status init_status_;
  /// Session-owned storage, used when no external scratch is supplied.
  AnnotatedSample own_sample_;
  SampleBatch own_batch_;
  /// Active storage: the scratch's buffers or the members above.
  AnnotatedSample* sample_ = nullptr;
  SampleBatch* batch_ = nullptr;
  EstimatorAccumulator accumulator_;
  /// The cross-step HPD warm carry threaded through `BuildInterval`: the
  /// per-prior previous intervals that seed the Newton KKT solver each
  /// step.
  AhpdWarmState interval_warm_;
  EvaluationResult result_;
  bool done_ = false;
  double moe_ = std::numeric_limits<double>::infinity();
};

}  // namespace kgacc

#endif  // KGACC_EVAL_SESSION_H_
