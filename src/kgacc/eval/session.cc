#include "kgacc/eval/session.h"

#include <string>
#include <utility>

#include "kgacc/eval/cost_model.h"
#include "kgacc/util/codec.h"

namespace kgacc {

Status ValidateEvaluationConfig(const EvaluationConfig& config) {
  if (!(config.moe_threshold > 0.0)) {
    return Status::InvalidArgument("MoE threshold must be positive");
  }
  if (!(config.alpha > 0.0) || !(config.alpha < 1.0)) {
    return Status::OutOfRange("alpha must be in (0,1)");
  }
  if (config.max_triples < kMinSampleTriples) {
    return Status::InvalidArgument(
        "max_triples is below the " + std::to_string(kMinSampleTriples) +
        "-triple minimum sample; the run could never converge before "
        "hitting the cap");
  }
  for (const BetaPrior& prior : config.priors) {
    if (Status status = CheckPrior(prior); !status.ok()) return status;
  }
  return Status::OK();
}

EvaluationSession::EvaluationSession(Sampler& sampler, Annotator& annotator,
                                     const EvaluationConfig& config,
                                     uint64_t seed, SessionScratch* scratch)
    : sampler_(sampler),
      annotator_(annotator),
      config_(config),
      annotators_per_triple_(annotator.JudgmentsPerTriple()),
      seed_(seed),
      rng_(seed),
      init_status_(ValidateEvaluationConfig(config)),
      accumulator_(sampler.estimator()) {
  if (scratch != nullptr) {
    scratch->sample.Clear();
    scratch->batch.Clear();
    sample_ = &scratch->sample;
    batch_ = &scratch->batch;
  } else {
    sample_ = &own_sample_;
    batch_ = &own_batch_;
  }
  if (init_status_.ok()) sampler_.Reset();
}

StepOutcome EvaluationSession::Snapshot() const {
  StepOutcome outcome;
  outcome.done = done_;
  outcome.stop_reason = result_.stop_reason;
  outcome.annotated_triples = accumulator_.num_triples();
  outcome.mu = result_.mu;
  outcome.moe = moe_;
  return outcome;
}

Result<StepOutcome> EvaluationSession::Step() {
  if (!init_status_.ok()) return init_status_;
  if (done_) return Snapshot();

  // Phase 1: draw a batch according to the sampling design, into the reused
  // batch buffers (no per-unit allocation; no allocation at all once the
  // buffers have grown to the design's batch footprint).
  SampleBatch& batch = *batch_;
  KGACC_RETURN_IF_ERROR(sampler_.NextBatch(&rng_, &batch));
  if (batch.empty()) {
    result_.stop_reason = StopReason::kPopulationExhausted;
    done_ = true;
    return Snapshot();
  }
  ++result_.iterations;

  // Phase 2: annotate the batch, mark its triples in the distinct sets the
  // cost model charges, and fold each unit into the streaming estimator
  // state (each unit is touched exactly once).
  const KgView& kg = sampler_.kg();
  for (size_t u = 0; u < batch.size(); ++u) {
    const SampledUnit& unit = batch.unit(u);
    const std::span<const uint64_t> offsets = batch.offsets(unit);
    AnnotatedUnit annotated;
    annotated.cluster = unit.cluster;
    annotated.cluster_population = unit.cluster_population;
    annotated.stratum = unit.stratum;
    annotated.drawn = unit.offset_count;
    for (uint64_t offset : offsets) {
      sample_->MarkAnnotated(TripleRef{unit.cluster, offset});
    }
    annotated.correct = annotator_.AnnotateUnit(kg, unit.cluster, offsets,
                                                &rng_);
    accumulator_.Add(annotated);
  }

  // Phase 3: estimate from the accumulator, at a cost that does not grow
  // with the sample, and build the configured 1-alpha interval. The warm
  // state carries each prior's previous HPD interval into the next solve,
  // where it seeds the 2x2 Newton KKT path.
  Result<AccuracyEstimate> estimate_result =
      (sampler_.estimator() == EstimatorKind::kSrs &&
       config_.finite_population_correction)
          ? accumulator_.Estimate(nullptr, kg.num_triples())
          : accumulator_.Estimate(sampler_.stratum_weights());
  KGACC_ASSIGN_OR_RETURN(const AccuracyEstimate estimate,
                         std::move(estimate_result));
  KGACC_ASSIGN_OR_RETURN(
      result_.interval,
      BuildInterval(config_, sampler_.estimator(), estimate,
                    &result_.winning_prior, &result_.deff, &interval_warm_));
  result_.mu = estimate.mu;
  moe_ = result_.interval.Moe();
  if (config_.record_trace) {
    result_.trace.push_back(TracePoint{estimate.n, moe_, estimate.mu});
  }

  // Phase 4: quality control against the MoE budget and resource caps.
  if (accumulator_.num_triples() >= kMinSampleTriples &&
      moe_ <= config_.moe_threshold) {
    result_.converged = true;
    result_.stop_reason = StopReason::kConverged;
    done_ = true;
  } else if (accumulator_.num_triples() >= config_.max_triples) {
    result_.stop_reason = StopReason::kTripleCapReached;
    done_ = true;
  } else if (config_.max_cost_seconds > 0.0 &&
             AnnotationCostSeconds(*sample_, annotators_per_triple_) >=
                 config_.max_cost_seconds) {
    result_.stop_reason = StopReason::kBudgetExhausted;
    done_ = true;
  }
  return Snapshot();
}

Result<EvaluationResult> EvaluationSession::Finish() {
  if (!init_status_.ok()) return init_status_;
  if (accumulator_.num_units() == 0) {
    return Status::FailedPrecondition(
        "sampler produced no units; population may be empty");
  }
  EvaluationResult out = result_;
  out.annotated_triples = accumulator_.num_triples();
  out.distinct_triples = sample_->num_distinct_triples();
  out.distinct_entities = sample_->num_distinct_entities();
  out.cost_seconds = AnnotationCostSeconds(*sample_, annotators_per_triple_);
  out.cost_hours = out.cost_seconds / 3600.0;
  // Surface a degraded durable layer (e.g. a StoredAnnotator that stopped
  // persisting labels) so every driver — local, resumed, networked — reports
  // it uniformly.
  out.degraded = annotator_.degraded();
  out.degradation_note = annotator_.degradation_note();
  return out;
}

Result<EvaluationResult> EvaluationSession::Run() {
  while (!done_) {
    KGACC_ASSIGN_OR_RETURN(const StepOutcome outcome, Step());
    (void)outcome;
  }
  return Finish();
}

void EvaluationSession::EncodeFingerprint(ByteWriter* w) const {
  w->Fixed64(seed_);
  w->String(sampler_.name());
  w->U8(static_cast<uint8_t>(config_.method));
  w->Double(config_.alpha);
  w->Double(config_.moe_threshold);
  w->Varint(config_.max_triples);
  w->Double(config_.max_cost_seconds);
  w->Bool(config_.finite_population_correction);
  w->Bool(config_.record_trace);
  w->Varint(config_.priors.size());
  // The prior *parameters*, not just the count: a checkpoint taken under
  // Beta(20, 2) must not resume into a session configured with Beta(5, 5).
  for (const BetaPrior& prior : config_.priors) {
    w->Double(prior.a);
    w->Double(prior.b);
  }
  w->Zigzag(annotators_per_triple_);
}

}  // namespace kgacc
