#include "kgacc/eval/session.h"

#include <cstring>
#include <utility>

#include "kgacc/util/codec.h"

namespace kgacc {

namespace {

/// Bump when the snapshot layout changes; a restored payload of another
/// version is rejected outright (no cross-version migration — checkpoints
/// are working state, not archival data).
///
/// v1: original layout.
/// v2: adds `unit_reservoir_capacity` to the config fingerprint and the
///     reservoir subsample to the AnnotatedSample payload — fields shifted,
///     so a v1 payload must fail the version gate rather than misparse.
/// v3: the HPD warm carry shrinks to one optional interval per prior (the
///     solve cache key, the per-solve diagnostics and the BFGS Hessians
///     are gone), so a v2 payload must fail the gate rather than misparse.
/// v4: the diagnostic unit reservoir is gone — its capacity leaves the
///     config fingerprint and its subsample the AnnotatedSample payload —
///     so a v3 payload must fail the gate rather than misparse.
constexpr uint8_t kSessionSnapshotVersion = 4;

}  // namespace

Status ValidateEvaluationConfig(const EvaluationConfig& config) {
  if (!(config.moe_threshold > 0.0)) {
    return Status::InvalidArgument("MoE threshold must be positive");
  }
  if (!(config.alpha > 0.0) || !(config.alpha < 1.0)) {
    return Status::OutOfRange("alpha must be in (0,1)");
  }
  if (config.min_sample_triples > config.max_triples) {
    return Status::InvalidArgument(
        "min_sample_triples exceeds max_triples; the run could never "
        "converge before hitting the cap");
  }
  return Status::OK();
}

EvaluationSession::EvaluationSession(Sampler& sampler, Annotator& annotator,
                                     const EvaluationConfig& config,
                                     uint64_t seed, SessionScratch* scratch)
    : sampler_(sampler),
      annotator_(annotator),
      config_(config),
      cost_model_(config.cost),
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
  cost_model_.annotators_per_triple = annotator_.JudgmentsPerTriple();
  sample_->set_retain_units(config_.retain_unit_history);
  if (init_status_.ok()) sampler_.Reset();
}

StepOutcome EvaluationSession::Snapshot() const {
  StepOutcome outcome;
  outcome.done = done_;
  outcome.stop_reason = result_.stop_reason;
  outcome.annotated_triples = sample_->num_triples();
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

  // Phase 2: annotate the batch and fold it into the running sample and the
  // streaming estimator state (each unit is touched exactly once).
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
    sample_->Add(annotated);
    accumulator_.Add(annotated);
  }

  // Phase 3: estimate from the accumulator — O(batch) per step where the
  // batch estimators re-walk the whole sample — and build the configured
  // 1-alpha interval. The warm state carries each prior's previous HPD
  // interval into the next solve, where it seeds the 2x2 Newton KKT path.
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
  if (sample_->num_triples() >= config_.min_sample_triples &&
      moe_ <= config_.moe_threshold) {
    result_.converged = true;
    result_.stop_reason = StopReason::kConverged;
    done_ = true;
  } else if (sample_->num_triples() >= config_.max_triples) {
    result_.stop_reason = StopReason::kTripleCapReached;
    done_ = true;
  } else if (config_.max_cost_seconds > 0.0 &&
             AnnotationCostSeconds(cost_model_, *sample_) >=
                 config_.max_cost_seconds) {
    result_.stop_reason = StopReason::kBudgetExhausted;
    done_ = true;
  }
  return Snapshot();
}

Result<EvaluationResult> EvaluationSession::Finish() {
  if (!init_status_.ok()) return init_status_;
  if (sample_->empty()) {
    return Status::FailedPrecondition(
        "sampler produced no units; population may be empty");
  }
  EvaluationResult out = result_;
  out.annotated_triples = sample_->num_triples();
  out.distinct_triples = sample_->num_distinct_triples();
  out.distinct_entities = sample_->num_distinct_entities();
  out.cost_seconds = AnnotationCostSeconds(cost_model_, *sample_);
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

void EvaluationSession::SaveState(ByteWriter* w) const {
  w->PutU8(kSessionSnapshotVersion);
  // Identity fingerprint: the snapshot only replays correctly into a
  // session over the same design, configuration, and seed. LoadState
  // verifies every field below before touching any state.
  w->PutFixed64(seed_);
  w->PutString(sampler_.name());
  w->PutU8(static_cast<uint8_t>(config_.method));
  w->PutDouble(config_.alpha);
  w->PutDouble(config_.moe_threshold);
  w->PutVarint(config_.min_sample_triples);
  w->PutVarint(config_.max_triples);
  w->PutDouble(config_.max_cost_seconds);
  w->PutBool(config_.finite_population_correction);
  w->PutBool(config_.retain_unit_history);
  w->PutBool(config_.record_trace);
  w->PutVarint(config_.priors.size());
  // The prior *parameters*, not just the count: a snapshot solved under
  // Beta(20, 2) must not restore into a session configured with Beta(5, 5).
  for (const BetaPrior& prior : config_.priors) {
    w->PutDouble(prior.a);
    w->PutDouble(prior.b);
  }

  rng_.SaveState(w);
  // Length-prefixed sampler sub-payload: designs with no across-batch state
  // write nothing, and the framing stays self-describing either way.
  ByteWriter sampler_state;
  sampler_.SaveState(&sampler_state);
  w->PutLengthPrefixed(sampler_state.span());
  accumulator_.SaveState(w);
  sample_->SaveState(w);
  SaveAhpdWarmState(interval_warm_, w);

  w->PutDouble(result_.mu);
  w->PutDouble(result_.interval.lower);
  w->PutDouble(result_.interval.upper);
  w->PutZigzag(result_.iterations);
  w->PutVarint(result_.winning_prior);
  w->PutDouble(result_.deff);
  w->PutBool(result_.converged);
  w->PutU8(static_cast<uint8_t>(result_.stop_reason));
  w->PutVarint(result_.trace.size());
  for (const TracePoint& point : result_.trace) {
    w->PutVarint(point.n);
    w->PutDouble(point.moe);
    w->PutDouble(point.mu);
  }
  w->PutBool(done_);
  w->PutDouble(moe_);
}

Status EvaluationSession::LoadState(ByteReader* r) {
  if (!init_status_.ok()) return init_status_;
  KGACC_ASSIGN_OR_RETURN(const uint8_t version, r->U8());
  if (version != kSessionSnapshotVersion) {
    return Status::InvalidArgument(
        "session snapshot version " + std::to_string(int(version)) +
        " is incompatible with this build (expects version " +
        std::to_string(int(kSessionSnapshotVersion)) +
        "); the audit must restart rather than resume");
  }
  KGACC_ASSIGN_OR_RETURN(const uint64_t seed, r->Fixed64());
  KGACC_ASSIGN_OR_RETURN(const std::string design, r->String());
  KGACC_ASSIGN_OR_RETURN(const uint8_t method, r->U8());
  KGACC_ASSIGN_OR_RETURN(const double alpha, r->Double());
  KGACC_ASSIGN_OR_RETURN(const double moe_threshold, r->Double());
  KGACC_ASSIGN_OR_RETURN(const uint64_t min_triples, r->Varint());
  KGACC_ASSIGN_OR_RETURN(const uint64_t max_triples, r->Varint());
  KGACC_ASSIGN_OR_RETURN(const double max_cost, r->Double());
  KGACC_ASSIGN_OR_RETURN(const bool fpc, r->Bool());
  KGACC_ASSIGN_OR_RETURN(const bool retain, r->Bool());
  KGACC_ASSIGN_OR_RETURN(const bool record_trace, r->Bool());
  KGACC_ASSIGN_OR_RETURN(const uint64_t num_priors, r->Varint());
  bool priors_match = num_priors == config_.priors.size();
  for (uint64_t i = 0; i < num_priors; ++i) {
    KGACC_ASSIGN_OR_RETURN(const double a, r->Double());
    KGACC_ASSIGN_OR_RETURN(const double b, r->Double());
    priors_match = priors_match && i < config_.priors.size() &&
                   a == config_.priors[i].a && b == config_.priors[i].b;
  }
  if (seed != seed_ || design != sampler_.name() ||
      method != static_cast<uint8_t>(config_.method) ||
      alpha != config_.alpha || moe_threshold != config_.moe_threshold ||
      min_triples != config_.min_sample_triples ||
      max_triples != config_.max_triples ||
      max_cost != config_.max_cost_seconds ||
      fpc != config_.finite_population_correction ||
      retain != config_.retain_unit_history ||
      record_trace != config_.record_trace || !priors_match) {
    return Status::InvalidArgument(
        "session snapshot fingerprint does not match this session's design, "
        "configuration, or seed");
  }

  KGACC_RETURN_IF_ERROR(rng_.LoadState(r));
  KGACC_ASSIGN_OR_RETURN(const std::span<const uint8_t> sampler_payload,
                         r->LengthPrefixed());
  sampler_.Reset();
  ByteReader sampler_reader(sampler_payload);
  KGACC_RETURN_IF_ERROR(sampler_.LoadState(&sampler_reader));
  KGACC_RETURN_IF_ERROR(accumulator_.LoadState(r));
  KGACC_RETURN_IF_ERROR(sample_->LoadState(r));
  KGACC_RETURN_IF_ERROR(LoadAhpdWarmState(r, &interval_warm_));

  KGACC_ASSIGN_OR_RETURN(result_.mu, r->Double());
  KGACC_ASSIGN_OR_RETURN(result_.interval.lower, r->Double());
  KGACC_ASSIGN_OR_RETURN(result_.interval.upper, r->Double());
  KGACC_ASSIGN_OR_RETURN(const int64_t iterations, r->Zigzag());
  result_.iterations = static_cast<int>(iterations);
  KGACC_ASSIGN_OR_RETURN(result_.winning_prior, r->Varint());
  KGACC_ASSIGN_OR_RETURN(result_.deff, r->Double());
  KGACC_ASSIGN_OR_RETURN(result_.converged, r->Bool());
  KGACC_ASSIGN_OR_RETURN(const uint8_t stop_reason, r->U8());
  KGACC_ASSIGN_OR_RETURN(result_.stop_reason, StopReasonFromByte(stop_reason));
  // A trace point is at least a one-byte varint plus two doubles.
  KGACC_ASSIGN_OR_RETURN(const uint64_t trace_size, r->Count(17));
  result_.trace.clear();
  result_.trace.reserve(trace_size);
  for (uint64_t i = 0; i < trace_size; ++i) {
    TracePoint point;
    KGACC_ASSIGN_OR_RETURN(point.n, r->Varint());
    KGACC_ASSIGN_OR_RETURN(point.moe, r->Double());
    KGACC_ASSIGN_OR_RETURN(point.mu, r->Double());
    result_.trace.push_back(point);
  }
  KGACC_ASSIGN_OR_RETURN(done_, r->Bool());
  KGACC_ASSIGN_OR_RETURN(moe_, r->Double());
  return Status::OK();
}

}  // namespace kgacc
