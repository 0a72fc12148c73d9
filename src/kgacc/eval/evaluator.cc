#include "kgacc/eval/evaluator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "kgacc/estimate/design_effect.h"
#include "kgacc/eval/session.h"

namespace kgacc {

const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kConverged:
      return "converged";
    case StopReason::kTripleCapReached:
      return "triple-cap";
    case StopReason::kBudgetExhausted:
      return "budget-exhausted";
    case StopReason::kPopulationExhausted:
      return "population-exhausted";
  }
  return "unknown";
}

Result<StopReason> StopReasonFromByte(uint8_t byte) {
  if (byte > static_cast<uint8_t>(StopReason::kPopulationExhausted)) {
    return Status::InvalidArgument("stop reason byte " +
                                   std::to_string(int(byte)) +
                                   " is out of range");
  }
  return static_cast<StopReason>(byte);
}

const char* IntervalMethodName(IntervalMethod method) {
  switch (method) {
    case IntervalMethod::kWald:
      return "Wald";
    case IntervalMethod::kWilson:
      return "Wilson";
    case IntervalMethod::kAgrestiCoull:
      return "Agresti-Coull";
    case IntervalMethod::kClopperPearson:
      return "Clopper-Pearson";
    case IntervalMethod::kEqualTailed:
      return "ET";
    case IntervalMethod::kHpd:
      return "HPD";
    case IntervalMethod::kAhpd:
      return "aHPD";
  }
  return "Unknown";
}

Result<IntervalMethod> ParseIntervalMethod(const std::string& name) {
  if (name == "ahpd") return IntervalMethod::kAhpd;
  if (name == "hpd") return IntervalMethod::kHpd;
  if (name == "et") return IntervalMethod::kEqualTailed;
  if (name == "wilson") return IntervalMethod::kWilson;
  if (name == "wald") return IntervalMethod::kWald;
  if (name == "cp") return IntervalMethod::kClopperPearson;
  return Status::InvalidArgument("unknown interval method: " + name);
}

Result<Interval> BuildInterval(const EvaluationConfig& config,
                               EstimatorKind kind,
                               const AccuracyEstimate& estimate,
                               size_t* winning_prior, double* deff_out,
                               AhpdWarmState* warm) {
  // Effective sample for the methods parameterized by (tau, n) rather than
  // a variance: identity under SRS, Kish-adjusted under complex designs
  // (Alg. 1 lines 11-13).
  double n_eff = static_cast<double>(estimate.n);
  double tau_eff = static_cast<double>(estimate.tau);
  double deff = 1.0;
  if (kind != EstimatorKind::kSrs) {
    const EffectiveSample eff = ComputeEffectiveSample(estimate);
    n_eff = eff.n_eff;
    tau_eff = eff.tau_eff;
    deff = eff.deff;
  } else if (estimate.population != 0) {
    // Finite-population correction as a design effect below 1: at full
    // census the effective sample diverges and every interval collapses.
    const double fpc = 1.0 - static_cast<double>(estimate.n) /
                                 static_cast<double>(estimate.population);
    deff = std::max(fpc, 1e-9);
    n_eff = static_cast<double>(estimate.n) / deff;
    tau_eff = estimate.mu * n_eff;
  }
  if (deff_out != nullptr) *deff_out = deff;
  if (winning_prior != nullptr) *winning_prior = 0;

  switch (config.method) {
    case IntervalMethod::kWald:
      return WaldInterval(estimate, config.alpha);
    case IntervalMethod::kWilson:
      return WilsonInterval(estimate.mu, n_eff, config.alpha);
    case IntervalMethod::kAgrestiCoull:
      return AgrestiCoullInterval(estimate.mu, n_eff, config.alpha);
    case IntervalMethod::kClopperPearson: {
      // Round the effective sample to integers and clamp: rounding tau and
      // n independently can yield tau > n under design effects.
      const uint64_t n_round = static_cast<uint64_t>(std::llround(n_eff));
      const uint64_t tau_round = std::min(
          static_cast<uint64_t>(std::llround(tau_eff)), n_round);
      return ClopperPearsonInterval(tau_round, n_round, config.alpha);
    }
    case IntervalMethod::kEqualTailed: {
      if (config.priors.empty()) {
        return Status::InvalidArgument("ET CrI requires a prior");
      }
      KGACC_ASSIGN_OR_RETURN(const BetaDistribution posterior,
                             config.priors[0].Posterior(tau_eff, n_eff));
      return EqualTailedInterval(posterior, config.alpha);
    }
    case IntervalMethod::kHpd: {
      if (config.priors.empty()) {
        return Status::InvalidArgument("HPD CrI requires a prior");
      }
      KGACC_ASSIGN_OR_RETURN(const BetaDistribution posterior,
                             config.priors[0].Posterior(tau_eff, n_eff));
      std::optional<HpdCarry>* carry = nullptr;
      if (warm != nullptr) {
        warm->Sync(1);
        carry = &warm->priors[0];
      }
      KGACC_ASSIGN_OR_RETURN(
          const HpdResult hpd,
          HpdIntervalWarm(posterior, config.alpha, carry));
      return hpd.interval;
    }
    case IntervalMethod::kAhpd: {
      KGACC_ASSIGN_OR_RETURN(
          const AhpdChoice choice,
          AhpdSelect(config.priors, tau_eff, n_eff, config.alpha, warm));
      if (winning_prior != nullptr) *winning_prior = choice.prior_index;
      return choice.interval;
    }
  }
  return Status::InvalidArgument("unknown interval method");
}

Result<EvaluationResult> RunEvaluation(Sampler& sampler, Annotator& annotator,
                                       const EvaluationConfig& config,
                                       uint64_t seed) {
  EvaluationSession session(sampler, annotator, config, seed);
  return session.Run();
}

}  // namespace kgacc
