#include "reference/batch_estimators.h"

#include <algorithm>
#include <cmath>

namespace kgacc {

namespace {

/// n_S, tau_S and the unit count of `units`.
AccuracyEstimate Totals(std::span<const AnnotatedUnit> units) {
  AccuracyEstimate est;
  for (const AnnotatedUnit& u : units) {
    est.n += u.drawn;
    est.tau += u.correct;
  }
  est.num_units = units.size();
  return est;
}

}  // namespace

Result<AccuracyEstimate> EstimateSrs(std::span<const AnnotatedUnit> units,
                                     uint64_t population_size) {
  AccuracyEstimate est = Totals(units);
  if (est.n == 0) {
    return Status::FailedPrecondition("cannot estimate from an empty sample");
  }
  if (population_size != 0 && est.n > population_size) {
    return Status::InvalidArgument(
        "sample larger than the declared population");
  }
  est.num_units = est.n;
  est.mu = static_cast<double>(est.tau) / static_cast<double>(est.n);
  est.variance = est.mu * (1.0 - est.mu) / static_cast<double>(est.n);
  if (population_size != 0) {
    const double fpc = 1.0 - static_cast<double>(est.n) /
                                 static_cast<double>(population_size);
    est.variance *= std::max(fpc, 0.0);
    est.population = population_size;
  }
  return est;
}

Result<AccuracyEstimate> EstimateCluster(std::span<const AnnotatedUnit> units) {
  if (units.empty()) {
    return Status::FailedPrecondition("cannot estimate from an empty sample");
  }
  AccuracyEstimate est = Totals(units);
  const double nc = static_cast<double>(units.size());
  double mean = 0.0;
  for (const AnnotatedUnit& u : units) {
    mean += static_cast<double>(u.correct) / static_cast<double>(u.drawn);
  }
  mean /= nc;
  est.mu = mean;

  if (units.size() < 2) {
    est.variance = 0.25 / static_cast<double>(est.n);
    return est;
  }
  double ss = 0.0;
  for (const AnnotatedUnit& u : units) {
    const double mu_i =
        static_cast<double>(u.correct) / static_cast<double>(u.drawn);
    ss += (mu_i - mean) * (mu_i - mean);
  }
  est.variance = ss / (nc * (nc - 1.0));
  return est;
}

Result<AccuracyEstimate> EstimateRcs(std::span<const AnnotatedUnit> units) {
  if (units.empty()) {
    return Status::FailedPrecondition("cannot estimate from an empty sample");
  }
  AccuracyEstimate est = Totals(units);
  double sum_tau = 0.0, sum_m = 0.0;
  for (const AnnotatedUnit& u : units) {
    sum_tau += static_cast<double>(u.correct);
    sum_m += static_cast<double>(u.drawn);
  }
  const double ratio = sum_tau / sum_m;
  est.mu = ratio;

  if (units.size() < 2) {
    est.variance = 0.25 / static_cast<double>(est.n);
    return est;
  }
  const double nc = static_cast<double>(units.size());
  const double mbar = sum_m / nc;
  double ss = 0.0;
  for (const AnnotatedUnit& u : units) {
    const double resid =
        static_cast<double>(u.correct) - ratio * static_cast<double>(u.drawn);
    ss += resid * resid;
  }
  est.variance = ss / (nc * (nc - 1.0) * mbar * mbar);
  return est;
}

Result<AccuracyEstimate> EstimateStratified(
    std::span<const AnnotatedUnit> units,
    const std::vector<double>& stratum_weights) {
  AccuracyEstimate est = Totals(units);
  if (est.n == 0) {
    return Status::FailedPrecondition("cannot estimate from an empty sample");
  }
  if (stratum_weights.empty()) {
    return Status::InvalidArgument("stratified estimator needs weights");
  }
  const size_t num_strata = stratum_weights.size();
  std::vector<double> n_h(num_strata, 0.0), tau_h(num_strata, 0.0);
  for (const AnnotatedUnit& u : units) {
    if (u.stratum >= num_strata) {
      return Status::InvalidArgument("unit stratum out of range");
    }
    n_h[u.stratum] += static_cast<double>(u.drawn);
    tau_h[u.stratum] += static_cast<double>(u.correct);
  }

  const double pooled =
      static_cast<double>(est.tau) / static_cast<double>(est.n);
  double mu = 0.0, var = 0.0;
  for (size_t h = 0; h < num_strata; ++h) {
    const double w = stratum_weights[h];
    if (n_h[h] > 0.0) {
      const double mu_h = tau_h[h] / n_h[h];
      mu += w * mu_h;
      var += w * w * mu_h * (1.0 - mu_h) / n_h[h];
    } else {
      mu += w * pooled;
      var += w * w * 0.25;
    }
  }
  est.mu = mu;
  est.variance = var;
  return est;
}

Result<AccuracyEstimate> Estimate(EstimatorKind kind,
                                  std::span<const AnnotatedUnit> units,
                                  const std::vector<double>* stratum_weights) {
  switch (kind) {
    case EstimatorKind::kSrs:
      return EstimateSrs(units);
    case EstimatorKind::kCluster:
      return EstimateCluster(units);
    case EstimatorKind::kRcs:
      return EstimateRcs(units);
    case EstimatorKind::kStratified:
      if (stratum_weights == nullptr) {
        return Status::InvalidArgument(
            "stratified estimation requires stratum weights");
      }
      return EstimateStratified(units, *stratum_weights);
  }
  return Status::InvalidArgument("unknown estimator kind");
}

}  // namespace kgacc
