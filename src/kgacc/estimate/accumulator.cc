#include "kgacc/estimate/accumulator.h"

#include <algorithm>
#include <cmath>

#include "kgacc/util/check.h"

namespace kgacc {

void EstimatorAccumulator::Add(const AnnotatedUnit& unit) {
  KGACC_DCHECK(unit.correct <= unit.drawn);
  n_ += unit.drawn;
  tau_ += unit.correct;
  ++units_;
  switch (kind_) {
    case EstimatorKind::kSrs:
      break;
    case EstimatorKind::kCluster: {
      const double mu_i =
          static_cast<double>(unit.correct) / static_cast<double>(unit.drawn);
      sum_mu_ += mu_i;
      // Welford: M2 accumulates sum (mu_i - mean)^2 about the running mean,
      // algebraically equal to the batch two-pass sum about the final mean.
      const double delta = mu_i - welford_mean_;
      welford_mean_ += delta / static_cast<double>(units_);
      welford_m2_ += delta * (mu_i - welford_mean_);
      break;
    }
    case EstimatorKind::kRcs: {
      const uint64_t t = unit.correct;
      const uint64_t m = unit.drawn;
      sum_tau_ += t;
      sum_m_ += m;
      sum_tau2_ += t * t;
      sum_taum_ += t * m;
      sum_m2_ += m * m;
      break;
    }
    case EstimatorKind::kStratified: {
      if (unit.stratum >= n_h_.size()) {
        n_h_.resize(unit.stratum + 1, 0);
        tau_h_.resize(unit.stratum + 1, 0);
      }
      n_h_[unit.stratum] += unit.drawn;
      tau_h_[unit.stratum] += unit.correct;
      break;
    }
  }
}

Result<AccuracyEstimate> EstimatorAccumulator::Estimate(
    const std::vector<double>* stratum_weights,
    uint64_t population_size) const {
  switch (kind_) {
    case EstimatorKind::kSrs: {
      if (n_ == 0) {
        return Status::FailedPrecondition(
            "cannot estimate from an empty sample");
      }
      if (population_size != 0 && n_ > population_size) {
        return Status::InvalidArgument(
            "sample larger than the declared population");
      }
      AccuracyEstimate est;
      est.n = n_;
      est.tau = tau_;
      est.num_units = n_;
      est.mu = static_cast<double>(tau_) / static_cast<double>(n_);
      est.variance = est.mu * (1.0 - est.mu) / static_cast<double>(n_);
      if (population_size != 0) {
        const double fpc = 1.0 - static_cast<double>(n_) /
                                     static_cast<double>(population_size);
        est.variance *= std::max(fpc, 0.0);
        est.population = population_size;
      }
      return est;
    }
    case EstimatorKind::kCluster: {
      if (units_ == 0) {
        return Status::FailedPrecondition(
            "cannot estimate from an empty sample");
      }
      AccuracyEstimate est;
      est.n = n_;
      est.tau = tau_;
      est.num_units = units_;
      const double nc = static_cast<double>(units_);
      est.mu = sum_mu_ / nc;
      if (units_ < 2) {
        est.variance = 0.25 / static_cast<double>(n_);
        return est;
      }
      est.variance = welford_m2_ / (nc * (nc - 1.0));
      return est;
    }
    case EstimatorKind::kRcs: {
      if (units_ == 0) {
        return Status::FailedPrecondition(
            "cannot estimate from an empty sample");
      }
      AccuracyEstimate est;
      est.n = n_;
      est.tau = tau_;
      est.num_units = units_;
      const double sum_tau = static_cast<double>(sum_tau_);
      const double sum_m = static_cast<double>(sum_m_);
      const double ratio = sum_tau / sum_m;
      est.mu = ratio;
      if (units_ < 2) {
        est.variance = 0.25 / static_cast<double>(n_);
        return est;
      }
      // sum (tau_i - r M_i)^2 expanded over the exact integer power sums;
      // the subtraction can go epsilon-negative when the residuals vanish.
      const double ss = std::max(
          0.0, static_cast<double>(sum_tau2_) -
                   2.0 * ratio * static_cast<double>(sum_taum_) +
                   ratio * ratio * static_cast<double>(sum_m2_));
      const double nc = static_cast<double>(units_);
      const double mbar = sum_m / nc;
      est.variance = ss / (nc * (nc - 1.0) * mbar * mbar);
      return est;
    }
    case EstimatorKind::kStratified: {
      if (n_ == 0) {
        return Status::FailedPrecondition(
            "cannot estimate from an empty sample");
      }
      if (stratum_weights == nullptr) {
        return Status::InvalidArgument(
            "stratified estimation requires stratum weights");
      }
      if (stratum_weights->empty()) {
        return Status::InvalidArgument("stratified estimator needs weights");
      }
      const size_t num_strata = stratum_weights->size();
      if (n_h_.size() > num_strata) {
        return Status::InvalidArgument("unit stratum out of range");
      }
      AccuracyEstimate est;
      est.n = n_;
      est.tau = tau_;
      est.num_units = units_;
      const double pooled =
          static_cast<double>(tau_) / static_cast<double>(n_);
      double mu = 0.0, var = 0.0;
      for (size_t h = 0; h < num_strata; ++h) {
        const double w = (*stratum_weights)[h];
        const double n_h =
            h < n_h_.size() ? static_cast<double>(n_h_[h]) : 0.0;
        if (n_h > 0.0) {
          const double mu_h = static_cast<double>(tau_h_[h]) / n_h;
          mu += w * mu_h;
          var += w * w * mu_h * (1.0 - mu_h) / n_h;
        } else {
          // Unobserved stratum: impute the pooled mean, charge worst-case
          // Bernoulli variance against a single pseudo-observation.
          mu += w * pooled;
          var += w * w * 0.25;
        }
      }
      est.mu = mu;
      est.variance = var;
      return est;
    }
  }
  return Status::InvalidArgument("unknown estimator kind");
}

}  // namespace kgacc
