#include "kgacc/math/beta.h"

#include <cmath>
#include <limits>

#include "kgacc/math/special.h"

namespace kgacc {

namespace {

/// f = exp(log f), with the +-inf edge values of `LogPdf` mapped to inf / 0.
double DensityFromLog(double lp) {
  if (std::isinf(lp)) {
    return lp > 0 ? std::numeric_limits<double>::infinity() : 0.0;
  }
  return std::exp(lp);
}

}  // namespace

Result<BetaDistribution> BetaDistribution::Create(double a, double b) {
  if (!(a > 0.0) || !(b > 0.0) || !std::isfinite(a) || !std::isfinite(b)) {
    return Status::InvalidArgument(
        "Beta distribution requires finite a > 0 and b > 0");
  }
  return BetaDistribution(a, b, LogBeta(a, b));
}

double BetaDistribution::Mode() const {
  KGACC_DCHECK(Shape() == BetaShape::kUnimodal);
  return (a_ - 1.0) / (a_ + b_ - 2.0);
}

BetaShape BetaDistribution::Shape() const {
  const bool a_gt1 = a_ > 1.0;
  const bool b_gt1 = b_ > 1.0;
  if (a_gt1 && b_gt1) return BetaShape::kUnimodal;
  if (!a_gt1 && b_gt1) return BetaShape::kDecreasing;
  if (a_gt1 && !b_gt1) return BetaShape::kIncreasing;
  return BetaShape::kUShaped;
}

double BetaDistribution::LogPdf(double x) const {
  if (x < 0.0 || x > 1.0) return -std::numeric_limits<double>::infinity();
  if (x == 0.0) {
    if (a_ > 1.0) return -std::numeric_limits<double>::infinity();
    if (a_ == 1.0) return (b_ - 1.0) * 0.0 - log_beta_;  // log f(0) = -log B.
    return std::numeric_limits<double>::infinity();
  }
  if (x == 1.0) {
    if (b_ > 1.0) return -std::numeric_limits<double>::infinity();
    if (b_ == 1.0) return -log_beta_;
    return std::numeric_limits<double>::infinity();
  }
  return LogPdf(BetaPoint(x));
}

double BetaDistribution::LogPdf(const BetaPoint& point) const {
  return (a_ - 1.0) * point.log_x + (b_ - 1.0) * point.log1m_x - log_beta_;
}

double BetaDistribution::Pdf(double x) const {
  return DensityFromLog(LogPdf(x));
}

double BetaDistribution::Pdf(const BetaPoint& point) const {
  return DensityFromLog(LogPdf(point));
}

double BetaDistribution::Cdf(double x) const {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const BetaPoint point(x);
  // Parameters were validated at construction and the point lies inside
  // the support, so the shared kernel body runs without re-validating. The
  // cached log B(a, b), log a and log b spare three lgamma calls and a log
  // per evaluation (the HPD solvers evaluate this CDF many times per
  // interval at fixed (a, b)).
  return internal::RegularizedIncompleteBetaFromLogs(
      point.x, a_, b_, log_beta_, point.log_x, point.log1m_x, log_a_, log_b_);
}

void BetaDistribution::CdfPair(const BetaPoint& l, const BetaPoint& u,
                               double* cdf_l, double* cdf_u) const {
  internal::RegularizedIncompleteBetaPairFromLogs(
      l, u, a_, b_, log_beta_, log_a_, log_b_, cdf_l, cdf_u);
}

Result<double> BetaDistribution::Quantile(double p) const {
  return InverseRegularizedIncompleteBeta(p, a_, b_, log_beta_);
}

}  // namespace kgacc
