#include "kgacc/math/special.h"

#include <algorithm>
#include <cmath>

namespace kgacc {

namespace {

constexpr int kMaxCfIterations = 400;
constexpr double kCfEpsilon = 1e-15;
constexpr double kTiny = 1e-300;

thread_local BetaKernelStats t_kernel_stats;

}  // namespace

BetaKernelStats ThreadBetaKernelStatsSnapshot() { return t_kernel_stats; }

void ResetThreadBetaKernelStats() { t_kernel_stats = BetaKernelStats{}; }

double LogGamma(double x) {
  int sign;
  return lgamma_r(x, &sign);
}

double LogBeta(double a, double b) {
  KGACC_DCHECK(a > 0.0 && b > 0.0);
  return LogGamma(a) + LogGamma(b) - LogGamma(a + b);
}

namespace internal {

double BetaContinuedFraction(double x, double a, double b) {
  // Modified Lentz evaluation of the continued fraction for I_x(a,b)
  // (Abramowitz & Stegun 26.5.8 / DLMF 8.17.22).
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;

  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;

  int m = 1;
  for (; m <= kMaxCfIterations; ++m) {
    const double m2 = 2.0 * m;
    // Even step.
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    // Odd step.
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kCfEpsilon) break;
  }
  // One add per call, not per iteration: the loop stays counter-free.
  t_kernel_stats.cf_iterations +=
      static_cast<uint64_t>(std::min(m, kMaxCfIterations));
  return h;
}

double RegularizedIncompleteBetaFromLogs(double x, double a, double b,
                                         double log_beta, double log_x,
                                         double log1m_x, double log_a,
                                         double log_b) {
  ++t_kernel_stats.calls;
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;

  // Symmetry: above the split the mirrored fraction I_{1-x}(b, a) converges
  // faster, and I_x(a, b) = 1 - I_{1-x}(b, a).
  const bool mirror = !(x < (a + 1.0) / (a + b + 2.0));
  // Front factor x^a (1-x)^b / (a B(a,b)), evaluated in log space. The
  // mirrored one uses (b, a) at 1-x, which differs from the direct one only
  // through the 1/a vs 1/b term (LogBeta is symmetric).
  const double log_front =
      a * log_x + b * log1m_x - (mirror ? log_b : log_a) - log_beta;
  const double tail =
      std::exp(log_front) * (mirror ? BetaContinuedFraction(1.0 - x, b, a)
                                    : BetaContinuedFraction(x, a, b));
  double result = mirror ? 1.0 - tail : tail;
  // Clamp tiny negative / >1 excursions from the final subtraction.
  if (result < 0.0) result = 0.0;
  if (result > 1.0) result = 1.0;
  return result;
}

}  // namespace internal

namespace {

/// The shape check every public incomplete-beta entry point runs: a and b
/// positive and finite with a finite sum (an infinite shape or an
/// overflowing a + b reaches the front factor as inf - inf).
Status ValidateShapes(double a, double b) {
  if (!(a > 0.0) || !(b > 0.0) || !std::isfinite(a + b)) {
    return Status::InvalidArgument(
        "beta parameters must be positive and finite with a finite sum");
  }
  return Status::OK();
}

/// `ValidateShapes` plus a finite log B(a, b), which the front factor and
/// the quantile's Newton density both subtract.
Status ValidateShapes(double a, double b, double log_beta) {
  KGACC_RETURN_IF_ERROR(ValidateShapes(a, b));
  if (!std::isfinite(log_beta)) {
    return Status::InvalidArgument("log B(a, b) must be finite");
  }
  return Status::OK();
}

}  // namespace

Result<double> RegularizedIncompleteBeta(double x, double a, double b) {
  KGACC_RETURN_IF_ERROR(ValidateShapes(a, b));
  return RegularizedIncompleteBeta(x, a, b, LogBeta(a, b));
}

Result<double> RegularizedIncompleteBeta(double x, double a, double b,
                                         double log_beta) {
  KGACC_RETURN_IF_ERROR(ValidateShapes(a, b, log_beta));
  if (!(x >= 0.0) || !(x <= 1.0)) {
    return Status::OutOfRange("incomplete beta argument x must be in [0,1]");
  }
  return internal::RegularizedIncompleteBetaFromLogs(
      x, a, b, log_beta, std::log(x), std::log1p(-x), std::log(a),
      std::log(b));
}

Result<double> InverseRegularizedIncompleteBeta(double p, double a, double b) {
  KGACC_RETURN_IF_ERROR(ValidateShapes(a, b));
  return InverseRegularizedIncompleteBeta(p, a, b, LogBeta(a, b));
}

Result<double> InverseRegularizedIncompleteBeta(double p, double a, double b,
                                                double log_beta) {
  KGACC_RETURN_IF_ERROR(ValidateShapes(a, b, log_beta));
  if (!(p >= 0.0) || !(p <= 1.0)) {
    return Status::OutOfRange("probability must be in [0,1]");
  }
  if (p == 0.0) return 0.0;
  if (p == 1.0) return 1.0;
  // Always solve in the lower tail: the quantile there may be a tiny number
  // (e.g. 1e-18 for sub-uniform shapes) that needs *relative* precision,
  // which the mirrored upper-tail representation 1 - x cannot hold.
  if (p > 0.5) {
    KGACC_ASSIGN_OR_RETURN(
        const double y,
        InverseRegularizedIncompleteBeta(1.0 - p, b, a, log_beta));
    return 1.0 - y;
  }

  const double log_a = std::log(a);
  const double log_b = std::log(b);

  // Initial guess. Near the lower tail the leading term of the series gives
  // I_x(a, b) ~ x^a / (a B(a, b)), inverted in closed form; otherwise start
  // from the mean with a crude probit nudge.
  double x;
  {
    const double x_tail = std::exp((std::log(p) + log_a + log_beta) / a);
    const double mean = a / (a + b);
    if (x_tail < 0.5 * mean) {
      x = x_tail;
    } else {
      const double sd =
          std::sqrt(a * b / ((a + b) * (a + b) * (a + b + 1.0)));
      const double z = std::log(p / (1.0 - p)) / 1.702;
      x = mean + z * sd;
      if (!(x > 1e-12) || !(x < 1.0 - 1e-12)) x = mean;
    }
  }
  // Safeguarded Newton with a maintained bracket. Bisection between the
  // bracket ends is geometric (sqrt of the product) while the lower end is
  // far from the upper, so tiny quantiles are located in O(log log) steps.
  double lo = 0.0, hi = 1.0;
  double err = 0.0;
  for (int iter = 0; iter < 300; ++iter) {
    // One log x and one log1p(-x) per iterate feed the CDF and the density.
    const double log_x = std::log(x);
    const double log1m_x = std::log1p(-x);
    const double cdf = internal::RegularizedIncompleteBetaFromLogs(
        x, a, b, log_beta, log_x, log1m_x, log_a, log_b);
    err = cdf - p;
    if (err > 0.0) {
      hi = x;
    } else {
      lo = x;
    }
    // Relative convergence: either the CDF matches to ~3 ulps of p or the
    // bracket has collapsed to relative machine width.
    if (std::fabs(err) <= 4e-16 * p || hi - lo <= 4e-16 * hi) return x;

    double next = 0.0;
    bool have_newton = false;
    if (x > 0.0 && x < 1.0) {
      const double log_pdf =
          (a - 1.0) * log_x + (b - 1.0) * log1m_x - log_beta;
      const double pdf = std::exp(log_pdf);
      if (pdf > kTiny && std::isfinite(pdf)) {
        next = x - err / pdf;
        have_newton = true;
      }
    }
    if (!have_newton || !(next > lo) || !(next < hi)) {
      // Geometric bisection reaches tiny magnitudes quickly; fall back to
      // arithmetic bisection once the bracket is balanced.
      next = (lo > 0.0 && hi / lo > 4.0) ? std::sqrt(lo * hi)
                                         : 0.5 * (lo + hi);
      if (lo == 0.0) next = hi / 16.0;
    }
    if (next == x) return x;
    x = next;
  }
  return x;
}

}  // namespace kgacc
