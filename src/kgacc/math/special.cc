#include "kgacc/math/special.h"

#include <cmath>

namespace kgacc {

namespace {

/// Iterations every continued fraction may run before its bound is
/// consulted: more than any shape up to ~1e5 needs, so the hot path never
/// computes the bound.
constexpr int kCfFirstCheck = 400;
/// Ceiling on the shape-grown bound: what a + b ~ 7e10 needs at the split
/// point. Beyond that, log B(a, b) loses more than 1e-4 to cancellation in
/// the front factor, so more iterations buy no accuracy, and a fraction
/// that cannot converge (a NaN recurrence, shapes near 1e300) still stops
/// within ~0.3 ms.
constexpr int kCfMaxIterations = 1 << 14;
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

namespace {

/// One modified-Lentz evaluation of the continued fraction for I_x(a, b)
/// (Abramowitz & Stegun 26.5.8 / DLMF 8.17.22) in flight: its argument and
/// shapes, their loop invariants, the recurrence state c, d, h, and the
/// iterations run so far. Valid for x < (a+1)/(a+b+2), the convergent
/// region.
struct CfLane {
  CfLane(double x, double a, double b)
      : x(x), a(a), b(b), qab(a + b), qap(a + 1.0), qam(a - 1.0) {
    d = 1.0 - qab * x / qap;
    if (std::fabs(d) < kTiny) d = kTiny;
    d = 1.0 / d;
    h = d;
  }

  double x, a, b;
  double qab, qap, qam;
  double c = 1.0;
  double d;
  double h;
  int m = 0;
  /// The next iteration count at which `NextBoundCheck` is asked.
  int check_at = kCfFirstCheck;
};

/// The one recurrence body: runs iteration m + 1 (an even and an odd step)
/// and returns true once it converged.
inline bool CfStep(CfLane& s) {
  const int m = ++s.m;
  const double m2 = 2.0 * m;
  // Even step.
  double aa = m * (s.b - m) * s.x / ((s.qam + m2) * (s.a + m2));
  s.d = 1.0 + aa * s.d;
  if (std::fabs(s.d) < kTiny) s.d = kTiny;
  s.c = 1.0 + aa / s.c;
  if (std::fabs(s.c) < kTiny) s.c = kTiny;
  s.d = 1.0 / s.d;
  s.h *= s.d * s.c;
  // Odd step.
  aa = -(s.a + m) * (s.qab + m) * s.x / ((s.a + m2) * (s.qap + m2));
  s.d = 1.0 + aa * s.d;
  if (std::fabs(s.d) < kTiny) s.d = kTiny;
  s.c = 1.0 + aa / s.c;
  if (std::fabs(s.c) < kTiny) s.c = kTiny;
  s.d = 1.0 / s.d;
  const double del = s.d * s.c;
  s.h *= del;
  return std::fabs(del - 1.0) < kCfEpsilon;
}

/// The iteration bound for shapes (a, b). Near the split point a fraction
/// needs about 4 (a + b)^(1/3) iterations (526 at a = b = 1e6, 1,091 at
/// 1e7, 10,696 at 1e10), so 16 (a + b)^(1/3) leaves a 4x margin up to the
/// ceiling.
int CfIterationBound(double a, double b) {
  const double bound = kCfFirstCheck + 16.0 * std::cbrt(a + b);
  return bound < kCfMaxIterations ? static_cast<int>(bound)
                                  : kCfMaxIterations;
}

/// Asked when a lane reaches `check_at` iterations unconverged; returns
/// the lane's next `check_at`, or 0 to stop it. The first time it raises
/// the check to the shapes' bound; after that it stops the lane and
/// counts the stop. Out of line, and given values rather than the lane so
/// the recurrence state stays in registers: few lanes ever get here.
[[gnu::noinline]] int NextBoundCheck(int check_at, double a, double b) {
  if (check_at == kCfFirstCheck) {
    const int bound = CfIterationBound(a, b);
    if (bound > check_at) return bound;
  }
  ++t_kernel_stats.cf_bound_stops;
  return 0;
}

/// One iteration of `s`; true once the lane converged or reached its bound.
inline bool CfAdvance(CfLane& s) {
  if (CfStep(s)) return true;
  if (s.m < s.check_at) return false;
  s.check_at = NextBoundCheck(s.check_at, s.a, s.b);
  return s.check_at == 0;
}

/// Runs `s` alone to its stop.
void CfRun(CfLane& s) {
  while (!CfAdvance(s)) {
  }
}

/// Runs two lanes to their stops. They step together while both run, so
/// one loop body holds two independent division chains and the CPU
/// overlaps them; once either stops, the other finishes alone. Each lane
/// does exactly the scalar operations in the scalar order, so each ends
/// on the bits `CfRun` would give it.
void CfRunPair(CfLane& p, CfLane& q) {
  bool p_stopped;
  bool q_stopped;
  do {
    p_stopped = CfAdvance(p);
    q_stopped = CfAdvance(q);
  } while (!p_stopped && !q_stopped);
  if (!p_stopped) CfRun(p);
  if (!q_stopped) CfRun(q);
}

/// The stopped lane's value. Counts its iterations: one add per fraction,
/// not per iteration, so the loop stays counter-free.
double CfValue(const CfLane& s) {
  t_kernel_stats.cf_iterations += static_cast<uint64_t>(s.m);
  return s.h;
}

/// One I_x(a, b) evaluation at x in (0, 1): the side whose fraction runs,
/// that side's front factor and its continued-fraction lane.
struct IncompleteBetaLane {
  bool mirror;
  double front;
  CfLane cf;
};

IncompleteBetaLane StartIncompleteBeta(double x, double a, double b,
                                       double log_beta, double log_x,
                                       double log1m_x, double log_a,
                                       double log_b) {
  // Symmetry: above the split the mirrored fraction I_{1-x}(b, a) converges
  // faster, and I_x(a, b) = 1 - I_{1-x}(b, a).
  const bool mirror = !(x < (a + 1.0) / (a + b + 2.0));
  // Front factor x^a (1-x)^b / (a B(a,b)), evaluated in log space. The
  // mirrored one uses (b, a) at 1-x, which differs from the direct one only
  // through the 1/a vs 1/b term (LogBeta is symmetric).
  const double log_front =
      a * log_x + b * log1m_x - (mirror ? log_b : log_a) - log_beta;
  return IncompleteBetaLane{
      mirror, std::exp(log_front),
      mirror ? CfLane(1.0 - x, b, a) : CfLane(x, a, b)};
}

double FinishIncompleteBeta(const IncompleteBetaLane& s) {
  const double tail = s.front * CfValue(s.cf);
  double result = s.mirror ? 1.0 - tail : tail;
  // Clamp tiny negative / >1 excursions from the final subtraction.
  if (result < 0.0) result = 0.0;
  if (result > 1.0) result = 1.0;
  return result;
}

}  // namespace

namespace internal {

double BetaContinuedFraction(double x, double a, double b) {
  CfLane lane(x, a, b);
  CfRun(lane);
  return CfValue(lane);
}

double RegularizedIncompleteBetaFromLogs(double x, double a, double b,
                                         double log_beta, double log_x,
                                         double log1m_x, double log_a,
                                         double log_b) {
  ++t_kernel_stats.calls;
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  IncompleteBetaLane s =
      StartIncompleteBeta(x, a, b, log_beta, log_x, log1m_x, log_a, log_b);
  CfRun(s.cf);
  return FinishIncompleteBeta(s);
}

void RegularizedIncompleteBetaPairFromLogs(const BetaPoint& p,
                                           const BetaPoint& q, double a,
                                           double b, double log_beta,
                                           double log_a, double log_b,
                                           double* i_p, double* i_q) {
  KGACC_DCHECK(p.x > 0.0 && p.x < 1.0 && q.x > 0.0 && q.x < 1.0);
  t_kernel_stats.calls += 2;
  IncompleteBetaLane sp = StartIncompleteBeta(p.x, a, b, log_beta, p.log_x,
                                              p.log1m_x, log_a, log_b);
  IncompleteBetaLane sq = StartIncompleteBeta(q.x, a, b, log_beta, q.log_x,
                                              q.log1m_x, log_a, log_b);
  CfRunPair(sp.cf, sq.cf);
  *i_p = FinishIncompleteBeta(sp);
  *i_q = FinishIncompleteBeta(sq);
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
