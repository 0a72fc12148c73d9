#include "kgacc/stats/ttest.h"

#include <cmath>

#include "kgacc/math/student_t.h"
#include "kgacc/stats/descriptive.h"

namespace kgacc {

namespace {

Status ValidateInputs(const std::vector<double>& xs,
                      const std::vector<double>& ys) {
  if (xs.size() < 2 || ys.size() < 2) {
    return Status::FailedPrecondition(
        "t-test needs at least two observations per sample");
  }
  return Status::OK();
}

Result<TTestResult> FinishTest(double mean_diff, double se, double df) {
  TTestResult out;
  out.df = df;
  if (se <= 0.0) {
    // Degenerate zero-variance samples: identical means are indistinguish-
    // able, different means are trivially separated.
    out.t = mean_diff == 0.0 ? 0.0
                             : std::numeric_limits<double>::infinity() *
                                   (mean_diff > 0 ? 1.0 : -1.0);
    out.p_two_sided = mean_diff == 0.0 ? 1.0 : 0.0;
    return out;
  }
  out.t = mean_diff / se;
  KGACC_ASSIGN_OR_RETURN(out.p_two_sided, StudentTTwoSidedP(out.t, df));
  return out;
}

}  // namespace

Result<TTestResult> PooledTTest(const std::vector<double>& xs,
                                const std::vector<double>& ys) {
  KGACC_RETURN_IF_ERROR(ValidateInputs(xs, ys));
  const double nx = static_cast<double>(xs.size());
  const double ny = static_cast<double>(ys.size());
  KGACC_ASSIGN_OR_RETURN(const double mx, Mean(xs));
  KGACC_ASSIGN_OR_RETURN(const double my, Mean(ys));
  KGACC_ASSIGN_OR_RETURN(const double vx, SampleVariance(xs));
  KGACC_ASSIGN_OR_RETURN(const double vy, SampleVariance(ys));
  const double df = nx + ny - 2.0;
  const double pooled = ((nx - 1.0) * vx + (ny - 1.0) * vy) / df;
  const double se = std::sqrt(pooled * (1.0 / nx + 1.0 / ny));
  return FinishTest(mx - my, se, df);
}

}  // namespace kgacc
