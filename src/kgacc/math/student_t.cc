#include "kgacc/math/student_t.h"

#include <cmath>

#include "kgacc/math/special.h"

namespace kgacc {

Result<double> StudentTTwoSidedP(double t, double nu) {
  if (!(nu > 0.0)) {
    return Status::InvalidArgument("degrees of freedom must be positive");
  }
  if (std::isnan(t)) return Status::NumericError("t statistic is NaN");
  const double x = nu / (nu + t * t);
  return RegularizedIncompleteBeta(x, nu / 2.0, 0.5);
}

}  // namespace kgacc
