#ifndef KGACC_MATH_STUDENT_T_H_
#define KGACC_MATH_STUDENT_T_H_

#include "kgacc/util/status.h"

/// \file student_t.h
/// Student's t distribution, needed by the independent two-sample t-tests
/// the paper uses to mark significant differences (Tables 3-4, p < 0.01).

namespace kgacc {

/// Two-sided tail probability P(|T| >= |t|) of Student's t with `nu`
/// degrees of freedom. Requires nu > 0. Computed through the
/// incomplete-beta identity P(|T| >= |t|) = I_{nu/(nu+t^2)}(nu/2, 1/2).
Result<double> StudentTTwoSidedP(double t, double nu);

}  // namespace kgacc

#endif  // KGACC_MATH_STUDENT_T_H_
