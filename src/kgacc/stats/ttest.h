#ifndef KGACC_STATS_TTEST_H_
#define KGACC_STATS_TTEST_H_

#include <vector>

#include "kgacc/util/status.h"

/// \file ttest.h
/// Independent two-sample t-tests. The paper marks performance differences
/// significant via "standard independent t-tests with p < 0.01" (Tables
/// 3-4); this is the pooled-variance Student test (the "standard" one).

namespace kgacc {

/// Outcome of a two-sample t-test.
struct TTestResult {
  double t = 0.0;            ///< Test statistic.
  double df = 0.0;           ///< Degrees of freedom.
  double p_two_sided = 1.0;  ///< Two-sided p-value.

  bool SignificantAt(double level) const { return p_two_sided < level; }
};

/// Pooled-variance (Student) independent two-sample t-test. Each sample
/// needs at least two observations. Degenerate zero-variance inputs yield
/// p = 1 when the means coincide and p = 0 otherwise.
Result<TTestResult> PooledTTest(const std::vector<double>& xs,
                                const std::vector<double>& ys);

}  // namespace kgacc

#endif  // KGACC_STATS_TTEST_H_
