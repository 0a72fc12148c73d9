#include "kgacc/opt/newton_kkt.h"

#include <cmath>
#include <limits>

// This binary's (sole) allocation-counting TU: the templated solver entry
// point promises allocation-free solves for inlineable callables.
#include "kgacc/util/alloc_counter.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

/// A well-behaved benchmark system with the HPD structure (two coupled
/// equations, solution strictly inside the unit box):
///   r0 = x1 - x0 - 0.5        (an affine "coverage" equation)
///   r1 = x1^2 + x0^2 - 0.5    (a convex coupling)
/// In-box root: x0 = (sqrt(3) - 1)/4 ~ 0.183, x1 = x0 + 0.5 ~ 0.683.
auto QuadraticSystem() {
  return [](double x0, double x1, double* r, double* jac) {
    r[0] = x1 - x0 - 0.5;
    r[1] = x1 * x1 + x0 * x0 - 0.5;
    jac[0] = -1.0;
    jac[1] = 1.0;
    jac[2] = 2.0 * x0;
    jac[3] = 2.0 * x1;
  };
}

TEST(NewtonKkt2Test, SolvesQuadraticSystemWithCertificate) {
  const auto solve = SolveNewtonKkt2(QuadraticSystem(), 0.1, 0.9);
  ASSERT_TRUE(solve.ok());
  EXPECT_TRUE(solve->converged);
  EXPECT_EQ(solve->reason, NewtonKktStop::kConverged);
  // Certificate: residuals actually satisfy the reported tolerances.
  EXPECT_LE(std::fabs(solve->r0), 1e-12);
  EXPECT_LE(std::fabs(solve->r1), 1e-9);
  // And the iterate satisfies the system independently.
  EXPECT_NEAR(solve->x1 - solve->x0, 0.5, 1e-10);
  EXPECT_NEAR(solve->x1 * solve->x1 + solve->x0 * solve->x0, 0.5, 1e-9);
  EXPECT_LT(solve->x0, solve->x1);
  // Newton on a smooth 2x2 system from a nearby start: a handful of
  // iterations, each costing one system evaluation plus line-search trials.
  EXPECT_LE(solve->iterations, 10);
  EXPECT_GE(solve->system_evals, solve->iterations);
}

TEST(NewtonKkt2Test, QuadraticConvergenceIsFast) {
  // From a start close to the solution the iteration must finish in very
  // few steps (the property the HPD warm carry exploits).
  const auto far = SolveNewtonKkt2(QuadraticSystem(), 0.05, 0.95);
  ASSERT_TRUE(far.ok());
  ASSERT_TRUE(far->converged);
  const auto near = SolveNewtonKkt2(QuadraticSystem(), far->x0 + 1e-4,
                                    far->x1 - 1e-4);
  ASSERT_TRUE(near.ok());
  EXPECT_TRUE(near->converged);
  EXPECT_LE(near->iterations, 4);
  EXPECT_NEAR(near->x0, far->x0, 1e-10);
  EXPECT_NEAR(near->x1, far->x1, 1e-10);
}

TEST(NewtonKkt2Test, ReportsSingularJacobian) {
  // Identically dependent rows: the Newton system has no unique step.
  const auto degenerate = [](double x0, double x1, double* r, double* jac) {
    r[0] = x1 - x0 - 0.25;
    r[1] = 2.0 * (x1 - x0) - 0.5 + 0.1;  // Parallel, inconsistent.
    jac[0] = -1.0;
    jac[1] = 1.0;
    jac[2] = -2.0;
    jac[3] = 2.0;
  };
  const auto solve = SolveNewtonKkt2(degenerate, 0.2, 0.8);
  ASSERT_TRUE(solve.ok());
  EXPECT_FALSE(solve->converged);
  EXPECT_EQ(solve->reason, NewtonKktStop::kSingularJacobian);
}

TEST(NewtonKkt2Test, ReportsNonFiniteSystem) {
  const auto nan_system = [](double, double, double* r, double* jac) {
    r[0] = std::numeric_limits<double>::quiet_NaN();
    r[1] = 0.0;
    jac[0] = jac[1] = jac[2] = jac[3] = 1.0;
  };
  const auto solve = SolveNewtonKkt2(nan_system, 0.2, 0.8);
  ASSERT_TRUE(solve.ok());
  EXPECT_FALSE(solve->converged);
  EXPECT_EQ(solve->reason, NewtonKktStop::kNonFinite);
}

TEST(NewtonKkt2Test, ReportsResidualGrowthOutsideBasin) {
  // A system whose Newton direction always increases the residual norm:
  // r = (atan of a huge slope) — steps overshoot wildly and backtracking
  // cannot find a decrease from the flat tails.
  const auto nasty = [](double x0, double x1, double* r, double* jac) {
    r[0] = std::atan(1e8 * (x0 - 0.5)) + 1.0;  // Never zero on the tails.
    r[1] = std::atan(1e8 * (x1 - 0.5)) - 1.0;
    const double d0 = 1e8 / (1.0 + 1e16 * (x0 - 0.5) * (x0 - 0.5));
    const double d1 = 1e8 / (1.0 + 1e16 * (x1 - 0.5) * (x1 - 0.5));
    jac[0] = d0;
    jac[1] = 0.0;
    jac[2] = 0.0;
    jac[3] = d1;
  };
  const auto solve = SolveNewtonKkt2(nasty, 0.01, 0.99);
  ASSERT_TRUE(solve.ok());
  EXPECT_FALSE(solve->converged);
  // The exit reason depends on where the iterate wanders, but it must be a
  // basin-exit report, not a claimed convergence.
  EXPECT_NE(solve->reason, NewtonKktStop::kConverged);
}

TEST(NewtonKkt2Test, ReportsResidualGrowthOnAnAscentDirection) {
  // The Jacobian has the wrong sign, so every Newton step points away from
  // the root at (0.3, 0.7): no backtracked trial lowers the residual, and
  // the solver gives up after its growth allowance.
  const auto wrong_sign = [](double x0, double x1, double* r, double* jac) {
    r[0] = x0 - 0.3;
    r[1] = x1 - 0.7;
    jac[0] = -1.0;
    jac[1] = 0.0;
    jac[2] = 0.0;
    jac[3] = -1.0;
  };
  const auto solve = SolveNewtonKkt2(wrong_sign, 0.4, 0.6);
  ASSERT_TRUE(solve.ok());
  EXPECT_FALSE(solve->converged);
  EXPECT_EQ(solve->reason, NewtonKktStop::kResidualGrowth);
  EXPECT_EQ(solve->iterations, kNewtonKktMaxGrowthIterations);
}

TEST(NewtonKkt2Test, ReportsPinnedAtBox) {
  // The root of this system lies outside the box: the iterate runs into
  // the wall and the solver reports the pin instead of grinding on it.
  const auto outside = [](double x0, double x1, double* r, double* jac) {
    r[0] = x0 + 2.0;   // Root at x0 = -2, far left of the box.
    r[1] = x1 - 0.75;  // Root at x1 = 0.75, inside.
    jac[0] = 1.0;
    jac[1] = 0.0;
    jac[2] = 0.0;
    jac[3] = 1.0;
  };
  const auto solve = SolveNewtonKkt2(outside, 0.3, 0.6);
  ASSERT_TRUE(solve.ok());
  EXPECT_FALSE(solve->converged);
  EXPECT_EQ(solve->reason, NewtonKktStop::kPinnedAtBox);
  EXPECT_EQ(solve->x0, kNewtonKktLo);
}

TEST(NewtonKkt2Test, HonorsMaxIterations) {
  // The Jacobian is twice the true one, so every full step covers half the
  // remaining distance to the root at (0.3, 0.7) and always lowers the
  // residual: from 0.2 away, 32 halvings leave ~5e-11, above the 1e-12
  // coverage tolerance.
  const auto halving = [](double x0, double x1, double* r, double* jac) {
    r[0] = x0 - 0.3;
    r[1] = x1 - 0.7;
    jac[0] = 2.0;
    jac[1] = 0.0;
    jac[2] = 0.0;
    jac[3] = 2.0;
  };
  const auto solve = SolveNewtonKkt2(halving, 0.1, 0.9);
  ASSERT_TRUE(solve.ok());
  EXPECT_FALSE(solve->converged);
  EXPECT_EQ(solve->reason, NewtonKktStop::kMaxIterations);
  EXPECT_EQ(solve->iterations, kNewtonKktMaxIterations);
  EXPECT_GT(std::fabs(solve->r0), kNewtonKktR0Tol);
  // One system evaluation at the start, one accepted trial per iteration.
  EXPECT_EQ(solve->system_evals, kNewtonKktMaxIterations + 1);
}

TEST(NewtonKkt2Test, RejectsMalformedInput) {
  // Start collapses after clamping: x0 >= x1.
  EXPECT_FALSE(SolveNewtonKkt2(QuadraticSystem(), 0.9, 0.1).ok());
  EXPECT_FALSE(SolveNewtonKkt2(QuadraticSystem(), 0.5, 0.5).ok());
}

TEST(NewtonKkt2Test, TemplatedSolveWithLambdaAllocatesNothing) {
  // The solver is templated over the callable: no std::function is
  // constructed, so a solve performs zero heap allocations — the property
  // that lets the interval layer join the session's zero-allocation
  // steady-state contract.
  const auto lambda_system = [](double x0, double x1, double* r, double* jac) {
    r[0] = x1 - x0 - 0.5;
    r[1] = x1 * x1 + x0 * x0 - 0.5;
    jac[0] = -1.0;
    jac[1] = 1.0;
    jac[2] = 2.0 * x0;
    jac[3] = 2.0 * x1;
  };
  // Warm-up solve outside the measured window.
  ASSERT_TRUE(SolveNewtonKkt2(lambda_system, 0.1, 0.9).ok());
  const uint64_t before = alloc_counter::Current();
  for (int i = 0; i < 10; ++i) {
    const auto solve = SolveNewtonKkt2(lambda_system, 0.1, 0.9);
    ASSERT_TRUE(solve.ok());
    ASSERT_TRUE(solve->converged);
  }
  EXPECT_EQ(alloc_counter::Current() - before, 0u)
      << "templated Newton KKT solves allocated";
}

}  // namespace
}  // namespace kgacc
