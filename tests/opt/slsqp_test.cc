#include "reference/slsqp.h"

#include <cmath>

#include <gtest/gtest.h>

namespace kgacc {
namespace {

TEST(SolveLinearSystemTest, SolvesTwoByTwo) {
  // [2 1; 1 3] x = [3; 5]  ->  x = (4/5, 7/5).
  std::vector<double> x;
  ASSERT_TRUE(internal::SolveLinearSystem({2, 1, 1, 3}, {3, 5}, 2, &x));
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(SolveLinearSystemTest, RequiresPivoting) {
  // Leading zero forces a row swap: [0 1; 1 0] x = [2; 3] -> x = (3, 2).
  std::vector<double> x;
  ASSERT_TRUE(internal::SolveLinearSystem({0, 1, 1, 0}, {2, 3}, 2, &x));
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SolveLinearSystemTest, DetectsSingularity) {
  std::vector<double> x;
  EXPECT_FALSE(internal::SolveLinearSystem({1, 2, 2, 4}, {1, 2}, 2, &x));
}

TEST(SolveLinearSystemTest, SolvesFourByFourIdentityLike) {
  // Diagonal system with mixed scales.
  std::vector<double> a = {4, 0, 0, 0, 0, 0.5, 0, 0,
                           0, 0, 10, 0, 0, 0, 0, 1};
  std::vector<double> x;
  ASSERT_TRUE(internal::SolveLinearSystem(a, {8, 1, 5, -2}, 4, &x));
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 0.5, 1e-12);
  EXPECT_NEAR(x[3], -2.0, 1e-12);
}

TEST(SlsqpTest, UnconstrainedQuadratic) {
  SlsqpProblem p;
  p.objective = [](const std::vector<double>& x) {
    return (x[0] - 1.0) * (x[0] - 1.0) + (x[1] + 2.0) * (x[1] + 2.0);
  };
  const auto r = MinimizeSlsqp(p, {0.0, 0.0});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  EXPECT_NEAR(r->x[0], 1.0, 1e-6);
  EXPECT_NEAR(r->x[1], -2.0, 1e-6);
}

TEST(SlsqpTest, UnconstrainedRosenbrock) {
  SlsqpProblem p;
  p.objective = [](const std::vector<double>& x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  SlsqpOptions opts;
  opts.max_iterations = 500;
  const auto r = MinimizeSlsqp(p, {-1.2, 1.0}, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->x[0], 1.0, 1e-4);
  EXPECT_NEAR(r->x[1], 1.0, 1e-4);
}

TEST(SlsqpTest, LinearEqualityConstraint) {
  // min x^2 + y^2 s.t. x + y = 1  ->  (1/2, 1/2).
  SlsqpProblem p;
  p.objective = [](const std::vector<double>& x) {
    return x[0] * x[0] + x[1] * x[1];
  };
  p.eq_constraints.push_back(
      [](const std::vector<double>& x) { return x[0] + x[1] - 1.0; });
  const auto r = MinimizeSlsqp(p, {0.0, 0.0});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  EXPECT_NEAR(r->x[0], 0.5, 1e-7);
  EXPECT_NEAR(r->x[1], 0.5, 1e-7);
  EXPECT_LT(r->max_violation, 1e-9);
}

TEST(SlsqpTest, NonlinearEqualityConstraint) {
  // min x + y s.t. x^2 + y^2 = 1  ->  (-sqrt(2)/2, -sqrt(2)/2).
  SlsqpProblem p;
  p.objective = [](const std::vector<double>& x) { return x[0] + x[1]; };
  p.eq_constraints.push_back([](const std::vector<double>& x) {
    return x[0] * x[0] + x[1] * x[1] - 1.0;
  });
  const auto r = MinimizeSlsqp(p, {0.5, -0.8});
  ASSERT_TRUE(r.ok());
  const double s = -std::sqrt(0.5);
  EXPECT_NEAR(r->x[0], s, 1e-5);
  EXPECT_NEAR(r->x[1], s, 1e-5);
  EXPECT_NEAR(r->fx, 2.0 * s, 1e-5);
}

TEST(SlsqpTest, AnalyticGradientsGiveSameAnswer) {
  SlsqpProblem p;
  p.objective = [](const std::vector<double>& x) {
    return x[0] * x[0] + 2.0 * x[1] * x[1];
  };
  p.gradient = [](const std::vector<double>& x) {
    return std::vector<double>{2.0 * x[0], 4.0 * x[1]};
  };
  p.eq_constraints.push_back(
      [](const std::vector<double>& x) { return x[0] + x[1] - 3.0; });
  p.eq_gradients.push_back(
      [](const std::vector<double>&) { return std::vector<double>{1.0, 1.0}; });
  const auto r = MinimizeSlsqp(p, {0.0, 0.0});
  ASSERT_TRUE(r.ok());
  // Lagrange solution: x = 2, y = 1.
  EXPECT_NEAR(r->x[0], 2.0, 1e-6);
  EXPECT_NEAR(r->x[1], 1.0, 1e-6);
}

TEST(SlsqpTest, ActiveBoundConstraint) {
  // min (x - 2)^2 with x in [0, 1]  ->  x = 1.
  SlsqpProblem p;
  p.objective = [](const std::vector<double>& x) {
    return (x[0] - 2.0) * (x[0] - 2.0);
  };
  p.lower = {0.0};
  p.upper = {1.0};
  const auto r = MinimizeSlsqp(p, {0.5});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->x[0], 1.0, 1e-8);
}

TEST(SlsqpTest, BoundsAndEqualityTogether) {
  // min (x-3)^2 + (y-3)^2 s.t. x + y = 1, 0 <= x,y <= 1.
  // Unconstrained-on-the-line solution is (1/2, 1/2), inside the box.
  SlsqpProblem p;
  p.objective = [](const std::vector<double>& x) {
    return (x[0] - 3.0) * (x[0] - 3.0) + (x[1] - 3.0) * (x[1] - 3.0);
  };
  p.eq_constraints.push_back(
      [](const std::vector<double>& x) { return x[0] + x[1] - 1.0; });
  p.lower = {0.0, 0.0};
  p.upper = {1.0, 1.0};
  const auto r = MinimizeSlsqp(p, {0.9, 0.1});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->x[0], 0.5, 1e-6);
  EXPECT_NEAR(r->x[1], 0.5, 1e-6);
}

TEST(SlsqpTest, StartPointOutsideBoundsIsClamped) {
  SlsqpProblem p;
  p.objective = [](const std::vector<double>& x) { return x[0] * x[0]; };
  p.lower = {1.0};
  p.upper = {2.0};
  const auto r = MinimizeSlsqp(p, {-5.0});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->x[0], 1.0, 1e-8);
}

TEST(SlsqpTest, RejectsMalformedProblems) {
  SlsqpProblem no_objective;
  EXPECT_FALSE(MinimizeSlsqp(no_objective, {0.0}).ok());

  SlsqpProblem bad_bounds;
  bad_bounds.objective = [](const std::vector<double>& x) { return x[0]; };
  bad_bounds.lower = {0.0, 0.0};  // Size mismatch with x0.
  EXPECT_FALSE(MinimizeSlsqp(bad_bounds, {0.0}).ok());

  SlsqpProblem crossed;
  crossed.objective = [](const std::vector<double>& x) { return x[0]; };
  crossed.lower = {2.0};
  crossed.upper = {1.0};
  EXPECT_FALSE(MinimizeSlsqp(crossed, {0.0}).ok());

  SlsqpProblem empty_start;
  empty_start.objective = [](const std::vector<double>&) { return 0.0; };
  EXPECT_FALSE(MinimizeSlsqp(empty_start, {}).ok());
}

TEST(SlsqpTest, ShortStepAloneIsNotConvergenceUnderStationarityTest) {
  // A flat objective against the identity Hessian model makes the first
  // QP step short while the iterate is far from optimal. With the legacy
  // short-step test the solver "converges" on the spot; with the KKT
  // stationarity test enabled it must either keep working toward
  // (0.5, 0.5) or admit non-convergence — never certify the bogus point.
  SlsqpProblem p;
  p.objective = [](const std::vector<double>& x) {
    return 1e-4 * (x[0] * x[0] + x[1] * x[1]);
  };
  p.gradient = [](const std::vector<double>& x) {
    return std::vector<double>{2e-4 * x[0], 2e-4 * x[1]};
  };
  p.eq_constraints.push_back(
      [](const std::vector<double>& x) { return x[0] + x[1] - 1.0; });
  p.eq_gradients.push_back(
      [](const std::vector<double>&) { return std::vector<double>{1.0, 1.0}; });

  SlsqpOptions legacy;
  legacy.step_tol = 1e-4;
  const auto stalled = MinimizeSlsqp(p, {0.9, 0.1}, legacy);
  ASSERT_TRUE(stalled.ok());
  // Demonstrates the trap: short-step "convergence" at the start point.
  EXPECT_TRUE(stalled->converged);
  EXPECT_NEAR(stalled->x[0], 0.9, 1e-3);

  SlsqpOptions strict = legacy;
  strict.stationarity_tol = 1e-6;
  strict.max_iterations = 500;
  const auto checked = MinimizeSlsqp(p, {0.9, 0.1}, strict);
  ASSERT_TRUE(checked.ok());
  const bool reached_optimum = std::fabs(checked->x[0] - 0.5) < 1e-4 &&
                               std::fabs(checked->x[1] - 0.5) < 1e-4;
  EXPECT_TRUE(!checked->converged || reached_optimum)
      << "certified a non-stationary point: x = (" << checked->x[0] << ", "
      << checked->x[1] << ")";
  if (checked->converged) {
    EXPECT_LT(checked->kkt_residual, 1e-6);
  }
}

TEST(SlsqpTest, StationarityTestAcceptsTrueSolutions) {
  // The tightened test must not reject genuinely converged solves.
  SlsqpProblem p;
  p.objective = [](const std::vector<double>& x) {
    return x[0] * x[0] + x[1] * x[1];
  };
  p.gradient = [](const std::vector<double>& x) {
    return std::vector<double>{2.0 * x[0], 2.0 * x[1]};
  };
  p.eq_constraints.push_back(
      [](const std::vector<double>& x) { return x[0] + x[1] - 1.0; });
  p.eq_gradients.push_back(
      [](const std::vector<double>&) { return std::vector<double>{1.0, 1.0}; });
  SlsqpOptions strict;
  strict.stationarity_tol = 1e-6;
  const auto r = MinimizeSlsqp(p, {0.0, 0.0}, strict);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  EXPECT_NEAR(r->x[0], 0.5, 1e-7);
  EXPECT_LT(r->kkt_residual, 1e-6);
}

TEST(SlsqpTest, StationarityProjectsActiveBoundMultipliers) {
  // min (x - 2)^2 on [0, 1]: the solution x = 1 has gradient -2, absorbed
  // by the upper-bound multiplier. The projected KKT residual must treat
  // it as stationary, so the solve converges under the strict test.
  SlsqpProblem p;
  p.objective = [](const std::vector<double>& x) {
    return (x[0] - 2.0) * (x[0] - 2.0);
  };
  p.gradient = [](const std::vector<double>& x) {
    return std::vector<double>{2.0 * (x[0] - 2.0)};
  };
  p.lower = {0.0};
  p.upper = {1.0};
  SlsqpOptions strict;
  strict.stationarity_tol = 1e-6;
  const auto r = MinimizeSlsqp(p, {0.5}, strict);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  EXPECT_NEAR(r->x[0], 1.0, 1e-8);
  EXPECT_LT(r->kkt_residual, 1e-6);
}

TEST(SlsqpTest, ThreeVariableConstrainedProblem) {
  // min x^2 + y^2 + z^2 s.t. x + 2y + 3z = 6 -> x = 6/14*(1,2,3).
  SlsqpProblem p;
  p.objective = [](const std::vector<double>& x) {
    return x[0] * x[0] + x[1] * x[1] + x[2] * x[2];
  };
  p.eq_constraints.push_back([](const std::vector<double>& x) {
    return x[0] + 2.0 * x[1] + 3.0 * x[2] - 6.0;
  });
  const auto r = MinimizeSlsqp(p, {1.0, 1.0, 1.0});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->x[0], 6.0 / 14.0, 1e-6);
  EXPECT_NEAR(r->x[1], 12.0 / 14.0, 1e-6);
  EXPECT_NEAR(r->x[2], 18.0 / 14.0, 1e-6);
}

TEST(SlsqpTest, TwoEqualityConstraints) {
  // min x^2+y^2+z^2 s.t. x+y=2, y+z=2 -> by symmetry (2/3, 4/3, 2/3).
  SlsqpProblem p;
  p.objective = [](const std::vector<double>& x) {
    return x[0] * x[0] + x[1] * x[1] + x[2] * x[2];
  };
  p.eq_constraints.push_back(
      [](const std::vector<double>& x) { return x[0] + x[1] - 2.0; });
  p.eq_constraints.push_back(
      [](const std::vector<double>& x) { return x[1] + x[2] - 2.0; });
  const auto r = MinimizeSlsqp(p, {0.0, 0.0, 0.0});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->x[0], 2.0 / 3.0, 1e-6);
  EXPECT_NEAR(r->x[1], 4.0 / 3.0, 1e-6);
  EXPECT_NEAR(r->x[2], 2.0 / 3.0, 1e-6);
}

}  // namespace
}  // namespace kgacc
