#include "kgacc/opt/brent.h"

#include <cmath>

#include <gtest/gtest.h>

namespace kgacc {
namespace {

TEST(FindRootBrentTest, SolvesClassicFixedPoint) {
  // cos(x) = x has the unique root 0.7390851332151607 (the Dottie number).
  const auto r =
      FindRootBrent([](double x) { return std::cos(x) - x; }, 0.0, 1.0);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->x, 0.7390851332151607, 1e-10);
}

TEST(FindRootBrentTest, SolvesPolynomial) {
  // x^3 - 2x - 5 = 0 has the real root 2.0945514815423265.
  const auto r = FindRootBrent(
      [](double x) { return x * x * x - 2.0 * x - 5.0; }, 2.0, 3.0);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->x, 2.0945514815423265, 1e-10);
}

TEST(FindRootBrentTest, ExactRootAtBracketEndpoint) {
  const auto r = FindRootBrent([](double x) { return x - 2.0; }, 2.0, 5.0);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->x, 2.0);
  EXPECT_EQ(r->iterations, 0);
}

TEST(FindRootBrentTest, RejectsUnbracketedInterval) {
  const auto r =
      FindRootBrent([](double x) { return x * x + 1.0; }, -1.0, 1.0);
  EXPECT_FALSE(r.ok());
}

TEST(FindRootBrentTest, HandlesSteepFunctions) {
  // exp(20x) - 1 = 0 at x = 0; very steep on the right side.
  const auto r = FindRootBrent(
      [](double x) { return std::exp(20.0 * x) - 1.0; }, -1.0, 1.0);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->x, 0.0, 1e-9);
}

}  // namespace
}  // namespace kgacc
