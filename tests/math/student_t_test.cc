#include "kgacc/math/student_t.h"

#include <cmath>

#include <gtest/gtest.h>

namespace kgacc {
namespace {

TEST(StudentTTwoSidedPTest, ZeroStatisticGivesPOne) {
  for (const double nu : {1.0, 2.0, 5.0, 30.0, 500.0}) {
    EXPECT_NEAR(*StudentTTwoSidedP(0.0, nu), 1.0, 1e-13) << nu;
  }
}

TEST(StudentTTwoSidedPTest, MatchesCauchyClosedFormForNu1) {
  // nu = 1 is the Cauchy distribution: P(|T| >= |t|) = 1 - 2 atan|t| / pi.
  for (double t = -5.0; t <= 5.0; t += 0.5) {
    EXPECT_NEAR(*StudentTTwoSidedP(t, 1.0),
                1.0 - 2.0 * std::atan(std::fabs(t)) / M_PI, 1e-12)
        << t;
  }
}

TEST(StudentTTwoSidedPTest, MatchesClosedFormForNu2) {
  // nu = 2: P(|T| >= |t|) = 1 - |t| / sqrt(2 + t^2).
  for (double t = -5.0; t <= 5.0; t += 0.5) {
    EXPECT_NEAR(*StudentTTwoSidedP(t, 2.0),
                1.0 - std::fabs(t) / std::sqrt(2.0 + t * t), 1e-12)
        << t;
  }
}

TEST(StudentTTwoSidedPTest, ApproachesNormalForLargeNu) {
  // At nu = 1e6 the t tails should match the normal's 2 (1 - Phi(t)).
  const double values[] = {0.5, 1.0, 1.96, 2.0};
  const double normal[] = {0.6170750774519738, 0.31731050786291415,
                           0.04999579029644087, 0.04550026389635842};
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(*StudentTTwoSidedP(values[i], 1e6), normal[i], 1e-5)
        << values[i];
  }
}

TEST(StudentTTwoSidedPTest, RejectsInvalidInputs) {
  EXPECT_FALSE(StudentTTwoSidedP(1.0, 0.0).ok());
  EXPECT_FALSE(StudentTTwoSidedP(1.0, -3.0).ok());
  EXPECT_FALSE(StudentTTwoSidedP(std::nan(""), 3.0).ok());
}

}  // namespace
}  // namespace kgacc
