#ifndef KGACC_MATH_BETA_H_
#define KGACC_MATH_BETA_H_

#include <cmath>

#include "kgacc/math/special.h"
#include "kgacc/util/status.h"

/// \file beta.h
/// The Beta(a, b) distribution — the conjugate prior/posterior family at the
/// heart of the paper's Bayesian interval machinery (§4.1).

namespace kgacc {

/// Shape classification of a Beta density on (0, 1). The HPD interval
/// construction branches on this (§4.3 "Limiting Cases").
enum class BetaShape {
  /// a > 1 and b > 1: interior mode, unimodal (standard HPD case).
  kUnimodal,
  /// a <= 1 and b > 1: monotonically decreasing, density peak at 0.
  kDecreasing,
  /// a > 1 and b <= 1: monotonically increasing, density peak at 1.
  kIncreasing,
  /// a <= 1 and b <= 1: U-shaped or flat (both endpoints are modes).
  kUShaped,
};

/// An immutable Beta(a, b) distribution with full density/CDF/quantile
/// support. Construction validates parameters once; all subsequent queries
/// are infallible except the quantile, which surfaces numeric failures.
class BetaDistribution {
 public:
  /// Creates a Beta(a, b); fails unless a > 0 and b > 0.
  static Result<BetaDistribution> Create(double a, double b);

  double a() const { return a_; }
  double b() const { return b_; }

  /// E[X] = a / (a + b).
  double Mean() const { return a_ / (a_ + b_); }

  /// Var[X] = ab / ((a+b)^2 (a+b+1)).
  double Variance() const {
    const double s = a_ + b_;
    return a_ * b_ / (s * s * (s + 1.0));
  }

  /// The interior mode (a-1)/(a+b-2); only meaningful for kUnimodal shapes.
  double Mode() const;

  /// Shape class of the density; drives the HPD limiting-case logic.
  BetaShape Shape() const;

  /// Density f(x); 0 outside [0, 1]. Edge values follow the continuous
  /// extension (may be +inf when a < 1 at x=0 or b < 1 at x=1).
  double Pdf(double x) const;

  /// log f(x); -inf outside the support.
  double LogPdf(double x) const;

  /// F(x) = P(X <= x), clamped to [0, 1] outside the support.
  double Cdf(double x) const;

  /// Pdf and LogPdf at a point inside (0, 1), from its shared logarithms;
  /// each equals its plain overload at `point.x` bit for bit.
  double Pdf(const BetaPoint& point) const;
  double LogPdf(const BetaPoint& point) const;

  /// F(l) and F(u) at two points inside (0, 1), through the two-lane
  /// incomplete-beta kernel: both continued fractions step in one loop, so
  /// the pair costs well under two `Cdf` calls (one fraction alone waits
  /// on its division chain). Each value equals `Cdf` at its point bit for
  /// bit, and the kernel counters read two calls.
  void CdfPair(const BetaPoint& l, const BetaPoint& u, double* cdf_l,
               double* cdf_u) const;

  /// F^{-1}(p) for p in [0, 1].
  Result<double> Quantile(double p) const;

 private:
  BetaDistribution(double a, double b, double log_beta)
      : a_(a),
        b_(b),
        log_beta_(log_beta),
        log_a_(std::log(a)),
        log_b_(std::log(b)) {}

  double a_;
  double b_;
  double log_beta_;  // Cached log B(a, b).
  double log_a_;     // Cached log a and log b: the CDF's front factor
  double log_b_;     // divides by a (or b, mirrored).
};

}  // namespace kgacc

#endif  // KGACC_MATH_BETA_H_
