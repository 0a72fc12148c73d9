#ifndef KGACC_INTERVALS_INTERVAL_H_
#define KGACC_INTERVALS_INTERVAL_H_

/// \file interval.h
/// The 1-alpha interval value type shared by every frequentist and Bayesian
/// constructor in the library, together with the Margin of Error (MoE =
/// half width) that drives the stopping rule of the evaluation framework.

namespace kgacc {

/// A closed interval [lower, upper] for the KG accuracy.
struct Interval {
  double lower = 0.0;
  double upper = 0.0;

  double Width() const { return upper - lower; }

  /// Margin of Error: half the interval width (§2.2).
  double Moe() const { return 0.5 * Width(); }

  /// True when `x` lies inside the interval (inclusive).
  bool Contains(double x) const { return x >= lower && x <= upper; }
};

}  // namespace kgacc

#endif  // KGACC_INTERVALS_INTERVAL_H_
