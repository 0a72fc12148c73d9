#ifndef KGACC_INTERVALS_PRIORS_H_
#define KGACC_INTERVALS_PRIORS_H_

#include <string>
#include <vector>

#include "kgacc/math/beta.h"
#include "kgacc/util/status.h"

/// \file priors.h
/// Beta priors for the beta-binomial model of the annotation process
/// (§4.1) and the three standard uninformative priors of §4.4 — Kerman,
/// Jeffreys, Uniform — that aHPD races against each other.

namespace kgacc {

/// A named Beta(a, b) prior on the KG accuracy.
struct BetaPrior {
  std::string name;
  double a = 1.0;
  double b = 1.0;

  /// Conjugate update (§4.1): Beta(a + tau, b + n - tau). Counts may be
  /// fractional when design-effect-adjusted effective samples are used.
  Result<BetaDistribution> Posterior(double tau, double n) const;
};

/// Kerman's neutral prior Beta(1/3, 1/3): shortest HPD widths in the
/// extreme accuracy regions.
BetaPrior KermanPrior();

/// Jeffreys' invariant prior Beta(1/2, 1/2): the common default, never the
/// shortest (§4.4).
BetaPrior JeffreysPrior();

/// Bayes-Laplace uniform prior Beta(1, 1): shortest in the central region.
BetaPrior UniformPrior();

/// The heaviest prior, a + b, that kgacc audits with. The HPD interval is
/// accurate a decade past it (at a + b = 1e10 its endpoints match the
/// normal approximation's to ~1e-10), but not much further: at 1e20 it is
/// 400 times too wide. A billion pseudo-triples already outweighs any
/// sample an audit annotates.
inline constexpr double kMaxPriorWeight = 1e9;

/// OK when `prior`'s a and b are finite and positive and a + b is at most
/// kMaxPriorWeight, else InvalidArgument naming the prior. A prior built
/// from a weight of exactly kMaxPriorWeight passes: its a and b each round,
/// so a + b may land a few ulps above it.
Status CheckPrior(const BetaPrior& prior);

/// An informative prior encoding `accuracy` worth `weight` pseudo-triples
/// of prior knowledge (e.g., from an earlier audit of a similar KG;
/// Example 2 uses {0.80, 100} and {0.90, 100}). The weight must be at most
/// kMaxPriorWeight (CheckPrior's InvalidArgument otherwise).
Result<BetaPrior> InformativePrior(double accuracy, double weight,
                                   std::string name = "");

/// The {Kerman, Jeffreys, Uniform} trio the paper feeds to aHPD.
std::vector<BetaPrior> DefaultUninformativePriors();

}  // namespace kgacc

#endif  // KGACC_INTERVALS_PRIORS_H_
