#ifndef KGACC_ESTIMATE_ACCUMULATOR_H_
#define KGACC_ESTIMATE_ACCUMULATOR_H_

#include <cstdint>
#include <vector>

#include "kgacc/sampling/sample.h"
#include "kgacc/sampling/sampler.h"
#include "kgacc/util/status.h"

/// \file accumulator.h
/// The design-based estimators of the KG accuracy mu and their estimated
/// variances (§2.4), in streaming form. The iterative framework
/// re-estimates after *every* batch (Algorithm 1 line 10), so
/// `EstimatorAccumulator` ingests each `AnnotatedUnit` once and produces
/// the `AccuracyEstimate` from running sufficient statistics, making phase
/// 3 O(batch) per step and the session's memory independent of the number
/// of units:
///
/// * SRS          — running (n, tau): mu = tau_S / n_S,
///                  V = mu (1 - mu) / n_S (Eq. 2), times the finite-
///                  population correction (1 - n/N) when N is given.
/// * Cluster      — mean of per-cluster accuracies under PPS designs
///                  (TWCS/WCS, Eq. 3): running sum of mu_i in arrival order
///                  plus a Welford-style M2 for the between-cluster
///                  sum-of-squares, V = sum (mu_i - mu)^2 / (n_C (n_C - 1)).
/// * RCS          — ratio estimator for uniform whole-cluster sampling,
///                  mu = sum tau_i / sum M_i, from exact integer power sums
///                  (sum tau_i, sum M_i, sum tau_i^2, sum tau_i M_i,
///                  sum M_i^2), from which the linearized ratio variance
///                  sum (tau_i - r M_i)^2 is recoverable in O(1) at any r.
/// * Stratified   — per-stratum (n_h, tau_h) count arrays:
///                  mu = sum_h W_h mu_h, V = sum_h W_h^2 mu_h (1 - mu_h) / n_h.
///
/// The cluster and RCS designs report the worst-case Bernoulli variance
/// 0.25 / n until a second first-stage unit arrives. The two-pass batch
/// forms of these formulas live beside the tests
/// (tests/reference/batch_estimators.h), and
/// tests/estimate/accumulator_test.cc checks the accumulator against them
/// on randomized streams (bit-exact where the summation order is
/// preserved, <= 1e-12 otherwise).

namespace kgacc {

/// A point estimate of the KG accuracy with its sampling uncertainty: the
/// sole input to every interval constructor.
struct AccuracyEstimate {
  /// Point estimate of mu.
  double mu = 0.0;
  /// Estimated variance of the estimator.
  double variance = 0.0;
  /// Annotated triples n_S backing the estimate.
  uint64_t n = 0;
  /// Correct annotations tau_S.
  uint64_t tau = 0;
  /// First-stage units (clusters for cluster designs, triples for SRS).
  uint64_t num_units = 0;
  /// Population size N when a finite-population correction was applied;
  /// 0 otherwise. Interval constructors use it to inflate the effective
  /// sample as the census nears.
  uint64_t population = 0;
};

/// Ingests annotated units incrementally and produces the matching
/// design-based accuracy estimate from O(1) state (O(#strata) for
/// stratified designs). One accumulator serves one evaluation run; pair it
/// with the same `EstimatorKind` the sampler advertises.
class EstimatorAccumulator {
 public:
  explicit EstimatorAccumulator(EstimatorKind kind) : kind_(kind) {}

  /// Folds one annotated unit into the running statistics. O(1).
  void Add(const AnnotatedUnit& unit);

  /// Annotated triples n_S folded in so far.
  uint64_t num_triples() const { return n_; }
  /// Units (first-stage clusters, or triples for SRS-like designs).
  uint64_t num_units() const { return units_; }

  /// Produces the estimate for the units folded in so far.
  /// FailedPrecondition before the first unit. `stratum_weights` (the
  /// population shares W_h) is required for kStratified and ignored
  /// otherwise; a stratum never observed contributes its weight at the
  /// pooled mean with the worst-case Bernoulli variance. A nonzero
  /// `population_size` applies the finite-population correction for kSrs
  /// (what makes the interval "reach zero width when the sample is
  /// equivalent to G", §2.2); leave it 0 for with-replacement designs.
  Result<AccuracyEstimate> Estimate(
      const std::vector<double>* stratum_weights = nullptr,
      uint64_t population_size = 0) const;

 private:
  EstimatorKind kind_;

  // Shared totals.
  uint64_t n_ = 0;
  uint64_t tau_ = 0;
  uint64_t units_ = 0;

  // Cluster: sum of mu_i in arrival order (the two-pass mean bit for bit)
  // and Welford running mean / M2 for the between-cluster SS.
  double sum_mu_ = 0.0;
  double welford_mean_ = 0.0;
  double welford_m2_ = 0.0;

  // RCS: integer power sums, exact up to 2^64 (tau_i, M_i < 2^24 by the
  // TripleKey packing invariant, so overflow needs > 2^16 max-size
  // clusters — far beyond any audit's annotation budget).
  uint64_t sum_tau_ = 0;
  uint64_t sum_m_ = 0;
  uint64_t sum_tau2_ = 0;
  uint64_t sum_taum_ = 0;
  uint64_t sum_m2_ = 0;

  // Stratified: per-stratum triple and correct counts, grown on demand.
  std::vector<uint64_t> n_h_;
  std::vector<uint64_t> tau_h_;
};

}  // namespace kgacc

#endif  // KGACC_ESTIMATE_ACCUMULATOR_H_
