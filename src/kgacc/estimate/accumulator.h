#ifndef KGACC_ESTIMATE_ACCUMULATOR_H_
#define KGACC_ESTIMATE_ACCUMULATOR_H_

#include <cstdint>
#include <vector>

#include "kgacc/estimate/estimators.h"
#include "kgacc/sampling/sample.h"
#include "kgacc/sampling/sampler.h"
#include "kgacc/util/status.h"

/// \file accumulator.h
/// Streaming form of the estimators in estimators.h. The iterative
/// framework re-estimates after *every* batch (Algorithm 1 line 10); the
/// batch functions re-walk the whole accumulated sample, so a full audit
/// costs O(n^2) in annotated units. `EstimatorAccumulator` ingests each
/// `AnnotatedUnit` once and reproduces the same `AccuracyEstimate` from
/// running sufficient statistics, making phase 3 O(batch) per step:
///
/// * SRS          — running (n, tau).
/// * Cluster      — running sum of per-cluster accuracies (arrival order,
///                  so the mean is bit-identical to the batch estimator)
///                  plus a Welford-style M2 for the between-cluster
///                  sum-of-squares.
/// * RCS          — exact integer power sums (sum tau_i, sum M_i,
///                  sum tau_i^2, sum tau_i M_i, sum M_i^2), from which the
///                  linearized ratio variance sum (tau_i - r M_i)^2 is
///                  recoverable in O(1) at any ratio r.
/// * Stratified   — per-stratum (n_h, tau_h) count arrays.
///
/// The batch functions remain the reference implementation;
/// tests/estimate/accumulator_test.cc verifies agreement on randomized
/// streams (bit-exact where the summation order is preserved, <= 1e-12
/// otherwise).

namespace kgacc {

/// Ingests annotated units incrementally and produces the matching
/// design-based accuracy estimate from O(1) state (O(#strata) for
/// stratified designs). One accumulator serves one evaluation run; pair it
/// with the same `EstimatorKind` the sampler advertises.
class EstimatorAccumulator {
 public:
  explicit EstimatorAccumulator(EstimatorKind kind) : kind_(kind) {}

  EstimatorKind kind() const { return kind_; }

  /// Folds one annotated unit into the running statistics. O(1).
  void Add(const AnnotatedUnit& unit);

  /// Folds a whole batch. O(batch).
  void AddBatch(const std::vector<AnnotatedUnit>& units) {
    for (const AnnotatedUnit& unit : units) Add(unit);
  }

  /// Restores the freshly constructed state.
  void Reset();

  /// Annotated triples n_S folded in so far.
  uint64_t num_triples() const { return n_; }
  /// Correct annotations tau_S.
  uint64_t num_correct() const { return tau_; }
  /// Units (first-stage clusters, or triples for SRS-like designs).
  uint64_t num_units() const { return units_; }

  /// Produces the estimate for the current state — the same value (and the
  /// same error statuses) the matching batch function would return for the
  /// sample accumulated so far. `stratum_weights` is required for
  /// kStratified and ignored otherwise; a nonzero `population_size` applies
  /// the finite-population correction for kSrs, exactly as `EstimateSrs`.
  Result<AccuracyEstimate> Estimate(
      const std::vector<double>* stratum_weights = nullptr,
      uint64_t population_size = 0) const;

 private:
  EstimatorKind kind_;

  // Shared totals.
  uint64_t n_ = 0;
  uint64_t tau_ = 0;
  uint64_t units_ = 0;

  // Cluster: sum of mu_i in arrival order (matches the batch mean bit for
  // bit) and Welford running mean / M2 for the between-cluster SS.
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
