#ifndef KGACC_REFERENCE_BATCH_ESTIMATORS_H_
#define KGACC_REFERENCE_BATCH_ESTIMATORS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "kgacc/estimate/accumulator.h"
#include "kgacc/sampling/sample.h"
#include "kgacc/sampling/sampler.h"
#include "kgacc/util/status.h"

/// \file batch_estimators.h
/// The design-based estimators of §2.4 in their textbook two-pass form:
/// each call walks the whole list of annotated units, so re-estimating
/// after every batch costs O(n^2) over an audit. No audit runs these; the
/// library estimates with the streaming `EstimatorAccumulator`
/// (`kgacc/estimate/accumulator.h`), and the tests check it against these
/// functions (bit-exact where the summation order is preserved, <= 1e-12
/// otherwise) and the estimator properties against hand computations.

namespace kgacc {

/// Sample proportion under SRS (Eq. 2):
///   mu = tau_S / n_S,  V = mu (1 - mu) / n_S,
/// times the finite-population correction (1 - n/N) when `population_size`
/// is nonzero.
Result<AccuracyEstimate> EstimateSrs(std::span<const AnnotatedUnit> units,
                                     uint64_t population_size = 0);

/// Mean of estimated cluster accuracies under PPS cluster designs
/// (TWCS/WCS, Eq. 3):
///   mu = (1/n_C) sum mu_i,  V = sum (mu_i - mu)^2 / (n_C (n_C - 1)).
/// With a single unit the variance is the worst-case 0.25 / n.
Result<AccuracyEstimate> EstimateCluster(std::span<const AnnotatedUnit> units);

/// Ratio estimator for uniform whole-cluster sampling (RCS):
///   mu = sum tau_i / sum M_i, with the linearized ratio variance
///   sum (tau_i - mu M_i)^2 / (n_C (n_C - 1) Mbar^2).
Result<AccuracyEstimate> EstimateRcs(std::span<const AnnotatedUnit> units);

/// Stratified estimator: mu = sum_h W_h mu_h with
/// V = sum_h W_h^2 mu_h (1 - mu_h) / n_h. Strata not yet observed
/// contribute their weight at the pooled mean with the worst-case
/// Bernoulli variance.
Result<AccuracyEstimate> EstimateStratified(
    std::span<const AnnotatedUnit> units,
    const std::vector<double>& stratum_weights);

/// Dispatches on the estimator family a sampler advertises.
/// `stratum_weights` is required for kStratified and ignored otherwise.
Result<AccuracyEstimate> Estimate(
    EstimatorKind kind, std::span<const AnnotatedUnit> units,
    const std::vector<double>* stratum_weights = nullptr);

}  // namespace kgacc

#endif  // KGACC_REFERENCE_BATCH_ESTIMATORS_H_
