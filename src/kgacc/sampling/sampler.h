#ifndef KGACC_SAMPLING_SAMPLER_H_
#define KGACC_SAMPLING_SAMPLER_H_

#include <memory>

#include "kgacc/kg/kg_view.h"
#include "kgacc/sampling/sample.h"
#include "kgacc/util/random.h"
#include "kgacc/util/status.h"

/// \file sampler.h
/// Sampling-strategy interface (the S of the constrained minimization
/// problem, §2.2). A sampler is bound to one population at construction and
/// produces batches of structural sampling decisions; annotation happens
/// downstream in the evaluation framework.

namespace kgacc {

class ByteWriter;
class ByteReader;

/// Which unbiased estimator matches the units a sampler emits.
enum class EstimatorKind {
  /// Sample proportion (Eq. 2) on per-triple units.
  kSrs,
  /// Mean of per-cluster accuracies (Eq. 3) on first-stage cluster units.
  kCluster,
  /// Combined ratio estimator sum tau_i / sum M_i on *uniformly* drawn
  /// whole clusters (RCS) — the per-cluster mean is biased there when
  /// cluster size correlates with accuracy.
  kRcs,
  /// Stratum-weighted proportion on stratified per-triple units; requires
  /// the sampler to expose stratum weights.
  kStratified,
};

/// Abstract sampling strategy. Implementations are deterministic functions
/// of the Rng stream, so replications are reproducible by reseeding.
class Sampler {
 public:
  virtual ~Sampler() = default;

  /// Draws the next batch of units into `*batch` (cleared first; its
  /// capacity is reused, so a caller that passes the same batch every step
  /// reaches an allocation-free steady state). May produce fewer units than
  /// the batch size when a without-replacement design nears exhaustion, and
  /// an empty batch when the population is fully consumed.
  virtual Status NextBatch(Rng* rng, SampleBatch* batch) = 0;

  /// Clears any without-replacement bookkeeping for a fresh run.
  virtual void Reset() = 0;

  /// The estimator family matching this design.
  virtual EstimatorKind estimator() const = 0;

  /// The population this sampler is bound to.
  virtual const KgView& kg() const = 0;

  /// Human-readable design name ("SRS", "TWCS", ...).
  virtual const char* name() const = 0;

  /// Population shares W_h of each stratum, for kStratified designs;
  /// nullptr otherwise.
  virtual const std::vector<double>* stratum_weights() const {
    return nullptr;
  }

  /// Inert: nothing in kgacc calls these. Checkpoints resume by replaying
  /// steps (`CheckpointManager::Resume`), so no design serializes its
  /// state. They remain only because the benchmark's forwarding sampler
  /// (kgbench/harness.h) still overrides them.
  virtual void SaveState(ByteWriter* w) const { (void)w; }
  virtual Status LoadState(ByteReader* r) {
    (void)r;
    return Status::OK();
  }

  /// Creates an independent sampler of the same design bound to the same
  /// population, in freshly Reset() state. Implementations share their
  /// immutable precomputed structures (PPS alias tables, strata indexes)
  /// with the clone, so cloning is cheap — this is what lets
  /// `EvaluationService` give every concurrent job its own mutable sampler
  /// without re-paying the O(#clusters) setup. Never null.
  virtual std::unique_ptr<Sampler> Clone() const = 0;
};

}  // namespace kgacc

#endif  // KGACC_SAMPLING_SAMPLER_H_
