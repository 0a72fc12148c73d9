#ifndef KGACC_ESTIMATE_DESIGN_EFFECT_H_
#define KGACC_ESTIMATE_DESIGN_EFFECT_H_

#include "kgacc/estimate/accumulator.h"

/// \file design_effect.h
/// Kish design-effect machinery (Kish 1965/1995), applied exactly as in
/// Marchesin & Silvello VLDB'24 and Algorithm 1 lines 11-13: when a complex
/// design (TWCS) is in play, the interval constructors — Wilson and the
/// beta-posterior CrIs — receive an *effective* sample (n_eff, tau_eff)
/// whose SRS variance matches the design's estimated variance.

namespace kgacc {

/// Effective SRS-equivalent sample for a complex-design estimate.
struct EffectiveSample {
  /// Design effect deff = V_design / V_srs.
  double deff = 1.0;
  /// Effective sample size n / deff.
  double n_eff = 0.0;
  /// Effective correct count mu * n_eff.
  double tau_eff = 0.0;
};

/// Lower clamp for deff: protects against pathological near-zero variance
/// estimates in early iterations inflating n_eff without bound.
inline constexpr double kMinDesignEffect = 0.25;
/// Upper clamp, symmetric protection for tiny samples.
inline constexpr double kMaxDesignEffect = 20.0;

/// Computes the effective sample for `estimate`, with deff clamped to
/// [kMinDesignEffect, kMaxDesignEffect]. Falls back to deff = 1 when the
/// SRS reference variance mu(1-mu)/n is zero (degenerate all-correct /
/// all-incorrect samples) or fewer than two first-stage units have been
/// observed.
EffectiveSample ComputeEffectiveSample(const AccuracyEstimate& estimate);

}  // namespace kgacc

#endif  // KGACC_ESTIMATE_DESIGN_EFFECT_H_
