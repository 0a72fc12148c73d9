#ifndef KGACC_EVAL_COST_MODEL_H_
#define KGACC_EVAL_COST_MODEL_H_

#include "kgacc/sampling/sample.h"

/// \file cost_model.h
/// The annotation cost function of Eq. 12 (Gao et al., adopted by the
/// paper): cost(G_S) = |E_S| * c1 + |T_S| * c2, where identifying an entity
/// (c1 = 45 s) is paid once per *distinct* entity and verifying a fact
/// (c2 = 25 s) once per *distinct* triple. This is what makes cluster
/// sampling cheaper per annotated triple than SRS.

namespace kgacc {

/// c1: average seconds to link an entity to its real-world concept.
inline constexpr double kEntityIdentificationSeconds = 45.0;
/// c2: average seconds to collect evidence for and audit one fact.
inline constexpr double kFactVerificationSeconds = 25.0;

/// Total manual effort for `sample` in seconds (divide by 3600 for the
/// hours of Tables 3-4 and Fig. 4). `annotators_per_triple` judgments are
/// collected per triple: multi-annotator protocols multiply the
/// verification effort, and 1 reproduces the paper's single-annotator
/// cost.
double AnnotationCostSeconds(const AnnotatedSample& sample,
                             int annotators_per_triple);

}  // namespace kgacc

#endif  // KGACC_EVAL_COST_MODEL_H_
