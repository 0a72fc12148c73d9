#include "kgacc/eval/cost_model.h"

namespace kgacc {

double AnnotationCostSeconds(const AnnotatedSample& sample,
                             int annotators_per_triple) {
  const double entities =
      static_cast<double>(sample.num_distinct_entities());
  const double triples = static_cast<double>(sample.num_distinct_triples());
  return entities * kEntityIdentificationSeconds +
         triples * kFactVerificationSeconds *
             static_cast<double>(annotators_per_triple);
}

}  // namespace kgacc
