#include "kgacc/eval/cost_model.h"

namespace kgacc {

double AnnotationCostSeconds(const CostModel& model,
                             const AnnotatedSample& sample) {
  const double entities =
      static_cast<double>(sample.num_distinct_entities());
  const double triples = static_cast<double>(sample.num_distinct_triples());
  return entities * model.entity_identification_seconds +
         triples * model.fact_verification_seconds *
             static_cast<double>(model.annotators_per_triple);
}

}  // namespace kgacc
