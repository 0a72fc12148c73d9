#include "kgacc/sampling/sample.h"

#include "kgacc/util/check.h"

namespace kgacc {

void AnnotatedSample::Clear() {
  entities_.clear();
  triples_.clear();
}

uint64_t AnnotatedSample::TripleKey(const TripleRef& ref) {
  // Clusters stay far below 2^40 and offsets below 2^24 in every supported
  // population (SYN 100M: 5M clusters, geometric sizes).
  KGACC_DCHECK(ref.offset < (uint64_t{1} << 24));
  KGACC_DCHECK(ref.cluster < (uint64_t{1} << 40));
  return (ref.cluster << 24) | ref.offset;
}

bool AnnotatedSample::MarkAnnotated(const TripleRef& ref) {
  entities_.insert(ref.cluster);
  return triples_.insert(TripleKey(ref));
}

}  // namespace kgacc
