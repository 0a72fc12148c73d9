#ifndef KGACC_KG_TRIPLE_H_
#define KGACC_KG_TRIPLE_H_

#include <cstdint>
#include <string>

/// \file triple.h
/// The (s, p, o) fact representation of §2.1. Inside the library triples are
/// referenced by (cluster, offset) coordinates — a cluster is the set of
/// triples sharing a subject entity (C_e in the paper) — which is the
/// granularity every sampling design and the cost model operate on.

namespace kgacc {

/// A fully materialized triple with interned vocabulary ids.
struct Triple {
  uint32_t subject = 0;    ///< Entity id (also the cluster key).
  uint32_t predicate = 0;  ///< Relationship id.
  uint32_t object = 0;     ///< Entity or attribute id.
};

/// Coordinates of one triple inside a clustered population: cluster index
/// and offset within that cluster. This is the unit the samplers return and
/// the annotators consume.
struct TripleRef {
  uint64_t cluster = 0;
  uint64_t offset = 0;

  friend bool operator==(const TripleRef& a, const TripleRef& b) {
    return a.cluster == b.cluster && a.offset == b.offset;
  }
};

}  // namespace kgacc

#endif  // KGACC_KG_TRIPLE_H_
