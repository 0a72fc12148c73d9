#include "kgacc/sampling/sample.h"

#include "kgacc/util/check.h"
#include "kgacc/util/codec.h"

namespace kgacc {

void AnnotatedSample::SaveState(ByteWriter* w) const {
  w->PutBool(retain_units_);
  w->PutVarint(num_units_);
  w->PutVarint(num_triples_);
  w->PutVarint(num_correct_);
  w->PutVarint(units_.size());
  for (const AnnotatedUnit& unit : units_) {
    w->PutVarint(unit.cluster);
    w->PutVarint(unit.cluster_population);
    w->PutVarint(unit.stratum);
    w->PutVarint(unit.drawn);
    w->PutVarint(unit.correct);
  }
  SaveFlatSet64(entities_, w);
  SaveFlatSet64(triples_, w);
}

Status AnnotatedSample::LoadState(ByteReader* r) {
  Clear();
  KGACC_ASSIGN_OR_RETURN(retain_units_, r->Bool());
  KGACC_ASSIGN_OR_RETURN(num_units_, r->Varint());
  KGACC_ASSIGN_OR_RETURN(num_triples_, r->Varint());
  KGACC_ASSIGN_OR_RETURN(num_correct_, r->Varint());
  // A unit is five varints, each at least one byte.
  KGACC_ASSIGN_OR_RETURN(const uint64_t history, r->Count(5));
  units_.reserve(history);
  for (uint64_t i = 0; i < history; ++i) {
    AnnotatedUnit unit;
    KGACC_ASSIGN_OR_RETURN(unit.cluster, r->Varint());
    KGACC_ASSIGN_OR_RETURN(unit.cluster_population, r->Varint());
    KGACC_ASSIGN_OR_RETURN(const uint64_t stratum, r->Varint());
    KGACC_ASSIGN_OR_RETURN(const uint64_t drawn, r->Varint());
    KGACC_ASSIGN_OR_RETURN(const uint64_t correct, r->Varint());
    unit.stratum = static_cast<uint32_t>(stratum);
    unit.drawn = static_cast<uint32_t>(drawn);
    unit.correct = static_cast<uint32_t>(correct);
    units_.push_back(unit);
  }
  KGACC_RETURN_IF_ERROR(LoadFlatSet64(r, &entities_));
  KGACC_RETURN_IF_ERROR(LoadFlatSet64(r, &triples_));
  return Status::OK();
}

void AnnotatedSample::Clear() {
  units_.clear();
  retain_units_ = true;
  num_units_ = 0;
  num_triples_ = 0;
  num_correct_ = 0;
  entities_.clear();
  triples_.clear();
}

void AnnotatedSample::Add(const AnnotatedUnit& unit) {
  KGACC_DCHECK(unit.correct <= unit.drawn);
  if (retain_units_) units_.push_back(unit);
  ++num_units_;
  num_triples_ += unit.drawn;
  num_correct_ += unit.correct;
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
