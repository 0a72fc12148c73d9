#ifndef KGACC_EVAL_ANNOTATOR_H_
#define KGACC_EVAL_ANNOTATOR_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>

#include "kgacc/kg/kg_view.h"
#include "kgacc/kg/knowledge_graph.h"
#include "kgacc/util/random.h"

/// \file annotator.h
/// Annotation oracles (phase 2 of the evaluation framework, Fig. 1). In
/// production these calls are manual judgments; the simulators replay the
/// population's gold labels, optionally through a noisy multi-annotator
/// model (the 3-5 annotators + aggregation setting discussed in §6.5).

namespace kgacc {

/// Produces a correctness judgment for one triple.
class Annotator {
 public:
  virtual ~Annotator() = default;

  /// Returns the judged label 1(t) for the triple at `ref`.
  virtual bool Annotate(const KgView& kg, const TripleRef& ref, Rng* rng) = 0;

  /// Judges one sampled unit's triples — `offsets` within `cluster`, the
  /// span layout of the flat `SampleBatch` — and returns how many were
  /// judged correct. The default loops `Annotate` in offset order (one
  /// virtual call per triple); simulation annotators on the service hot
  /// path override it with a tight loop. Overrides must consume the Rng
  /// exactly as the per-triple loop would, so both paths replay the same
  /// stochastic stream.
  virtual uint32_t AnnotateUnit(const KgView& kg, uint64_t cluster,
                                std::span<const uint64_t> offsets, Rng* rng) {
    uint32_t correct = 0;
    for (uint64_t offset : offsets) {
      correct += Annotate(kg, TripleRef{cluster, offset}, rng) ? 1 : 0;
    }
    return correct;
  }

  /// How many elementary human judgments one call consumes (1 for a single
  /// annotator, k for a k-way majority vote). Reported by the cost model
  /// extensions.
  virtual int JudgmentsPerTriple() const { return 1; }

  /// True when the annotator's durable layer downgraded to read-only
  /// operation (judgments still served, no longer persisted). Plain
  /// annotators have no durable layer and are never degraded; decorators
  /// like `StoredAnnotator` override this so sessions can surface the
  /// downgrade uniformly in `EvaluationResult` / rendered reports.
  virtual bool degraded() const { return false; }

  /// Human-readable cause of the degradation; empty when healthy.
  virtual std::string degradation_note() const { return {}; }

  /// Consumes exactly the Rng draws one `Annotate` call would, judging
  /// nothing. `StoredAnnotator` calls this on every store hit so a
  /// store-backed run of a *stochastic* simulation annotator follows a
  /// bitwise-identical random path to a bare run (and a replayed resume
  /// the path of the run that wrote the labels). The
  /// default is correct for every annotator that never touches the Rng
  /// (Oracle, Interactive); stochastic annotators must override it in
  /// lockstep with `Annotate`.
  virtual void BurnRngDraws(Rng* rng) { (void)rng; }
};

/// Reads the ground-truth label — a perfect annotator.
class OracleAnnotator final : public Annotator {
 public:
  bool Annotate(const KgView& kg, const TripleRef& ref, Rng* rng) override;
  /// One virtual call per unit instead of per triple; rng is untouched
  /// either way.
  uint32_t AnnotateUnit(const KgView& kg, uint64_t cluster,
                        std::span<const uint64_t> offsets, Rng* rng) override;
};

/// Flips the ground-truth label with probability `error_rate` (layman
/// annotator with imperfect quality).
class NoisyAnnotator final : public Annotator {
 public:
  explicit NoisyAnnotator(double error_rate);

  bool Annotate(const KgView& kg, const TripleRef& ref, Rng* rng) override;
  /// One Bernoulli (one raw word), matching Annotate's single error flip.
  void BurnRngDraws(Rng* rng) override;

  double error_rate() const { return error_rate_; }

 private:
  double error_rate_;
};

/// Aggregates an odd number of independent noisy judgments by majority
/// vote — the real-world protocol of the DBPEDIA dataset (§5).
class MajorityVoteAnnotator final : public Annotator {
 public:
  /// `num_annotators` must be odd and >= 1.
  MajorityVoteAnnotator(int num_annotators, double per_annotator_error_rate);

  bool Annotate(const KgView& kg, const TripleRef& ref, Rng* rng) override;
  int JudgmentsPerTriple() const override { return num_annotators_; }
  /// One draw per voter — Annotate always polls the full panel.
  void BurnRngDraws(Rng* rng) override;

 private:
  int num_annotators_;
  NoisyAnnotator worker_;
};

/// A genuine human-in-the-loop annotator: prints each sampled triple (when
/// the view is a materialized `KnowledgeGraph`, the actual subject /
/// predicate / object strings) and reads a y/n judgment from an input
/// stream. This is the annotator the `kgacc_audit` CLI uses in
/// `--annotator=human` mode; tests drive it with string streams.
class InteractiveAnnotator final : public Annotator {
 public:
  /// Judgments are read from `in`; prompts go to `out`. Both must outlive
  /// the annotator.
  InteractiveAnnotator(std::istream* in, std::ostream* out);

  /// Prompts for one triple. Accepts y/yes/1/n/no/0 (case-insensitive) and
  /// re-prompts on anything else; end-of-input defaults to "incorrect" so a
  /// truncated session fails conservative.
  bool Annotate(const KgView& kg, const TripleRef& ref, Rng* rng) override;

  /// Triples judged so far.
  int prompts_issued() const { return prompts_issued_; }

 private:
  std::istream* in_;
  std::ostream* out_;
  int prompts_issued_ = 0;
};

}  // namespace kgacc

#endif  // KGACC_EVAL_ANNOTATOR_H_
