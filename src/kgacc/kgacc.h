#ifndef KGACC_KGACC_H_
#define KGACC_KGACC_H_

/// \file kgacc.h
/// Umbrella header for the kgacc library — credible intervals for knowledge
/// graph accuracy estimation (Marchesin & Silvello, SIGMOD 2025).
///
/// Quickstart:
///
///     #include "kgacc/kgacc.h"
///
///     kgacc::KnowledgeGraph kg = ...;          // or SyntheticKg / TSV load
///     kgacc::TwcsSampler sampler(kg, {});      // TWCS, m = 3
///     kgacc::OracleAnnotator annotator;        // or your human loop
///     kgacc::EvaluationConfig config;          // aHPD, alpha = eps = 0.05
///     auto result = kgacc::RunEvaluation(sampler, annotator, config, seed);
///     // result->mu, result->interval, result->cost_hours ...

#include "kgacc/estimate/accumulator.h"
#include "kgacc/estimate/design_effect.h"
#include "kgacc/eval/annotator.h"
#include "kgacc/eval/cost_model.h"
#include "kgacc/eval/evaluator.h"
#include "kgacc/eval/planning.h"
#include "kgacc/eval/report.h"
#include "kgacc/eval/service.h"
#include "kgacc/eval/session.h"
#include "kgacc/intervals/ahpd.h"
#include "kgacc/intervals/credible.h"
#include "kgacc/intervals/frequentist.h"
#include "kgacc/intervals/interval.h"
#include "kgacc/intervals/priors.h"
#include "kgacc/kg/kg_view.h"
#include "kgacc/kg/knowledge_graph.h"
#include "kgacc/kg/kg_stats.h"
#include "kgacc/kg/profiles.h"
#include "kgacc/kg/synthetic.h"
#include "kgacc/kg/triple.h"
#include "kgacc/kg/tsv_loader.h"
#include "kgacc/math/beta.h"
#include "kgacc/math/binomial.h"
#include "kgacc/math/normal.h"
#include "kgacc/math/special.h"
#include "kgacc/math/student_t.h"
#include "kgacc/opt/brent.h"
#include "kgacc/sampling/cluster.h"
#include "kgacc/sampling/sample.h"
#include "kgacc/sampling/sampler.h"
#include "kgacc/sampling/srs.h"
#include "kgacc/sampling/stratified.h"
#include "kgacc/sampling/systematic.h"
#include "kgacc/store/annotation_store.h"
#include "kgacc/store/checkpoint.h"
#include "kgacc/store/wal.h"
#include "kgacc/stats/descriptive.h"
#include "kgacc/stats/replication.h"
#include "kgacc/stats/ttest.h"
#include "kgacc/util/arg_parser.h"
#include "kgacc/util/backoff.h"
#include "kgacc/util/codec.h"
#include "kgacc/util/failpoint.h"
#include "kgacc/util/flat_set.h"
#include "kgacc/util/random.h"
#include "kgacc/util/thread_pool.h"
#include "kgacc/util/status.h"

#endif  // KGACC_KGACC_H_
