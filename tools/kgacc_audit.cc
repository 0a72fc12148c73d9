// kgacc_audit — command-line KG accuracy auditing.
//
// Loads a labeled TSV knowledge graph (subject<TAB>predicate<TAB>object
// <TAB>label) and runs the paper's iterative evaluation framework with the
// chosen sampling design and interval method. In `--annotator=oracle` mode
// the file's labels are replayed (simulation / regression testing); in
// `--annotator=human` mode the tool prompts the analyst for each sampled
// triple on stdin — a genuine audit where the label column can be all
// zeros.
//
// With `--methods=a,b,...` the tool compares several interval methods on
// the same audit task in one parallel pass: one EvaluationService job per
// method (cloned samplers, shared population), reports in list order.
//
// With `--store=PATH` the audit becomes durable: every judgment is written
// to a write-ahead annotation log before the evaluation loop consumes it,
// and the session checkpoints itself into the same log (every
// `--checkpoint-every` steps). A killed audit restarted with `--resume`
// replays its checkpointed steps and then the steps since, reading their
// labels back from the store at zero oracle/human cost, and lands on the
// report the uninterrupted run would have produced, byte for byte. A
// later audit of the same KG pointed at the same store reuses every
// overlapping label.
//
// `--failpoints=SPEC` (or the KGACC_FAILPOINTS environment variable) arms
// deterministic fault injection for chaos testing; see failpoint.h for the
// grammar (`wal.sync=once;store.append=prob:0.25:seed:7`). Transient store
// failures are retried with bounded backoff; an exhausted budget degrades
// the audit to read-only persistence (`--store-errors=degrade`, the
// default) or aborts it (`--store-errors=fail`). `audit.kill=every:N`
// SIGKILLs a `--store` audit between its N-th step and that step's
// checkpoint, the crash a `--resume` run recovers from.
//
// Examples:
//   kgacc_audit --kg=facts.tsv
//   kgacc_audit --kg=facts.tsv --design=twcs --method=ahpd --alpha=0.01
//   kgacc_audit --kg=facts.tsv --methods=ahpd,wilson,cp --threads=4
//   kgacc_audit --kg=facts.tsv --annotator=human --json
//   kgacc_audit --kg=facts.tsv --store=audit.wal            # durable
//   kgacc_audit --kg=facts.tsv --store=audit.wal --resume   # after a crash
// With injected faults, a chaos run and a crash test:
//   kgacc_audit --kg=facts.tsv --store=a.wal --failpoints=store.append=every:5
//   kgacc_audit --kg=facts.tsv --store=a.wal --failpoints=audit.kill=every:5

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "kgacc/eval/report.h"
#include "kgacc/kgacc.h"
#include "kgacc/net/server.h"
#include "kgacc/util/arg_parser.h"

namespace {

using namespace kgacc;

ArgParser BuildParser() {
  ArgParser parser;
  parser.AddFlag("kg", "path to the labeled TSV knowledge graph (required)")
      .AddFlag("design",
               "sampling design: srs|twcs|wcs|rcs|ssrs|sys (default srs)")
      .AddFlag("method",
               "interval method: ahpd|hpd|et|wilson|wald|cp (default ahpd)")
      .AddFlag("methods",
               "comma-separated method list; compares them in one parallel "
               "EvaluationService pass (oracle annotator only)")
      .AddFlag("threads",
               "worker threads for --methods (default: hardware)")
      .AddFlag("alpha", "significance level (default 0.05)")
      .AddFlag("epsilon", "margin-of-error budget (default 0.05)")
      .AddFlag("m", "TWCS second-stage size (default 3)")
      .AddFlag("seed", "random seed (default 42)")
      .AddFlag("budget-hours", "manual-effort budget in hours (0 = none)")
      .AddFlag("annotator", "oracle|human (default oracle)")
      .AddFlag("prior",
               "extra informative prior as accuracy:weight, its Beta "
               "a + b at most 1e9 (repeatable via comma list)")
      .AddFlag("fpc", "apply the finite-population correction (srs only)")
      .AddFlag("json", "emit a JSON record instead of the text report")
      .AddFlag("plan",
               "forecast the audit instead of running it (needs --mu-guess)")
      .AddFlag("mu-guess", "anticipated accuracy for --plan (default 0.8)")
      .AddFlag("store",
               "write-ahead annotation store path; labels are durable and "
               "reused across audits of this KG")
      .AddFlag("resume",
               "resume from the store's last checkpoint for this audit id")
      .AddFlag("audit-id",
               "audit identity inside the store (default: the seed)")
      .AddFlag("checkpoint-every",
               "checkpoint cadence in steps (default 1)")
      .AddFlag("failpoints",
               "fault-injection spec, name=policy;... with policy off|once|"
               "times:N|every:N|prob:P[:seed:S]|sleep:MS (also read from "
               "KGACC_FAILPOINTS)")
      .AddFlag("compact",
               "compact the store after the audit: rewrite live labels and "
               "the latest checkpoints into a fresh log, reclaiming "
               "superseded frames")
      .AddFlag("compact-threshold",
               "auto-compact once this fraction of the store log is garbage "
               "(default 0 = off)")
      .AddFlag("store-errors",
               "exhausted store-write retries: degrade (read-only "
               "persistence, audit continues) or fail (default degrade)")
      .AddFlag("help", "show this help");
  return parser;
}

std::vector<std::string> SplitCsv(const std::string& spec) {
  std::vector<std::string> items;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    if (end > start) items.push_back(spec.substr(start, end - start));
    start = end + 1;
  }
  return items;
}

Result<std::vector<BetaPrior>> ParseExtraPriors(const std::string& spec) {
  std::vector<BetaPrior> priors;
  for (const std::string& item : SplitCsv(spec)) {
    const size_t colon = item.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument(
          "prior must be accuracy:weight, got '" + item + "'");
    }
    const double accuracy = std::atof(item.substr(0, colon).c_str());
    const double weight = std::atof(item.substr(colon + 1).c_str());
    KGACC_ASSIGN_OR_RETURN(BetaPrior prior,
                           InformativePrior(accuracy, weight));
    priors.push_back(std::move(prior));
  }
  return priors;
}

Result<std::vector<IntervalMethod>> ParseMethodList(const std::string& spec) {
  std::vector<IntervalMethod> methods;
  for (const std::string& item : SplitCsv(spec)) {
    KGACC_ASSIGN_OR_RETURN(const IntervalMethod method,
                           ParseIntervalMethod(item));
    methods.push_back(method);
  }
  if (methods.empty()) {
    return Status::InvalidArgument("--methods lists no methods");
  }
  return methods;
}

int RunMain(int argc, char** argv) {
  const ArgParser parser = BuildParser();
  const auto parsed = parser.Parse(argc - 1, argv + 1);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.status().ToString().c_str(),
                 parser.HelpText().c_str());
    return 2;
  }
  if (parsed->Has("help")) {
    std::printf("%s", parser.HelpText().c_str());
    return 0;
  }

  // Fault injection arms before anything touches the store, so even the
  // opening replay runs under the schedule. The flag wins over the
  // environment (a CI matrix sets the env; a shell overrides per run).
  std::string failpoints = parsed->GetString("failpoints");
  if (failpoints.empty()) {
    const char* env = std::getenv("KGACC_FAILPOINTS");
    if (env != nullptr) failpoints = env;
  }
  if (!failpoints.empty()) {
    const Status armed = FailpointRegistry::Instance().Arm(failpoints);
    if (!armed.ok()) {
      std::fprintf(stderr, "bad --failpoints: %s\n",
                   armed.ToString().c_str());
      return 2;
    }
    std::fprintf(stderr, "[failpoints] armed: %s\n", failpoints.c_str());
  }

  const std::string kg_path = parsed->GetString("kg");
  if (kg_path.empty()) {
    std::fprintf(stderr, "--kg is required\n%s", parser.HelpText().c_str());
    return 2;
  }

  const auto kg = LoadKgFromTsv(kg_path);
  if (!kg.ok()) {
    std::fprintf(stderr, "failed to load KG: %s\n",
                 kg.status().ToString().c_str());
    return 1;
  }

  EvaluationConfig config;
  const auto method = ParseIntervalMethod(parsed->GetString("method", "ahpd"));
  if (!method.ok()) {
    std::fprintf(stderr, "%s\n", method.status().ToString().c_str());
    return 2;
  }
  config.method = *method;
  const auto alpha = parsed->GetDouble("alpha", 0.05);
  const auto epsilon = parsed->GetDouble("epsilon", 0.05);
  // MakeSamplerForDesign checks m against the design.
  const auto m = parsed->GetInt("m", 3, 0, INT_MAX);
  const auto seed = parsed->GetInt("seed", 42, 0, INT64_MAX);
  const auto budget = parsed->GetDouble("budget-hours", 0.0);
  const auto fpc = parsed->GetBool("fpc", false);
  const auto json = parsed->GetBool("json", false);
  for (const Status& s :
       {alpha.status(), epsilon.status(), m.status(), seed.status(),
        budget.status(), fpc.status(), json.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 2;
    }
  }
  config.alpha = *alpha;
  config.moe_threshold = *epsilon;
  config.max_cost_seconds = *budget * 3600.0;
  config.finite_population_correction = *fpc;
  if (parsed->Has("prior")) {
    const auto extra = ParseExtraPriors(parsed->GetString("prior"));
    if (!extra.ok()) {
      std::fprintf(stderr, "%s\n", extra.status().ToString().c_str());
      return 2;
    }
    for (const BetaPrior& p : *extra) config.priors.push_back(p);
  }

  // Plan and audit alike reject an unknown design or a bad TWCS m here.
  const std::string design = parsed->GetString("design", "srs");
  auto built = MakeSamplerForDesign(*kg, design, static_cast<uint64_t>(*m),
                                    /*srs_without_replacement=*/*fpc);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 2;
  }
  const std::unique_ptr<Sampler> sampler = std::move(built).value();

  if (parsed->GetBool("plan", false).value_or(false)) {
    // Forecast mode: no annotations spent. Entity sharing depends on the
    // design (TWCS amortizes identification across the second stage).
    const auto mu_guess = parsed->GetDouble("mu-guess", 0.8);
    if (!mu_guess.ok()) {
      std::fprintf(stderr, "%s\n", mu_guess.status().ToString().c_str());
      return 2;
    }
    const double avg_cluster =
        static_cast<double>(kg->num_triples()) /
        static_cast<double>(kg->num_clusters());
    const double entities_per_triple =
        design == "twcs"
            ? 1.0 / std::min<double>(static_cast<double>(*m),
                                     std::max(1.0, avg_cluster))
            : 1.0;
    const auto plan =
        PlanAhpdAudit(config.priors, *mu_guess, config.alpha,
                      config.moe_threshold, 0.0, 0.0, entities_per_triple);
    if (!plan.ok()) {
      std::fprintf(stderr, "planning failed: %s\n",
                   plan.status().ToString().c_str());
      return 1;
    }
    const auto wilson_n = WilsonRequiredSampleSize(*mu_guess, config.alpha,
                                                   config.moe_threshold);
    std::printf("Audit forecast for %s (anticipated accuracy %.2f, "
                "alpha=%.2f, eps=%.3f):\n", kg_path.c_str(), *mu_guess,
                config.alpha, config.moe_threshold);
    std::printf("  aHPD under %s: ~%llu annotations, ~%.2f h of manual "
                "effort\n", design.c_str(),
                static_cast<unsigned long long>(plan->total_triples),
                plan->additional_cost_hours);
    if (wilson_n.ok()) {
      std::printf("  Wilson baseline would need ~%llu annotations\n",
                  static_cast<unsigned long long>(*wilson_n));
    }
    return 0;
  }

  std::unique_ptr<Annotator> annotator;
  const std::string annotator_name = parsed->GetString("annotator", "oracle");
  if (annotator_name == "oracle") {
    annotator = std::make_unique<OracleAnnotator>();
  } else if (annotator_name == "human") {
    annotator = std::make_unique<InteractiveAnnotator>(&std::cin, &std::cout);
  } else {
    std::fprintf(stderr, "unknown annotator: %s\n", annotator_name.c_str());
    return 2;
  }

  ReportContext context;
  context.dataset_name = kg_path;
  context.design_name = sampler->name();

  if (parsed->Has("methods")) {
    // Multi-method comparison: one EvaluationService job per method, all
    // executed in a single parallel pass over cloned samplers.
    if (parsed->Has("store")) {
      std::fprintf(stderr, "--store is single-audit (the annotation store "
                   "is not shared between concurrent jobs); drop --methods "
                   "or run the methods sequentially against the same "
                   "store\n");
      return 2;
    }
    if (annotator_name != "oracle") {
      std::fprintf(stderr, "--methods requires --annotator=oracle (human "
                   "judgments cannot fan out in parallel)\n");
      return 2;
    }
    const auto methods = ParseMethodList(parsed->GetString("methods"));
    if (!methods.ok()) {
      std::fprintf(stderr, "%s\n", methods.status().ToString().c_str());
      return 2;
    }
    const auto threads = parsed->GetInt("threads", 0, 0, INT_MAX);
    if (!threads.ok()) {
      std::fprintf(stderr, "%s\n", threads.status().ToString().c_str());
      return 2;
    }
    EvaluationService service(EvaluationService::Options{
        .num_threads = static_cast<int>(*threads)});
    std::vector<EvaluationJob> jobs;
    for (const IntervalMethod method : *methods) {
      EvaluationJob job;
      job.sampler = sampler.get();
      job.annotator = annotator.get();
      job.config = config;
      job.config.method = method;
      job.seed = static_cast<uint64_t>(*seed);
      job.label = IntervalMethodName(method);
      jobs.push_back(std::move(job));
    }
    const EvaluationBatchResult batch = service.RunBatch(jobs);
    bool all_converged = true;
    size_t json_records = 0;
    if (*json) std::printf("[");  // One parseable array, not N documents.
    for (size_t i = 0; i < batch.outcomes.size(); ++i) {
      const EvaluationJobOutcome& outcome = batch.outcomes[i];
      if (!outcome.status.ok()) {
        std::fprintf(stderr, "[%s] evaluation failed: %s\n",
                     outcome.label.c_str(),
                     outcome.status.ToString().c_str());
        all_converged = false;
        continue;
      }
      all_converged = all_converged && outcome.result.converged;
      if (*json) {
        std::printf("%s\n%s", json_records == 0 ? "" : ",",
                    RenderJsonReport(context, jobs[i].config,
                                     outcome.result).c_str());
        ++json_records;
      } else {
        std::printf("=== %s ===\n%s\n", outcome.label.c_str(),
                    RenderTextReport(context, jobs[i].config,
                                     outcome.result).c_str());
      }
    }
    if (*json) {
      std::printf("%s]\n", json_records == 0 ? "" : "\n");
    } else {
      std::printf("[service] %zu audits, %d threads, %.2fs wall, "
                  "%.1f audits/s, %.0f triples/s\n", batch.stats.jobs,
                  batch.stats.num_threads, batch.stats.wall_seconds,
                  batch.stats.audits_per_second,
                  batch.stats.triples_per_second);
    }
    return all_converged ? 0 : 3;
  }

  if (parsed->Has("store")) {
    // Durable audit: labels flow through the write-ahead annotation store
    // and the session checkpoints itself into the same log.
    const auto audit_id = parsed->GetInt("audit-id", *seed, 0, INT64_MAX);
    const auto every = parsed->GetInt("checkpoint-every", 1, 1, INT64_MAX);
    const auto resume = parsed->GetBool("resume", false);
    const auto compact_threshold =
        parsed->GetDouble("compact-threshold", 0.0);
    for (const Status& s : {audit_id.status(), every.status(),
                            resume.status(), compact_threshold.status()}) {
      if (!s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 2;
      }
    }
    // The CLI opts into fsynced checkpoint frames: a tool whose whole job
    // is surviving kill -9 should not leave its resume points in the page
    // cache. (Annotation records are flushed per append either way.)
    AnnotationStore::Options store_open_options;
    store_open_options.sync_checkpoints = true;
    store_open_options.auto_compact_garbage_ratio = *compact_threshold;
    if (*compact_threshold > 0.0) {
      // CLI-scale stores are small; let auto-compaction actually trigger.
      store_open_options.auto_compact_min_bytes = 1 << 12;
    }
    auto store =
        AnnotationStore::Open(parsed->GetString("store"), store_open_options);
    if (!store.ok()) {
      std::fprintf(stderr, "cannot open annotation store: %s\n",
                   store.status().ToString().c_str());
      return 1;
    }
    if ((*store)->stats().recovery.truncated_tail) {
      std::fprintf(stderr,
                   "[store] discarded %llu torn/corrupt tail bytes; "
                   "recovered to the last consistent frame\n",
                   static_cast<unsigned long long>(
                       (*store)->stats().recovery.bytes_discarded));
    }
    const std::string store_errors =
        parsed->GetString("store-errors", "degrade");
    if (store_errors != "degrade" && store_errors != "fail") {
      std::fprintf(stderr, "--store-errors must be degrade or fail, got "
                   "'%s'\n", store_errors.c_str());
      return 2;
    }
    DurableAudit audit(
        *sampler, annotator.get(), store->get(),
        static_cast<uint64_t>(*audit_id), config,
        static_cast<uint64_t>(*seed),
        DurableAudit::Options{
            .checkpoint_every = static_cast<uint64_t>(*every),
            .on_store_error = store_errors == "fail"
                                  ? StoreErrorPolicy::kFail
                                  : StoreErrorPolicy::kDegrade});
    if (*resume && audit.checkpoints().CanResume()) {
      const Status restored = audit.Resume();
      if (!restored.ok()) {
        std::fprintf(stderr, "cannot resume: %s\n",
                     restored.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "[store] resumed at step %d (%llu labels on "
                   "file)\n", audit.session().iterations(),
                   static_cast<unsigned long long>((*store)->num_labeled()));
    }
    while (!audit.session().done()) {
      const auto outcome = audit.Step();
      if (!outcome.ok()) {
        std::fprintf(stderr, "%s\n", outcome.status().message().c_str());
        return 1;
      }
    }
    const auto result = audit.session().Finish();
    if (!result.ok()) {
      std::fprintf(stderr, "evaluation failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const StoredAnnotator& stored = audit.annotator();
    if (stored.degraded()) {
      std::fprintf(stderr,
                   "[store] DEGRADED: persistence stopped after retries "
                   "(%s); %llu labels served but not stored — a resumed run "
                   "re-judges them\n",
                   stored.degraded_cause().ToString().c_str(),
                   static_cast<unsigned long long>(stored.labels_dropped()));
    }
    if (audit.checkpoints().degraded()) {
      std::fprintf(stderr,
                   "[store] DEGRADED: checkpointing stopped after retries "
                   "(%s); recovery recomputes from the last good snapshot\n",
                   audit.checkpoints().degraded_cause().ToString().c_str());
    }
    if (*json) {
      std::printf("%s\n", RenderJsonReport(context, config, *result).c_str());
    } else {
      std::printf("%s", RenderTextReport(context, config, *result).c_str());
      std::printf("[store] %s: %llu labels on file, %llu served from store, "
                  "%llu new oracle judgments, %llu checkpoints this run, "
                  "%llu write retries%s\n",
                  (*store)->path().c_str(),
                  static_cast<unsigned long long>((*store)->num_labeled()),
                  static_cast<unsigned long long>(stored.store_hits()),
                  static_cast<unsigned long long>(stored.oracle_calls()),
                  static_cast<unsigned long long>(
                      audit.checkpoints().checkpoints_written()),
                  static_cast<unsigned long long>(audit.retries()),
                  audit.degraded() ? ", DEGRADED" : "");
    }
    if (parsed->Has("compact")) {
      const unsigned long long before = (*store)->file_bytes();
      const Status compacted = (*store)->Compact();
      if (!compacted.ok()) {
        std::fprintf(stderr, "compaction failed: %s\n",
                     compacted.ToString().c_str());
        return 1;
      }
      const CompactionStats cs = (*store)->compaction_stats();
      std::fprintf(stderr,
                   "[store] compacted: %llu -> %llu bytes (%llu live "
                   "records, %llu checkpoints kept)\n",
                   before,
                   static_cast<unsigned long long>(cs.last_bytes_after),
                   static_cast<unsigned long long>(cs.last_records),
                   static_cast<unsigned long long>(cs.last_checkpoints));
    } else if ((*store)->compaction_stats().auto_compactions > 0) {
      const CompactionStats cs = (*store)->compaction_stats();
      std::fprintf(stderr,
                   "[store] auto-compacted %llu time(s); log now %llu "
                   "bytes\n",
                   static_cast<unsigned long long>(cs.auto_compactions),
                   static_cast<unsigned long long>((*store)->file_bytes()));
    }
    return result->converged ? 0 : 3;
  }

  const auto result = RunEvaluation(*sampler, *annotator, config,
                                    static_cast<uint64_t>(*seed));
  if (!result.ok()) {
    std::fprintf(stderr, "evaluation failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  if (*json) {
    std::printf("%s\n", RenderJsonReport(context, config, *result).c_str());
  } else {
    std::printf("%s", RenderTextReport(context, config, *result).c_str());
  }
  return result->converged ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) { return RunMain(argc, argv); }
