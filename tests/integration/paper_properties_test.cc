#include "kgacc/kgacc.h"

#include <cmath>
#include <initializer_list>
#include <tuple>

#include <gtest/gtest.h>

namespace kgacc {
namespace {

/// Statistical properties claimed by the paper, verified end to end with
/// modest replication counts (the full 1,000-rep protocol runs in bench/).

constexpr int kReps = 60;

ReplicationSummary Replicate(const KgView& kg, IntervalMethod method,
                             double alpha, uint64_t seed,
                             bool twcs = false, int m = 3) {
  OracleAnnotator annotator;
  EvaluationConfig config;
  config.method = method;
  config.alpha = alpha;
  if (twcs) {
    TwcsSampler sampler(kg, TwcsConfig{.second_stage_size = m});
    return *RunReplications(sampler, annotator, config, kReps, seed);
  }
  SrsSampler sampler(kg, SrsConfig{});
  return *RunReplications(sampler, annotator, config, kReps, seed);
}

TEST(PaperPropertiesTest, HpdBeatsEtOnSkewedAccuracy) {
  // Table 2 shape: fewer triples for HPD than ET at mu = 0.91.
  const auto kg = *MakeKg(NellProfile(), 1);
  OracleAnnotator annotator;

  EvaluationConfig et;
  et.method = IntervalMethod::kEqualTailed;
  et.priors = {KermanPrior()};
  SrsSampler s1(kg, SrsConfig{});
  const auto et_summary = *RunReplications(s1, annotator, et, kReps, 10);

  EvaluationConfig hpd;
  hpd.method = IntervalMethod::kHpd;
  hpd.priors = {KermanPrior()};
  SrsSampler s2(kg, SrsConfig{});
  const auto hpd_summary = *RunReplications(s2, annotator, hpd, kReps, 10);

  EXPECT_LE(hpd_summary.triples_summary.mean,
            et_summary.triples_summary.mean + 1.0);
}

TEST(PaperPropertiesTest, AhpdNeverWorseThanFixedPriorHpd) {
  // aHPD selects the shortest per-round interval, so its mean annotation
  // count cannot exceed a fixed-prior HPD by more than noise.
  const auto kg = *MakeKg(YagoProfile(), 2);
  OracleAnnotator annotator;

  for (const BetaPrior& prior : DefaultUninformativePriors()) {
    EvaluationConfig fixed;
    fixed.method = IntervalMethod::kHpd;
    fixed.priors = {prior};
    SrsSampler s1(kg, SrsConfig{});
    const auto fixed_summary =
        *RunReplications(s1, annotator, fixed, kReps, 20);

    EvaluationConfig adaptive;  // Default aHPD trio.
    SrsSampler s2(kg, SrsConfig{});
    const auto ahpd_summary =
        *RunReplications(s2, annotator, adaptive, kReps, 20);

    EXPECT_LE(ahpd_summary.triples_summary.mean,
              fixed_summary.triples_summary.mean + 1.0)
        << prior.name;
  }
}

TEST(PaperPropertiesTest, AhpdBeatsWilsonOnSkewedDatasets) {
  // Table 3 shape: aHPD needs fewer triples than Wilson when mu is skewed.
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    const auto kg = *MakeKg(YagoProfile(), seed);
    const auto wilson = Replicate(kg, IntervalMethod::kWilson, 0.05, 30);
    const auto ahpd = Replicate(kg, IntervalMethod::kAhpd, 0.05, 30);
    EXPECT_LT(ahpd.triples_summary.mean, wilson.triples_summary.mean)
        << "seed " << seed;
  }
}

TEST(PaperPropertiesTest, AhpdMatchesWilsonOnQuasiSymmetric) {
  // Table 3 / §6.3: at mu ~ 0.5 Wilson approximates the Uniform-prior ET
  // CrI and aHPD offers no further gains — but no losses either.
  const auto kg = *MakeKg(FactbenchProfile(), 3);
  const auto wilson = Replicate(kg, IntervalMethod::kWilson, 0.05, 40);
  const auto ahpd = Replicate(kg, IntervalMethod::kAhpd, 0.05, 40);
  EXPECT_NEAR(ahpd.triples_summary.mean, wilson.triples_summary.mean,
              0.03 * wilson.triples_summary.mean + 2.0);
}

TEST(PaperPropertiesTest, SymmetricAccuracyCostsAreSymmetric) {
  // §6.4: populations at mu and 1-mu need the same effort to audit.
  SyntheticKgConfig cfg;
  cfg.num_clusters = 3000;
  cfg.mean_cluster_size = 3.0;
  cfg.seed = 7;
  cfg.accuracy = 0.9;
  const auto hi = *SyntheticKg::Create(cfg);
  cfg.accuracy = 0.1;
  const auto lo = *SyntheticKg::Create(cfg);
  const auto hi_summary = Replicate(hi, IntervalMethod::kAhpd, 0.05, 50);
  const auto lo_summary = Replicate(lo, IntervalMethod::kAhpd, 0.05, 50);
  EXPECT_NEAR(hi_summary.triples_summary.mean, lo_summary.triples_summary.mean,
              0.15 * hi_summary.triples_summary.mean + 5.0);
}

TEST(PaperPropertiesTest, StricterAlphaNeedsMoreAnnotations) {
  // Fig. 4 shape: cost grows as alpha tightens, for every method.
  const auto kg = *MakeKg(NellProfile(), 4);
  const auto a10 = Replicate(kg, IntervalMethod::kAhpd, 0.10, 60);
  const auto a05 = Replicate(kg, IntervalMethod::kAhpd, 0.05, 60);
  const auto a01 = Replicate(kg, IntervalMethod::kAhpd, 0.01, 60);
  EXPECT_LT(a10.triples_summary.mean, a05.triples_summary.mean);
  EXPECT_LT(a05.triples_summary.mean, a01.triples_summary.mean);
}

TEST(PaperPropertiesTest, TwcsCostsLessPerTripleThanSrs) {
  // Table 3 economics: TWCS pays fewer entity identifications per triple.
  const auto kg = *MakeKg(DbpediaProfile(), 5);
  const auto srs = Replicate(kg, IntervalMethod::kAhpd, 0.05, 70, false);
  const auto twcs = Replicate(kg, IntervalMethod::kAhpd, 0.05, 70, true);
  const double srs_cost_per_triple =
      srs.cost_summary.mean / srs.triples_summary.mean;
  const double twcs_cost_per_triple =
      twcs.cost_summary.mean / twcs.triples_summary.mean;
  EXPECT_LT(twcs_cost_per_triple, srs_cost_per_triple);
}

TEST(PaperPropertiesTest, AhpdCoverageIsNominalPerDesign) {
  // The 1-alpha aHPD interval should contain the true accuracy in ~95% of
  // audits under every sampling design — the one-shot guarantee CIs cannot
  // give (§4), and the one an HPD solver change must not weaken. Each check
  // is one-sided and fails only below a binomial mean minus three standard
  // deviations (a ~0.13% false alarm rate per design). Two inputs:
  // * 400 fixed-size audits of 300 triples (the MoE target is unreachable)
  //   measure the interval itself, against nominal: Binomial(400, 0.95),
  //   so fewer than 367 covered fails.
  // * 1000 audits under the default stopping rule (epsilon = 0.05). Their
  //   floors are *measured, below nominal 0.95*: optional stopping costs
  //   every design coverage, the cluster designs most, and the gap is open
  //   (ROADMAP direction 5). They pin today's counts so a solver change
  //   cannot lower them unseen; they claim no nominal coverage.
  const auto kg = *MakeKg(DbpediaProfile(), 6);
  const double truth = kg.TrueAccuracy();
  OracleAnnotator annotator;
  EvaluationConfig fixed;  // aHPD, alpha = 0.05.
  fixed.moe_threshold = 1e-9;
  fixed.max_triples = 300;
  const EvaluationConfig stopped;
  const double stopped_covered[] = {911, 857, 921, 821};  // Of 1000.
  SrsSampler srs(kg, SrsConfig{});
  TwcsSampler twcs(kg, TwcsConfig{});
  StratifiedSampler ssrs(kg, StratifiedConfig{});
  RcsSampler rcs(kg, ClusterConfig{});
  Sampler* designs[] = {&srs, &twcs, &ssrs, &rcs};
  for (int d = 0; d < 4; ++d) {
    Sampler& sampler = *designs[d];
    for (const auto& [config, reps, p, stop] :
         {std::tuple{fixed, 400, 0.95, StopReason::kTripleCapReached},
          std::tuple{stopped, 1000, stopped_covered[d] / 1000,
                     StopReason::kConverged}}) {
      int covered = 0;
      for (int r = 0; r < reps; ++r) {
        const auto result = RunEvaluation(sampler, annotator, config, 9000 + r);
        ASSERT_TRUE(result.ok()) << sampler.name();
        EXPECT_EQ(result->stop_reason, stop);
        covered += result->interval.Contains(truth) ? 1 : 0;
      }
      EXPECT_GE(covered, reps * p - 3.0 * std::sqrt(reps * p * (1.0 - p)))
          << sampler.name() << ": " << covered << "/" << reps << " covered";
    }
  }
}

TEST(PaperPropertiesTest, WaldZeroWidthFrequencyOnNellLikeData) {
  // Example 1: on NELL (mu = 0.91) Wald halts with a zero-width interval
  // in a nontrivial fraction of runs (the paper observed 7%).
  const auto kg = *MakeKg(NellProfile(), 7);
  OracleAnnotator annotator;
  EvaluationConfig config;
  config.method = IntervalMethod::kWald;
  SrsSampler sampler(kg, SrsConfig{});
  const auto summary = *RunReplications(sampler, annotator, config, 200, 80);
  const double rate = summary.zero_width / 200.0;
  EXPECT_GT(rate, 0.005);
  EXPECT_LT(rate, 0.4);
}

TEST(PaperPropertiesTest, InformativePriorsCutCosts) {
  // Example 2: plugging (80,20) and (90,10) priors into aHPD on DBPEDIA
  // under TWCS converges with far fewer triples than the uninformative trio.
  const auto kg = *MakeKg(DbpediaProfile(), 8);
  OracleAnnotator annotator;

  EvaluationConfig informed;
  informed.priors = {*InformativePrior(0.80, 100.0),
                     *InformativePrior(0.90, 100.0)};
  TwcsSampler s1(kg, TwcsConfig{});
  const auto inf_summary = *RunReplications(s1, annotator, informed, kReps, 90);

  EvaluationConfig uninformed;  // Kerman/Jeffreys/Uniform.
  TwcsSampler s2(kg, TwcsConfig{});
  const auto uninf_summary =
      *RunReplications(s2, annotator, uninformed, kReps, 90);

  EXPECT_LT(inf_summary.triples_summary.mean,
            0.7 * uninf_summary.triples_summary.mean);
}

}  // namespace
}  // namespace kgacc
