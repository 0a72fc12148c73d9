// Golden end-to-end audits: one seeded run per sampling design under aHPD
// and under Wilson on a fixed synthetic KG, each pinned field for field.
// The doubles are exact bit patterns (hex literals), so any change to the
// units a session feeds its estimator, to the estimator itself, or to the
// interval solvers shows up here as a mismatch in a named audit.

#include <memory>
#include <string>
#include <vector>

#include "kgacc/eval/session.h"
#include "kgacc/kg/synthetic.h"
#include "kgacc/math/special.h"
#include "kgacc/sampling/cluster.h"
#include "kgacc/sampling/srs.h"
#include "kgacc/sampling/stratified.h"
#include "kgacc/sampling/systematic.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

struct GoldenAudit {
  const char* design;
  IntervalMethod method;
  double mu;
  double lower;
  double upper;
  double deff;
  uint64_t annotated_triples;
  uint64_t distinct_triples;
  int iterations;
  size_t winning_prior;
};

// Captured from a run of the audits below; regenerate only for a change
// that is meant to alter audit results, and say why in the change log.
constexpr GoldenAudit kGolden[] = {
    {"srs", IntervalMethod::kAhpd,
     0x1.7f1e0387f1e04p-1, 0x1.648eb163c3c5ap-1, 0x1.977379e5f7241p-1,
     0x1p+0, 290, 287, 29, 2},
    {"srs", IntervalMethod::kWilson,
     0x1.7f1e0387f1e04p-1, 0x1.63fe78f70a8f9p-1, 0x1.96eab239e3a3bp-1,
     0x1p+0, 290, 287, 29, 0},
    {"twcs", IntervalMethod::kAhpd,
     0x1.a8fe53a8fe53ap-1, 0x1.8e77fc2060634p-1, 0x1.c196afb4ec5b8p-1,
     0x1.530c10b8be1c1p+0, 284, 276, 34, 0},
    {"twcs", IntervalMethod::kWilson,
     0x1.ab7ab7ab7ab7ap-1, 0x1.8f6b1405dcf5bp-1, 0x1.c1a362e890db3p-1,
     0x1.54c0cf884a81bp+0, 292, 281, 35, 0},
    {"wcs", IntervalMethod::kAhpd,
     0x1.870b3abc88e97p-1, 0x1.6c7bf19953a72p-1, 0x1.9f281b479eaf9p-1,
     0x1.64c0baa72fc3ep+1, 781, 755, 51, 2},
    {"wcs", IntervalMethod::kWilson,
     0x1.870b3abc88e97p-1, 0x1.6bdc456e79d6fp-1, 0x1.9e9323990c69bp-1,
     0x1.64c0baa72fc3ep+1, 781, 755, 51, 0},
    {"rcs", IntervalMethod::kAhpd,
     0x1.7d91d2a2067b2p-1, 0x1.62e8e5a2092b1p-1, 0x1.960747d21e7eap-1,
     0x1.173af96bdd7cp+1, 632, 605, 79, 2},
    {"rcs", IntervalMethod::kWilson,
     0x1.7d91d2a2067b2p-1, 0x1.625a7e15e26a5p-1, 0x1.957fd318342a9p-1,
     0x1.173af96bdd7cp+1, 632, 605, 79, 0},
    {"ssrs", IntervalMethod::kAhpd,
     0x1.b03bd4df8beffp-1, 0x1.95909ab1dab76p-1, 0x1.c8bc3496c9cedp-1,
     0x1.ff83062fbd19ap-1, 199, 194, 20, 0},
    {"ssrs", IntervalMethod::kWilson,
     0x1.acb351572d5d4p-1, 0x1.9000dab34e41ap-1, 0x1.c329ae052bba4p-1,
     0x1.0008c55d72bf3p+0, 209, 204, 21, 0},
    {"sys", IntervalMethod::kAhpd,
     0x1.999999999999ap-1, 0x1.7f997f2caad5ap-1, 0x1.b218c9f7e950ep-1,
     0x1p+0, 250, 250, 25, 0},
    {"sys", IntervalMethod::kWilson,
     0x1.999999999999ap-1, 0x1.7df97b8f876a4p-1, 0x1.b0939613f98e4p-1,
     0x1p+0, 250, 250, 25, 0},
};

// Moderate intra-cluster correlation, so the cluster designs carry a
// design effect above 1 and their variance estimators matter.
const SyntheticKg& GoldenKg() {
  static const SyntheticKg* kg = [] {
    SyntheticKgConfig cfg;
    cfg.num_clusters = 3000;
    cfg.mean_cluster_size = 4.0;
    cfg.accuracy = 0.8;
    cfg.label_model = LabelModel::kBetaMixture;
    cfg.intra_cluster_rho = 0.2;
    cfg.seed = 2024;
    return new SyntheticKg(*SyntheticKg::Create(cfg));
  }();
  return *kg;
}

std::unique_ptr<Sampler> MakeSampler(const std::string& design) {
  const SyntheticKg& kg = GoldenKg();
  if (design == "srs") return std::make_unique<SrsSampler>(kg, SrsConfig{});
  if (design == "twcs") {
    return std::make_unique<TwcsSampler>(kg, TwcsConfig{});
  }
  if (design == "wcs") {
    return std::make_unique<WcsSampler>(kg, ClusterConfig{});
  }
  if (design == "rcs") {
    return std::make_unique<RcsSampler>(kg, ClusterConfig{});
  }
  if (design == "ssrs") {
    return std::make_unique<StratifiedSampler>(kg, StratifiedConfig{});
  }
  return std::make_unique<SystematicSampler>(kg, SystematicConfig{});
}

TEST(GoldenAuditTest, EveryDesignAndMethodReproducesItsPinnedAudit) {
  ASSERT_EQ(std::size(kGolden), 12u);
  for (const GoldenAudit& want : kGolden) {
    SCOPED_TRACE(std::string(want.design) + " / " +
                 IntervalMethodName(want.method));
    std::unique_ptr<Sampler> sampler = MakeSampler(want.design);
    OracleAnnotator oracle;
    EvaluationConfig config;
    config.method = want.method;
    EvaluationSession session(*sampler, oracle, config, 11);
    const auto got = session.Run();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->mu, want.mu);
    EXPECT_EQ(got->interval.lower, want.lower);
    EXPECT_EQ(got->interval.upper, want.upper);
    EXPECT_EQ(got->deff, want.deff);
    EXPECT_EQ(got->annotated_triples, want.annotated_triples);
    EXPECT_EQ(got->distinct_triples, want.distinct_triples);
    EXPECT_EQ(got->iterations, want.iterations);
    EXPECT_EQ(got->winning_prior, want.winning_prior);
  }
}

// The incomplete-beta kernel work behind each audit in `kGolden`, in the
// same order: calls and continued-fraction iterations. They pin the kernel
// path as the hex values pin its results, so a change that must leave both
// alone (two lanes in one loop instead of two scalar calls, say) is seen
// to do so. Captured with the scalar kernel; Wilson audits make no call.
struct GoldenKernelWork {
  uint64_t calls;
  uint64_t cf_iterations;
};

constexpr GoldenKernelWork kGoldenKernelWork[] = {
    {728, 9502},  {0, 0}, {842, 9965},  {0, 0}, {1299, 16824}, {0, 0},
    {1871, 26569}, {0, 0}, {600, 6004}, {0, 0}, {644, 7637},   {0, 0},
};

TEST(GoldenAuditTest, EveryAuditSpendsItsPinnedKernelWork) {
  ASSERT_EQ(std::size(kGoldenKernelWork), std::size(kGolden));
  for (size_t i = 0; i < std::size(kGolden); ++i) {
    const GoldenAudit& audit = kGolden[i];
    SCOPED_TRACE(std::string(audit.design) + " / " +
                 IntervalMethodName(audit.method));
    std::unique_ptr<Sampler> sampler = MakeSampler(audit.design);
    OracleAnnotator oracle;
    EvaluationConfig config;
    config.method = audit.method;
    EvaluationSession session(*sampler, oracle, config, 11);
    ResetThreadBetaKernelStats();
    ASSERT_TRUE(session.Run().ok());
    const BetaKernelStats kernel = ThreadBetaKernelStatsSnapshot();
    EXPECT_EQ(kernel.calls, kGoldenKernelWork[i].calls);
    EXPECT_EQ(kernel.cf_iterations, kGoldenKernelWork[i].cf_iterations);
  }
}

}  // namespace
}  // namespace kgacc
