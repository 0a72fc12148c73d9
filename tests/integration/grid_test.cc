#include <memory>
#include <string>
#include <tuple>

#include "kgacc/kgacc.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

/// Full configuration grid smoke suite: every (dataset profile x sampling
/// design x interval method) combination must run the complete iterative
/// framework to convergence with a sane estimate. This is the matrix the
/// benchmark harness spans; a regression anywhere in the stack surfaces
/// here as a named cell.

using GridParam = std::tuple<int /*profile*/, std::string /*design*/,
                             IntervalMethod>;

class EvaluationGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(EvaluationGrid, ConvergesWithSaneEstimate) {
  const auto [profile_idx, design, method] = GetParam();
  const DatasetProfile profile = SmallProfiles()[profile_idx];
  const auto kg = *MakeKg(profile, /*seed=*/4242);

  std::unique_ptr<Sampler> sampler;
  if (design == "SRS") {
    sampler = std::make_unique<SrsSampler>(kg, SrsConfig{});
  } else if (design == "TWCS") {
    sampler = std::make_unique<TwcsSampler>(
        kg, TwcsConfig{.second_stage_size = profile.twcs_second_stage});
  } else if (design == "SSRS") {
    sampler = std::make_unique<StratifiedSampler>(kg, StratifiedConfig{});
  } else {
    sampler = std::make_unique<SystematicSampler>(kg, SystematicConfig{});
  }

  OracleAnnotator annotator;
  EvaluationConfig config;
  config.method = method;
  const auto result = RunEvaluation(*sampler, annotator, config, 99);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->converged)
      << profile.name << "/" << design << "/" << IntervalMethodName(method);
  EXPECT_LE(result->interval.Moe(), config.moe_threshold + 1e-12);
  // A single run can stray ~2 MoE from the truth; beyond that something is
  // structurally wrong (estimator bias, label-model mismatch, ...).
  EXPECT_NEAR(result->mu, profile.accuracy, 0.13)
      << profile.name << "/" << design << "/" << IntervalMethodName(method);
  EXPECT_GT(result->cost_hours, 0.0);
  EXPECT_GE(result->annotated_triples, kMinSampleTriples);
}

std::string GridName(const ::testing::TestParamInfo<GridParam>& info) {
  const auto [profile_idx, design, method] = info.param;
  std::string name = SmallProfiles()[profile_idx].name + "_" + design + "_" +
                     IntervalMethodName(method);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, EvaluationGrid,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(std::string("SRS"),
                                         std::string("TWCS"),
                                         std::string("SSRS"),
                                         std::string("SYS")),
                       ::testing::Values(IntervalMethod::kWilson,
                                         IntervalMethod::kHpd,
                                         IntervalMethod::kAhpd)),
    GridName);

}  // namespace
}  // namespace kgacc
