// Choosing a sampling design from structural diagnostics, before spending
// a single annotation. `ComputeKgStatistics` estimates the intra-cluster
// label correlation and predicts the TWCS design effect; combined with the
// cost model this yields a recommendation — then we verify it empirically.

#include <cstdio>

#include "kgacc/kgacc.h"

namespace {

using namespace kgacc;

void Advise(const char* label, const SyntheticKg& kg) {
  const auto stats = *ComputeKgStatistics(kg, /*twcs_second_stage=*/3);
  std::printf("%s\n", label);
  std::printf("  facts=%llu clusters=%llu avg size=%.2f (sd %.2f, gini "
              "%.2f, max %llu)\n",
              static_cast<unsigned long long>(stats.num_triples),
              static_cast<unsigned long long>(stats.num_clusters),
              stats.avg_cluster_size, stats.cluster_size_stddev,
              stats.cluster_size_gini,
              static_cast<unsigned long long>(stats.max_cluster_size));
  std::printf("  accuracy=%.3f  ICC=%.3f  predicted TWCS deff=%.2f\n",
              stats.accuracy, stats.intra_cluster_correlation,
              stats.predicted_design_effect);

  // Cost heuristic: TWCS needs ~deff times the SRS triples but pays the
  // entity-identification cost only once per cluster (m=3 second stage).
  const double srs_per_triple =
      kEntityIdentificationSeconds + kFactVerificationSeconds;
  const double m_eff = std::min(3.0, stats.avg_cluster_size);
  const double twcs_per_triple =
      kEntityIdentificationSeconds / m_eff + kFactVerificationSeconds;
  const double twcs_relative =
      stats.predicted_design_effect * twcs_per_triple / srs_per_triple;
  const char* advice = twcs_relative < 1.0 ? "TWCS" : "SRS";
  std::printf("  predicted TWCS/SRS cost ratio=%.2f -> recommend %s\n",
              twcs_relative, advice);

  // Verify with 100 replicated audits per design.
  OracleAnnotator annotator;
  EvaluationConfig config;
  SrsSampler srs(kg, SrsConfig{});
  const auto srs_summary = *RunReplications(srs, annotator, config, 100, 5);
  TwcsSampler twcs(kg, TwcsConfig{.second_stage_size = 3});
  const auto twcs_summary = *RunReplications(twcs, annotator, config, 100, 5);
  std::printf("  measured: SRS %.2fh vs TWCS %.2fh (ratio %.2f)\n\n",
              srs_summary.cost_summary.mean, twcs_summary.cost_summary.mean,
              twcs_summary.cost_summary.mean / srs_summary.cost_summary.mean);
}

SyntheticKg MakeCase(LabelModel model, double rho, double mean_size,
                     ClusterSizeModel sizes) {
  SyntheticKgConfig cfg;
  cfg.num_clusters = 3000;
  cfg.mean_cluster_size = mean_size;
  cfg.size_model = sizes;
  cfg.accuracy = 0.85;
  cfg.label_model = model;
  cfg.intra_cluster_rho = rho;
  cfg.seed = 77;
  return *SyntheticKg::Create(cfg);
}

}  // namespace

int main() {
  std::printf("Design advisor: pick SRS vs TWCS from pre-annotation "
              "diagnostics\n\n");
  Advise("Case 1: curated KG, mild error clustering, mid-size clusters",
         MakeCase(LabelModel::kBetaMixture, 0.15, 4.0,
                  ClusterSizeModel::kGeometric));
  Advise("Case 2: heavy error clustering (noisy extraction pipeline)",
         MakeCase(LabelModel::kBetaMixture, 0.6, 4.0,
                  ClusterSizeModel::kGeometric));
  Advise("Case 3: singleton-dominated KG (clusters barely help)",
         MakeCase(LabelModel::kBetaMixture, 0.15, 1.2,
                  ClusterSizeModel::kGeometric));
  Advise("Case 4: hub-dominated Zipf KG with iid labels",
         MakeCase(LabelModel::kIid, 0.0, 5.0, ClusterSizeModel::kZipf));
  return 0;
}
