#include "eval/clustering_metrics.h"

#include <gtest/gtest.h>

namespace paygo {
namespace {

SchemaCorpus LabeledCorpus(const std::vector<std::vector<std::string>>& labels) {
  SchemaCorpus corpus;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    std::string name = "s";
    name += std::to_string(i);
    corpus.Add(Schema(name, {"a"}), labels[i]);
  }
  return corpus;
}

DomainModel HardModel(std::vector<std::vector<std::uint32_t>> clusters) {
  std::size_t n = 0;
  for (const auto& c : clusters) n += c.size();
  std::vector<std::vector<std::pair<std::uint32_t, double>>> sd(n);
  for (std::uint32_t r = 0; r < clusters.size(); ++r) {
    for (std::uint32_t i : clusters[r]) sd[i] = {{r, 1.0}};
  }
  return DomainModel::Build(std::move(clusters), std::move(sd));
}

TEST(ClusteringMetricsTest, PerfectClusteringScoresOne) {
  const SchemaCorpus corpus = LabeledCorpus(
      {{"cars"}, {"cars"}, {"cars"}, {"movies"}, {"movies"}, {"movies"}});
  const DomainModel model = HardModel({{0, 1, 2}, {3, 4, 5}});
  const ClusteringEvaluation eval = EvaluateClustering(model, corpus);
  EXPECT_DOUBLE_EQ(eval.avg_precision, 1.0);
  EXPECT_DOUBLE_EQ(eval.avg_recall, 1.0);
  EXPECT_DOUBLE_EQ(eval.fragmentation, 1.0);
  EXPECT_DOUBLE_EQ(eval.frac_non_homogeneous, 0.0);
  EXPECT_DOUBLE_EQ(eval.frac_unclustered, 0.0);
  EXPECT_EQ(eval.dominant_labels[0], (std::vector<std::string>{"cars"}));
  EXPECT_EQ(eval.dominant_labels[1], (std::vector<std::string>{"movies"}));
}

TEST(ClusteringMetricsTest, ImpurityLowersPrecision) {
  // Domain 0 has 3 cars + 1 movies schema; domain 1 has 2 movies.
  const SchemaCorpus corpus = LabeledCorpus(
      {{"cars"}, {"cars"}, {"cars"}, {"movies"}, {"movies"}, {"movies"}});
  const DomainModel model = HardModel({{0, 1, 2, 3}, {4, 5}});
  const ClusteringEvaluation eval = EvaluateClustering(model, corpus);
  // Domain 0 precision 3/4, domain 1 precision 1 -> avg 0.875.
  EXPECT_NEAR(eval.avg_precision, (0.75 + 1.0) / 2, 1e-9);
  // cars recall 1; movies: 2 of 3 memberships land in movies-dominated
  // domains -> 2/3. avg = (1 + 2/3)/2.
  EXPECT_NEAR(eval.avg_recall, (1.0 + 2.0 / 3.0) / 2, 1e-9);
}

TEST(ClusteringMetricsTest, FragmentationCountsSplitLabels) {
  // "cars" dominates two domains.
  const SchemaCorpus corpus = LabeledCorpus(
      {{"cars"}, {"cars"}, {"cars"}, {"cars"}, {"movies"}, {"movies"}});
  const DomainModel model = HardModel({{0, 1}, {2, 3}, {4, 5}});
  const ClusteringEvaluation eval = EvaluateClustering(model, corpus);
  // cars -> 2 domains, movies -> 1: avg (2+1)/2 = 1.5.
  EXPECT_NEAR(eval.fragmentation, 1.5, 1e-9);
  // Fragmentation costs recall: each cars membership is a TP (both
  // domains are cars-dominated), so recall stays 1 here.
  EXPECT_NEAR(eval.avg_recall, 1.0, 1e-9);
}

TEST(ClusteringMetricsTest, NonHomogeneousDomainDetected) {
  // Domain 0: two cars, two movies, one hotels -> no absolute majority.
  const SchemaCorpus corpus = LabeledCorpus(
      {{"cars"}, {"cars"}, {"movies"}, {"movies"}, {"hotels"}});
  const DomainModel model = HardModel({{0, 1, 2, 3, 4}});
  const ClusteringEvaluation eval = EvaluateClustering(model, corpus);
  EXPECT_EQ(eval.num_non_homogeneous_domains, 1u);
  EXPECT_TRUE(eval.dominant_labels[0].empty());
  EXPECT_DOUBLE_EQ(eval.frac_non_homogeneous, 1.0);
  // All memberships are false negatives -> recall 0 for every label.
  EXPECT_DOUBLE_EQ(eval.avg_recall, 0.0);
  // No homogeneous domain -> precision averages over nothing.
  EXPECT_DOUBLE_EQ(eval.avg_precision, 0.0);
}

TEST(ClusteringMetricsTest, ExactMajorityIsHomogeneous) {
  // 2 of 4 memberships -> exactly half: the thesis requires the dominant
  // label to have an absolute majority only when strictly below half, so
  // >= 0.5 counts as homogeneous.
  const SchemaCorpus corpus =
      LabeledCorpus({{"cars"}, {"cars"}, {"movies"}, {"hotels"}});
  const DomainModel model = HardModel({{0, 1, 2, 3}});
  const ClusteringEvaluation eval = EvaluateClustering(model, corpus);
  EXPECT_EQ(eval.num_non_homogeneous_domains, 0u);
  EXPECT_EQ(eval.dominant_labels[0], (std::vector<std::string>{"cars"}));
}

TEST(ClusteringMetricsTest, SingletonDomainsAreUnclustered) {
  const SchemaCorpus corpus =
      LabeledCorpus({{"cars"}, {"cars"}, {"movies"}, {"hotels"}});
  const DomainModel model = HardModel({{0, 1}, {2}, {3}});
  const ClusteringEvaluation eval = EvaluateClustering(model, corpus);
  EXPECT_EQ(eval.num_singleton_domains, 2u);
  EXPECT_NEAR(eval.frac_unclustered, 0.5, 1e-9);
  // Singletons excluded: precision/recall come from the cars domain only.
  EXPECT_DOUBLE_EQ(eval.avg_precision, 1.0);
  EXPECT_DOUBLE_EQ(eval.avg_recall, 1.0);
}

TEST(ClusteringMetricsTest, ProbabilisticMembershipsWeightCounts) {
  // Schema 2 belongs 0.5/0.5 to both domains; its label is "cars".
  const SchemaCorpus corpus =
      LabeledCorpus({{"cars"}, {"cars"}, {"cars"}, {"movies"}, {"movies"}});
  std::vector<std::vector<std::pair<std::uint32_t, double>>> sd = {
      {{0, 1.0}}, {{0, 1.0}}, {{0, 0.5}, {1, 0.5}}, {{1, 1.0}}, {{1, 1.0}}};
  const DomainModel model =
      DomainModel::Build({{0, 1, 2}, {3, 4}}, std::move(sd));
  const ClusteringEvaluation eval = EvaluateClustering(model, corpus);
  // Domain 0: TP 2.5 / 2.5 -> precision 1. Domain 1: movies weight 2,
  // cars weight 0.5 -> dominant movies, precision 2/2.5 = 0.8.
  EXPECT_NEAR(eval.avg_precision, (1.0 + 0.8) / 2, 1e-9);
  // cars recall: TP 2.5 of total 3 memberships -> 2.5/3; movies: 1.
  EXPECT_NEAR(eval.avg_recall, (2.5 / 3.0 + 1.0) / 2, 1e-9);
}

TEST(ClusteringMetricsTest, TiedDominantLabelsBothCount) {
  const SchemaCorpus corpus =
      LabeledCorpus({{"cars"}, {"movies"}, {"cars"}, {"movies"}});
  const DomainModel model = HardModel({{0, 1, 2, 3}});
  const std::vector<std::string> dominant =
      DominantLabels(model, 0, corpus);
  EXPECT_EQ(dominant, (std::vector<std::string>{"cars", "movies"}));
}

TEST(ClusteringMetricsTest, MultiLabelSchemaCountsAsTruePositive) {
  // A schema labeled {schools, people} in a schools-dominated domain is a
  // true positive (B(S) intersects B(D)).
  const SchemaCorpus corpus = LabeledCorpus(
      {{"schools"}, {"schools"}, {"schools", "people"}});
  const DomainModel model = HardModel({{0, 1, 2}});
  const ClusteringEvaluation eval = EvaluateClustering(model, corpus);
  EXPECT_DOUBLE_EQ(eval.avg_precision, 1.0);
}

}  // namespace
}  // namespace paygo
