#include <gtest/gtest.h>

#include "core/integration_system.h"
#include "dense_classifier_oracle.h"
#include "eval/classification_metrics.h"
#include "eval/clustering_metrics.h"
#include "synth/ddh_generator.h"
#include "synth/query_generator.h"
#include "synth/web_generator.h"

namespace paygo {
namespace {

/// End-to-end checks on the synthetic corpora: these assert the qualitative
/// results of Chapter 6 at reduced scale (the full-scale reproductions live
/// in bench/).

TEST(EndToEndTest, DdhClusteringIsNearPerfect) {
  DdhGeneratorOptions opts;
  opts.num_schemas = 250;  // scaled-down DDH
  const SchemaCorpus corpus = MakeDdhCorpus(opts);
  SystemOptions sys_opts;
  sys_opts.hac.tau_c_sim = 0.25;
  sys_opts.assignment.tau_c_sim = 0.25;
  sys_opts.build_mediation = false;
  sys_opts.build_classifier = false;
  const auto sys = IntegrationSystem::Build(corpus, sys_opts);
  ASSERT_TRUE(sys.ok()) << sys.status();
  const ClusteringEvaluation eval =
      EvaluateClustering((*sys)->domains(), (*sys)->corpus());
  // Section 6.2: "precision and recall values above 0.99" on DDH.
  EXPECT_GT(eval.avg_precision, 0.95);
  EXPECT_GT(eval.avg_recall, 0.90);
  EXPECT_LT(eval.frac_unclustered, 0.1);
}

TEST(EndToEndTest, DwClusteringQualityIsHigh) {
  const SchemaCorpus corpus = MakeDwCorpus();
  SystemOptions sys_opts;
  sys_opts.hac.tau_c_sim = 0.25;
  sys_opts.assignment.tau_c_sim = 0.25;
  sys_opts.build_mediation = false;
  sys_opts.build_classifier = false;
  const auto sys = IntegrationSystem::Build(corpus, sys_opts);
  ASSERT_TRUE(sys.ok()) << sys.status();
  const ClusteringEvaluation eval =
      EvaluateClustering((*sys)->domains(), (*sys)->corpus());
  // Table 6.2 reports precision 0.75-0.85 and recall 0.93-0.98 on DW;
  // assert the same quality band loosely.
  EXPECT_GT(eval.avg_precision, 0.6);
  EXPECT_GT(eval.avg_recall, 0.6);
  // Unique schemas must remain unclustered (~25% plus stragglers).
  EXPECT_GT(eval.frac_unclustered, 0.1);
  EXPECT_LT(eval.frac_unclustered, 0.6);
}

TEST(EndToEndTest, DwSsQueryClassificationBeatsChanceAndGrowsWithSize) {
  const SchemaCorpus corpus = MakeDwSsCorpus();
  SystemOptions sys_opts;
  sys_opts.hac.tau_c_sim = 0.25;
  sys_opts.assignment.tau_c_sim = 0.25;
  sys_opts.build_mediation = false;
  const auto sys = IntegrationSystem::Build(corpus, sys_opts);
  ASSERT_TRUE(sys.ok()) << sys.status();
  const IntegrationSystem& s = **sys;

  std::vector<std::vector<std::string>> domain_labels;
  for (std::uint32_t r = 0; r < s.domains().num_domains(); ++r) {
    domain_labels.push_back(DominantLabels(s.domains(), r, s.corpus()));
  }

  const auto gen = QueryGenerator::Build(s.corpus(), s.lexicon(), {});
  ASSERT_TRUE(gen.ok()) << gen.status();
  QueryFeaturizer featurizer(s.tokenizer(), s.vectorizer());
  Rng rng(2024);

  auto run = [&](std::size_t size, std::size_t n) {
    TopKAccumulator acc;
    for (std::size_t i = 0; i < n; ++i) {
      const GeneratedQuery q = gen->Generate(size, rng);
      const auto ranking =
          s.classifier().Classify(featurizer.FeaturizeTerms(q.keywords));
      acc.Record(ranking, domain_labels, q.target_label);
    }
    return acc;
  };

  const TopKAccumulator small = run(2, 60);
  const TopKAccumulator large = run(8, 60);
  // Figure 6.7's shape: accuracy grows with query size and is far above
  // chance (~1/#labels) even for short queries.
  EXPECT_GT(small.Top3Fraction(), 0.3);
  EXPECT_GT(large.Top1Fraction(), 0.5);
  EXPECT_GE(large.Top1Fraction(), small.Top1Fraction() - 0.05);
  EXPECT_GE(large.Top3Fraction(), large.Top1Fraction());
}

TEST(EndToEndTest, DdhQueryClassificationNearPerfect) {
  DdhGeneratorOptions ddh_opts;
  ddh_opts.num_schemas = 250;
  const SchemaCorpus corpus = MakeDdhCorpus(ddh_opts);
  SystemOptions sys_opts;
  sys_opts.hac.tau_c_sim = 0.25;
  sys_opts.assignment.tau_c_sim = 0.25;
  sys_opts.build_mediation = false;
  const auto sys = IntegrationSystem::Build(corpus, sys_opts);
  ASSERT_TRUE(sys.ok());
  const IntegrationSystem& s = **sys;

  std::vector<std::vector<std::string>> domain_labels;
  for (std::uint32_t r = 0; r < s.domains().num_domains(); ++r) {
    domain_labels.push_back(DominantLabels(s.domains(), r, s.corpus()));
  }
  QueryGeneratorOptions gen_opts;
  gen_opts.min_label_fraction = 0.1;  // the thesis's DDH setting
  const auto gen = QueryGenerator::Build(s.corpus(), s.lexicon(), gen_opts);
  ASSERT_TRUE(gen.ok());
  QueryFeaturizer featurizer(s.tokenizer(), s.vectorizer());
  Rng rng(7);
  TopKAccumulator acc;
  for (int i = 0; i < 100; ++i) {
    const GeneratedQuery q = gen->Generate(4, rng);
    acc.Record(s.classifier().Classify(featurizer.FeaturizeTerms(q.keywords)),
               domain_labels, q.target_label);
  }
  // Section 6.4: "top-1 fraction being 1 for all query sizes" except very
  // short queries.
  EXPECT_GT(acc.Top1Fraction(), 0.9);
}

TEST(EndToEndTest, ExactAndFactoredClassifiersAgreeOnRealPipeline) {
  const SchemaCorpus corpus = MakeDwCorpus();
  SystemOptions options;
  options.hac.tau_c_sim = 0.2;
  options.assignment.tau_c_sim = 0.2;
  options.assignment.theta = 0.05;  // produce some uncertain schemas
  options.build_mediation = false;

  const auto sys = IntegrationSystem::Build(corpus, options);
  ASSERT_TRUE(sys.ok()) << sys.status();
  const IntegrationSystem& s = **sys;
  const NaiveBayesClassifier& cf = s.classifier();
  // The oracle's rows: the factored sum, which the classifier must match
  // bitwise, and the thesis's literal 2^u enumeration (Section 5.3).
  std::vector<dense_oracle::DenseConditionals> exhaustive;
  for (std::uint32_t r = 0; r < s.domains().num_domains(); ++r) {
    const auto factored = dense_oracle::ExactRow(s.domains(), r, s.features(),
                                                 s.corpus().size());
    EXPECT_EQ(cf.Prior(r), factored.prior) << r;
    exhaustive.push_back(dense_oracle::ExactRow(
        s.domains(), r, s.features(), s.corpus().size(),
        dense_oracle::WorldSum::kExhaustive));
  }
  const dense_oracle::DenseClassifier ce(std::move(exhaustive), {}, false);
  ASSERT_EQ(cf.num_domains(), ce.rows().size());
  for (std::uint32_t r = 0; r < cf.num_domains(); ++r) {
    EXPECT_NEAR(cf.Prior(r), ce.rows()[r].prior, 1e-10);
  }
  // Rankings agree on a few probe queries.
  const QueryFeaturizer featurizer(s.tokenizer(), s.vectorizer());
  for (const char* probe :
       {"departure airline", "salary employer", "drug dosage"}) {
    const auto rf = s.ClassifyKeywordQuery(probe);
    const auto re = ce.Classify(featurizer.Featurize(probe));
    ASSERT_TRUE(rf.ok());
    ASSERT_FALSE(re.empty());
    EXPECT_EQ((*rf)[0].domain, re[0].domain) << probe;
  }
}

}  // namespace
}  // namespace paygo
