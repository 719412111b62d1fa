#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "classify/naive_bayes.h"
#include "cluster/dendrogram.h"
#include "cluster/hac.h"
#include "cluster/neighbor_graph.h"
#include "eval/clustering_metrics.h"
#include "schema/feature_vector.h"
#include "schema/lexicon.h"
#include "synth/many_domains.h"
#include "text/similarity_index.h"
#include "util/random.h"

namespace paygo {
namespace {

/// Cross-module corner cases that the per-module suites do not cover.

DynamicBitset Bits(std::size_t dim, std::initializer_list<std::size_t> set) {
  DynamicBitset b(dim);
  for (std::size_t i : set) b.Set(i);
  return b;
}

// --- Dendrogram over the graph path's merge history ---

TEST(CoverageTest, DendrogramWorksOnGraphPathOutput) {
  std::vector<DynamicBitset> f(6, DynamicBitset(16));
  for (std::size_t b : {0u, 1u, 2u}) {
    f[0].Set(b);
    f[1].Set(b);
  }
  f[1].Set(3);
  for (std::size_t b : {8u, 9u, 10u}) {
    f[2].Set(b);
    f[3].Set(b);
  }
  f[3].Set(11);
  f[4].Set(14);
  f[5].Set(15);
  HacOptions opts;
  opts.tau_c_sim = 0.3;
  const auto graph = NeighborGraph::Build(f, NeighborGraphOptions{});
  ASSERT_TRUE(graph.ok());
  const auto result = Hac::RunOnGraph(*graph, opts);
  ASSERT_TRUE(result.ok());
  const auto dendro = Dendrogram::Build(f.size(), *result);
  ASSERT_TRUE(dendro.ok()) << dendro.status();
  auto cut = dendro->CutAt(0.3);
  auto expected = result->clusters;
  std::sort(cut.begin(), cut.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(cut, expected);
}

// --- Constrained clustering composes with the dendrogram (must-link
// merges recorded at similarity 1.0) ---

TEST(CoverageTest, MustLinkMergeAppearsAtFullSimilarityInDendrogram) {
  std::vector<DynamicBitset> f(3, DynamicBitset(8));
  f[0].Set(0);
  f[1].Set(3);
  f[2].Set(6);
  HacOptions opts;
  opts.tau_c_sim = 0.9;
  opts.must_link = {{0, 2}};
  const auto result = Hac::Run(f, opts);
  ASSERT_TRUE(result.ok());
  const auto dendro = Dendrogram::Build(f.size(), *result);
  ASSERT_TRUE(dendro.ok());
  // Even a cut at 1.0 keeps the must-linked pair together.
  const auto cut = dendro->CutAt(1.0);
  bool together = false;
  for (const auto& c : cut) {
    if (std::binary_search(c.begin(), c.end(), 0u) &&
        std::binary_search(c.begin(), c.end(), 2u)) {
      together = true;
    }
  }
  EXPECT_TRUE(together);
}

// --- Naive Bayes conditional monotonicity ---

TEST(CoverageTest, AddingFeatureBearingSchemaRaisesItsConditional) {
  const std::size_t dim = 6;
  // Domain A: one schema with feature 0. Domain B: two schemas with
  // feature 0. Pr(F_0 = 1 | B) must exceed Pr(F_0 = 1 | A) at equal
  // smoothing scale? Not directly comparable across sizes — instead grow
  // ONE domain and watch its own conditional rise.
  std::vector<DynamicBitset> two = {Bits(dim, {0}), Bits(dim, {0, 1})};
  std::vector<DynamicBitset> three = {Bits(dim, {0}), Bits(dim, {0, 1}),
                                      Bits(dim, {0, 2})};
  DomainModel m2 = DomainModel::Build({{0, 1}}, {{{0, 1.0}}, {{0, 1.0}}});
  DomainModel m3 = DomainModel::Build(
      {{0, 1, 2}}, {{{0, 1.0}}, {{0, 1.0}}, {{0, 1.0}}});
  const auto c2 = ComputeDomainConditionals(m2, 0, two, 3,
                                            ClassifierEngine::kFactored, 24);
  const auto c3 = ComputeDomainConditionals(m3, 0, three, 3,
                                            ClassifierEngine::kFactored, 24);
  ASSERT_TRUE(c2.ok());
  ASSERT_TRUE(c3.ok());
  // Every member carries feature 0 in both cases; with more members the
  // m-estimate's pull toward p = 1/dim weakens, so q1[0] rises.
  EXPECT_GT(c3->Q1(0), c2->Q1(0));
  // Feature 5 appears nowhere; its conditional stays near the smoothing
  // floor and falls as the domain grows.
  EXPECT_LT(c3->Q1(5), c2->Q1(5));
}

TEST(CoverageTest, PriorGrowsWithDomainSize) {
  const std::size_t dim = 4;
  std::vector<DynamicBitset> f(4, DynamicBitset(dim));
  DomainModel small = DomainModel::Build(
      {{0}, {1, 2, 3}},
      {{{0, 1.0}}, {{1, 1.0}}, {{1, 1.0}}, {{1, 1.0}}});
  const auto clf = NaiveBayesClassifier::Build(small, f, 4, {});
  ASSERT_TRUE(clf.ok());
  EXPECT_NEAR(clf->Prior(0), 1.0 / 4.0, 1e-12);
  EXPECT_NEAR(clf->Prior(1), 3.0 / 4.0, 1e-12);
}

// --- Similarity index: edit-distance kinds go through the exhaustive
// path; threshold-1.0 LCS equals exact matching ---

TEST(CoverageTest, LevenshteinIndexMatchesBruteForce) {
  const std::vector<std::string> terms = {"title",  "titles", "tilde",
                                          "author", "autor",  "make"};
  TermSimilarity sim(TermSimilarityKind::kLevenshtein);
  SimilarityIndex idx(terms, sim, 0.8);
  for (std::uint32_t i = 0; i < terms.size(); ++i) {
    std::vector<std::uint32_t> expected;
    for (std::uint32_t j = 0; j < terms.size(); ++j) {
      if (i == j || sim.Compute(terms[i], terms[j]) >= 0.8) {
        expected.push_back(j);
      }
    }
    EXPECT_EQ(idx.Neighbors(i), expected) << terms[i];
  }
  // "autores" matches "autor" (distance 2 of 7 -> 0.71 < 0.8? check via
  // Match against the brute force instead of hand-deriving).
  const auto hits = idx.Match("authors");
  std::vector<std::uint32_t> expected;
  for (std::uint32_t j = 0; j < terms.size(); ++j) {
    if (sim.Compute("authors", terms[j]) >= 0.8) expected.push_back(j);
  }
  EXPECT_EQ(hits, expected);
}

TEST(CoverageTest, JaroWinklerIndexMatchesBruteForce) {
  const std::vector<std::string> terms = {"departure", "departing",
                                          "department", "airline", "price"};
  TermSimilarity sim(TermSimilarityKind::kJaroWinkler);
  SimilarityIndex idx(terms, sim, 0.9);
  for (std::uint32_t i = 0; i < terms.size(); ++i) {
    std::vector<std::uint32_t> expected;
    for (std::uint32_t j = 0; j < terms.size(); ++j) {
      if (i == j || sim.Compute(terms[i], terms[j]) >= 0.9) {
        expected.push_back(j);
      }
    }
    EXPECT_EQ(idx.Neighbors(i), expected) << terms[i];
  }
}

TEST(CoverageTest, LcsThresholdOneEqualsExactIdentity) {
  const std::vector<std::string> terms = {"title", "titles", "make"};
  SimilarityIndex idx(terms, TermSimilarity(TermSimilarityKind::kLcs), 1.0);
  for (std::uint32_t i = 0; i < terms.size(); ++i) {
    EXPECT_EQ(idx.Neighbors(i), (std::vector<std::uint32_t>{i}));
  }
}

// --- Clustering metrics on degenerate inputs ---

TEST(CoverageTest, UnlabeledCorpusYieldsZeroMetricsWithoutCrashing) {
  SchemaCorpus corpus;
  corpus.Add(Schema("a", {"x"}), {});
  corpus.Add(Schema("b", {"x"}), {});
  const DomainModel model =
      DomainModel::Build({{0, 1}}, {{{0, 1.0}}, {{0, 1.0}}});
  const ClusteringEvaluation eval = EvaluateClustering(model, corpus);
  EXPECT_DOUBLE_EQ(eval.avg_precision, 0.0);
  EXPECT_DOUBLE_EQ(eval.avg_recall, 0.0);
  EXPECT_DOUBLE_EQ(eval.fragmentation, 0.0);
  EXPECT_TRUE(eval.dominant_labels[0].empty());
}

TEST(CoverageTest, AllSingletonModelIsFullyUnclustered) {
  SchemaCorpus corpus;
  corpus.Add(Schema("a", {"x"}), {"l1"});
  corpus.Add(Schema("b", {"y"}), {"l2"});
  const DomainModel model =
      DomainModel::Build({{0}, {1}}, {{{0, 1.0}}, {{1, 1.0}}});
  const ClusteringEvaluation eval = EvaluateClustering(model, corpus);
  EXPECT_DOUBLE_EQ(eval.frac_unclustered, 1.0);
  EXPECT_EQ(eval.num_singleton_domains, 2u);
}

// --- Many-domains generator invariants ---

TEST(CoverageTest, ManyDomainCorpusHasDisjointDomainVocabularies) {
  ManyDomainOptions opts;
  opts.num_domains = 20;
  opts.seed = 3;
  const SchemaCorpus corpus = MakeManyDomainCorpus(opts);
  EXPECT_EQ(corpus.AllLabels().size(), 20u);
  Tokenizer tok;
  // Terms of different domains must not collide (the suffix guarantees
  // exactness; near-collisions are what the clustering test below covers).
  std::map<std::string, std::string> term_owner;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::string& label = corpus.labels(i)[0];
    for (const std::string& t : tok.TokenizeAll(corpus.schema(i).attributes)) {
      const auto it = term_owner.find(t);
      if (it == term_owner.end()) {
        term_owner.emplace(t, label);
      } else {
        EXPECT_EQ(it->second, label) << t;
      }
    }
  }
}

TEST(CoverageTest, ManyDomainCorpusClustersPerfectly) {
  ManyDomainOptions opts;
  opts.num_domains = 30;
  const SchemaCorpus corpus = MakeManyDomainCorpus(opts);
  Tokenizer tok;
  const Lexicon lexicon = Lexicon::Build(corpus, tok);
  FeatureVectorizer vec(lexicon);
  const auto features = vec.VectorizeCorpus();
  HacOptions hac;
  hac.tau_c_sim = 0.2;
  const auto graph = NeighborGraph::Build(features, NeighborGraphOptions{});
  ASSERT_TRUE(graph.ok());
  const auto clustering = Hac::RunOnGraph(*graph, hac);
  ASSERT_TRUE(clustering.ok());
  AssignmentOptions assign;
  assign.tau_c_sim = 0.2;
  SimilarityMatrix sims(features);
  const auto model = AssignProbabilities(sims, *clustering, assign);
  ASSERT_TRUE(model.ok());
  const ClusteringEvaluation eval = EvaluateClustering(*model, corpus);
  EXPECT_GT(eval.avg_precision, 0.99);
  EXPECT_GT(eval.avg_recall, 0.9);
}

// --- Deterministic tie-breaking of the row-NN engine ---

TEST(CoverageTest, IdenticalRunsProduceIdenticalMergeHistories) {
  Rng rng(777);
  std::vector<DynamicBitset> f(30, DynamicBitset(40));
  for (auto& b : f) {
    for (std::size_t j = 0; j < 40; ++j) {
      if (rng.NextBernoulli(0.3)) b.Set(j);
    }
  }
  HacOptions opts;
  opts.tau_c_sim = 0.2;
  const auto r1 = Hac::Run(f, opts);
  const auto r2 = Hac::Run(f, opts);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r1->merges.size(), r2->merges.size());
  for (std::size_t k = 0; k < r1->merges.size(); ++k) {
    EXPECT_EQ(r1->merges[k].slot_a, r2->merges[k].slot_a);
    EXPECT_EQ(r1->merges[k].slot_b, r2->merges[k].slot_b);
    EXPECT_DOUBLE_EQ(r1->merges[k].similarity, r2->merges[k].similarity);
  }
}

}  // namespace
}  // namespace paygo
