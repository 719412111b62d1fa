#include "synth/query_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "synth/many_domains.h"
#include "synth/web_generator.h"

namespace paygo {
namespace {

/// Two labels with disjoint vocabularies plus a shared generic term.
SchemaCorpus MakeCorpus() {
  SchemaCorpus corpus;
  corpus.Add(Schema("c0", {"make", "model", "name"}), {"cars"});
  corpus.Add(Schema("c1", {"make", "mileage", "name"}), {"cars"});
  corpus.Add(Schema("c2", {"make", "model", "mileage"}), {"cars"});
  corpus.Add(Schema("m0", {"director", "cast", "name"}), {"movies"});
  corpus.Add(Schema("m1", {"director", "cast"}), {"movies"});
  return corpus;
}

struct Built {
  SchemaCorpus corpus = MakeCorpus();
  Tokenizer tok;
  Lexicon lex = Lexicon::Build(corpus, tok);
};

TEST(QueryGeneratorTest, BuildsWithBothLabelsTargetable) {
  Built b;
  const auto gen = QueryGenerator::Build(b.corpus, b.lex, {});
  ASSERT_TRUE(gen.ok()) << gen.status();
  EXPECT_EQ(gen->targetable_labels().size(), 2u);
}

TEST(QueryGeneratorTest, FrequencyFilterDropsRareTerms) {
  Built b;
  QueryGeneratorOptions opts;
  opts.min_label_fraction = 0.5;
  const auto gen = QueryGenerator::Build(b.corpus, b.lex, opts);
  ASSERT_TRUE(gen.ok());
  // For cars (3 schemas): make 3/3, model 2/3, mileage 2/3, name 2/3 pass;
  // none fail. For movies (2 schemas): director 2/2, cast 2/2, name 1/2
  // passes exactly at 0.5.
  const auto& movies = gen->TermDistribution("movies");
  std::map<std::string, double> dist(movies.begin(), movies.end());
  EXPECT_TRUE(dist.count("director"));
  EXPECT_TRUE(dist.count("cast"));
  EXPECT_TRUE(dist.count("name"));
  EXPECT_FALSE(dist.count("make"));  // zero frequency in movies

  QueryGeneratorOptions strict;
  strict.min_label_fraction = 0.6;
  const auto gen2 = QueryGenerator::Build(b.corpus, b.lex, strict);
  ASSERT_TRUE(gen2.ok());
  const auto& movies2 = gen2->TermDistribution("movies");
  std::map<std::string, double> dist2(movies2.begin(), movies2.end());
  EXPECT_FALSE(dist2.count("name"));  // 1/2 < 0.6
}

TEST(QueryGeneratorTest, DistributionsAreNormalized) {
  Built b;
  const auto gen = QueryGenerator::Build(b.corpus, b.lex, {});
  ASSERT_TRUE(gen.ok());
  for (const std::string& label : gen->targetable_labels()) {
    double total = 0.0;
    for (const auto& [term, p] : gen->TermDistribution(label)) {
      EXPECT_GT(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(QueryGeneratorTest, DiscriminativeTermsOutweighGenericOnes) {
  Built b;
  const auto gen = QueryGenerator::Build(b.corpus, b.lex, {});
  ASSERT_TRUE(gen.ok());
  // Within cars, "make" (cars-only) must be likelier than "name"
  // (shared with movies) — the lambda weighting of Section 6.1.3.
  std::map<std::string, double> cars;
  for (const auto& [t, p] : gen->TermDistribution("cars")) cars[t] = p;
  ASSERT_TRUE(cars.count("make"));
  ASSERT_TRUE(cars.count("name"));
  EXPECT_GT(cars["make"], cars["name"]);
}

TEST(QueryGeneratorTest, GeneratesRequestedKeywordCount) {
  Built b;
  const auto gen = QueryGenerator::Build(b.corpus, b.lex, {});
  ASSERT_TRUE(gen.ok());
  Rng rng(5);
  for (std::size_t k = 1; k <= 10; ++k) {
    const GeneratedQuery q = gen->Generate(k, rng);
    EXPECT_EQ(q.keywords.size(), k);
    EXPECT_FALSE(q.target_label.empty());
  }
}

TEST(QueryGeneratorTest, KeywordsComeFromTargetDistribution) {
  Built b;
  const auto gen = QueryGenerator::Build(b.corpus, b.lex, {});
  ASSERT_TRUE(gen.ok());
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    const GeneratedQuery q = gen->Generate(3, rng);
    std::map<std::string, double> dist;
    for (const auto& [t, p] : gen->TermDistribution(q.target_label)) {
      dist[t] = p;
    }
    for (const std::string& kw : q.keywords) {
      EXPECT_TRUE(dist.count(kw)) << kw << " for " << q.target_label;
    }
  }
}

TEST(QueryGeneratorTest, LabelSamplingProportionalToSchemaCount) {
  Built b;
  const auto gen = QueryGenerator::Build(b.corpus, b.lex, {});
  ASSERT_TRUE(gen.ok());
  Rng rng(7);
  int cars = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (gen->Generate(1, rng).target_label == "cars") ++cars;
  }
  // cars has 3 of 5 schemas.
  EXPECT_NEAR(static_cast<double>(cars) / n, 0.6, 0.03);
}

TEST(QueryGeneratorTest, DeterministicGivenSeed) {
  Built b;
  const auto gen = QueryGenerator::Build(b.corpus, b.lex, {});
  ASSERT_TRUE(gen.ok());
  Rng r1(9), r2(9);
  for (int i = 0; i < 20; ++i) {
    const GeneratedQuery a = gen->Generate(4, r1);
    const GeneratedQuery b2 = gen->Generate(4, r2);
    EXPECT_EQ(a.target_label, b2.target_label);
    EXPECT_EQ(a.keywords, b2.keywords);
  }
}

/// The dense label-count table the generator used to build: labels x dim
/// doubles, every sum over all dim terms in ascending order. The sparse
/// build must reproduce its labels, label weights and distributions
/// bitwise.
struct DenseReference {
  std::vector<std::string> labels;
  std::vector<double> label_weights;
  std::vector<std::vector<std::pair<std::string, double>>> dists;
};

DenseReference BuildDense(const SchemaCorpus& corpus, const Lexicon& lexicon,
                          double min_label_fraction) {
  const std::vector<std::string> all_labels = corpus.AllLabels();
  const std::size_t num_labels = all_labels.size();
  const std::size_t dim = lexicon.dim();
  std::map<std::string, std::size_t> label_index;
  for (std::size_t b = 0; b < num_labels; ++b) label_index[all_labels[b]] = b;
  std::vector<std::vector<double>> freq(num_labels,
                                        std::vector<double>(dim, 0.0));
  std::vector<double> schemas_per_label(num_labels, 0.0);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    for (const std::string& label : corpus.labels(i)) {
      const std::size_t b = label_index.at(label);
      schemas_per_label[b] += 1.0;
      for (std::uint32_t t : lexicon.schema_terms(i)) freq[b][t] += 1.0;
    }
  }
  std::vector<double> label_totals(num_labels, 0.0);
  for (std::size_t b = 0; b < num_labels; ++b) {
    for (std::size_t t = 0; t < dim; ++t) label_totals[b] += freq[b][t];
  }
  std::vector<double> avg_rel(dim, 0.0);
  for (std::size_t b = 0; b < num_labels; ++b) {
    if (label_totals[b] <= 0.0) continue;
    for (std::size_t t = 0; t < dim; ++t) {
      avg_rel[t] += freq[b][t] / label_totals[b];
    }
  }
  for (double& v : avg_rel) v /= static_cast<double>(num_labels);
  DenseReference ref;
  for (std::size_t b = 0; b < num_labels; ++b) {
    if (schemas_per_label[b] <= 0.0 || label_totals[b] <= 0.0) continue;
    std::vector<std::pair<std::string, double>> dist;
    double norm = 0.0;
    for (std::size_t t = 0; t < dim; ++t) {
      if (freq[b][t] / schemas_per_label[b] < min_label_fraction - 1e-12) {
        continue;
      }
      if (freq[b][t] <= 0.0 || avg_rel[t] <= 0.0) continue;
      const double lambda = (freq[b][t] / label_totals[b]) / avg_rel[t];
      dist.emplace_back(lexicon.term(t), lambda);
      norm += lambda;
    }
    if (dist.empty() || norm <= 0.0) continue;
    for (auto& [term, weight] : dist) weight /= norm;
    ref.labels.push_back(all_labels[b]);
    ref.label_weights.push_back(schemas_per_label[b]);
    ref.dists.push_back(std::move(dist));
  }
  return ref;
}

/// QueryGenerator::Generate over the reference's tables.
GeneratedQuery GenerateDense(const DenseReference& ref, std::size_t k,
                             Rng& rng) {
  GeneratedQuery q;
  const std::size_t b = rng.NextWeighted(ref.label_weights);
  q.target_label = ref.labels[b];
  std::vector<double> weights;
  for (const auto& [term, w] : ref.dists[b]) weights.push_back(w);
  for (std::size_t i = 0; i < k; ++i) {
    q.keywords.push_back(ref.dists[b][rng.NextWeighted(weights)].first);
  }
  return q;
}

TEST(QueryGeneratorTest, SparseCountsEqualTheDenseTable) {
  const Tokenizer tok;
  for (const SchemaCorpus& corpus :
       {MakeDwCorpus(), MakeManyDomainCorpus({.num_domains = 200})}) {
    const Lexicon lex = Lexicon::Build(corpus, tok);
    for (double fraction : {0.0, 0.1, 0.25}) {
      QueryGeneratorOptions opts;
      opts.min_label_fraction = fraction;
      const auto gen = QueryGenerator::Build(corpus, lex, opts);
      ASSERT_TRUE(gen.ok()) << gen.status();
      const DenseReference ref = BuildDense(corpus, lex, fraction);
      ASSERT_EQ(gen->targetable_labels(), ref.labels);
      for (std::size_t b = 0; b < ref.labels.size(); ++b) {
        const auto& dist = gen->TermDistribution(ref.labels[b]);
        ASSERT_EQ(dist.size(), ref.dists[b].size()) << ref.labels[b];
        for (std::size_t k = 0; k < dist.size(); ++k) {
          EXPECT_EQ(dist[k].first, ref.dists[b][k].first);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(dist[k].second),
                    std::bit_cast<std::uint64_t>(ref.dists[b][k].second))
              << ref.labels[b] << " " << dist[k].first;
        }
      }
      Rng r1(31), r2(31);
      for (int i = 0; i < 200; ++i) {
        const GeneratedQuery a = gen->Generate(1 + i % 5, r1);
        const GeneratedQuery want = GenerateDense(ref, 1 + i % 5, r2);
        EXPECT_EQ(a.target_label, want.target_label);
        EXPECT_EQ(a.keywords, want.keywords);
      }
    }
  }
}

TEST(QueryGeneratorTest, UnlabeledCorpusRejected) {
  SchemaCorpus corpus;
  corpus.Add(Schema("s", {"alpha"}), {});
  Tokenizer tok;
  const Lexicon lex = Lexicon::Build(corpus, tok);
  EXPECT_TRUE(QueryGenerator::Build(corpus, lex, {})
                  .status()
                  .IsFailedPrecondition());
}

TEST(QueryGeneratorTest, MismatchedLexiconRejected) {
  Built b;
  SchemaCorpus other;
  other.Add(Schema("s", {"alpha"}), {"l"});
  EXPECT_TRUE(QueryGenerator::Build(other, b.lex, {})
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace paygo
