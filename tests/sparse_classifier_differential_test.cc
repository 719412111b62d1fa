/// \file sparse_classifier_differential_test.cc
/// \brief The sparse naive-Bayes classifier against the dense oracle of
/// dense_classifier_oracle.h, checked bitwise.
///
/// The classifier stores each domain as a default conditional plus its
/// exceptions, and scores through an exception bitmap with per-word ranks.
/// The oracle stores and scores full |D| x dim rows. Every engine adds the
/// same values in the same order to the same features, so every
/// comparison here is EXPECT_EQ on doubles: conditionals, priors, each
/// ranking's domain order and log-posterior bits. Covered: dims 1, 63, 64
/// and 65 (one word, a partial word, exactly one word, one bit into a
/// second word), the factored, expected-world and Monte-Carlo engines
/// (and the factored one within 1e-10 of the oracle's exhaustive subset
/// enumeration), skip_singleton_domains, zero-mass domains, Classify /
/// ClassifyInto / ClassifyBatchInto at batch 1, 8 and 64, chained
/// UpdateDomains against Build, WithPriors, and a MakeManyDomainCorpus
/// lexicon built from raw text.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "classify/approx_classifier.h"
#include "classify/naive_bayes.h"
#include "core/integration_system.h"
#include "dense_classifier_oracle.h"
#include "obs/stats.h"
#include "synth/many_domains.h"
#include "util/bitset.h"
#include "util/random.h"

namespace paygo {
namespace {

using dense_oracle::DenseClassifier;
using dense_oracle::DenseConditionals;

constexpr std::uint64_t kSeed = 20261017;

/// Prints the seed once per test so a failure can be replayed.
std::uint64_t TestSeed(std::uint64_t salt) {
  const std::uint64_t seed = kSeed + salt;
  std::printf("sparse_classifier_differential_test seed %llu\n",
              static_cast<unsigned long long>(seed));
  return seed;
}

/// A random corpus in feature space plus its domains, in schema order.
/// Domain ids follow their first member, so the first n schemas always
/// span a prefix of the domains — the shape incremental arrivals have.
struct World {
  std::size_t dim = 0;
  std::vector<DynamicBitset> features;
  std::vector<std::vector<std::uint32_t>> clusters;
  std::vector<std::vector<std::pair<std::uint32_t, double>>> memberships;

  /// The domain model over the first \p n schemas.
  DomainModel ModelOf(std::size_t n) const {
    std::vector<std::vector<std::uint32_t>> c;
    for (const auto& cluster : clusters) {
      if (cluster.front() >= n) break;
      c.emplace_back();
      for (std::uint32_t s : cluster) {
        if (s < n) c.back().push_back(s);
      }
    }
    return DomainModel::Build(
        std::move(c),
        std::vector<std::vector<std::pair<std::uint32_t, double>>>(
            memberships.begin(), memberships.begin() + n));
  }
  std::vector<DynamicBitset> FeaturesOf(std::size_t n) const {
    return {features.begin(), features.begin() + n};
  }
};

/// Schema 0 and schema 1 found domains 0 and 1 and are their only
/// members: domain 0 with no membership at all, domain 1 with an explicit
/// zero probability — both are zero-mass domains. Every later schema
/// joins a random domain from 2 on or founds a new one, and is certain,
/// split with an older domain, or dropped. Features range from empty to
/// every bit set.
World MakeWorld(std::size_t dim, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  World w;
  w.dim = dim;
  w.clusters = {{0}, {1}};
  w.memberships = {{}, {{1, 0.0}}};
  std::vector<std::size_t> uncertain = {0, 0};
  for (std::uint32_t s = 0; s < n; ++s) {
    DynamicBitset f(dim);
    switch (rng.NextBelow(5)) {
      case 0:
        break;  // no feature
      case 1:
        for (int k = 0; k < 3; ++k) f.Set(rng.NextBelow(dim));
        break;
      case 2:
        for (std::size_t k = 0; k < dim / 8 + 1; ++k) f.Set(rng.NextBelow(dim));
        break;
      case 3:
        for (std::size_t j = 0; j < dim; ++j) {
          if (rng.NextBernoulli(0.5)) f.Set(j);
        }
        break;
      default:
        f.SetAll();
        break;
    }
    w.features.push_back(std::move(f));
    if (s < 2) continue;
    std::uint32_t home;
    if (w.clusters.size() == 2 || rng.NextBernoulli(0.3)) {
      home = static_cast<std::uint32_t>(w.clusters.size());
      w.clusters.push_back({s});
      uncertain.push_back(0);
    } else {
      home = 2 + static_cast<std::uint32_t>(
                     rng.NextBelow(w.clusters.size() - 2));
      w.clusters[home].push_back(s);
    }
    const std::uint32_t other =
        2 + static_cast<std::uint32_t>(rng.NextBelow(w.clusters.size() - 2));
    const std::uint64_t kind = rng.NextBelow(10);
    if (kind < 3 && other != home && uncertain[home] < 8 &&
        uncertain[other] < 8) {
      const double p = 0.2 + 0.6 * rng.NextDouble();
      auto pair = std::vector<std::pair<std::uint32_t, double>>{
          {home, p}, {other, 1.0 - p}};
      if (other < home) std::swap(pair[0], pair[1]);
      w.memberships.push_back(std::move(pair));
      ++uncertain[home];
      ++uncertain[other];
    } else if (kind == 3) {
      w.memberships.push_back({});  // dropped by Algorithm 3
    } else {
      w.memberships.push_back({{home, 1.0}});
    }
  }
  return w;
}

std::vector<DynamicBitset> MakeQueries(std::size_t dim, std::size_t count,
                                       Rng& rng) {
  std::vector<DynamicBitset> queries;
  for (std::size_t i = 0; i < count; ++i) {
    DynamicBitset q(dim);
    if (i % 16 == 15) {
      q.SetAll();
    } else {
      for (std::size_t k = 0; k < i % 7; ++k) q.Set(rng.NextBelow(dim));
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

void ExpectSameRanking(const std::vector<DomainScore>& got,
                       const std::vector<DomainScore>& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].domain, want[k].domain) << where << " rank " << k;
    EXPECT_EQ(got[k].log_posterior, want[k].log_posterior)
        << where << " rank " << k;
  }
}

/// Conditionals, priors and every classify path against the oracle.
void ExpectMatchesOracle(const NaiveBayesClassifier& clf,
                         const DenseClassifier& oracle,
                         const std::vector<DynamicBitset>& queries,
                         const std::string& where) {
  ASSERT_EQ(clf.num_domains(), oracle.rows().size()) << where;
  for (std::uint32_t r = 0; r < clf.num_domains(); ++r) {
    const DenseConditionals& want = oracle.rows()[r];
    ASSERT_EQ(clf.dim(), want.q1.size()) << where;
    EXPECT_EQ(clf.Prior(r), want.prior) << where << " prior of domain " << r;
    for (std::size_t j = 0; j < want.q1.size(); ++j) {
      EXPECT_EQ(clf.FeatureProb(r, j), want.q1[j])
          << where << " q1(" << r << ", " << j << ")";
    }
  }
  std::vector<std::vector<DomainScore>> expected;
  for (const DynamicBitset& q : queries) expected.push_back(oracle.Classify(q));

  ClassifyScratch scratch;
  std::vector<DomainScore> single;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::string at = where + " query " + std::to_string(i);
    ExpectSameRanking(clf.Classify(queries[i]), expected[i], at + " Classify");
    clf.ClassifyInto(queries[i], &scratch, &single);
    ExpectSameRanking(single, expected[i], at + " ClassifyInto");
  }
  std::vector<std::vector<DomainScore>> batched;
  for (std::size_t batch : {1u, 8u, 64u}) {
    for (std::size_t start = 0; start + batch <= queries.size();
         start += batch) {
      clf.ClassifyBatchInto(
          std::span<const DynamicBitset>(queries.data() + start, batch),
          &scratch, &batched);
      ASSERT_EQ(batched.size(), batch);
      for (std::size_t b = 0; b < batch; ++b) {
        ExpectSameRanking(batched[b], expected[start + b],
                          where + " batch " + std::to_string(batch) +
                              " query " + std::to_string(start + b));
      }
    }
  }
}

std::vector<bool> SingletonFlags(const DomainModel& model) {
  std::vector<bool> flags;
  for (std::uint32_t r = 0; r < model.num_domains(); ++r) {
    flags.push_back(model.IsSingletonDomain(r));
  }
  return flags;
}

enum class Engine { kFactored, kExpectedWorld, kMonteCarlo };

const char* EngineName(Engine e) {
  switch (e) {
    case Engine::kFactored: return "factored";
    case Engine::kExpectedWorld: return "expected-world";
    case Engine::kMonteCarlo: return "monte-carlo";
  }
  return "?";
}

constexpr std::size_t kMonteCarloSamples = 64;
constexpr std::uint64_t kMonteCarloSeed = 11;

Result<NaiveBayesClassifier> BuildWith(Engine engine, const DomainModel& model,
                                       const std::vector<DynamicBitset>& f,
                                       std::size_t total,
                                       const ClassifierOptions& options) {
  ApproxClassifierOptions approx;
  approx.num_samples = kMonteCarloSamples;
  approx.seed = kMonteCarloSeed;
  approx.base = options;
  switch (engine) {
    case Engine::kFactored:
      return NaiveBayesClassifier::Build(model, f, total, options);
    case Engine::kExpectedWorld:
      approx.kind = ApproxKind::kExpectedWorld;
      return BuildApproxClassifier(model, f, total, approx);
    case Engine::kMonteCarlo:
      approx.kind = ApproxKind::kMonteCarlo;
      return BuildApproxClassifier(model, f, total, approx);
  }
  return Status::InvalidArgument("unknown engine");
}

std::vector<DenseConditionals> OracleRows(Engine engine,
                                          const DomainModel& model,
                                          std::span<const DynamicBitset> f,
                                          std::size_t total) {
  std::vector<DenseConditionals> rows;
  for (std::uint32_t r = 0; r < model.num_domains(); ++r) {
    switch (engine) {
      case Engine::kFactored:
        rows.push_back(dense_oracle::ExactRow(model, r, f, total));
        break;
      case Engine::kExpectedWorld:
        rows.push_back(dense_oracle::ExpectedWorldRow(model, r, f, total));
        break;
      case Engine::kMonteCarlo:
        rows.push_back(dense_oracle::MonteCarloRow(
            model, r, f, total, kMonteCarloSamples, kMonteCarloSeed));
        break;
    }
  }
  return rows;
}

TEST(SparseClassifierDifferentialTest, EnginesMatchDenseOracle) {
  const std::uint64_t seed = TestSeed(1);
  for (std::size_t dim : {1u, 63u, 64u, 65u}) {
    const World w = MakeWorld(dim, 40, seed + dim);
    const DomainModel model = w.ModelOf(w.features.size());
    Rng rng(seed ^ dim);
    const std::vector<DynamicBitset> queries = MakeQueries(dim, 64, rng);
    for (Engine engine :
         {Engine::kFactored, Engine::kExpectedWorld, Engine::kMonteCarlo}) {
      for (bool skip : {false, true}) {
        const std::string where = std::string(EngineName(engine)) + " dim " +
                                  std::to_string(dim) +
                                  (skip ? " skip-singletons" : "");
        ClassifierOptions options;
        options.skip_singleton_domains = skip;
        auto clf = BuildWith(engine, model, w.features, w.features.size(),
                             options);
        ASSERT_TRUE(clf.ok()) << where << ": " << clf.status();
        const DenseClassifier oracle(
            OracleRows(engine, model, w.features, w.features.size()),
            SingletonFlags(model), skip);
        ExpectMatchesOracle(*clf, oracle, queries, where);
      }
    }
  }
}

/// The thesis's literal 2^u enumeration (Section 5.3) lives only in the
/// oracle; the classifier's factored rows must agree with it to 1e-10.
TEST(SparseClassifierDifferentialTest, FactoredWithinToleranceOfExhaustive) {
  const std::uint64_t seed = TestSeed(1);
  for (std::size_t dim : {1u, 63u, 64u, 65u}) {
    const World w = MakeWorld(dim, 40, seed + dim);
    const DomainModel model = w.ModelOf(w.features.size());
    auto clf = NaiveBayesClassifier::Build(model, w.features,
                                           w.features.size(), {});
    ASSERT_TRUE(clf.ok()) << clf.status();
    for (std::uint32_t r = 0; r < model.num_domains(); ++r) {
      const DenseConditionals want =
          dense_oracle::ExactRow(model, r, w.features, w.features.size(),
                                 dense_oracle::WorldSum::kExhaustive);
      const std::string where =
          "dim " + std::to_string(dim) + " domain " + std::to_string(r);
      EXPECT_NEAR(clf->Prior(r), want.prior, 1e-12) << where;
      for (std::size_t j = 0; j < dim; ++j) {
        EXPECT_NEAR(clf->FeatureProb(r, j), want.q1[j], 1e-10)
            << where << " q1 " << j;
      }
    }
  }
}

TEST(SparseClassifierDifferentialTest, ChainedUpdateDomainsMatchesBuild) {
  const std::uint64_t seed = TestSeed(2);
  for (std::size_t dim : {1u, 63u, 64u, 65u}) {
    const World w = MakeWorld(dim, 48, seed + dim);
    Rng rng(seed ^ dim);
    const std::vector<DynamicBitset> queries = MakeQueries(dim, 64, rng);
    const Engine engine = Engine::kFactored;
    std::size_t n = 8;
    auto chained = BuildWith(engine, w.ModelOf(n), w.FeaturesOf(n), n, {});
    ASSERT_TRUE(chained.ok()) << chained.status();
    while (n < w.features.size()) {
      // One to three arrivals per step, each touching its domains.
      const std::size_t next =
          std::min(w.features.size(), n + 1 + rng.NextBelow(3));
      std::vector<std::uint32_t> affected;
      for (std::size_t s = n; s < next; ++s) {
        for (const auto& [d, p] : w.memberships[s]) affected.push_back(d);
      }
      n = next;
      const DomainModel model = w.ModelOf(n);
      const std::vector<DynamicBitset> features = w.FeaturesOf(n);
      auto updated = NaiveBayesClassifier::UpdateDomains(
          *chained, model, features, n, affected);
      ASSERT_TRUE(updated.ok()) << updated.status();
      chained = std::move(updated);
      auto rebuilt = BuildWith(engine, model, features, n, {});
      ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();

      const std::string where = std::string(EngineName(engine)) + " dim " +
                                std::to_string(dim) + " n " +
                                std::to_string(n);
      ASSERT_EQ(chained->num_domains(), rebuilt->num_domains()) << where;
      for (std::uint32_t r = 0; r < rebuilt->num_domains(); ++r) {
        EXPECT_EQ(chained->conditionals()[r], rebuilt->conditionals()[r])
            << where << " domain " << r;
      }
      const DenseClassifier oracle(OracleRows(engine, model, features, n),
                                   SingletonFlags(model), false);
      ExpectMatchesOracle(*chained, oracle, queries, where + " chained");
    }
  }
}

TEST(SparseClassifierDifferentialTest, WithPriorsMatchesDenseOracle) {
  const std::uint64_t seed = TestSeed(3);
  for (std::size_t dim : {1u, 63u, 64u, 65u}) {
    const World w = MakeWorld(dim, 40, seed + dim);
    const DomainModel model = w.ModelOf(w.features.size());
    auto clf = NaiveBayesClassifier::Build(model, w.features,
                                           w.features.size(), {});
    ASSERT_TRUE(clf.ok()) << clf.status();
    Rng rng(seed ^ dim);
    std::vector<double> priors;
    for (std::uint32_t r = 0; r < clf->num_domains(); ++r) {
      // Zero priors too: a domain the clicks never favor.
      priors.push_back(r % 5 == 4 ? 0.0 : rng.NextDouble());
    }
    auto reweighted = clf->WithPriors(priors);
    ASSERT_TRUE(reweighted.ok()) << reweighted.status();
    DenseClassifier oracle(OracleRows(Engine::kFactored, model, w.features,
                                      w.features.size()),
                           SingletonFlags(model), false);
    oracle.SetPriors(priors);
    ExpectMatchesOracle(*reweighted, oracle, MakeQueries(dim, 64, rng),
                        "WithPriors dim " + std::to_string(dim));
  }
}

TEST(SparseClassifierDifferentialTest, ManyDomainLexiconMatchesDenseOracle) {
  const std::uint64_t seed = TestSeed(4);
  SystemOptions options;
  options.sparse_build = true;
  auto built = IntegrationSystem::Build(
      MakeManyDomainCorpus({.num_domains = 150, .seed = seed}), options);
  ASSERT_TRUE(built.ok()) << built.status();
  const IntegrationSystem& sys = **built;
  const std::size_t dim = sys.lexicon().dim();

  // Queries shaped like keyword queries: a few features of one schema,
  // plus a few arbitrary ones.
  Rng rng(seed);
  std::vector<DynamicBitset> queries;
  for (std::size_t i = 0; i < 64; ++i) {
    DynamicBitset q(dim);
    const std::vector<std::size_t> bits =
        sys.features()[rng.NextBelow(sys.features().size())].SetBits();
    for (std::size_t k = 0; k < bits.size(); k += 1 + i % 3) q.Set(bits[k]);
    if (i % 4 == 0) q.Set(rng.NextBelow(dim));
    queries.push_back(std::move(q));
  }
  const DenseClassifier oracle(
      OracleRows(Engine::kFactored, sys.domains(), sys.features(),
                 sys.corpus().size()),
      SingletonFlags(sys.domains()), false);
  ExpectMatchesOracle(sys.classifier(), oracle, queries, "many-domain");
}

TEST(SparseClassifierDifferentialTest, WebShapeModelIsUnderFivePercentDense) {
  TestSeed(5);
  SystemOptions options;
  options.sparse_build = true;
  options.build_classifier = false;
  auto built = IntegrationSystem::Build(
      MakeManyDomainCorpus({.num_domains = 1000}), options);
  ASSERT_TRUE(built.ok()) << built.status();
  const IntegrationSystem& sys = **built;
  auto clf = NaiveBayesClassifier::Build(sys.domains(), sys.features(),
                                         sys.corpus().size(), {});
  ASSERT_TRUE(clf.ok()) << clf.status();
  const double dense_bytes = 2.0 * static_cast<double>(clf->num_domains()) *
                             static_cast<double>(clf->dim()) * 8.0;
  std::printf("web shape: %zu domains x %zu features, model %zu bytes "
              "(dense rows %.0f bytes)\n",
              clf->num_domains(), clf->dim(), clf->MemoryBytes(), dense_bytes);
  EXPECT_GE(clf->num_domains(), 1000u);
  EXPECT_LT(static_cast<double>(clf->MemoryBytes()), 0.05 * dense_bytes);
  EXPECT_EQ(StatsRegistry::Global()
                .GetGauge("paygo.classifier.model_bytes")
                ->value(),
            static_cast<std::int64_t>(clf->MemoryBytes()));
}

}  // namespace
}  // namespace paygo
