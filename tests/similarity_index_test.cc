#include "text/similarity_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/stats.h"
#include "schema/lexicon.h"
#include "synth/many_domains.h"
#include "text/tokenizer.h"
#include "util/random.h"

namespace paygo {
namespace {

std::vector<std::string> Lexicon1() {
  return {"author",  "authors",   "departure", "departures", "departing",
          "title",   "professor", "name",      "make",       "model"};
}

TEST(SimilarityIndexTest, NeighborhoodsIncludeSelf) {
  SimilarityIndex idx(Lexicon1(), TermSimilarity(TermSimilarityKind::kLcs),
                      0.8);
  for (std::size_t i = 0; i < idx.terms().size(); ++i) {
    const auto& nb = idx.Neighbors(i);
    EXPECT_TRUE(std::find(nb.begin(), nb.end(), i) != nb.end());
  }
}

TEST(SimilarityIndexTest, PluralsAreNeighbors) {
  const auto terms = Lexicon1();
  SimilarityIndex idx(terms, TermSimilarity(TermSimilarityKind::kLcs), 0.8);
  const auto author_it = std::find(terms.begin(), terms.end(), "author");
  const auto authors_it = std::find(terms.begin(), terms.end(), "authors");
  const std::uint32_t a =
      static_cast<std::uint32_t>(author_it - terms.begin());
  const std::uint32_t as =
      static_cast<std::uint32_t>(authors_it - terms.begin());
  const auto& nb = idx.Neighbors(a);
  EXPECT_TRUE(std::find(nb.begin(), nb.end(), as) != nb.end());
}

TEST(SimilarityIndexTest, NeighborhoodsAreSymmetric) {
  SimilarityIndex idx(Lexicon1(), TermSimilarity(TermSimilarityKind::kLcs),
                      0.8);
  for (std::uint32_t i = 0; i < idx.terms().size(); ++i) {
    for (std::uint32_t j : idx.Neighbors(i)) {
      const auto& nb = idx.Neighbors(j);
      EXPECT_TRUE(std::find(nb.begin(), nb.end(), i) != nb.end());
    }
  }
}

TEST(SimilarityIndexTest, MatchFindsInLexiconTerm) {
  SimilarityIndex idx(Lexicon1(), TermSimilarity(TermSimilarityKind::kLcs),
                      0.8);
  const auto hits = idx.Match("departure");
  // departure matches itself and "departures".
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(idx.terms()[hits[0]], "departure");
  EXPECT_EQ(idx.terms()[hits[1]], "departures");
}

TEST(SimilarityIndexTest, MatchFindsOutOfLexiconVariant) {
  SimilarityIndex idx(Lexicon1(), TermSimilarity(TermSimilarityKind::kLcs),
                      0.8);
  // "titles" is not in the lexicon but matches "title".
  const auto hits = idx.Match("titles");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(idx.terms()[hits[0]], "title");
}

TEST(SimilarityIndexTest, MatchUnrelatedTermIsEmpty) {
  SimilarityIndex idx(Lexicon1(), TermSimilarity(TermSimilarityKind::kLcs),
                      0.8);
  EXPECT_TRUE(idx.Match("zzzzzz").empty());
  EXPECT_TRUE(idx.Match("").empty());
}

TEST(SimilarityIndexTest, StemKindGroupsByStem) {
  std::vector<std::string> terms = {"rating", "ratings", "rated", "price"};
  SimilarityIndex idx(terms, TermSimilarity(TermSimilarityKind::kStem), 0.5);
  // rating & ratings share the stem "rate"... verify via Match.
  const auto hits = idx.Match("rating");
  EXPECT_GE(hits.size(), 2u);
}

TEST(SimilarityIndexTest, ExactKindIsIdentityOnly) {
  SimilarityIndex idx(Lexicon1(), TermSimilarity(TermSimilarityKind::kExact),
                      0.5);
  for (std::size_t i = 0; i < idx.terms().size(); ++i) {
    EXPECT_EQ(idx.Neighbors(i).size(), 1u);
  }
}

TEST(SimilarityIndexTest, StemAndExactMatchAgreeWithComputeOverLexicon) {
  // Stem buckets and the exact lookup answer Match without scanning the
  // lexicon; they must equal the exhaustive definition.
  std::vector<std::string> terms = Lexicon1();
  for (const char* t : {"rating", "ratings", "rated", "price", "prices"}) {
    terms.push_back(t);
  }
  std::sort(terms.begin(), terms.end());
  for (auto kind : {TermSimilarityKind::kStem, TermSimilarityKind::kExact}) {
    const TermSimilarity sim(kind);
    const SimilarityIndex idx(terms, sim, 0.8);
    for (const char* probe : {"authors", "author", "departed", "departures",
                              "titles", "priced", "rate", "zzz", "a"}) {
      std::vector<std::uint32_t> expected;
      for (std::uint32_t j = 0; j < terms.size(); ++j) {
        if (sim.Compute(probe, terms[j]) >= 0.8) expected.push_back(j);
      }
      EXPECT_EQ(idx.Match(probe), expected) << probe;
    }
  }
}

TEST(SimilarityIndexTest, CopiedIndexAnswersLikeTheOriginal) {
  // FeatureVectorizer's copy constructor copies the index, lookup
  // structures included.
  for (auto kind : {TermSimilarityKind::kLcs, TermSimilarityKind::kStem,
                    TermSimilarityKind::kExact}) {
    const SimilarityIndex original(Lexicon1(), TermSimilarity(kind), 0.8);
    const SimilarityIndex copy = original;
    for (const char* probe : {"authors", "departing", "titles", "zzzz"}) {
      EXPECT_EQ(copy.Match(probe), original.Match(probe)) << probe;
    }
  }
}

// ---------------------------------------------------------------------------
// Differential fuzz against the exhaustive oracle.
//
// Neighborhoods and Match answers of the filtered index must equal an
// O(V^2) loop over TermSimilarity::Compute: adversarial lexicons (periodic
// terms with repeated q-grams, lengths 1-24, bytes >= 0x80), thresholds
// from 0.3 to 1.0, 1/2/4 build threads, and probes that are empty, shorter
// than q, or mutated out of the lexicon. On failure the SCOPED_TRACE prints
// the round's seed. PAYGO_DETERMINISM_SMALL=1 shrinks the rounds (TSan CI).

bool SmallFuzzMode() {
  const char* v = std::getenv("PAYGO_DETERMINISM_SMALL");
  return v != nullptr && std::string(v) != "0";
}

std::string RandomBytes(Rng& rng, std::size_t len) {
  // A small alphabet makes long common substrings likely; 0xC3/0xA9 and
  // 0xFF are non-ASCII bytes.
  static const char kAlphabet[] = {'a', 'b', 'c', '\xC3', '\xA9', '\xFF'};
  const std::size_t letters = rng.NextBernoulli(0.5) ? 2 : sizeof(kAlphabet);
  std::string s;
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(kAlphabet[rng.NextBelow(letters)]);
  }
  return s;
}

std::string Periodic(Rng& rng, std::size_t len) {
  const std::string unit = RandomBytes(rng, 1 + rng.NextBelow(3));
  std::string s;
  while (s.size() < len) s += unit;
  s.resize(len);
  return s;
}

std::vector<std::string> AdversarialLexicon(Rng& rng, std::size_t count) {
  std::vector<std::string> terms;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = 1 + rng.NextBelow(24);
    terms.push_back(rng.NextBernoulli(0.3) ? Periodic(rng, len)
                                           : RandomBytes(rng, len));
  }
  // Near-duplicates of existing terms, so similar pairs exist at every tau.
  for (std::size_t i = 0; i < count / 2; ++i) {
    std::string t = terms[rng.NextBelow(terms.size())];
    t.insert(rng.NextBelow(t.size() + 1), 1, 'c');
    terms.push_back(std::move(t));
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  return terms;
}

std::string Mutate(Rng& rng, std::string t) {
  const std::size_t edits = 1 + rng.NextBelow(3);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t op = rng.NextBelow(3);
    if (op == 0 || t.empty()) {
      t.insert(rng.NextBelow(t.size() + 1), 1, RandomBytes(rng, 1)[0]);
    } else if (op == 1) {
      t.erase(rng.NextBelow(t.size()), 1);
    } else {
      t[rng.NextBelow(t.size())] = RandomBytes(rng, 1)[0];
    }
  }
  return t;
}

/// The exhaustive answers: neighborhoods and Match results from an O(V^2)
/// loop over TermSimilarity::Compute.
struct Oracle {
  std::vector<std::vector<std::uint32_t>> neighbors;
  std::vector<std::vector<std::uint32_t>> matches;  // one per probe
};

Oracle ExhaustiveOracle(const std::vector<std::string>& terms,
                        const TermSimilarity& sim, double tau,
                        const std::vector<std::string>& probes) {
  Oracle oracle;
  oracle.neighbors.resize(terms.size());
  for (std::uint32_t i = 0; i < terms.size(); ++i) {
    for (std::uint32_t j = 0; j < terms.size(); ++j) {
      if (i == j || sim.Compute(terms[i], terms[j]) >= tau) {
        oracle.neighbors[i].push_back(j);
      }
    }
  }
  for (const std::string& probe : probes) {
    std::vector<std::uint32_t>& out = oracle.matches.emplace_back();
    if (probe.empty()) continue;
    for (std::uint32_t j = 0; j < terms.size(); ++j) {
      if (sim.Compute(probe, terms[j]) >= tau) out.push_back(j);
    }
  }
  return oracle;
}

/// Builds the index at 1, 2 and 4 threads and
/// checks every neighborhood and every probe's Match answer against the
/// oracle; returns the number of mismatches.
int CountMismatches(const std::vector<std::string>& terms,
                    const TermSimilarity& sim, double tau,
                    const std::vector<std::string>& probes) {
  const Oracle oracle = ExhaustiveOracle(terms, sim, tau, probes);
  int mismatches = 0;
  for (std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const SimilarityIndex idx(terms, sim, tau, threads);
    for (std::uint32_t i = 0; i < terms.size(); ++i) {
      if (idx.Neighbors(i) != oracle.neighbors[i]) {
        ++mismatches;
        ADD_FAILURE() << "neighborhood of term " << i << " (" << terms[i]
                      << ")";
      }
    }
    for (std::size_t p = 0; p < probes.size(); ++p) {
      if (idx.Match(probes[p]) != oracle.matches[p]) {
        ++mismatches;
        ADD_FAILURE() << "Match(\"" << probes[p] << "\")";
      }
    }
  }
  return mismatches;
}

TEST(SimilarityIndexFuzzTest, AdversarialLexiconsMatchExhaustiveOracle) {
  const int rounds = SmallFuzzMode() ? 2 : 6;
  const std::size_t lexicon_size = SmallFuzzMode() ? 60 : 150;
  const TermSimilarity sim(TermSimilarityKind::kLcs);
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t seed = 0x5EED0000u + static_cast<std::uint64_t>(round);
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::vector<std::string> terms =
        AdversarialLexicon(rng, lexicon_size);
    std::vector<std::string> probes = {"", "a", "ab", "\xC3\xA9", "aaaaaaa",
                                       "abababab", "ababababab"};
    for (int p = 0; p < 40; ++p) {
      const std::string& base = terms[rng.NextBelow(terms.size())];
      probes.push_back(p % 4 == 0 ? base : Mutate(rng, base));
    }
    for (double tau : {0.3, 0.5, 0.7, 0.8, 0.9, 1.0}) {
      SCOPED_TRACE("tau " + std::to_string(tau));
      ASSERT_EQ(CountMismatches(terms, sim, tau, probes), 0);
    }
  }
}

TEST(SimilarityIndexFuzzTest, ManyDomainLexiconMatchesExhaustiveOracle) {
  // The web corpus shape: many private vocabularies of 7-letter words with
  // a domain-number suffix.
  ManyDomainOptions gen;
  gen.num_domains = SmallFuzzMode() ? 20 : 60;
  const SchemaCorpus corpus = MakeManyDomainCorpus(gen);
  const Tokenizer tokenizer;
  const Lexicon lexicon = Lexicon::Build(corpus, tokenizer);
  const std::vector<std::string>& terms = lexicon.terms();
  ASSERT_GT(terms.size(), 100u);
  Rng rng(gen.seed);
  std::vector<std::string> probes;
  for (int p = 0; p < 60; ++p) {
    probes.push_back(Mutate(rng, terms[rng.NextBelow(terms.size())]));
  }
  const TermSimilarity sim(TermSimilarityKind::kLcs);
  for (double tau : {0.5, 0.8}) {
    SCOPED_TRACE("tau " + std::to_string(tau));
    ASSERT_EQ(CountMismatches(terms, sim, tau, probes), 0);
  }
}

TEST(SimilarityIndexFuzzTest, EditDistanceKindsMatchExhaustiveOracle) {
  // The edit-distance kinds keep the exhaustive scan under their length
  // bound, through the same length buckets.
  Rng rng(77);
  const std::vector<std::string> terms = AdversarialLexicon(rng, 60);
  std::vector<std::string> probes = {"", "a", "abc"};
  for (int p = 0; p < 20; ++p) {
    probes.push_back(Mutate(rng, terms[rng.NextBelow(terms.size())]));
  }
  for (auto kind :
       {TermSimilarityKind::kLevenshtein, TermSimilarityKind::kJaroWinkler}) {
    ASSERT_EQ(CountMismatches(terms, TermSimilarity(kind), 0.7, probes), 0);
  }
}

TEST(SimilarityIndexFuzzTest, ConcurrentMatchCallersAgreeWithSerial) {
  // Server workers featurize queries against one shared index; each thread
  // keeps its own filter scratch.
  Rng rng(91);
  const std::vector<std::string> terms = AdversarialLexicon(rng, 80);
  const SimilarityIndex idx(terms, TermSimilarity(TermSimilarityKind::kLcs),
                            0.7);
  std::vector<std::string> probes;
  for (int p = 0; p < 64; ++p) {
    probes.push_back(Mutate(rng, terms[rng.NextBelow(terms.size())]));
  }
  std::vector<std::vector<std::uint32_t>> expected;
  for (const std::string& probe : probes) expected.push_back(idx.Match(probe));
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      for (int pass = 0; pass < 5; ++pass) {
        for (std::size_t p = 0; p < probes.size(); ++p) {
          const std::size_t k = (p + static_cast<std::size_t>(w) * 16) %
                                probes.size();
          if (idx.Match(probes[k]) != expected[k]) ++mismatches[w];
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

/// Property: the prefiltered neighborhoods match an exhaustive O(V^2)
/// reference at thresholds where the q-gram count filter applies and where
/// short pairs fall back to the exhaustive length-bucket scan.
class SimilarityIndexPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(SimilarityIndexPropertyTest, AgreesWithExhaustiveReference) {
  const double tau = GetParam();
  Rng rng(1234);
  const std::string alphabet = "abcdefgh";
  std::vector<std::string> terms;
  for (int i = 0; i < 60; ++i) {
    std::string t;
    const std::size_t len = 3 + rng.NextBelow(8);
    for (std::size_t k = 0; k < len; ++k) {
      t.push_back(alphabet[rng.NextBelow(alphabet.size())]);
    }
    terms.push_back(std::move(t));
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  TermSimilarity sim(TermSimilarityKind::kLcs);
  SimilarityIndex idx(terms, sim, tau);
  for (std::uint32_t i = 0; i < terms.size(); ++i) {
    std::vector<std::uint32_t> expected;
    for (std::uint32_t j = 0; j < terms.size(); ++j) {
      if (i == j || sim.Compute(terms[i], terms[j]) >= tau) {
        expected.push_back(j);
      }
    }
    EXPECT_EQ(idx.Neighbors(i), expected) << "term " << terms[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, SimilarityIndexPropertyTest,
                         ::testing::Values(0.3, 0.5, 0.7, 0.8, 0.9));

TEST(SimilarityIndexTest, BuildStatsAggregateOncePerBuild) {
  // Build instrumentation is accumulated per scan chunk and flushed to the
  // registry exactly once per build: a parallel build must report the SAME
  // counter deltas as the serial build of the same lexicon (no tearing, no
  // per-call-site double counting).
  std::vector<std::string> terms;
  Rng rng(4321);
  for (int i = 0; i < 120; ++i) {
    std::string t;
    const std::size_t len = 4 + rng.NextBelow(8);
    for (std::size_t k = 0; k < len; ++k) {
      t.push_back(static_cast<char>('a' + rng.NextBelow(12)));
    }
    terms.push_back(std::move(t));
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  StatsRegistry& reg = StatsRegistry::Global();
  Counter* builds = reg.GetCounter("paygo.simindex.builds");
  Counter* evaluated = reg.GetCounter("paygo.simindex.pairs_evaluated");
  Counter* pruned = reg.GetCounter("paygo.simindex.pairs_pruned");

  const std::uint64_t builds0 = builds->value();
  const std::uint64_t evaluated0 = evaluated->value();
  const std::uint64_t pruned0 = pruned->value();
  SimilarityIndex serial(terms, TermSimilarity(TermSimilarityKind::kLcs), 0.8,
                         /*num_threads=*/1);
  const std::uint64_t serial_builds = builds->value() - builds0;
  const std::uint64_t serial_evaluated = evaluated->value() - evaluated0;
  const std::uint64_t serial_pruned = pruned->value() - pruned0;
  EXPECT_EQ(serial_builds, 1u);
  EXPECT_GT(serial_evaluated + serial_pruned, 0u);

  const std::uint64_t builds1 = builds->value();
  const std::uint64_t evaluated1 = evaluated->value();
  const std::uint64_t pruned1 = pruned->value();
  SimilarityIndex parallel(terms, TermSimilarity(TermSimilarityKind::kLcs),
                           0.8, /*num_threads=*/4);
  EXPECT_EQ(builds->value() - builds1, 1u);
  EXPECT_EQ(evaluated->value() - evaluated1, serial_evaluated);
  EXPECT_EQ(pruned->value() - pruned1, serial_pruned);

  for (std::size_t i = 0; i < terms.size(); ++i) {
    ASSERT_EQ(serial.Neighbors(i), parallel.Neighbors(i)) << "term " << i;
  }
}

}  // namespace
}  // namespace paygo
