#include "text/term_similarity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "text/lcs.h"
#include "util/random.h"

namespace paygo {
namespace {

TEST(LcsTermSimilarityTest, MatchesThesisFormula) {
  // t_sim = 2 * LCS / (len1 + len2).
  EXPECT_DOUBLE_EQ(LcsTermSimilarity("abc", "abc"), 1.0);
  // LCS("abcd", "abxy") = 2; 2*2/(4+4) = 0.5.
  EXPECT_DOUBLE_EQ(LcsTermSimilarity("abcd", "abxy"), 0.5);
  EXPECT_DOUBLE_EQ(LcsTermSimilarity("abc", "xyz"), 0.0);
}

TEST(LcsTermSimilarityTest, PluralsPassTheDefaultThreshold) {
  // departure/departures: 2*9/(9+10) = 18/19 ~ 0.947 >= 0.8.
  EXPECT_GE(LcsTermSimilarity("departure", "departures"), 0.8);
  EXPECT_GE(LcsTermSimilarity("author", "authors"), 0.8);
}

TEST(LcsTermSimilarityTest, DifferentInflectionsFailTheDefaultThreshold) {
  // departure/departing share only "depart": 2*6/18 = 0.667 < 0.8.
  EXPECT_LT(LcsTermSimilarity("departure", "departing"), 0.8);
}

TEST(LcsTermSimilarityTest, EmptyTermsHaveZeroSimilarity) {
  EXPECT_DOUBLE_EQ(LcsTermSimilarity("", "abc"), 0.0);
  EXPECT_DOUBLE_EQ(LcsTermSimilarity("", ""), 0.0);
}

TEST(TermSimilarityTest, StemKindMatchesSameStemOnly) {
  TermSimilarity sim(TermSimilarityKind::kStem);
  EXPECT_DOUBLE_EQ(sim.Compute("departure", "departures"), 1.0);
  EXPECT_DOUBLE_EQ(sim.Compute("departure", "departing"), 0.0);
  EXPECT_DOUBLE_EQ(sim.Compute("cat", "cats"), 1.0);
  EXPECT_DOUBLE_EQ(sim.Compute("cat", "dog"), 0.0);
}

TEST(TermSimilarityTest, ExactKind) {
  TermSimilarity sim(TermSimilarityKind::kExact);
  EXPECT_DOUBLE_EQ(sim.Compute("title", "title"), 1.0);
  EXPECT_DOUBLE_EQ(sim.Compute("title", "titles"), 0.0);
}

/// Full-table longest-common-substring DP, the textbook definition.
std::size_t ReferenceLcs(const std::string& a, const std::string& b) {
  std::vector<std::vector<std::size_t>> dp(
      a.size() + 1, std::vector<std::size_t>(b.size() + 1, 0));
  std::size_t best = 0;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    for (std::size_t j = 1; j <= b.size(); ++j) {
      if (a[i - 1] != b[j - 1]) continue;
      dp[i][j] = dp[i - 1][j - 1] + 1;
      best = std::max(best, dp[i][j]);
    }
  }
  return best;
}

TEST(LcsTermSimilarityTest, DpKernelAgreesWithReferenceAroundStackCutoff) {
  // The kernel keeps its DP row on the stack when the shorter input has at
  // most 64 bytes and on the heap above that; both sides must agree with
  // the full-table reference, in either argument order.
  Rng rng(64);
  const std::string alphabet = "abc";
  auto random_string = [&](std::size_t len) {
    std::string s;
    for (std::size_t i = 0; i < len; ++i) {
      s.push_back(alphabet[rng.NextBelow(alphabet.size())]);
    }
    return s;
  };
  for (const std::size_t short_len :
       {0u, 1u, 7u, 62u, 63u, 64u, 65u, 66u, 100u}) {
    for (int trial = 0; trial < 20; ++trial) {
      const std::string a = random_string(short_len);
      const std::string b = random_string(short_len + rng.NextBelow(80));
      const std::size_t expected = ReferenceLcs(a, b);
      EXPECT_EQ(LcsLengthDp(a, b), expected) << a << " / " << b;
      EXPECT_EQ(LcsLengthDp(b, a), expected) << b << " / " << a;
    }
  }
}

TEST(TermSimilarityTest, UpperBoundDominatesLcsSimilarity) {
  TermSimilarity sim(TermSimilarityKind::kLcs);
  Rng rng(3);
  const std::string alphabet = "abcd";
  for (int trial = 0; trial < 200; ++trial) {
    std::string a, b;
    const std::size_t la = 1 + rng.NextBelow(12);
    const std::size_t lb = 1 + rng.NextBelow(12);
    for (std::size_t i = 0; i < la; ++i) {
      a.push_back(alphabet[rng.NextBelow(alphabet.size())]);
    }
    for (std::size_t i = 0; i < lb; ++i) {
      b.push_back(alphabet[rng.NextBelow(alphabet.size())]);
    }
    EXPECT_LE(sim.Compute(a, b), sim.UpperBound(a.size(), b.size()) + 1e-12);
  }
}

TEST(TermSimilarityTest, UpperBoundFormula) {
  TermSimilarity sim(TermSimilarityKind::kLcs);
  // 2*min(3,9)/(3+9) = 0.5.
  EXPECT_DOUBLE_EQ(sim.UpperBound(3, 9), 0.5);
  EXPECT_DOUBLE_EQ(sim.UpperBound(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(sim.UpperBound(0, 5), 0.0);
}

TEST(TermSimilarityTest, SymmetricAcrossKinds) {
  for (auto kind :
       {TermSimilarityKind::kLcs, TermSimilarityKind::kStem,
        TermSimilarityKind::kExact, TermSimilarityKind::kLevenshtein,
        TermSimilarityKind::kJaroWinkler}) {
    TermSimilarity sim(kind);
    EXPECT_DOUBLE_EQ(sim.Compute("professor", "professional"),
                     sim.Compute("professional", "professor"));
  }
}

TEST(LevenshteinTest, DistanceBasics) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
  EXPECT_EQ(LevenshteinDistance("same", "same"), 0u);
  EXPECT_EQ(LevenshteinDistance("ab", "ba"), 2u);
}

TEST(LevenshteinTest, SimilarityNormalized) {
  // kitten/sitting: 1 - 3/7.
  EXPECT_NEAR(LevenshteinSimilarity("kitten", "sitting"), 1.0 - 3.0 / 7.0,
              1e-12);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 0.0);
}

TEST(LevenshteinTest, UpperBoundHolds) {
  TermSimilarity sim(TermSimilarityKind::kLevenshtein);
  Rng rng(4);
  const std::string alphabet = "abcd";
  for (int trial = 0; trial < 200; ++trial) {
    std::string a, b;
    const std::size_t la = 1 + rng.NextBelow(10);
    const std::size_t lb = 1 + rng.NextBelow(10);
    for (std::size_t i = 0; i < la; ++i) {
      a.push_back(alphabet[rng.NextBelow(alphabet.size())]);
    }
    for (std::size_t i = 0; i < lb; ++i) {
      b.push_back(alphabet[rng.NextBelow(alphabet.size())]);
    }
    EXPECT_LE(sim.Compute(a, b), sim.UpperBound(a.size(), b.size()) + 1e-12);
  }
}

TEST(JaroWinklerTest, ClassicExamples) {
  // Standard reference values.
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.9444444444, 1e-9);
  EXPECT_NEAR(JaroWinklerSimilarity("martha", "marhta"), 0.9611111111, 1e-9);
  EXPECT_NEAR(JaroSimilarity("dixon", "dicksonx"), 0.7666666667, 1e-9);
  EXPECT_DOUBLE_EQ(JaroSimilarity("same", "same"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", "abc"), 0.0);
}

TEST(JaroWinklerTest, PrefixBoostOnlyHelps) {
  // Winkler adds a non-negative prefix bonus.
  for (const auto& [a, b] : std::vector<std::pair<std::string, std::string>>{
           {"departure", "departing"}, {"make", "made"}, {"title", "titles"}}) {
    EXPECT_GE(JaroWinklerSimilarity(a, b), JaroSimilarity(a, b) - 1e-12);
    EXPECT_LE(JaroWinklerSimilarity(a, b), 1.0 + 1e-12);
  }
}

TEST(NewKindsTest, PluralsPassReasonableThresholds) {
  TermSimilarity lev(TermSimilarityKind::kLevenshtein);
  TermSimilarity jw(TermSimilarityKind::kJaroWinkler);
  EXPECT_GE(lev.Compute("author", "authors"), 0.8);
  EXPECT_GE(jw.Compute("author", "authors"), 0.9);
}

}  // namespace
}  // namespace paygo
