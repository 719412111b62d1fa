#include "text/lcs.h"

#include <gtest/gtest.h>

#include <string>

#include "util/random.h"

namespace paygo {
namespace {

TEST(LcsDpTest, BasicCases) {
  EXPECT_EQ(LcsLengthDp("hello", "hello"), 5u);
  EXPECT_EQ(LcsLengthDp("abcdef", "zabcy"), 3u);  // "abc"
  EXPECT_EQ(LcsLengthDp("abc", "xyz"), 0u);
  EXPECT_EQ(LcsLengthDp("", "abc"), 0u);
  EXPECT_EQ(LcsLengthDp("abc", ""), 0u);
}

TEST(LcsDpTest, SubstringNotSubsequence) {
  // Common subsequence "abc" exists but longest common SUBSTRING is 1.
  EXPECT_EQ(LcsLengthDp("axbxc", "abc"), 1u);
}

TEST(LcsDpTest, SchemaTermExamples) {
  // departure vs departures: "departure" (9 chars) is a substring.
  EXPECT_EQ(LcsLengthDp("departure", "departures"), 9u);
  // departure vs departing share "depart".
  EXPECT_EQ(LcsLengthDp("departure", "departing"), 6u);
}

TEST(LcsDpTest, Symmetric) {
  EXPECT_EQ(LcsLengthDp("professor", "professional"),
            LcsLengthDp("professional", "professor"));
}

TEST(LcsDpTest, RepeatedSubstringCases) {
  EXPECT_EQ(LcsLengthDp("bibliography", "biography"), 8u);  // "iography"
  EXPECT_EQ(LcsLengthDp("bibliography", "bibliography"), 12u);
  EXPECT_EQ(LcsLengthDp("bibliography", "zzz"), 0u);
}

TEST(LcsDpTest, PeriodicInputs) {
  EXPECT_EQ(LcsLengthDp("abcabcabc", "cabca"), 5u);
  EXPECT_EQ(LcsLengthDp("abcabcabc", "abcabcabc"), 9u);
}

TEST(LcsDpTest, HandlesNonLetterBytes) {
  EXPECT_EQ(LcsLengthDp("a-b-c", "b-c"), 3u);
  EXPECT_EQ(LcsLengthDp("12345", "234"), 3u);
}

/// Brute-force oracle: the longest substring of the shorter input that
/// occurs in the longer one, trying every substring.
std::size_t LcsLengthBruteForce(const std::string& a, const std::string& b) {
  const std::string& shorter = a.size() <= b.size() ? a : b;
  const std::string& longer = a.size() <= b.size() ? b : a;
  std::size_t best = 0;
  for (std::size_t i = 0; i < shorter.size(); ++i) {
    for (std::size_t len = best + 1; i + len <= shorter.size(); ++len) {
      if (longer.find(shorter.substr(i, len)) != std::string::npos) {
        best = len;
      }
    }
  }
  return best;
}

/// Property: the DP agrees with the brute-force oracle on random strings,
/// including inputs past the 64-byte on-stack row.
TEST(LcsPropertyTest, DpAgreesWithBruteForce) {
  Rng rng(77);
  const std::string alphabet = "abcde";
  for (int trial = 0; trial < 300; ++trial) {
    std::string a, b;
    const std::size_t max_len = trial % 10 == 9 ? 100 : 20;
    const std::size_t la = rng.NextBelow(max_len);
    const std::size_t lb = rng.NextBelow(max_len);
    for (std::size_t i = 0; i < la; ++i) {
      a.push_back(alphabet[rng.NextBelow(alphabet.size())]);
    }
    for (std::size_t i = 0; i < lb; ++i) {
      b.push_back(alphabet[rng.NextBelow(alphabet.size())]);
    }
    EXPECT_EQ(LcsLengthDp(a, b), LcsLengthBruteForce(a, b))
        << "a=" << a << " b=" << b;
  }
}

/// Property: LCS length is bounded by both string lengths and is exactly
/// the length for identical strings.
TEST(LcsPropertyTest, Bounds) {
  Rng rng(88);
  const std::string alphabet = "abc";
  for (int trial = 0; trial < 200; ++trial) {
    std::string a, b;
    const std::size_t la = 1 + rng.NextBelow(15);
    const std::size_t lb = 1 + rng.NextBelow(15);
    for (std::size_t i = 0; i < la; ++i) {
      a.push_back(alphabet[rng.NextBelow(alphabet.size())]);
    }
    for (std::size_t i = 0; i < lb; ++i) {
      b.push_back(alphabet[rng.NextBelow(alphabet.size())]);
    }
    const std::size_t lcs = LcsLengthDp(a, b);
    EXPECT_LE(lcs, std::min(a.size(), b.size()));
    EXPECT_EQ(LcsLengthDp(a, a), a.size());
  }
}

}  // namespace
}  // namespace paygo
