/// \file bitset_kernel_test.cc
/// \brief Differential tests for the bitset popcount kernels.
///
/// The dispatch kernels (AndCount / OrCount / Jaccard — AVX2, NEON, or the
/// portable 4x-unrolled loop depending on the build) must be bit-identical
/// to the always-compiled scalar reference, for every word count 0..9 and
/// for ragged tail widths (1, 63, 64, 65, 127 bits): the tail word is the
/// classic place a vectorized popcount goes wrong. Since every kernel
/// counts exact integers there is no tolerance anywhere — EXPECT_EQ only.

#include <cstddef>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "util/bitset.h"

namespace paygo {
namespace {

/// All bit widths the suite sweeps: every whole-word count 0..9 plus the
/// ragged tails the ISSUE calls out, plus a couple of wide ragged sizes
/// that exercise the SIMD main loop AND a tail in the same vector.
std::vector<std::size_t> TestWidths() {
  std::vector<std::size_t> widths;
  for (std::size_t words = 0; words <= 9; ++words) widths.push_back(words * 64);
  for (std::size_t ragged : {1u, 63u, 64u, 65u, 127u}) widths.push_back(ragged);
  widths.push_back(8 * 64 + 17);   // SIMD blocks + odd tail
  widths.push_back(5 * 64 + 63);   // odd word count + full tail word
  return widths;
}

DynamicBitset RandomBitset(std::size_t num_bits, double density,
                           std::mt19937_64* rng) {
  DynamicBitset bits(num_bits);
  std::bernoulli_distribution coin(density);
  for (std::size_t i = 0; i < num_bits; ++i) {
    if (coin(*rng)) bits.Set(i);
  }
  return bits;
}

/// Every kernel flavor against the scalar oracle, plus the internal
/// consistency identities (|a AND b| <= min counts, inclusion-exclusion).
void ExpectKernelsAgree(const DynamicBitset& a, const DynamicBitset& b) {
  const std::size_t and_scalar = DynamicBitset::AndCountScalar(a, b);
  const std::size_t or_scalar = DynamicBitset::OrCountScalar(a, b);

  EXPECT_EQ(DynamicBitset::AndCount(a, b), and_scalar)
      << "dispatch kernel " << DynamicBitset::KernelName()
      << " disagrees with scalar AndCount at " << a.size() << " bits";
  EXPECT_EQ(DynamicBitset::OrCount(a, b), or_scalar)
      << "dispatch kernel " << DynamicBitset::KernelName()
      << " disagrees with scalar OrCount at " << a.size() << " bits";
  EXPECT_EQ(DynamicBitset::AndCountUnrolled(a, b), and_scalar);
  EXPECT_EQ(DynamicBitset::OrCountUnrolled(a, b), or_scalar);

  // Jaccard is a single division of the two exact counts, so the fused
  // AND+OR dispatch pass must reproduce the scalar division bit-for-bit.
  EXPECT_EQ(DynamicBitset::Jaccard(a, b), DynamicBitset::JaccardScalar(a, b));

  // Inclusion-exclusion ties the two counts to the individual popcounts.
  EXPECT_EQ(and_scalar + or_scalar, a.Count() + b.Count());
}

TEST(BitsetKernelTest, KernelNameIsKnownFlavor) {
  const std::string name = DynamicBitset::KernelName();
  EXPECT_TRUE(name == "avx2" || name == "neon" || name == "unrolled") << name;
}

TEST(BitsetKernelTest, AllZeros) {
  for (std::size_t width : TestWidths()) {
    DynamicBitset a(width);
    DynamicBitset b(width);
    ExpectKernelsAgree(a, b);
    EXPECT_EQ(DynamicBitset::AndCount(a, b), 0u);
    EXPECT_EQ(DynamicBitset::OrCount(a, b), 0u);
    EXPECT_EQ(DynamicBitset::Jaccard(a, b), 0.0);  // empty/empty convention
  }
}

TEST(BitsetKernelTest, AllOnes) {
  for (std::size_t width : TestWidths()) {
    DynamicBitset a(width);
    DynamicBitset b(width);
    a.SetAll();
    b.SetAll();
    ExpectKernelsAgree(a, b);
    EXPECT_EQ(DynamicBitset::AndCount(a, b), width);
    EXPECT_EQ(DynamicBitset::OrCount(a, b), width);
    if (width > 0) {
      EXPECT_EQ(DynamicBitset::Jaccard(a, b), 1.0);
    }
  }
}

TEST(BitsetKernelTest, AllOnesAgainstAllZeros) {
  for (std::size_t width : TestWidths()) {
    DynamicBitset ones(width);
    ones.SetAll();
    DynamicBitset zeros(width);
    ExpectKernelsAgree(ones, zeros);
    EXPECT_EQ(DynamicBitset::AndCount(ones, zeros), 0u);
    EXPECT_EQ(DynamicBitset::OrCount(ones, zeros), width);
  }
}

TEST(BitsetKernelTest, RandomPatternsEveryWidthAndDensity) {
  std::mt19937_64 rng(20260807);
  for (std::size_t width : TestWidths()) {
    for (double density : {0.01, 0.1, 0.5, 0.9, 0.99}) {
      for (int rep = 0; rep < 8; ++rep) {
        DynamicBitset a = RandomBitset(width, density, &rng);
        DynamicBitset b = RandomBitset(width, density, &rng);
        ExpectKernelsAgree(a, b);
      }
    }
  }
}

TEST(BitsetKernelTest, SingleBitWalkAcrossTailBoundary) {
  // One set bit walked across every position of a 127-bit vector catches
  // any kernel that mishandles a specific lane or the final half word.
  constexpr std::size_t kWidth = 127;
  DynamicBitset ones(kWidth);
  ones.SetAll();
  for (std::size_t i = 0; i < kWidth; ++i) {
    DynamicBitset a(kWidth);
    a.Set(i);
    ExpectKernelsAgree(a, ones);
    EXPECT_EQ(DynamicBitset::AndCount(a, ones), 1u);
    ExpectKernelsAgree(a, a);
    EXPECT_EQ(DynamicBitset::Jaccard(a, a), 1.0);
  }
}

TEST(BitsetKernelTest, JaccardMatchesDefinitionOnRandomInputs) {
  std::mt19937_64 rng(7);
  for (int rep = 0; rep < 64; ++rep) {
    DynamicBitset a = RandomBitset(300, 0.3, &rng);
    DynamicBitset b = RandomBitset(300, 0.3, &rng);
    const std::size_t inter = DynamicBitset::AndCountScalar(a, b);
    const std::size_t uni = DynamicBitset::OrCountScalar(a, b);
    const double expected =
        uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
    EXPECT_EQ(DynamicBitset::Jaccard(a, b), expected);
  }
}

TEST(BitsetKernelTest, AppendSetBitsMatchesSetBits) {
  std::mt19937_64 rng(11);
  std::vector<std::size_t> reused;
  for (std::size_t width : TestWidths()) {
    DynamicBitset a = RandomBitset(width, 0.4, &rng);
    reused.clear();
    a.AppendSetBits(&reused);
    EXPECT_EQ(reused, a.SetBits()) << "width " << width;
    EXPECT_EQ(reused.size(), a.Count());
  }
}

}  // namespace
}  // namespace paygo
