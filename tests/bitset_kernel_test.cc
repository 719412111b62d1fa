/// \file bitset_kernel_test.cc
/// \brief Differential tests for the bitset popcount kernels.
///
/// Every kernel flavor this CPU runs (DynamicBitset::Kernels(): the
/// portable unrolled loop, x86 hardware `popcnt`, NEON on ARM), called
/// directly and through the run-time dispatch (AndCount / OrCount /
/// Jaccard / JaccardRow), must be bit-identical to the scalar reference,
/// for every word count 0..9, for ragged tail widths (1, 63, 64, 65, 127
/// bits) and for the DDH corpus's 213 features: the tail word is the
/// classic place a fast popcount goes wrong. Since every kernel counts
/// exact integers there is no tolerance anywhere — EXPECT_EQ only.

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/bitset.h"

namespace paygo {
namespace {

/// All bit widths the suite sweeps: every whole-word count 0..9 plus the
/// ragged tails, the DDH dimensionality, plus a couple of wide ragged
/// sizes that exercise an unrolled main loop AND a tail in the same vector.
std::vector<std::size_t> TestWidths() {
  std::vector<std::size_t> widths;
  for (std::size_t words = 0; words <= 9; ++words) widths.push_back(words * 64);
  for (std::size_t ragged : {1u, 63u, 64u, 65u, 127u}) widths.push_back(ragged);
  widths.push_back(213);           // the DDH corpus's features
  widths.push_back(8 * 64 + 17);   // unrolled blocks + odd tail
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

/// Every kernel flavor, called directly and through the dispatch, against
/// the scalar oracle, plus the inclusion-exclusion identity that ties the
/// two counts to the individual popcounts.
void ExpectKernelsAgree(const DynamicBitset& a, const DynamicBitset& b) {
  const std::size_t and_scalar = DynamicBitset::AndCountScalar(a, b);
  const std::size_t or_scalar = DynamicBitset::OrCountScalar(a, b);
  const double jaccard_scalar = DynamicBitset::JaccardScalar(a, b);

  for (const BitsetKernel& kernel : DynamicBitset::Kernels()) {
    std::size_t inter = 0, uni = 0;
    kernel.and_or_count(a.words(), b.words(), a.num_words(), &inter, &uni);
    EXPECT_EQ(inter, and_scalar)
        << kernel.name << " AND count at " << a.size() << " bits";
    EXPECT_EQ(uni, or_scalar)
        << kernel.name << " OR count at " << a.size() << " bits";

    const std::uint32_t count = static_cast<std::uint32_t>(a.Count());
    float cell = -1.0f;
    kernel.jaccard_row(&a, &count, 1, b, &cell);
    EXPECT_EQ(cell, static_cast<float>(jaccard_scalar))
        << kernel.name << " Jaccard row at " << a.size() << " bits";
  }

  EXPECT_EQ(DynamicBitset::AndCount(a, b), and_scalar)
      << "dispatch kernel " << DynamicBitset::KernelName()
      << " disagrees with scalar AndCount at " << a.size() << " bits";
  EXPECT_EQ(DynamicBitset::OrCount(a, b), or_scalar)
      << "dispatch kernel " << DynamicBitset::KernelName()
      << " disagrees with scalar OrCount at " << a.size() << " bits";

  // Jaccard is a single division of the two exact counts, so the fused
  // AND+OR dispatch pass must reproduce the scalar division bit-for-bit.
  EXPECT_EQ(DynamicBitset::Jaccard(a, b), jaccard_scalar);

  // Inclusion-exclusion ties the two counts to the individual popcounts.
  EXPECT_EQ(and_scalar + or_scalar, a.Count() + b.Count());
}

TEST(BitsetKernelTest, KernelNameIsKnownFlavor) {
  const std::string name = DynamicBitset::KernelName();
  EXPECT_TRUE(name == "popcnt" || name == "neon" || name == "unrolled")
      << name;
  ASSERT_FALSE(DynamicBitset::Kernels().empty());
  EXPECT_EQ(std::string(DynamicBitset::Kernels().front().name), "unrolled");
  EXPECT_EQ(name, DynamicBitset::Kernels().back().name);
}

TEST(BitsetKernelTest, HardwarePopcountIsChosenWhenTheCpuHasIt) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("popcnt")) {
    GTEST_SKIP() << "no popcnt on this CPU";
  }
  EXPECT_EQ(std::string(DynamicBitset::KernelName()), "popcnt");
#else
  GTEST_SKIP() << "x86 only";
#endif
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

/// Whole rows through every flavor's row kernel and the dispatched
/// JaccardRow: cell j is float(JaccardScalar(rows[j], b)) bit for bit,
/// including empty rows (0) and rows equal to b (1).
TEST(BitsetKernelTest, JaccardRowMatchesScalarPerCell) {
  std::mt19937_64 rng(213);
  for (std::size_t width : TestWidths()) {
    std::vector<DynamicBitset> rows;
    for (double density : {0.0, 0.02, 0.1, 0.5, 0.95}) {
      for (int rep = 0; rep < 4; ++rep) {
        rows.push_back(RandomBitset(width, density, &rng));
      }
    }
    const DynamicBitset b = RandomBitset(width, 0.1, &rng);
    rows.push_back(b);
    std::vector<std::uint32_t> counts;
    for (const DynamicBitset& r : rows) {
      counts.push_back(static_cast<std::uint32_t>(r.Count()));
    }
    std::vector<float> want(rows.size());
    for (std::size_t j = 0; j < rows.size(); ++j) {
      want[j] = static_cast<float>(DynamicBitset::JaccardScalar(rows[j], b));
    }
    for (const BitsetKernel& kernel : DynamicBitset::Kernels()) {
      std::vector<float> got(rows.size(), -1.0f);
      kernel.jaccard_row(rows.data(), counts.data(), rows.size(), b,
                         got.data());
      EXPECT_EQ(got, want) << kernel.name << " at " << width << " bits";
    }
    std::vector<float> dispatched(rows.size(), -1.0f);
    DynamicBitset::JaccardRow(rows, counts, b, dispatched.data());
    EXPECT_EQ(dispatched, want) << "dispatch at " << width << " bits";
    // An empty row writes nothing.
    DynamicBitset::JaccardRow({}, {}, b, nullptr);
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
