#include "cluster/linkage.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "extend_by_arrivals.h"
#include "util/random.h"

namespace paygo {
namespace {

std::vector<DynamicBitset> MakeFeatures() {
  // Three 8-dimensional vectors:
  //   f0 = {0,1,2,3}, f1 = {2,3,4,5}, f2 = {6,7}.
  std::vector<DynamicBitset> f(3, DynamicBitset(8));
  for (std::size_t i : {0u, 1u, 2u, 3u}) f[0].Set(i);
  for (std::size_t i : {2u, 3u, 4u, 5u}) f[1].Set(i);
  for (std::size_t i : {6u, 7u}) f[2].Set(i);
  return f;
}

TEST(SimilarityMatrixTest, JaccardValues) {
  const SimilarityMatrix sims(MakeFeatures());
  EXPECT_EQ(sims.size(), 3u);
  // |{2,3}| / |{0..5}| = 2/6.
  EXPECT_NEAR(sims.At(0, 1), 2.0 / 6.0, 1e-6);
  EXPECT_NEAR(sims.At(0, 2), 0.0, 1e-6);
  EXPECT_NEAR(sims.At(1, 2), 0.0, 1e-6);
}

TEST(SimilarityMatrixTest, SymmetricWithUnitDiagonal) {
  const SimilarityMatrix sims(MakeFeatures());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(sims.At(i, i), 1.0, 1e-6);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(sims.At(i, j), sims.At(j, i), 1e-9);
    }
  }
}

TEST(SimilarityMatrixTest, EmptyVectorSelfSimilarityIsZero) {
  std::vector<DynamicBitset> f(2, DynamicBitset(4));
  f[0].Set(0);
  const SimilarityMatrix sims(f);
  EXPECT_NEAR(sims.At(1, 1), 0.0, 1e-9);
  EXPECT_NEAR(sims.At(0, 0), 1.0, 1e-9);
}

/// \p n random 96-dimensional vectors from \p seed, every seventh one
/// empty (diagonal 0) so both diagonal cases appear.
std::vector<DynamicBitset> RandomFeatures(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<DynamicBitset> f(n, DynamicBitset(96));
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 7 == 3) continue;
    const std::size_t bits = 1 + rng.NextBelow(12);
    for (std::size_t b = 0; b < bits; ++b) f[i].Set(rng.NextBelow(96));
  }
  return f;
}

/// The first \p n vectors of \p f.
std::vector<DynamicBitset> Prefix(const std::vector<DynamicBitset>& f,
                                  std::size_t n) {
  return {f.begin(), f.begin() + static_cast<std::ptrdiff_t>(n)};
}

/// Number of cells where \p a and \p b differ bitwise (0 when equal).
std::size_t CellMismatches(const SimilarityMatrix& a,
                           const SimilarityMatrix& b) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      if (a.At(i, j) != b.At(i, j)) ++mismatches;
    }
  }
  return mismatches;
}

TEST(SimilarityMatrixTest, RowsArePackedLowerTriangle) {
  const std::vector<DynamicBitset> f = RandomFeatures(20, 3);
  const SimilarityMatrix sims(f);
  for (std::size_t i = 0; i < sims.size(); ++i) {
    const std::span<const float> row = sims.Row(i);
    ASSERT_EQ(row.size(), i + 1);
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_EQ(static_cast<double>(row[j]), sims.At(i, j));
      EXPECT_EQ(sims.At(i, j), sims.At(j, i));
    }
  }
}

TEST(SimilarityMatrixTest, ForEachRowYieldsFullSymmetricRows) {
  // 150 schemas span three panels; [5, 140) starts and ends mid-panel.
  const SimilarityMatrix sims(RandomFeatures(150, 5));
  std::size_t next = 5;
  sims.ForEachRow(5, 140, [&](std::size_t i, std::span<const float> row) {
    EXPECT_EQ(i, next++);
    ASSERT_EQ(row.size(), sims.size());
    for (std::size_t j = 0; j < sims.size(); ++j) {
      EXPECT_EQ(static_cast<double>(row[j]), sims.At(i, j))
          << "cell (" << i << ", " << j << ")";
    }
  });
  EXPECT_EQ(next, 140u);
  sims.ForEachRow(7, 7, [&](std::size_t, std::span<const float>) {
    ADD_FAILURE() << "empty range visited a row";
  });
}

TEST(SimilarityMatrixTest, ExtensionChainMatchesScratchBuildAtAnyThreadCount) {
  const std::vector<DynamicBitset> f = RandomFeatures(150, 11);
  std::vector<SimilarityMatrix> chain;
  chain.emplace_back(Prefix(f, 100));
  // Single-row extensions 100 -> 120, then one 30-row extension to 150.
  for (std::size_t n = 101; n <= 120; ++n) {
    chain.push_back(ExtendByArrivals(chain.back(), Prefix(f, n)));
  }
  chain.push_back(ExtendByArrivals(chain.back(), f));
  for (const SimilarityMatrix& ext : chain) {
    const std::vector<DynamicBitset> prefix = Prefix(f, ext.size());
    for (std::size_t threads : {1u, 2u, 4u}) {
      const SimilarityMatrix scratch(prefix, threads);
      EXPECT_EQ(CellMismatches(ext, scratch), 0u)
          << "n = " << ext.size() << ", threads = " << threads;
    }
  }
}

TEST(SimilarityMatrixTest, ExtensionSharesEveryBaseRow) {
  const std::vector<DynamicBitset> f = RandomFeatures(80, 17);
  const SimilarityMatrix base(Prefix(f, 70));
  const SimilarityMatrix one = ExtendByArrivals(base, Prefix(f, 71));
  const SimilarityMatrix many = ExtendByArrivals(one, f);
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(one.Row(i).data(), base.Row(i).data()) << "row " << i;
    EXPECT_EQ(many.Row(i).data(), base.Row(i).data()) << "row " << i;
  }
  EXPECT_EQ(many.Row(70).data(), one.Row(70).data());
}

TEST(SimilarityMatrixTest, BranchedExtensionsLeaveBaseAndSiblingIntact) {
  // Two clones extend one base with different arrivals.
  const std::vector<DynamicBitset> left = RandomFeatures(75, 23);
  std::vector<DynamicBitset> right = Prefix(left, 60);
  for (const DynamicBitset& extra : RandomFeatures(15, 29)) {
    right.push_back(extra);
  }
  const SimilarityMatrix base(Prefix(left, 60));
  const SimilarityMatrix base_copy(Prefix(left, 60));
  const SimilarityMatrix left_child = ExtendByArrivals(base, left);
  const SimilarityMatrix right_child = ExtendByArrivals(base, right);
  EXPECT_EQ(CellMismatches(left_child, SimilarityMatrix(left)), 0u);
  EXPECT_EQ(CellMismatches(right_child, SimilarityMatrix(right)), 0u);
  EXPECT_EQ(CellMismatches(base, base_copy), 0u);
  EXPECT_NE(CellMismatches(left_child, right_child), 0u);
}

TEST(SimilarityMatrixTest, ExtensionByNothingSharesEverything) {
  const std::vector<DynamicBitset> f = RandomFeatures(10, 31);
  const SimilarityMatrix base(f);
  const SimilarityMatrix same = ExtendByArrivals(base, f);
  ASSERT_EQ(same.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(same.Row(i).data(), base.Row(i).data());
  }
}

TEST(LinkageKindTest, NamesMatchThesisFigures) {
  EXPECT_EQ(LinkageKindName(LinkageKind::kAverage), "Avg. Jaccard");
  EXPECT_EQ(LinkageKindName(LinkageKind::kMin), "Min. Jaccard");
  EXPECT_EQ(LinkageKindName(LinkageKind::kMax), "Max. Jaccard");
  EXPECT_EQ(LinkageKindName(LinkageKind::kTotal), "Total Jaccard");
}

TEST(LinkageKindTest, AllKindsListed) {
  EXPECT_EQ(AllLinkageKinds().size(), 4u);
}

}  // namespace
}  // namespace paygo
