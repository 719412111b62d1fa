#include "cluster/linkage.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

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

TEST(SimilarityMatrixTest, BitwiseAtAnyThreadCount) {
  const std::vector<DynamicBitset> f = RandomFeatures(150, 11);
  const SimilarityMatrix serial(f);
  for (std::size_t threads : {2u, 4u}) {
    EXPECT_EQ(CellMismatches(SimilarityMatrix(f, threads), serial), 0u)
        << "threads = " << threads;
  }
}

// Hac::Run(features, options) and the features overload of
// AssignProbabilities compute the cells where they read them; they equal
// the matrix's only because every cell is float(Jaccard), exactly.
TEST(SimilarityMatrixTest, CellsAreFloatJaccard) {
  const std::vector<DynamicBitset> f = RandomFeatures(60, 17);
  const SimilarityMatrix sims(f);
  for (std::size_t i = 0; i < f.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_EQ(sims.At(i, j),
                static_cast<float>(DynamicBitset::Jaccard(f[i], f[j])))
          << i << ", " << j;
    }
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
