#include "cluster/linkage.h"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "util/thread_pool.h"

namespace paygo {

std::string LinkageKindName(LinkageKind kind) {
  switch (kind) {
    case LinkageKind::kAverage:
      return "Avg. Jaccard";
    case LinkageKind::kMin:
      return "Min. Jaccard";
    case LinkageKind::kMax:
      return "Max. Jaccard";
    case LinkageKind::kTotal:
      return "Total Jaccard";
  }
  return "Unknown";
}

const std::vector<LinkageKind>& AllLinkageKinds() {
  static const std::vector<LinkageKind> kAll = {
      LinkageKind::kAverage, LinkageKind::kMin, LinkageKind::kMax,
      LinkageKind::kTotal};
  return kAll;
}

namespace {

/// Rows between a GatherRows prefetch and its use.
constexpr std::size_t kGatherPrefetchRows = 8;
constexpr std::size_t kFloatsPerLine = 64 / sizeof(float);

/// Row k of the triangle: Jaccard against every earlier schema, then the
/// diagonal. \p counts holds every feature vector's popcount.
std::shared_ptr<const float[]> ComputeRow(
    std::span<const DynamicBitset> features,
    std::span<const std::uint32_t> counts, std::size_t k) {
  std::shared_ptr<float[]> row = std::make_shared_for_overwrite<float[]>(k + 1);
  DynamicBitset::JaccardRow(features.first(k), counts.first(k), features[k],
                            row.get());
  row[k] = counts[k] == 0 ? 0.0f : 1.0f;
  return row;
}

}  // namespace

SimilarityMatrix::SimilarityMatrix(std::span<const DynamicBitset> features,
                                   std::size_t num_threads)
    : rows_(features.size()) {
  const std::size_t n = features.size();
  std::vector<std::uint32_t> counts(n);
  for (std::size_t k = 0; k < n; ++k) {
    counts[k] = static_cast<std::uint32_t>(features[k].Count());
  }
  // Each row is computed and stored by the one chunk that owns it, so
  // chunked rows race on nothing and the matrix is bit-identical at any
  // thread count.
  auto fill_rows = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      rows_[k] = ComputeRow(features, counts, k);
    }
  };
  const std::size_t width = ThreadPool::ResolveThreadCount(num_threads);
  if (width > 1 && n > 1) {
    ThreadPool pool(width);
    // Row k costs k Jaccards over dim-L bitsets; a small grain plus chunk
    // oversubscription balances the triangular load.
    pool.ParallelFor(0, n, /*grain=*/8, [&](const ThreadPool::Chunk& c) {
      fill_rows(c.begin, c.end);
    });
  } else {
    fill_rows(0, n);
  }
}

void SimilarityMatrix::GatherRows(std::size_t lo, std::size_t hi,
                                  float* out) const {
  const std::size_t n = size();
  // Cells j <= i: row i's own stored prefix.
  for (std::size_t i = lo; i < hi; ++i) {
    const float* row = rows_[i].get();
    std::copy(row, row + i + 1, out + (i - lo) * n);
  }
  // Cells j > i: column i of the triangle. Stored row j holds the panel's
  // cells (i, j) for i in [lo, min(hi, j)) contiguously. Every j is a
  // separate allocation the hardware prefetcher cannot predict, so the
  // next rows' segments are prefetched by hand.
  for (std::size_t j = lo + 1; j < n; ++j) {
    const std::size_t next = j + kGatherPrefetchRows;
    if (next < n) {
      const float* ahead = rows_[next].get();
      for (std::size_t i = lo; i < std::min(hi, next); i += kFloatsPerLine) {
        __builtin_prefetch(ahead + i);
      }
    }
    const float* row = rows_[j].get();
    const std::size_t end = std::min(hi, j);
    for (std::size_t i = lo; i < end; ++i) out[(i - lo) * n + j] = row[i];
  }
}

}  // namespace paygo
