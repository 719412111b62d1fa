#ifndef PAYGO_CLUSTER_LINKAGE_H_
#define PAYGO_CLUSTER_LINKAGE_H_

/// \file linkage.h
/// \brief Schema and cluster similarity measures (Sections 4.2 and 6.1.2).
///
/// Schema-to-schema similarity is the Jaccard coefficient over binary
/// feature vectors. Cluster-to-cluster similarity comes in the four flavors
/// the thesis evaluates: Avg. Jaccard (the default; group-average linkage),
/// Min. Jaccard (complete-link analog on similarities), Max. Jaccard
/// (single-link analog), and Total Jaccard (set-based over cluster term
/// summaries).

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "schema/feature_postings.h"
#include "util/bitset.h"

namespace paygo {

/// \brief The four cluster-to-cluster similarity measures of Section 6.1.2.
enum class LinkageKind {
  /// Average of all cross-cluster schema-pair similarities (thesis default).
  kAverage,
  /// Minimum cross-pair similarity.
  kMin,
  /// Maximum cross-pair similarity.
  kMax,
  /// |features common to ALL schemas of both clusters| /
  /// |features present in ANY schema of either cluster|.
  kTotal,
};

/// Human-readable name ("Avg. Jaccard", ...), matching the thesis figures.
std::string LinkageKindName(LinkageKind kind);

/// All four linkage kinds, in figure order.
const std::vector<LinkageKind>& AllLinkageKinds();

/// \brief Memoized schema-to-schema Jaccard similarities (s_sim).
///
/// The thesis notes all schema-to-schema similarities "should be computed
/// and memoized in advance so as to avoid recomputing them multiple times
/// during clustering"; this is that cache.
///
/// Storage is the packed lower triangle, one immutable row per schema:
/// row k holds float(Jaccard(F_j, F_k)) for j < k followed by the diagonal
/// (1, or 0 for an empty vector), k + 1 floats behind its own shared_ptr.
/// n(n+1)/2 floats in all: 2323 schemas (DDH) need ~10.8 MB. Rows never
/// change once built, so the row constructor shares every old row with its
/// base and only adds the appended one; clones that extend the same base
/// branch without copying or touching its cells.
///
/// At(i, j) reads row max(i, j) at index min(i, j). The upper half of a
/// full row i is therefore a column of the triangle, one row per cell;
/// readers that sweep whole rows go through ForEachRow, which gathers
/// kPanelRows rows at a time so that a column is read kPanelRows
/// contiguous cells at a time.
class SimilarityMatrix {
 public:
  /// Rows gathered per ForEachRow panel.
  static constexpr std::size_t kPanelRows = 32;

  /// Computes Jaccard(F_i, F_j) for all pairs, each once. \p num_threads
  /// spreads the O(n^2) fill over a worker pool (0 = hardware_concurrency,
  /// 1 = serial); every row is written by exactly one row chunk, so the
  /// matrix is bit-identical at any thread count.
  explicit SimilarityMatrix(std::span<const DynamicBitset> features,
                            std::size_t num_threads = 1);

  /// Appends one schema, id n = base.size(), given its exact similarity
  /// row against the n old schemas (FeaturePostings::JaccardRow: ascending
  /// ids, zeros omitted) and whether it sets any feature. The old rows are
  /// shared with \p base; the new row holds float(sim) at the row's ids,
  /// +0 elsewhere (what float(Jaccard) is for a pair sharing no feature)
  /// and the diagonal, so it is bit-identical to a from-scratch build's.
  /// No Jaccard work: AddSchema's matrix refresh.
  SimilarityMatrix(const SimilarityMatrix& base,
                   std::span<const JaccardEntry> row, bool nonempty);

  /// s_sim(S_i, S_j); symmetric, At(i, i) == 1 for non-empty vectors.
  double At(std::size_t i, std::size_t j) const {
    return i >= j ? rows_[i][j] : rows_[j][i];
  }

  /// Stored row \p i: cells j = 0..i, row[j] == At(i, j).
  std::span<const float> Row(std::size_t i) const {
    return {rows_[i].get(), i + 1};
  }

  /// Calls fn(i, row) for i = lo..hi-1 in order, where row is the full
  /// symmetric row i: size() floats with row[j] == At(i, j).
  template <typename Fn>
  void ForEachRow(std::size_t lo, std::size_t hi, Fn&& fn) const {
    if (lo >= hi) return;
    const std::size_t n = size();
    std::vector<float> panel(std::min(kPanelRows, hi - lo) * n);
    for (std::size_t begin = lo; begin < hi; begin += kPanelRows) {
      const std::size_t end = std::min(hi, begin + kPanelRows);
      GatherRows(begin, end, panel.data());
      for (std::size_t i = begin; i < end; ++i) {
        fn(i, std::span<const float>(panel.data() + (i - begin) * n, n));
      }
    }
  }

  /// Number of schemas.
  std::size_t size() const { return rows_.size(); }

 private:
  /// Writes full rows lo..hi-1 into \p out, row-major with stride size().
  void GatherRows(std::size_t lo, std::size_t hi, float* out) const;

  std::vector<std::shared_ptr<const float[]>> rows_;
};

}  // namespace paygo

#endif  // PAYGO_CLUSTER_LINKAGE_H_
