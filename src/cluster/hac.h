#ifndef PAYGO_CLUSTER_HAC_H_
#define PAYGO_CLUSTER_HAC_H_

/// \file hac.h
/// \brief Algorithm 2: agglomerative hierarchical clustering of schemas.
///
/// Starts from singleton clusters and repeatedly merges the most similar
/// pair until the best pair's similarity drops below tau_c_sim. One engine
/// does the merging: it keeps cluster similarities memoized (the thesis's
/// O(|U|) update per merge) and finds the best pair through per-row
/// nearest-neighbour bounds (Müllner's "generic" algorithm): each row keeps
/// its best candidate, a merge refreshes or flags only the rows it touches,
/// and only flagged rows are rescanned. O(n^2) memory; O(n^2) time per run
/// in the typical case, O(n^3) in the worst.
///
/// Run() feeds the engine the whole dense SimilarityMatrix. RunOnGraph()
/// feeds it one tau-component at a time. Under Avg, Min and Max linkage a
/// merge at or above tau needs some cross pair at or above tau, so every
/// cluster lies inside one connected component of the tau-graph (edges =
/// pairs with similarity >= tau, plus the must-link pairs). Clustering each
/// component on its own and interleaving the per-component merge sequences
/// in the engine's (similarity desc, slot_a asc, slot_b asc) order gives
/// the dense run's dendrogram merge for merge, in O(c^2) memory for the
/// largest component c instead of O(n^2). A naive O(n^3) engine that
/// recomputes linkage from the raw schema-pair similarities each iteration
/// is kept as a correctness reference for tests.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "cluster/linkage.h"
#include "util/bitset.h"
#include "util/status.h"

namespace paygo {

class NeighborGraph;

/// \brief Options of Algorithm 2.
struct HacOptions {
  /// Cluster-similarity measure (thesis default: Avg. Jaccard).
  LinkageKind linkage = LinkageKind::kAverage;
  /// Stop merging when the best pair's similarity is below this
  /// (thesis recommends 0.2-0.3). Ignored when max_clusters is set.
  double tau_c_sim = 0.25;
  /// Alternative termination (Section 2.1.1): merge until exactly this
  /// many clusters remain, regardless of similarity. 0 disables it. This
  /// is the stopping rule pre-specified-k baselines like [17] use.
  std::size_t max_clusters = 0;
  /// Use the O(n^3) reference engine (tests only).
  bool use_naive_engine = false;
  /// Worker threads for the O(n^2) phases of the engine (row-bound seeding
  /// and per-merge candidate re-evaluation), for the dense
  /// similarity-matrix build of the convenience overload. RunOnGraph
  /// runs its tau-components one after another on one pool of this width.
  /// 0 = hardware_concurrency, 1 = the exact legacy serial path (default).
  /// The result is bit-identical to the serial path at every thread count
  /// and for every linkage: every key cell and row bound is written by the
  /// one chunk that owns its row, from the same inputs the serial path
  /// reads, and merge candidates tie-break on (similarity, slot_a, slot_b)
  /// — never on arrival order.
  std::size_t num_threads = 1;
  /// Instance-level constraints from user feedback (Chapter 7 future
  /// work): schema pairs that must end up in the same cluster — merged
  /// before agglomeration starts — and pairs that may never share a
  /// cluster — the best merge violating one is skipped. A pair appearing
  /// in both lists is an error.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> must_link;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cannot_link;
};

/// \brief One merge step of the dendrogram.
struct HacMerge {
  /// Indices (into the evolving cluster list; see HacResult::clusters for
  /// the final flat clusters) of the merged pair's member slots.
  std::uint32_t slot_a = 0;
  std::uint32_t slot_b = 0;
  /// Similarity at which the merge happened.
  double similarity = 0.0;
};

/// \brief Output of Algorithm 2: the final flat clustering plus the merge
/// history.
struct HacResult {
  /// C = {C_1..C_|C|}: each cluster is a sorted list of schema indices.
  /// Clusters partition the input schemas. Sorted by first member.
  std::vector<std::vector<std::uint32_t>> clusters;
  /// Merge history, in merge order (for inspection and tests).
  std::vector<HacMerge> merges;

  /// Cluster index containing schema \p schema_id.
  std::uint32_t ClusterOf(std::uint32_t schema_id) const;
  /// Number of singleton clusters (= unclustered schemas, Section 6.1.2).
  std::size_t NumSingletons() const;
};

/// \brief Runs Algorithm 2.
class Hac {
 public:
  /// Clusters schemas given their feature vectors. \p features and the
  /// precomputed \p sims must describe the same schemas. \p features is
  /// only consulted by the Total-Jaccard linkage (cluster AND/OR
  /// summaries); the other linkages work from \p sims alone.
  static Result<HacResult> Run(std::span<const DynamicBitset> features,
                               const SimilarityMatrix& sims,
                               const HacOptions& options);

  /// Convenience overload that computes the similarity matrix itself.
  static Result<HacResult> Run(std::span<const DynamicBitset> features,
                               const HacOptions& options);

  /// Clusters over a prebuilt NeighborGraph without a dense matrix. The
  /// graph's tau-components (edges at or above tau_c_sim, joined by the
  /// must-link pairs) are clustered one by one, largest first, on one
  /// ThreadPool; each gets a local key triangle of c(c-1)/2 doubles (about
  /// 4 c^2 bytes) scattered from its members' graph rows, where an absent
  /// edge counts as similarity 0. When the largest component's triangle
  /// would pass 2 GiB (more than 23,170 schemas) the call returns
  /// ResourceExhausted before clustering anything. The graph holds every
  /// nonzero similarity exactly, so the merges and clusters are bitwise
  /// those of Run() on the dense matrix, at any thread count.
  /// Supports Avg, Min and Max linkage with tau_c_sim > 0; Total Jaccard
  /// and max_clusters count mode, which can merge across components, are
  /// rejected. use_naive_engine is ignored.
  static Result<HacResult> RunOnGraph(const NeighborGraph& graph,
                                      const HacOptions& options);
};

}  // namespace paygo

#endif  // PAYGO_CLUSTER_HAC_H_
