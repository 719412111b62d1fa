#ifndef PAYGO_CLUSTER_HAC_H_
#define PAYGO_CLUSTER_HAC_H_

/// \file hac.h
/// \brief Algorithm 2: agglomerative hierarchical clustering of schemas.
///
/// Starts from singleton clusters and repeatedly merges the most similar
/// pair until the best pair's similarity drops below tau_c_sim. The fast
/// engine keeps cluster similarities memoized (the thesis's O(|U|) update
/// per merge) and finds the best pair through per-row nearest-neighbour
/// bounds (Müllner's "generic" algorithm): each row keeps its best
/// candidate, a merge refreshes or flags only the rows it touches, and only
/// flagged rows are rescanned. O(n^2) memory; O(n^2) time per run in the
/// typical case, O(n^3) in the worst. A naive O(n^3) engine that recomputes
/// linkage from the raw schema-pair similarities each iteration is kept as
/// a correctness reference for tests.

#include <cstdint>
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
  /// Use the sparse engine: candidate pairs come from an inverted feature
  /// index (schemas sharing no feature have Jaccard 0 and can never merge
  /// at tau > 0), and cluster similarities live in sparse per-cluster rows
  /// instead of the dense n x n matrix. Memory and initial-similarity work
  /// scale with the number of feature-sharing pairs rather than n^2 — the
  /// web-scale regime of the thesis's motivation. Candidate generation,
  /// row seeding, and per-merge row-combine re-evaluation all run on the
  /// shared ThreadPool (see num_threads), and the candidate pairs come
  /// from the NeighborGraph subsystem (exact mode), so the engine is
  /// bit-identical to its serial run at any thread count and
  /// merge-for-merge bitwise-identical to the dense fast engine. Supports
  /// the Lance-Williams-updatable linkages (Avg/Min/Max); Total Jaccard
  /// and max_clusters count mode (which needs all pairs) are rejected.
  bool use_sparse_engine = false;
  /// Worker threads for the O(n^2) phases of the fast engine (row-bound
  /// seeding and per-merge candidate re-evaluation) and for the dense
  /// similarity-matrix build of the convenience overload.
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
  static Result<HacResult> Run(const std::vector<DynamicBitset>& features,
                               const SimilarityMatrix& sims,
                               const HacOptions& options);

  /// Convenience overload that computes the similarity matrix itself.
  static Result<HacResult> Run(const std::vector<DynamicBitset>& features,
                               const HacOptions& options);

  /// Sparse engine over a prebuilt NeighborGraph (use_sparse_engine is
  /// implied; use_naive_engine is ignored). With an exact all-nonzero
  /// graph this is merge-for-merge bitwise-identical to the dense fast
  /// engine; with an LSH graph it is an approximation whose candidate
  /// recall the graph's banding parameters bound.
  static Result<HacResult> RunOnGraph(const NeighborGraph& graph,
                               const HacOptions& options);
};

}  // namespace paygo

#endif  // PAYGO_CLUSTER_HAC_H_
