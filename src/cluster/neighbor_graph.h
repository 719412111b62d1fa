#ifndef PAYGO_CLUSTER_NEIGHBOR_GRAPH_H_
#define PAYGO_CLUSTER_NEIGHBOR_GRAPH_H_

/// \file neighbor_graph.h
/// \brief Sparse schema-similarity neighbor graph for web-scale clustering.
///
/// The dense SimilarityMatrix is O(n^2) in both time and memory, which caps
/// cluster builds at a few thousand schemas. The neighbor graph replaces it
/// with per-schema adjacency rows holding exactly the nonzero pairs.
///
/// Build enumerates candidate pairs from the inverted feature index
/// (FeaturePostings; schemas sharing no feature have Jaccard 0),
/// accumulating intersection counts in per-chunk flat scratch arrays
/// instead of one global hash map. Features whose posting list exceeds a
/// hot limit are skipped during enumeration; the schemas containing them
/// form a "heavy" set swept pairwise with the SIMD AndCount/Jaccard
/// kernels, so hot posting lists cannot blow enumeration up quadratically
/// while every edge stays exact. The build is bit-identical at any thread
/// count.
///
/// Every graph, built or grown by arrivals, holds every nonzero pair and
/// only those, each as `float(DynamicBitset::Jaccard(a, b))` — bit for bit
/// the value the dense matrix stores. Hac::RunOnGraph and the sparse
/// assignment path rely on this for bitwise equality with the dense path
/// (sub-tau similarities still feed linkage combines). Edges are symmetric
/// and stored CSR-style, each row sorted by neighbor id.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "schema/feature_postings.h"
#include "util/bitset.h"
#include "util/status.h"

namespace paygo {

/// \brief Knobs for NeighborGraph::Build. Neither changes the graph.
struct NeighborGraphOptions {
  /// Worker threads (0 = hardware concurrency). Bit-identical at any value.
  std::size_t num_threads = 1;

  /// Posting lists longer than this are "hot" and handled by the heavy-set
  /// pairwise sweep instead of enumeration. 0 picks max(64, n / 8)
  /// automatically.
  std::size_t hot_posting_limit = 0;
};

/// \brief Build-time telemetry, also flushed to paygo.hac.sparse.* counters.
struct NeighborGraphStats {
  /// Candidate pairs found; each is scored exactly once.
  std::uint64_t candidates_generated = 0;
  std::uint64_t num_edges = 0;             ///< Undirected edges.
};

/// \brief One directed adjacency entry.
struct NeighborEdge {
  std::uint32_t id;  ///< Neighbor schema index.
  float sim;         ///< float(DynamicBitset::Jaccard(a, b)), > 0.
};

/// \brief Immutable sparse similarity graph over a schema corpus.
class NeighborGraph {
 public:
  NeighborGraph() = default;

  /// Builds the graph over \p features (one bitset per schema, all the
  /// same dimensionality) according to \p options.
  static Result<NeighborGraph> Build(std::span<const DynamicBitset> features,
                                     const NeighborGraphOptions& options);

  /// Build with the caller's index of \p features, which must index the
  /// same schemas. IntegrationSystem keeps the index for arrivals, so it is
  /// built once.
  static Result<NeighborGraph> Build(std::span<const DynamicBitset> features,
                                     const FeaturePostings& postings,
                                     const NeighborGraphOptions& options);

  /// Appends one schema, id num_nodes(), given its exact similarity row
  /// against every node (FeaturePostings::JaccardRow: ascending ids,
  /// zeros omitted) and whether it sets any feature. The new id is larger
  /// than every id already stored, so it is spliced onto the end of each
  /// touched row and no row is re-sorted: O(edges) copying, no Jaccard
  /// work. The delta write path's graph refresh.
  NeighborGraph(const NeighborGraph& base, std::span<const JaccardEntry> row,
                bool nonempty);

  std::size_t num_nodes() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::size_t num_edges() const { return edges_.size() / 2; }

  /// Row \p i as a [begin, end) pointer pair, sorted by neighbor id.
  std::pair<const NeighborEdge*, const NeighborEdge*> Row(
      std::uint32_t i) const {
    return {edges_.data() + offsets_[i], edges_.data() + offsets_[i + 1]};
  }
  std::size_t Degree(std::uint32_t i) const {
    return offsets_[i + 1] - offsets_[i];
  }

  /// Stored similarity of (a, b), or 0 when the edge is absent. O(log deg).
  float Similarity(std::uint32_t a, std::uint32_t b) const;

  /// True iff schema \p i has at least one feature bit set (its dense
  /// diagonal / self-similarity is 1 rather than 0).
  bool NonEmpty(std::uint32_t i) const { return nonempty_[i] != 0; }

  const NeighborGraphStats& stats() const { return stats_; }

 private:
  std::vector<std::uint64_t> offsets_;  ///< n + 1 row offsets into edges_.
  std::vector<NeighborEdge> edges_;     ///< Both directions of every edge.
  std::vector<std::uint8_t> nonempty_;  ///< Per-node "has any feature" flag.
  NeighborGraphStats stats_;
};

}  // namespace paygo

#endif  // PAYGO_CLUSTER_NEIGHBOR_GRAPH_H_
