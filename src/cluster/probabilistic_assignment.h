#ifndef PAYGO_CLUSTER_PROBABILISTIC_ASSIGNMENT_H_
#define PAYGO_CLUSTER_PROBABILISTIC_ASSIGNMENT_H_

/// \file probabilistic_assignment.h
/// \brief Algorithm 3: probabilistic schema-to-domain assignment.
///
/// Clusters partition the schema set; domains are probabilistic: a schema
/// may belong to several domains with probabilities that sum to 1. A schema
/// S_i is assigned to domain D_r (corresponding to cluster C_r) iff
///   (1) s_c_sim(S_i, C_r) >= tau_c_sim, and
///   (2) s_c_sim(S_i, C_r) / max_j s_c_sim(S_i, C_j) >= 1 - theta,
/// with probability proportional to s_c_sim(S_i, C_r) over the qualifying
/// domains D(S_i). theta quantifies the allowed uncertainty (thesis: 0.02).

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "cluster/hac.h"
#include "cluster/linkage.h"
#include "cluster/neighbor_graph.h"
#include "util/shared_rows.h"
#include "util/status.h"

namespace paygo {

/// \brief Options of Algorithm 3.
struct AssignmentOptions {
  /// Minimum schema-to-cluster similarity for membership; the thesis uses
  /// the same threshold as clustering.
  double tau_c_sim = 0.25;
  /// Uncertainty threshold theta in [0, 1] (thesis: 0.02). theta = 0 yields
  /// hard (single-domain) assignments wherever a unique maximum exists.
  double theta = 0.02;
  /// Algorithm 3 as written can leave D(S_i) empty when a schema's average
  /// similarity even to its own cluster is below tau_c_sim. Under strict
  /// semantics such a schema gets probability 0 everywhere (it contributes
  /// to no domain); otherwise it falls back to its home cluster with
  /// probability 1.
  bool strict_thesis_semantics = true;
};

/// \brief The probabilistic domain model: clusters plus membership
/// probabilities Pr(S_i in D_r).
///
/// Copy-on-write: the per-schema membership rows sit in an append-shared
/// block (AppendRows) and every per-domain row (cluster, member list) is an
/// immutable shared handle (SharedRows). Copying a model copies handles,
/// and WithArrival grows a model by one schema while sharing every row it
/// does not change.
class DomainModel {
 public:
  /// (id, probability) pairs: a schema's domains or a domain's schemas.
  using Memberships = std::vector<std::pair<std::uint32_t, double>>;

  /// Number of domains (== number of clusters).
  std::size_t num_domains() const { return domain_schemas_.size(); }
  /// Number of schemas in the underlying corpus.
  std::size_t num_schemas() const { return schema_domains_.size(); }

  /// Pr(S_i in D_r); zero when S_i was not assigned to D_r.
  double Membership(std::uint32_t schema_id, std::uint32_t domain_id) const;

  /// The qualifying domains D(S_i) with their probabilities.
  const Memberships& DomainsOf(std::uint32_t schema_id) const {
    return schema_domains_[schema_id];
  }

  /// S(D_r): schemas with non-zero membership in D_r, with probabilities.
  const Memberships& SchemasOf(std::uint32_t domain_id) const {
    return domain_schemas_[domain_id];
  }

  /// Uncertain schemas of D_r: members with probability strictly in (0, 1)
  /// — the set S-hat(D_r) whose size drives classifier setup cost (§5.3).
  std::vector<std::uint32_t> UncertainSchemas(std::uint32_t domain_id) const;

  /// Certain schemas of D_r: members with probability exactly 1.
  std::vector<std::uint32_t> CertainSchemas(std::uint32_t domain_id) const;

  /// The hard cluster C_r the domain was derived from.
  const std::vector<std::uint32_t>& Cluster(std::uint32_t domain_id) const {
    return clusters_[domain_id];
  }
  /// All clusters; iterates as const std::vector<std::uint32_t>&.
  const SharedRows<std::vector<std::uint32_t>>& clusters() const {
    return clusters_;
  }
  /// All per-domain member lists (SchemasOf), for sharing checks.
  const SharedRows<Memberships>& domain_rows() const {
    return domain_schemas_;
  }

  /// True iff the domain's originating cluster is a singleton (an
  /// "unclustered" schema in the thesis's terminology).
  bool IsSingletonDomain(std::uint32_t domain_id) const {
    return clusters_[domain_id].size() == 1;
  }

  /// Sum over domains of Pr(S_i in D_r) for schema \p schema_id (1 for
  /// assigned schemas, 0 for dropped ones under strict semantics).
  double TotalMembership(std::uint32_t schema_id) const;

  /// The model grown by schema num_schemas() with \p memberships
  /// (ascending domain ids, each below num_domains() + 1) and hard cluster
  /// \p home; home == num_domains() opens a new domain holding only the
  /// newcomer. Equal to Build over the grown inputs: the new id is the
  /// largest, so appending it keeps every row sorted. Copies only the rows
  /// of the domains the newcomer joins; every other row stays shared.
  DomainModel WithArrival(Memberships memberships, std::uint32_t home) const;

  /// Heap bytes of the model: the membership block and rows, and the
  /// per-domain rows with their handles. Shared rows count in full.
  std::size_t MemoryBytes() const;

  /// Builds the model; exposed via AssignProbabilities().
  static DomainModel Build(std::vector<std::vector<std::uint32_t>> clusters,
                           std::vector<Memberships> schema_domains);

 private:
  SharedRows<std::vector<std::uint32_t>> clusters_;
  // Per schema: sorted (domain, probability>0) pairs.
  AppendRows<Memberships> schema_domains_;
  // Per domain: sorted (schema, probability>0) pairs.
  SharedRows<Memberships> domain_schemas_;
};

/// \brief Runs Algorithm 3 on the clustering output.
///
/// \p sims must be the schema similarity matrix the clustering ran on.
Result<DomainModel> AssignProbabilities(const SimilarityMatrix& sims,
                                        const HacResult& clustering,
                                        const AssignmentOptions& options);

/// \brief Algorithm 3 over the sparse neighbor graph — the dense-matrix-free
/// build path.
///
/// Candidate domains for schema S_i are the clusters containing any of its
/// graph neighbors plus its home cluster; every other cluster has
/// s_c_sim = 0 < tau_c_sim and can never qualify. The graph holds every
/// nonzero similarity exactly, so the result is bitwise identical to the
/// dense overload: per-cluster sums walk members in the same ascending order
/// and absent entries contribute exactly 0.0. Requires tau_c_sim > 0 (with
/// tau = 0 the dense semantics assign zero-similarity domains, which a
/// sparse walk cannot see). Schemas are processed in parallel on
/// \p num_threads (0 = hardware concurrency); each schema's output row is
/// written by exactly one chunk, so the result is thread-count independent.
Result<DomainModel> AssignProbabilities(const NeighborGraph& graph,
                                        const HacResult& clustering,
                                        const AssignmentOptions& options,
                                        std::size_t num_threads = 1);

/// s_c_sim(S_i, C_r): average similarity between schema \p schema_id and all
/// schemas of \p cluster (including itself when it is a member, per the
/// thesis's formula).
double SchemaClusterSimilarity(const SimilarityMatrix& sims,
                               std::uint32_t schema_id,
                               const std::vector<std::uint32_t>& cluster);

/// s_c_sim over a full similarity row (row[j] == s_sim(S_i, S_j), e.g. from
/// SimilarityMatrix::ForEachRow): bit-identical to the matrix overload,
/// summing the same values in the same member order.
double SchemaClusterSimilarity(std::span<const float> row,
                               const std::vector<std::uint32_t>& cluster);

}  // namespace paygo

#endif  // PAYGO_CLUSTER_PROBABILISTIC_ASSIGNMENT_H_
