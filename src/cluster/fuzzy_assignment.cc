#include "cluster/fuzzy_assignment.h"

#include <algorithm>
#include <cmath>
#include <span>

namespace paygo {

Result<DomainModel> AssignFuzzyMemberships(
    const SimilarityMatrix& sims, const HacResult& clustering,
    const FuzzyAssignmentOptions& options) {
  if (options.fuzzifier <= 1.0) {
    return Status::InvalidArgument("fuzzifier must be > 1");
  }
  if (options.membership_cutoff < 0.0 || options.membership_cutoff >= 1.0) {
    return Status::InvalidArgument("membership_cutoff must be in [0, 1)");
  }
  const auto& clusters = clustering.clusters;
  const std::size_t num_schemas = sims.size();
  const double exponent = 2.0 / (options.fuzzifier - 1.0);
  constexpr double kEps = 1e-9;

  std::vector<std::vector<std::pair<std::uint32_t, double>>> schema_domains(
      num_schemas);
  std::vector<double> dist(clusters.size());
  // Full rows come from panel gathers; see SimilarityMatrix::ForEachRow.
  auto assign_row = [&](std::size_t i, std::span<const float> row) {
    // Distances to every cluster; exact (distance ~0) memberships short-
    // circuit as in standard FCM.
    int exact = -1;
    for (std::uint32_t r = 0; r < clusters.size(); ++r) {
      dist[r] = 1.0 - SchemaClusterSimilarity(row, clusters[r]);
      if (dist[r] < kEps && exact < 0) exact = static_cast<int>(r);
    }
    std::vector<double> memberships(clusters.size(), 0.0);
    if (exact >= 0) {
      memberships[static_cast<std::size_t>(exact)] = 1.0;
    } else {
      for (std::uint32_t r = 0; r < clusters.size(); ++r) {
        double denom = 0.0;
        for (std::uint32_t j = 0; j < clusters.size(); ++j) {
          denom += std::pow(dist[r] / dist[j], exponent);
        }
        memberships[r] = 1.0 / denom;
      }
    }
    // Truncate the tail and renormalize.
    double norm = 0.0;
    for (double m : memberships) {
      if (m >= options.membership_cutoff) norm += m;
    }
    if (norm <= 0.0) {
      // Everything below the cutoff: keep the single best membership.
      const std::size_t best = static_cast<std::size_t>(
          std::max_element(memberships.begin(), memberships.end()) -
          memberships.begin());
      schema_domains[i] = {{static_cast<std::uint32_t>(best), 1.0}};
      return;
    }
    for (std::uint32_t r = 0; r < clusters.size(); ++r) {
      if (memberships[r] >= options.membership_cutoff) {
        schema_domains[i].emplace_back(r, memberships[r] / norm);
      }
    }
  };
  sims.ForEachRow(0, num_schemas, assign_row);
  return DomainModel::Build(clusters, std::move(schema_domains));
}

}  // namespace paygo
