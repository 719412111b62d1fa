#include "cluster/probabilistic_assignment.h"

#include <algorithm>
#include <cassert>
#include <span>

#include "util/thread_pool.h"

namespace paygo {

double SchemaClusterSimilarity(const SimilarityMatrix& sims,
                               std::uint32_t schema_id,
                               const std::vector<std::uint32_t>& cluster) {
  assert(!cluster.empty());
  double total = 0.0;
  for (std::uint32_t j : cluster) total += sims.At(schema_id, j);
  return total / static_cast<double>(cluster.size());
}

double SchemaClusterSimilarity(std::span<const float> row,
                               const std::vector<std::uint32_t>& cluster) {
  assert(!cluster.empty());
  double total = 0.0;
  for (std::uint32_t j : cluster) total += static_cast<double>(row[j]);
  return total / static_cast<double>(cluster.size());
}

DomainModel DomainModel::Build(
    std::vector<std::vector<std::uint32_t>> clusters,
    std::vector<Memberships> schema_domains) {
  std::vector<Memberships> domain_schemas(clusters.size());
  for (std::uint32_t i = 0; i < schema_domains.size(); ++i) {
    for (const auto& [domain, prob] : schema_domains[i]) {
      domain_schemas[domain].emplace_back(i, prob);
    }
  }
  for (auto& ds : domain_schemas) {
    std::sort(ds.begin(), ds.end());
  }
  DomainModel model;
  model.clusters_ = SharedRows<std::vector<std::uint32_t>>(std::move(clusters));
  model.schema_domains_ = std::move(schema_domains);
  model.domain_schemas_ = SharedRows<Memberships>(std::move(domain_schemas));
  return model;
}

DomainModel DomainModel::WithArrival(Memberships memberships,
                                     std::uint32_t home) const {
  const auto id = static_cast<std::uint32_t>(num_schemas());
  DomainModel grown = *this;
  if (home == num_domains()) {
    grown.clusters_.push_back({id});
    grown.domain_schemas_.push_back({});
  } else {
    std::vector<std::uint32_t> cluster = Cluster(home);
    cluster.push_back(id);
    grown.clusters_.Set(home, std::move(cluster));
  }
  for (const auto& [domain, prob] : memberships) {
    Memberships members = grown.SchemasOf(domain);
    members.emplace_back(id, prob);
    grown.domain_schemas_.Set(domain, std::move(members));
  }
  grown.schema_domains_.push_back(std::move(memberships));
  return grown;
}

std::size_t DomainModel::MemoryBytes() const {
  return clusters_.MemoryBytes() + schema_domains_.MemoryBytes() +
         domain_schemas_.MemoryBytes();
}

double DomainModel::Membership(std::uint32_t schema_id,
                               std::uint32_t domain_id) const {
  for (const auto& [domain, prob] : schema_domains_[schema_id]) {
    if (domain == domain_id) return prob;
  }
  return 0.0;
}

std::vector<std::uint32_t> DomainModel::UncertainSchemas(
    std::uint32_t domain_id) const {
  std::vector<std::uint32_t> out;
  for (const auto& [schema, prob] : domain_schemas_[domain_id]) {
    if (prob > 0.0 && prob < 1.0) out.push_back(schema);
  }
  return out;
}

std::vector<std::uint32_t> DomainModel::CertainSchemas(
    std::uint32_t domain_id) const {
  std::vector<std::uint32_t> out;
  for (const auto& [schema, prob] : domain_schemas_[domain_id]) {
    if (prob >= 1.0) out.push_back(schema);
  }
  return out;
}

double DomainModel::TotalMembership(std::uint32_t schema_id) const {
  double total = 0.0;
  for (const auto& [domain, prob] : schema_domains_[schema_id]) {
    total += prob;
  }
  return total;
}

Result<DomainModel> AssignProbabilities(const SimilarityMatrix& sims,
                                        const HacResult& clustering,
                                        const AssignmentOptions& options) {
  if (options.theta < 0.0 || options.theta > 1.0) {
    return Status::InvalidArgument("theta must be in [0, 1]");
  }
  if (options.tau_c_sim < 0.0 || options.tau_c_sim > 1.0) {
    return Status::InvalidArgument("tau_c_sim must be in [0, 1]");
  }
  const auto& clusters = clustering.clusters;
  const std::size_t num_schemas = sims.size();

  std::vector<std::vector<std::pair<std::uint32_t, double>>> schema_domains(
      num_schemas);

  std::vector<double> sc(clusters.size());
  // Full rows come from panel gathers; see SimilarityMatrix::ForEachRow.
  auto assign_row = [&](std::size_t i, std::span<const float> row) {
    double max_sim = 0.0;
    for (std::uint32_t r = 0; r < clusters.size(); ++r) {
      sc[r] = SchemaClusterSimilarity(row, clusters[r]);
      max_sim = std::max(max_sim, sc[r]);
    }
    // D(S_i): domains passing both the absolute and the relative test.
    std::vector<std::uint32_t> qualifying;
    double norm = 0.0;
    for (std::uint32_t r = 0; r < clusters.size(); ++r) {
      if (sc[r] < options.tau_c_sim) continue;
      if (max_sim > 0.0 && sc[r] / max_sim < 1.0 - options.theta) continue;
      qualifying.push_back(r);
      norm += sc[r];
    }
    if (qualifying.empty()) {
      if (options.strict_thesis_semantics) return;  // dropped schema
      // Fallback: full membership in the home cluster.
      schema_domains[i].emplace_back(
          clustering.ClusterOf(static_cast<std::uint32_t>(i)), 1.0);
      return;
    }
    for (std::uint32_t r : qualifying) {
      schema_domains[i].emplace_back(r, sc[r] / norm);
    }
  };
  sims.ForEachRow(0, num_schemas, assign_row);
  return DomainModel::Build(clusters, std::move(schema_domains));
}

Result<DomainModel> AssignProbabilities(const NeighborGraph& graph,
                                        const HacResult& clustering,
                                        const AssignmentOptions& options,
                                        std::size_t num_threads) {
  if (options.theta < 0.0 || options.theta > 1.0) {
    return Status::InvalidArgument("theta must be in [0, 1]");
  }
  if (options.tau_c_sim <= 0.0 || options.tau_c_sim > 1.0) {
    return Status::InvalidArgument(
        "the sparse assignment path requires tau_c_sim in (0, 1] "
        "(zero-similarity memberships are not materialized)");
  }
  const auto& clusters = clustering.clusters;
  const std::size_t n = graph.num_nodes();
  std::vector<std::uint32_t> cluster_of(n, 0);
  for (std::uint32_t r = 0; r < clusters.size(); ++r) {
    for (std::uint32_t j : clusters[r]) cluster_of[j] = r;
  }

  std::vector<std::vector<std::pair<std::uint32_t, double>>> schema_domains(
      n);
  ThreadPool pool(ThreadPool::ResolveThreadCount(num_threads));
  pool.ParallelFor(0, n, 64, [&](const ThreadPool::Chunk& chunk) {
    // Per-chunk scratch: a dense scatter of schema i's row (cleared via
    // the row entries after each schema) plus the candidate-domain list.
    std::vector<double> simval(n, 0.0);
    std::vector<std::uint32_t> cands;
    std::vector<double> sc;
    for (std::size_t ii = chunk.begin; ii < chunk.end; ++ii) {
      const std::uint32_t i = static_cast<std::uint32_t>(ii);
      auto [begin, end] = graph.Row(i);
      cands.clear();
      for (const NeighborEdge* e = begin; e != end; ++e) {
        simval[e->id] = static_cast<double>(e->sim);
        cands.push_back(cluster_of[e->id]);
      }
      cands.push_back(cluster_of[i]);
      std::sort(cands.begin(), cands.end());
      cands.erase(std::unique(cands.begin(), cands.end()), cands.end());

      // Every non-candidate cluster has s_c_sim exactly 0 (< tau), so the
      // max and the qualifying set computed over candidates alone match
      // the dense sweep bit for bit: member sums walk the same ascending
      // order, and skipping an absent (zero) entry leaves an IEEE sum of
      // nonnegative terms unchanged.
      double max_sim = 0.0;
      sc.resize(cands.size());
      for (std::size_t k = 0; k < cands.size(); ++k) {
        const auto& cluster = clusters[cands[k]];
        double total = 0.0;
        for (std::uint32_t j : cluster) {
          if (j == i) {
            if (graph.NonEmpty(i)) total += 1.0;
          } else if (simval[j] != 0.0) {
            total += simval[j];
          }
        }
        sc[k] = total / static_cast<double>(cluster.size());
        max_sim = std::max(max_sim, sc[k]);
      }
      for (const NeighborEdge* e = begin; e != end; ++e) simval[e->id] = 0.0;

      std::vector<std::uint32_t> qualifying;
      double norm = 0.0;
      for (std::size_t k = 0; k < cands.size(); ++k) {
        if (sc[k] < options.tau_c_sim) continue;
        if (max_sim > 0.0 && sc[k] / max_sim < 1.0 - options.theta) continue;
        qualifying.push_back(static_cast<std::uint32_t>(k));
        norm += sc[k];
      }
      if (qualifying.empty()) {
        if (options.strict_thesis_semantics) continue;  // dropped schema
        schema_domains[i].emplace_back(cluster_of[i], 1.0);
        continue;
      }
      for (std::uint32_t k : qualifying) {
        schema_domains[i].emplace_back(cands[k], sc[k] / norm);
      }
    }
  });
  return DomainModel::Build(clusters, std::move(schema_domains));
}

}  // namespace paygo
