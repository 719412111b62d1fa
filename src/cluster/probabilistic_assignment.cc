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

namespace {

Status ValidateAssignmentOptions(const AssignmentOptions& options) {
  if (options.theta < 0.0 || options.theta > 1.0) {
    return Status::InvalidArgument("theta must be in [0, 1]");
  }
  if (options.tau_c_sim < 0.0 || options.tau_c_sim > 1.0) {
    return Status::InvalidArgument("tau_c_sim must be in [0, 1]");
  }
  return Status::OK();
}

/// Each schema's cluster, or InvalidArgument unless the clusters partition
/// the \p n schemas.
Result<std::vector<std::uint32_t>> ClusterOfSchemas(
    const HacResult& clustering, std::size_t n) {
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::vector<std::uint32_t> cluster_of(n, kNone);
  std::size_t covered = 0;
  for (std::uint32_t r = 0; r < clustering.clusters.size(); ++r) {
    for (std::uint32_t j : clustering.clusters[r]) {
      if (j >= n || cluster_of[j] != kNone) {
        return Status::InvalidArgument(
            "the clusters do not partition the schemas");
      }
      cluster_of[j] = r;
      ++covered;
    }
  }
  if (covered != n) {
    return Status::InvalidArgument("the clusters do not partition the schemas");
  }
  return cluster_of;
}

/// The rows of a prebuilt matrix: stored, so nothing is computed.
struct MatrixRows {
  const SimilarityMatrix& sims;

  /// Row k's lower-triangle cells j in [lo, end), end <= k, at p[j] of the
  /// returned p.
  const float* Cells(std::size_t k, std::size_t /*lo*/, std::size_t /*end*/,
                     float* /*scratch*/) const {
    return sims.Row(k).data();
  }
  double Diagonal(std::size_t k) const { return sims.Row(k)[k]; }
  /// fn(i, row) for i = lo..hi-1 in order, row the full symmetric row i.
  template <typename Fn>
  void FullRows(std::size_t lo, std::size_t hi, Fn&& fn) const {
    sims.ForEachRow(lo, hi, fn);
  }
};

/// The same rows computed from the feature vectors by the bitset Jaccard
/// kernel: cell for cell the matrix's values (SimilarityMatrix runs the
/// same kernel, and Jaccard(F_i, F_i) is its diagonal, 1 or 0 for an
/// empty vector).
struct KernelRows {
  std::span<const DynamicBitset> features;
  std::vector<std::uint32_t> counts;

  explicit KernelRows(std::span<const DynamicBitset> f)
      : features(f), counts(f.size()) {
    for (std::size_t k = 0; k < f.size(); ++k) {
      counts[k] = static_cast<std::uint32_t>(f[k].Count());
    }
  }
  const float* Cells(std::size_t k, std::size_t lo, std::size_t end,
                     float* scratch) const {
    DynamicBitset::JaccardRow(features.subspan(lo, end - lo),
                              std::span(counts).subspan(lo, end - lo),
                              features[k], scratch + lo);
    return scratch;
  }
  double Diagonal(std::size_t k) const { return counts[k] == 0 ? 0.0 : 1.0; }
  template <typename Fn>
  void FullRows(std::size_t lo, std::size_t hi, Fn&& fn) const {
    std::vector<float> row(features.size());
    for (std::size_t i = lo; i < hi; ++i) {
      DynamicBitset::JaccardRow(features, counts, features[i], row.data());
      fn(i, std::span<const float>(row));
    }
  }
};

/// Schemas per cluster below which Alg. 3 takes full rows rather than
/// the triangle sweep. On DDH features (n = 4,646, one lane) the two cost
/// the same at 700-850 clusters.
constexpr std::size_t kSweepSchemasPerCluster = 6;

/// Algorithm 3. s_c_sim(S_i, C_r) sums s_sim(S_i, S_j) over C_r's members
/// j ascending; both ways below add the same doubles in that order, so
/// the model is the same either way and at any thread count (chunks of
/// target schemas share no output).
///
/// Up to n / kSweepSchemasPerCluster clusters: one ascending sweep over
/// the lower-triangle rows, each pair's cell computed once. Row k holds
/// s_sim(S_k, S_j) for j < k, so the sweep feeds it in three steps: its
/// cells j < k into schema k's per-cluster bins (the sums over j < k,
/// ascending), then the diagonal into bin c(k), and then one contiguous
/// add of the whole row into cluster c(k)'s accumulator row (the term
/// j = k of every earlier schema's sum). A chunk of targets [lo, hi)
/// reads rows lo..n-1, whole rows below hi and cells [lo, hi) above; its
/// accumulators are cluster-major, R rows over the chunk, so all chunks
/// together hold R n <= n^2/6 doubles, less than a float triangle.
///
/// More clusters: per target, its full row, summed over each cluster's
/// members. Twice the cells, but only R doubles of scratch; there the
/// sweep's per-row column writes, R strided doubles, cost more than the
/// cells they save.
template <typename Rows>
DomainModel Sweep(const Rows& rows, std::size_t n, const HacResult& clustering,
                  const std::vector<std::uint32_t>& cluster_of,
                  const AssignmentOptions& options, std::size_t num_threads) {
  using Memberships = DomainModel::Memberships;
  const auto& clusters = clustering.clusters;
  const std::size_t num_clusters = clusters.size();
  std::vector<Memberships> schema_domains(n);

  // D(S_i) from its s_c_sim values sc[r * stride]: the clusters passing
  // the absolute test and, against the best value, the relative one, with
  // probability proportional to s_c_sim.
  auto decide = [&](std::size_t i, const double* sc, std::size_t stride) {
    double best = 0.0;
    for (std::size_t r = 0; r < num_clusters; ++r) {
      best = std::max(best, sc[r * stride]);
    }
    Memberships out;
    double norm = 0.0;
    for (std::size_t r = 0; r < num_clusters; ++r) {
      const double v = sc[r * stride];
      if (v < options.tau_c_sim) continue;
      if (best > 0.0 && v / best < 1.0 - options.theta) continue;
      out.emplace_back(static_cast<std::uint32_t>(r), v);
      norm += v;
    }
    if (out.empty() && !options.strict_thesis_semantics) {
      // Fallback: full membership in the home cluster.
      out.emplace_back(cluster_of[i], 1.0);
      norm = 1.0;
    }
    for (auto& [r, p] : out) p /= norm;
    schema_domains[i] = std::move(out);
  };

  auto sweep = [&](std::size_t lo, std::size_t hi) {
    const std::size_t width = hi - lo;
    std::vector<float> scratch(n);
    std::vector<double> acc(num_clusters * width);
    std::vector<double> bins(num_clusters);
    for (std::size_t k = lo; k < n; ++k) {
      const std::uint32_t home = cluster_of[k];
      const float* row =
          rows.Cells(k, k < hi ? 0 : lo, std::min(k, hi), scratch.data());
      if (k < hi) {
        std::fill(bins.begin(), bins.end(), 0.0);
        for (std::size_t j = 0; j < k; ++j) {
          bins[cluster_of[j]] += static_cast<double>(row[j]);
        }
        bins[home] += rows.Diagonal(k);
        for (std::size_t r = 0; r < num_clusters; ++r) {
          acc[r * width + (k - lo)] = bins[r];
        }
      }
      double* a = acc.data() + home * width;
      for (std::size_t j = lo, end = std::min(k, hi); j < end; ++j) {
        a[j - lo] += static_cast<double>(row[j]);
      }
    }
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t r = 0; r < num_clusters; ++r) {
        acc[r * width + (i - lo)] /= static_cast<double>(clusters[r].size());
      }
      decide(i, acc.data() + (i - lo), width);
    }
  };

  auto by_target = [&](std::size_t lo, std::size_t hi) {
    std::vector<double> sc(num_clusters);
    rows.FullRows(lo, hi, [&](std::size_t i, std::span<const float> row) {
      for (std::size_t r = 0; r < num_clusters; ++r) {
        sc[r] = SchemaClusterSimilarity(row, clusters[r]);
      }
      decide(i, sc.data(), 1);
    });
  };

  auto assign = [&](std::size_t lo, std::size_t hi) {
    if (num_clusters > n / kSweepSchemasPerCluster) {
      by_target(lo, hi);
    } else {
      sweep(lo, hi);
    }
  };
  const std::size_t width = ThreadPool::ResolveThreadCount(num_threads);
  if (width > 1 && n > 1) {
    // One chunk per lane: equal target ranges cost about the same.
    ThreadPool pool(width);
    pool.ParallelFor(0, n, (n + width - 1) / width,
                     [&](const ThreadPool::Chunk& c) { assign(c.begin, c.end); });
  } else if (n > 0) {
    assign(0, n);
  }
  return DomainModel::Build(clusters, std::move(schema_domains));
}

}  // namespace

Result<DomainModel> AssignProbabilities(const SimilarityMatrix& sims,
                                        const HacResult& clustering,
                                        const AssignmentOptions& options) {
  PAYGO_RETURN_NOT_OK(ValidateAssignmentOptions(options));
  PAYGO_ASSIGN_OR_RETURN(std::vector<std::uint32_t> cluster_of,
                         ClusterOfSchemas(clustering, sims.size()));
  return Sweep(MatrixRows{sims}, sims.size(), clustering, cluster_of, options,
               /*num_threads=*/1);
}

Result<DomainModel> AssignProbabilities(
    std::span<const DynamicBitset> features, const HacResult& clustering,
    const AssignmentOptions& options, std::size_t num_threads) {
  PAYGO_RETURN_NOT_OK(ValidateAssignmentOptions(options));
  PAYGO_ASSIGN_OR_RETURN(std::vector<std::uint32_t> cluster_of,
                         ClusterOfSchemas(clustering, features.size()));
  return Sweep(KernelRows(features), features.size(), clustering, cluster_of,
               options, num_threads);
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
