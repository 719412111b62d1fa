/// \file assignment_sweep_test.cc
/// \brief Algorithm 3's ascending sweep against the panel-gather form.
///
/// AssignProbabilities sums each s_c_sim in one ascending sweep over the
/// lower-triangle rows (computed from the features, or read from a
/// matrix). The oracle below is the form it replaced: for each schema,
/// gather its full symmetric row from the matrix and walk every cluster's
/// members. Both overloads must equal it bitwise, model rows and heap
/// bytes alike, at every threshold, uncertainty, semantics, block count
/// and thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/hac.h"
#include "cluster/probabilistic_assignment.h"
#include "util/random.h"

namespace paygo {
namespace {

/// The panel-gather Algorithm 3: per schema, the full row from
/// SimilarityMatrix::ForEachRow, each cluster's members summed in their
/// listed order.
DomainModel PanelGatherOracle(const SimilarityMatrix& sims,
                              const HacResult& clustering,
                              const AssignmentOptions& options) {
  const auto& clusters = clustering.clusters;
  std::vector<DomainModel::Memberships> schema_domains(sims.size());
  std::vector<double> sc(clusters.size());
  sims.ForEachRow(0, sims.size(), [&](std::size_t i,
                                      std::span<const float> row) {
    double max_sim = 0.0;
    for (std::uint32_t r = 0; r < clusters.size(); ++r) {
      double total = 0.0;
      for (std::uint32_t j : clusters[r]) total += static_cast<double>(row[j]);
      sc[r] = total / static_cast<double>(clusters[r].size());
      max_sim = std::max(max_sim, sc[r]);
    }
    std::vector<std::uint32_t> qualifying;
    double norm = 0.0;
    for (std::uint32_t r = 0; r < clusters.size(); ++r) {
      if (sc[r] < options.tau_c_sim) continue;
      if (max_sim > 0.0 && sc[r] / max_sim < 1.0 - options.theta) continue;
      qualifying.push_back(r);
      norm += sc[r];
    }
    if (qualifying.empty()) {
      if (options.strict_thesis_semantics) return;
      schema_domains[i].emplace_back(
          clustering.ClusterOf(static_cast<std::uint32_t>(i)), 1.0);
      return;
    }
    for (std::uint32_t r : qualifying) {
      schema_domains[i].emplace_back(r, sc[r] / norm);
    }
  });
  return DomainModel::Build(clusters, std::move(schema_domains));
}

/// \p n random 80-dimensional vectors in a few overlapping topic groups,
/// so s_c_sim spreads over many values; vector 5 is empty.
std::vector<DynamicBitset> Features(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<DynamicBitset> f(n, DynamicBitset(80));
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 5) continue;
    const std::size_t topic = rng.NextBelow(6);
    const std::size_t bits = 2 + rng.NextBelow(8);
    for (std::size_t b = 0; b < bits; ++b) {
      f[i].Set(rng.NextBernoulli(0.8) ? topic * 12 + rng.NextBelow(14)
                                      : rng.NextBelow(80));
    }
  }
  return f;
}

/// A random partition of \p n schemas into about \p clusters clusters,
/// members ascending, as HacResult lists them.
HacResult RandomPartition(std::size_t n, std::size_t clusters,
                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::uint32_t>> by(clusters);
  for (std::uint32_t i = 0; i < n; ++i) {
    by[i < clusters ? i : rng.NextBelow(clusters)].push_back(i);
  }
  HacResult h;
  for (auto& c : by) {
    if (!c.empty()) h.clusters.push_back(std::move(c));
  }
  std::sort(h.clusters.begin(), h.clusters.end(),
            [](const auto& x, const auto& y) { return x[0] < y[0]; });
  return h;
}

/// (id, probability bits) pairs: NaN compares equal to itself here (an
/// empty vector at tau 0 gets 0/0 in both forms).
std::vector<std::pair<std::uint32_t, std::uint64_t>> Bits(
    const DomainModel::Memberships& m) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
  for (const auto& [id, p] : m) {
    out.emplace_back(id, std::bit_cast<std::uint64_t>(p));
  }
  return out;
}

void ExpectSameModel(const DomainModel& got, const DomainModel& want,
                     const std::string& what) {
  ASSERT_EQ(got.num_domains(), want.num_domains()) << what;
  ASSERT_EQ(got.num_schemas(), want.num_schemas()) << what;
  EXPECT_EQ(got.clusters(), want.clusters()) << what;
  for (std::uint32_t i = 0; i < want.num_schemas(); ++i) {
    ASSERT_EQ(Bits(got.DomainsOf(i)), Bits(want.DomainsOf(i)))
        << what << " schema " << i;
  }
  for (std::uint32_t r = 0; r < want.num_domains(); ++r) {
    ASSERT_EQ(Bits(got.SchemasOf(r)), Bits(want.SchemasOf(r)))
        << what << " domain " << r;
  }
  // Same rows grown the same way: the byte gauge cannot tell them apart.
  EXPECT_EQ(got.MemoryBytes(), want.MemoryBytes()) << what;
}

TEST(AssignmentSweepTest, BothOverloadsEqualThePanelGatherOracle) {
  constexpr std::size_t n = 150;
  const std::vector<DynamicBitset> features = Features(n, 7);
  ASSERT_TRUE(features[5].None());
  const SimilarityMatrix sims(features);

  HacOptions hac;
  hac.tau_c_sim = 0.25;
  auto from_hac = Hac::Run(features, hac);
  ASSERT_TRUE(from_hac.ok()) << from_hac.status();
  hac.tau_c_sim = 0.9;
  auto fine_hac = Hac::Run(features, hac);
  ASSERT_TRUE(fine_hac.ok()) << fine_hac.status();
  const std::vector<std::pair<std::string, HacResult>> clusterings = {
      {"hac 0.25", *from_hac},
      {"hac 0.9", *fine_hac},
      {"one cluster", RandomPartition(n, 1, 3)},
      {"12 clusters", RandomPartition(n, 12, 4)},
      {"n/6 clusters", RandomPartition(n, n / 6, 9)},
      {"n/6 + 1 clusters", RandomPartition(n, n / 6 + 1, 10)},
      {"n/4 clusters", RandomPartition(n, n / 4, 5)},
      {"n/4 + 1 clusters", RandomPartition(n, n / 4 + 1, 6)},
      {"n/2 clusters", RandomPartition(n, n / 2, 7)},
      {"singletons", RandomPartition(n, n, 8)},
  };
  // Up to n/6 clusters Alg. 3 sweeps the triangle, above that it takes
  // full rows; both sides of the switch are covered.
  EXPECT_GT(fine_hac->clusters.size(), n / 4);

  for (const auto& [name, clustering] : clusterings) {
    for (double tau : {0.0, 0.25, 0.9}) {
      for (double theta : {0.0, 0.02, 1.0}) {
        for (bool strict : {true, false}) {
          AssignmentOptions options;
          options.tau_c_sim = tau;
          options.theta = theta;
          options.strict_thesis_semantics = strict;
          const std::string what =
              name + " tau " + std::to_string(tau) + " theta " +
              std::to_string(theta) + (strict ? " strict" : " fallback");
          const DomainModel want =
              PanelGatherOracle(sims, clustering, options);
          auto matrix = AssignProbabilities(sims, clustering, options);
          ASSERT_TRUE(matrix.ok()) << matrix.status();
          ExpectSameModel(*matrix, want, what + " matrix");
          for (std::size_t threads : {1u, 2u, 4u}) {
            auto swept =
                AssignProbabilities(features, clustering, options, threads);
            ASSERT_TRUE(swept.ok()) << swept.status();
            ExpectSameModel(*swept, want,
                            what + " threads " + std::to_string(threads));
          }
        }
      }
    }
  }
}

TEST(AssignmentSweepTest, EdgeSizes) {
  AssignmentOptions options;
  for (std::size_t n : {1u, 2u, 3u, 5u}) {
    const std::vector<DynamicBitset> features = Features(n, 11);
    const SimilarityMatrix sims(features);
    for (std::size_t clusters : {std::size_t{1}, n}) {
      const HacResult clustering = RandomPartition(n, clusters, 12);
      const DomainModel want = PanelGatherOracle(sims, clustering, options);
      for (std::size_t threads : {1u, 4u}) {
        auto swept =
            AssignProbabilities(features, clustering, options, threads);
        ASSERT_TRUE(swept.ok()) << swept.status();
        ExpectSameModel(*swept, want, "n " + std::to_string(n));
      }
    }
  }
  auto empty = AssignProbabilities(std::vector<DynamicBitset>{}, HacResult{},
                                   options, 4);
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(empty->num_schemas(), 0u);
}

TEST(AssignmentSweepTest, RejectsAClusteringThatIsNotAPartition) {
  const std::vector<DynamicBitset> features = Features(6, 13);
  const AssignmentOptions options;
  HacResult missing;
  missing.clusters = {{0, 1, 2}, {3, 4}};
  HacResult twice;
  twice.clusters = {{0, 1, 2}, {2, 3, 4, 5}};
  HacResult out_of_range;
  out_of_range.clusters = {{0, 1, 2}, {3, 4, 5, 6}};
  for (const HacResult* bad : {&missing, &twice, &out_of_range}) {
    EXPECT_TRUE(AssignProbabilities(features, *bad, options)
                    .status()
                    .IsInvalidArgument());
  }
}

}  // namespace
}  // namespace paygo
