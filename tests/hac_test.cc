#include "cluster/hac.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "cluster/neighbor_graph.h"
#include "heap_hac_oracle.h"
#include "obs/stats.h"
#include "util/random.h"

namespace paygo {
namespace {

/// Two tight groups of near-identical vectors plus one outlier.
std::vector<DynamicBitset> TwoGroupsAndOutlier() {
  std::vector<DynamicBitset> f(7, DynamicBitset(20));
  // Group A: features {0..5} with one bit of per-schema variation.
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t b = 0; b < 6; ++b) f[s].Set(b);
    f[s].Set(6 + s);  // small variation
  }
  // Group B: features {10..15}.
  for (std::size_t s = 3; s < 6; ++s) {
    for (std::size_t b = 10; b < 16; ++b) f[s].Set(b);
    f[s].Set(16 + (s - 3) % 2);
  }
  // Outlier: feature {19} only.
  f[6].Set(19);
  return f;
}

std::vector<std::vector<std::uint32_t>> SortedClusters(const HacResult& r) {
  auto c = r.clusters;
  std::sort(c.begin(), c.end());
  return c;
}

/// Hac::Run against the lazy-heap oracle (tests/heap_hac_oracle.h).
void ExpectMatchesHeapOracle(const std::vector<DynamicBitset>& features,
                             const HacOptions& options,
                             const std::string& label) {
  const SimilarityMatrix sims(features);
  const auto got = Hac::Run(features, sims, options);
  const auto want = heap_oracle::RunHeapHac(features, sims, options);
  ASSERT_TRUE(got.ok()) << label << ": " << got.status();
  ASSERT_TRUE(want.ok()) << label << ": " << want.status();
  EXPECT_EQ(SortedClusters(*got), SortedClusters(*want)) << label;
  heap_oracle::ExpectSameDendrogram(*want, *got, label);
}

TEST(HacTest, RecoversTwoGroupsAndLeavesOutlier) {
  const auto features = TwoGroupsAndOutlier();
  HacOptions opts;
  opts.tau_c_sim = 0.3;
  const auto result = Hac::Run(features, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  const auto clusters = SortedClusters(*result);
  ASSERT_EQ(clusters.size(), 3u);
  EXPECT_EQ(clusters[0], (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(clusters[1], (std::vector<std::uint32_t>{3, 4, 5}));
  EXPECT_EQ(clusters[2], (std::vector<std::uint32_t>{6}));
  EXPECT_EQ(result->NumSingletons(), 1u);
}

TEST(HacTest, TauOneMergesOnlyIdenticalVectors) {
  const auto features = TwoGroupsAndOutlier();
  HacOptions opts;
  opts.tau_c_sim = 1.0;
  const auto result = Hac::Run(features, opts);
  ASSERT_TRUE(result.ok());
  // Schemas 3 and 5 have identical vectors (similarity exactly 1) and must
  // merge; nothing else may.
  EXPECT_EQ(result->clusters.size(), features.size() - 1);
  EXPECT_EQ(result->ClusterOf(3), result->ClusterOf(5));
  EXPECT_NE(result->ClusterOf(3), result->ClusterOf(4));
}

TEST(HacTest, TauZeroMergesEverything) {
  const auto features = TwoGroupsAndOutlier();
  HacOptions opts;
  opts.tau_c_sim = 0.0;
  const auto result = Hac::Run(features, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->clusters.size(), 1u);
  EXPECT_EQ(result->clusters[0].size(), features.size());
}

TEST(HacTest, MergeSimilaritiesAreNonIncreasingForAverageLinkage) {
  const auto features = TwoGroupsAndOutlier();
  HacOptions opts;
  opts.tau_c_sim = 0.0;
  const auto result = Hac::Run(features, opts);
  ASSERT_TRUE(result.ok());
  // Group-average linkage on Jaccard similarities is reducible, so merge
  // similarity never increases.
  for (std::size_t k = 1; k < result->merges.size(); ++k) {
    EXPECT_LE(result->merges[k].similarity,
              result->merges[k - 1].similarity + 1e-9);
  }
}

TEST(HacTest, ClusterOfLocatesEverySchema) {
  const auto features = TwoGroupsAndOutlier();
  HacOptions opts;
  opts.tau_c_sim = 0.3;
  const auto result = Hac::Run(features, opts);
  ASSERT_TRUE(result.ok());
  for (std::uint32_t i = 0; i < features.size(); ++i) {
    const std::uint32_t c = result->ClusterOf(i);
    const auto& cluster = result->clusters[c];
    EXPECT_TRUE(std::binary_search(cluster.begin(), cluster.end(), i));
  }
}

TEST(HacTest, ClustersPartitionTheInput) {
  const auto features = TwoGroupsAndOutlier();
  for (LinkageKind kind : AllLinkageKinds()) {
    HacOptions opts;
    opts.linkage = kind;
    opts.tau_c_sim = 0.4;
    const auto result = Hac::Run(features, opts);
    ASSERT_TRUE(result.ok());
    std::vector<std::uint32_t> all;
    for (const auto& c : result->clusters) {
      all.insert(all.end(), c.begin(), c.end());
    }
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all.size(), features.size());
    for (std::uint32_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
  }
}

TEST(HacTest, InvalidArguments) {
  std::vector<DynamicBitset> features(2, DynamicBitset(4));
  HacOptions opts;
  opts.tau_c_sim = 1.5;
  EXPECT_TRUE(Hac::Run(features, opts).status().IsInvalidArgument());

  opts.tau_c_sim = 0.5;
  std::vector<DynamicBitset> ragged = {DynamicBitset(4), DynamicBitset(5)};
  EXPECT_TRUE(Hac::Run(ragged, opts).status().IsInvalidArgument());
}

TEST(HacTest, RaggedFeaturesRejectedBeforeTheMatrixIsBuilt) {
  // The dense convenience overload once built the similarity matrix before
  // checking widths: Jaccard of a 2-word and a 1-word bitset read past the
  // shorter one (a heap-buffer-overflow under PAYGO_SANITIZE=address).
  std::vector<DynamicBitset> ragged = {DynamicBitset(65), DynamicBitset(64)};
  ragged[0].Set(64);
  for (std::size_t threads : {1u, 2u}) {
    HacOptions opts;
    opts.num_threads = threads;
    EXPECT_TRUE(Hac::Run(ragged, opts).status().IsInvalidArgument());
  }
}

TEST(HacTest, RejectsNonFiniteTauAtEveryEntryPoint) {
  const auto features = TwoGroupsAndOutlier();
  const SimilarityMatrix sims(features);
  const auto graph = NeighborGraph::Build(features, NeighborGraphOptions{});
  ASSERT_TRUE(graph.ok());
  for (double tau : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    HacOptions opts;
    opts.tau_c_sim = tau;
    EXPECT_TRUE(Hac::Run(features, sims, opts).status().IsInvalidArgument())
        << tau;
    EXPECT_TRUE(Hac::Run(features, opts).status().IsInvalidArgument()) << tau;
    EXPECT_TRUE(Hac::RunOnGraph(*graph, opts).status().IsInvalidArgument())
        << tau;
  }
}

TEST(HacTest, CountersFlushOncePerCall) {
  StatsRegistry& reg = StatsRegistry::Global();
  Counter* runs = reg.GetCounter("paygo.hac.runs");
  Counter* merges = reg.GetCounter("paygo.hac.merges");
  Counter* rescans = reg.GetCounter("paygo.hac.row_rescans");
  Counter* components = reg.GetCounter("paygo.hac.components");
  Gauge* largest = reg.GetGauge("paygo.hac.largest_component");
  const auto features = TwoGroupsAndOutlier();
  HacOptions opts;
  opts.tau_c_sim = 0.3;

  // A dense run is one component: the whole corpus.
  std::uint64_t runs0 = runs->value();
  std::uint64_t rescans0 = rescans->value();
  std::uint64_t components0 = components->value();
  const auto dense = Hac::Run(features, opts);
  ASSERT_TRUE(dense.ok());
  ASSERT_FALSE(dense->merges.empty());
  EXPECT_EQ(runs->value() - runs0, 1u);
  // At least one rescan of the merged row per merge.
  EXPECT_GE(rescans->value() - rescans0, dense->merges.size());
  EXPECT_EQ(components->value() - components0, 1u);
  EXPECT_EQ(largest->value(), static_cast<std::int64_t>(features.size()));

  // The graph path runs the engine once per tau-component (the two groups;
  // the outlier is alone) and still counts one run.
  const auto graph = NeighborGraph::Build(features, NeighborGraphOptions{});
  ASSERT_TRUE(graph.ok());
  runs0 = runs->value();
  rescans0 = rescans->value();
  components0 = components->value();
  const std::uint64_t merges0 = merges->value();
  const auto sparse = Hac::RunOnGraph(*graph, opts);
  ASSERT_TRUE(sparse.ok());
  EXPECT_EQ(runs->value() - runs0, 1u);
  EXPECT_EQ(merges->value() - merges0, sparse->merges.size());
  EXPECT_GE(rescans->value() - rescans0, sparse->merges.size());
  EXPECT_EQ(components->value() - components0, 2u);
  EXPECT_EQ(largest->value(), 3);
}

TEST(HacTest, EmptyInputYieldsEmptyResult) {
  const auto result = Hac::Run({}, HacOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->clusters.empty());
}

TEST(HacTest, SingleSchemaStaysSingleton) {
  std::vector<DynamicBitset> f(1, DynamicBitset(4));
  f[0].Set(0);
  const auto result = Hac::Run(f, HacOptions{});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->clusters.size(), 1u);
  EXPECT_EQ(result->NumSingletons(), 1u);
}

TEST(HacTest, MaxClustersStopsAtExactCount) {
  const auto features = TwoGroupsAndOutlier();
  for (std::size_t k : {1u, 2u, 3u, 5u}) {
    HacOptions opts;
    opts.max_clusters = k;
    opts.tau_c_sim = 0.99;  // would stop immediately; must be ignored
    const auto result = Hac::Run(features, opts);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->clusters.size(), k) << "k=" << k;
  }
}

TEST(HacTest, MaxClustersMatchesHeapOracle) {
  const auto features = TwoGroupsAndOutlier();
  HacOptions options;
  options.max_clusters = 3;
  ExpectMatchesHeapOracle(features, options, "max_clusters 3");
  // The 3-cluster cut is the intended structure.
  const auto result = Hac::Run(features, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->clusters.size(), 3u);
}

/// Property: the row-NN engine produces the lazy-heap oracle's dendrogram,
/// merge for merge, across all four linkages and several thresholds.
struct EngineParam {
  LinkageKind linkage;
  double tau;
};

class HacEngineAgreementTest : public ::testing::TestWithParam<EngineParam> {};

TEST_P(HacEngineAgreementTest, FastMatchesHeapOracle) {
  const EngineParam param = GetParam();
  Rng rng(31 + static_cast<int>(param.linkage) * 100 +
          static_cast<int>(param.tau * 10));
  // Random sparse vectors with planted group structure.
  const std::size_t n = 40, dim = 60;
  std::vector<DynamicBitset> features(n, DynamicBitset(dim));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t group = i % 4;
    for (std::size_t b = group * 12; b < group * 12 + 12; ++b) {
      if (rng.NextBernoulli(0.6)) features[i].Set(b);
    }
    for (std::size_t b = 48; b < dim; ++b) {
      if (rng.NextBernoulli(0.1)) features[i].Set(b);
    }
  }
  HacOptions options;
  options.linkage = param.linkage;
  options.tau_c_sim = param.tau;
  ExpectMatchesHeapOracle(
      features, options,
      LinkageKindName(param.linkage) + " tau=" + std::to_string(param.tau));
}

INSTANTIATE_TEST_SUITE_P(
    LinkagesAndThresholds, HacEngineAgreementTest,
    ::testing::Values(EngineParam{LinkageKind::kAverage, 0.2},
                      EngineParam{LinkageKind::kAverage, 0.4},
                      EngineParam{LinkageKind::kMin, 0.2},
                      EngineParam{LinkageKind::kMin, 0.4},
                      EngineParam{LinkageKind::kMax, 0.3},
                      EngineParam{LinkageKind::kMax, 0.5},
                      EngineParam{LinkageKind::kTotal, 0.2},
                      EngineParam{LinkageKind::kTotal, 0.4}));

}  // namespace
}  // namespace paygo
