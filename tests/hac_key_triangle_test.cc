// Guards on the HAC engine's merge-key triangle at the sizes where it is
// allocated 2 MiB-aligned with a huge-page hint (Hac::kHugePageKeyBytes),
// and on the live-slot merge sweep at a size where most slots retire.
//
// * The graph path scatters only the edges a tau-component has into its
//   key triangle; every absent edge must read key 0, the exact Jaccard of
//   a pair sharing no feature. A component past the huge-page threshold,
//   built mostly of absent edges, is clustered after a larger dense run
//   has freed a triangle of nonzero keys, so an allocation that skipped
//   the zero fill would read the old keys back.
// * A dense run of over 1,000 DDH schemas with must-links and cannot-links
//   is compared bitwise with the lazy-heap oracle at 1, 2 and 4 threads,
//   for Avg linkage (the pipebench shape) and Total Jaccard (whose merge
//   sweeps split the live-slot list across chunks at this size).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/hac.h"
#include "cluster/neighbor_graph.h"
#include "heap_hac_oracle.h"
#include "obs/stats.h"
#include "schema/feature_vector.h"
#include "schema/lexicon.h"
#include "synth/ddh_generator.h"
#include "text/tokenizer.h"
#include "util/random.h"
#include "util/union_find.h"

namespace paygo {
namespace {

using heap_oracle::ExpectSameDendrogram;

/// Bytes of the key triangle of a run over \p n slots.
std::size_t TriangleBytes(std::size_t n) {
  return n * (n - 1) / 2 * sizeof(double);
}

/// A band of schemas: schema i sets a random subset of the 8 features
/// [i, i + 8) and always feature i + 1, so neighbours within a few ids
/// overlap heavily and schemas farther apart share nothing. At tau 0.2
/// the whole band is one tau-component whose pairs are almost all absent
/// from the neighbor graph.
std::vector<DynamicBitset> Band(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<DynamicBitset> features(n, DynamicBitset(n + 8));
  for (std::size_t i = 0; i < n; ++i) {
    features[i].Set(i + 1);
    for (std::size_t k = 0; k < 8; ++k) {
      if (rng.NextBernoulli(0.6)) features[i].Set(i + k);
    }
  }
  return features;
}

TEST(HacKeyTriangleTest, GraphComponentPastHugePageThresholdReadsAbsentAsZero) {
  constexpr std::size_t kN = 1100;
  ASSERT_GE(TriangleBytes(kN), Hac::kHugePageKeyBytes);
  HacOptions options;
  options.tau_c_sim = 0.2;

  // A larger dense run first: its triangle and matrix rows, full of
  // nonzero keys, are freed before the graph path allocates its own.
  {
    const std::vector<DynamicBitset> larger = Band(1500, 11);
    const auto warm = Hac::Run(larger, options);
    ASSERT_TRUE(warm.ok()) << warm.status();
  }

  const std::vector<DynamicBitset> features = Band(kN, 12);
  NeighborGraphOptions go;
  const auto graph = NeighborGraph::Build(features, go);
  ASSERT_TRUE(graph.ok()) << graph.status();
  // Nearly every pair is an absent edge.
  EXPECT_LT(graph->num_edges(), kN * 16);

  Gauge* largest =
      StatsRegistry::Global().GetGauge("paygo.hac.largest_component");
  const SimilarityMatrix sims(features);
  const auto oracle = heap_oracle::RunHeapHac(features, sims, options);
  ASSERT_TRUE(oracle.ok());
  ASSERT_GT(oracle->merges.size(), kN / 4);
  for (std::size_t threads : {1u, 2u, 4u}) {
    options.num_threads = threads;
    const auto sparse = Hac::RunOnGraph(*graph, options);
    ASSERT_TRUE(sparse.ok()) << sparse.status();
    // The band is one component, so the run allocated a huge-page triangle.
    EXPECT_EQ(static_cast<std::size_t>(largest->value()), kN);
    ExpectSameDendrogram(*oracle, *sparse,
                         "graph path, threads " + std::to_string(threads));
    const auto dense = Hac::Run(features, sims, options);
    ASSERT_TRUE(dense.ok());
    ExpectSameDendrogram(*oracle, *dense,
                         "dense path, threads " + std::to_string(threads));
  }
}

std::vector<DynamicBitset> DdhFeatures(std::size_t n) {
  DdhGeneratorOptions opts;
  opts.num_schemas = n;
  const SchemaCorpus corpus = MakeDdhCorpus(opts);
  Tokenizer tokenizer;
  const Lexicon lexicon = Lexicon::Build(corpus, tokenizer);
  return FeatureVectorizer(lexicon).VectorizeCorpus();
}

/// Must-links across the corpus and cannot-links on pairs the
/// unconstrained run merges early, none inside a must-link closure.
void AddConstraints(const std::vector<DynamicBitset>& features,
                    const SimilarityMatrix& sims, HacOptions* options) {
  const std::uint32_t n = static_cast<std::uint32_t>(features.size());
  options->must_link = {{3, n / 2}, {n / 2, n - 1}, {40, 41}, {600, 17}};
  UnionFind joined(n);
  for (const auto& [a, b] : options->must_link) joined.Union(a, b);
  HacOptions plain = *options;
  plain.must_link.clear();
  const auto unconstrained = Hac::Run(features, sims, plain);
  ASSERT_TRUE(unconstrained.ok());
  for (const HacMerge& m : unconstrained->merges) {
    if (options->cannot_link.size() == 6) break;
    if (m.slot_a >= n || m.slot_b >= n) continue;
    if (joined.Find(m.slot_a) == joined.Find(m.slot_b)) continue;
    options->cannot_link.emplace_back(m.slot_a, m.slot_b);
  }
  ASSERT_EQ(options->cannot_link.size(), 6u);
}

TEST(HacKeyTriangleTest, LargeConstrainedDenseRunMatchesHeapOracle) {
  constexpr std::size_t kN = 1200;
  ASSERT_GE(TriangleBytes(kN), Hac::kHugePageKeyBytes);
  const std::vector<DynamicBitset> features = DdhFeatures(kN);
  ASSERT_EQ(features.size(), kN);
  const SimilarityMatrix sims(features);

  for (LinkageKind linkage : {LinkageKind::kAverage, LinkageKind::kTotal}) {
    HacOptions options;
    options.linkage = linkage;
    options.tau_c_sim = 0.25;
    AddConstraints(features, sims, &options);
    const auto oracle = heap_oracle::RunHeapHac(features, sims, options);
    ASSERT_TRUE(oracle.ok());
    ASSERT_GT(oracle->merges.size(), kN / 2);
    for (std::size_t threads : {1u, 2u, 4u}) {
      options.num_threads = threads;
      const auto got = Hac::Run(features, sims, options);
      ASSERT_TRUE(got.ok()) << got.status();
      ExpectSameDendrogram(*oracle, *got,
                           LinkageKindName(linkage) + ", threads " +
                               std::to_string(threads));
    }
  }
}

}  // namespace
}  // namespace paygo
