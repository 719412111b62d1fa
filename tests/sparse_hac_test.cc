#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "cluster/hac.h"
#include "cluster/neighbor_graph.h"
#include "heap_hac_oracle.h"
#include "obs/stats.h"
#include "schema/feature_vector.h"
#include "schema/lexicon.h"
#include "synth/ddh_generator.h"
#include "synth/many_domains.h"
#include "synth/web_generator.h"
#include "util/random.h"
#include "util/union_find.h"

namespace paygo {
namespace {

using heap_oracle::ExpectSameDendrogram;

std::vector<std::vector<std::uint32_t>> Sorted(const HacResult& r) {
  auto c = r.clusters;
  std::sort(c.begin(), c.end());
  return c;
}

/// Hac::RunOnGraph over the exact all-nonzero neighbor graph.
Result<HacResult> RunOverGraph(const std::vector<DynamicBitset>& features,
                               const HacOptions& options) {
  NeighborGraphOptions go;
  go.num_threads = options.num_threads;
  PAYGO_ASSIGN_OR_RETURN(NeighborGraph graph,
                         NeighborGraph::Build(features, go));
  return Hac::RunOnGraph(graph, options);
}

/// Property: the graph path matches the dense engine exactly on random
/// sparse data, for every supported linkage and threshold.
struct SparseParam {
  LinkageKind linkage;
  double tau;
  int seed;
};

class SparseDenseAgreementTest
    : public ::testing::TestWithParam<SparseParam> {};

TEST_P(SparseDenseAgreementTest, SparseMatchesDense) {
  const SparseParam p = GetParam();
  Rng rng(7000 + p.seed);
  const std::size_t n = 60, dim = 80;
  std::vector<DynamicBitset> features(n, DynamicBitset(dim));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t group = i % 5;
    for (std::size_t b = group * 14; b < group * 14 + 14; ++b) {
      if (rng.NextBernoulli(0.5)) features[i].Set(b);
    }
    if (rng.NextBernoulli(0.2)) features[i].Set(70 + rng.NextBelow(10));
  }
  HacOptions dense;
  dense.linkage = p.linkage;
  dense.tau_c_sim = p.tau;
  const auto rd = Hac::Run(features, dense);
  const auto rs = RunOverGraph(features, dense);
  ASSERT_TRUE(rd.ok());
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(Sorted(*rd), Sorted(*rs))
      << LinkageKindName(p.linkage) << " tau=" << p.tau;
}

INSTANTIATE_TEST_SUITE_P(
    LinkagesTausSeeds, SparseDenseAgreementTest,
    ::testing::Values(SparseParam{LinkageKind::kAverage, 0.2, 0},
                      SparseParam{LinkageKind::kAverage, 0.35, 1},
                      SparseParam{LinkageKind::kAverage, 0.5, 2},
                      SparseParam{LinkageKind::kMin, 0.25, 3},
                      SparseParam{LinkageKind::kMin, 0.4, 4},
                      SparseParam{LinkageKind::kMax, 0.3, 5},
                      SparseParam{LinkageKind::kMax, 0.5, 6}));

TEST(SparseHacTest, MatchesDenseOnRealCorpora) {
  for (const SchemaCorpus& corpus :
       {MakeDwCorpus(), [] {
          DdhGeneratorOptions gen;
          gen.num_schemas = 300;
          return MakeDdhCorpus(gen);
        }()}) {
    Tokenizer tok;
    const Lexicon lexicon = Lexicon::Build(corpus, tok);
    FeatureVectorizer vec(lexicon);
    const auto features = vec.VectorizeCorpus();
    HacOptions dense;
    dense.tau_c_sim = 0.25;
    const auto rd = Hac::Run(features, dense);
    const auto rs = RunOverGraph(features, dense);
    ASSERT_TRUE(rd.ok());
    ASSERT_TRUE(rs.ok()) << rs.status();
    EXPECT_EQ(Sorted(*rd), Sorted(*rs)) << corpus.name();
  }
}

TEST(SparseHacTest, HonorsConstraints) {
  std::vector<DynamicBitset> f(4, DynamicBitset(8));
  for (std::size_t b : {0u, 1u, 2u}) {
    f[0].Set(b);
    f[1].Set(b);
  }
  for (std::size_t b : {5u, 6u, 7u}) {
    f[2].Set(b);
    f[3].Set(b);
  }
  HacOptions opts;
  opts.tau_c_sim = 0.5;
  opts.cannot_link = {{0, 1}};
  opts.must_link = {{0, 2}};  // feature-disjoint: only must-link can join
  const auto r = RunOverGraph(f, opts);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NE(r->ClusterOf(0), r->ClusterOf(1));
  EXPECT_EQ(r->ClusterOf(0), r->ClusterOf(2));
}

TEST(SparseHacTest, RejectsUnsupportedModes) {
  std::vector<DynamicBitset> f(2, DynamicBitset(4));
  f[0].Set(0);
  f[1].Set(0);
  HacOptions opts;
  opts.linkage = LinkageKind::kTotal;
  EXPECT_TRUE(RunOverGraph(f, opts).status().IsInvalidArgument());
  opts.linkage = LinkageKind::kAverage;
  opts.max_clusters = 1;
  EXPECT_TRUE(RunOverGraph(f, opts).status().IsInvalidArgument());
  opts.max_clusters = 0;
  opts.tau_c_sim = 0.0;
  EXPECT_TRUE(RunOverGraph(f, opts).status().IsInvalidArgument());
}

// A tau-component whose key triangle would pass the 2 GiB budget (more
// than 23,170 schemas) is refused before the triangle is allocated. The
// corpus is a ring: schema i holds positions i and i + 1 (mod 2,048), so
// each schema is joined to its ring neighbours at Jaccard 1/3 and every
// schema lands in one component.
TEST(SparseHacTest, OversizedComponentIsResourceExhausted) {
  const std::size_t positions = 2048;
  const std::size_t n = 23171;
  std::vector<DynamicBitset> f(n, DynamicBitset(positions));
  for (std::size_t i = 0; i < n; ++i) {
    f[i].Set(i % positions);
    f[i].Set((i + 1) % positions);
  }
  HacOptions opts;
  opts.tau_c_sim = 0.3;
  const auto r = RunOverGraph(f, opts);
  ASSERT_TRUE(r.status().IsResourceExhausted()) << r.status();
  EXPECT_NE(r.status().message().find("23171 schemas"), std::string::npos)
      << r.status();
}

// --- randomized differential fuzz: graph path vs dense, merge-for-merge ---
//
// Each round draws a random corpus, a random tau, and a linkage, then
// requires the graph path (fed by the exact NeighborGraph) to reproduce
// the dense engine's dendrogram BITWISE — same merge slots, same
// similarity doubles compared with == — at 1, 2, and 4 threads. On
// failure the SCOPED_TRACE prints the round's seed so the exact corpus
// can be replayed. PAYGO_DETERMINISM_SMALL=1 shrinks the round count
// (TSan CI).

bool SmallFuzzMode() {
  const char* v = std::getenv("PAYGO_DETERMINISM_SMALL");
  return v != nullptr && std::string(v) != "0";
}

std::vector<DynamicBitset> RandomFuzzCorpus(Rng& rng, std::size_t n,
                                            std::size_t dim,
                                            std::size_t groups) {
  std::vector<DynamicBitset> features(n, DynamicBitset(dim));
  const std::size_t width = dim / groups;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t g = rng.NextBelow(groups);
    for (std::size_t b = g * width; b < (g + 1) * width; ++b) {
      if (rng.NextBernoulli(0.4)) features[i].Set(b);
    }
    // Global noise bits: cross-group feature sharing, including features
    // popular enough to trip the hot-posting / heavy-set path.
    for (int k = 0; k < 2; ++k) {
      if (rng.NextBernoulli(0.3)) features[i].Set(rng.NextBelow(dim));
    }
    // Some schemas stay empty (all-Bernoulli-miss is possible too, but
    // force a few deterministically).
    if (rng.NextBernoulli(0.05)) {
      for (std::size_t b = 0; b < dim; ++b) features[i].Set(b, false);
    }
  }
  return features;
}

TEST(SparseHacFuzzTest, RandomCorporaMatchDenseBitwise) {
  const int rounds = SmallFuzzMode() ? 4 : 12;
  const LinkageKind kinds[] = {LinkageKind::kAverage, LinkageKind::kMin,
                               LinkageKind::kMax};
  Rng meta(20260807);
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t seed = meta.NextU64();
    SCOPED_TRACE("fuzz round " + std::to_string(round) + " seed " +
                 std::to_string(seed));
    Rng rng(seed);
    const std::size_t n = 30 + rng.NextBelow(70);
    const std::size_t dim = 60 + rng.NextBelow(120);
    const std::size_t groups = 3 + rng.NextBelow(5);
    const auto features = RandomFuzzCorpus(rng, n, dim, groups);

    HacOptions opts;
    opts.linkage = kinds[round % 3];
    opts.tau_c_sim = 0.15 + 0.4 * rng.NextDouble();
    const SimilarityMatrix sims(features);
    const auto dense = Hac::Run(features, sims, opts);
    ASSERT_TRUE(dense.ok()) << dense.status();

    for (std::size_t t : {1u, 2u, 4u}) {
      NeighborGraphOptions go;
      go.num_threads = t;
      // Alternate between the auto hot limit and a forced tiny one so the
      // heavy-set sweep is exercised on every corpus shape.
      if (round % 2 == 1) go.hot_posting_limit = 1;
      const auto graph = NeighborGraph::Build(features, go);
      ASSERT_TRUE(graph.ok()) << graph.status();
      HacOptions sopt = opts;
      sopt.num_threads = t;
      const auto sparse = Hac::RunOnGraph(*graph, sopt);
      ASSERT_TRUE(sparse.ok()) << sparse.status();
      ExpectSameDendrogram(*dense, *sparse,
                           std::string(LinkageKindName(opts.linkage)) +
                               " tau=" + std::to_string(opts.tau_c_sim) +
                               " threads=" + std::to_string(t));
    }
  }
}

// Constraints and boundary taus, three ways: the graph path at 1, 2 and
// 4 threads against the dense engine and the dense engine against the
// lazy-heap oracle, merge for merge. Must-link pairs join feature-disjoint
// schemas (and so tau-components the union has to merge first); cannot-link
// pairs sit inside one component. tau is a stored float cell exactly, its
// next double either way, or random, so Avg keys that round to within an
// ulp of tau decide merges and must not leak across components.
TEST(SparseHacFuzzTest, ConstraintsAndBoundaryTausMatchDenseAndOracle) {
  const int rounds = SmallFuzzMode() ? 3 : 8;
  const LinkageKind kinds[] = {LinkageKind::kAverage, LinkageKind::kMin,
                               LinkageKind::kMax};
  Rng meta(977);
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t seed = meta.NextU64();
    SCOPED_TRACE("fuzz round " + std::to_string(round) + " seed " +
                 std::to_string(seed));
    Rng rng(seed);
    const std::size_t n = 40 + rng.NextBelow(40);
    const auto features =
        RandomFuzzCorpus(rng, n, 80 + rng.NextBelow(60), 3 + rng.NextBelow(4));
    const SimilarityMatrix sims(features);
    auto random_pair = [&] {
      const auto x = static_cast<std::uint32_t>(rng.NextBelow(n));
      auto y = static_cast<std::uint32_t>(rng.NextBelow(n - 1));
      if (y >= x) ++y;
      return std::make_pair(x, y);
    };

    // A stored cell to put tau on: the similarity of a random sharing pair.
    double cell = 0.0;
    while (cell < 0.1) {
      const auto [x, y] = random_pair();
      cell = sims.At(x, y);
    }
    HacOptions base;
    UnionFind joined(n);
    while (base.must_link.size() < 3) {
      const auto [x, y] = random_pair();
      if (sims.At(x, y) != 0.0) continue;  // feature-disjoint pairs only
      base.must_link.emplace_back(x, y);
      joined.Union(x, y);
    }
    for (int attempt = 0; attempt < 400 && base.cannot_link.size() < 3;
         ++attempt) {
      const auto [x, y] = random_pair();
      if (sims.At(x, y) < cell || joined.Find(x) == joined.Find(y)) continue;
      base.cannot_link.emplace_back(x, y);
    }

    for (const double tau : {cell, std::nextafter(cell, 0.0),
                             std::nextafter(cell, 1.0),
                             0.15 + 0.4 * rng.NextDouble()}) {
      for (const LinkageKind kind : kinds) {
        HacOptions opts = base;
        opts.linkage = kind;
        opts.tau_c_sim = tau;
        const std::string label = std::string(LinkageKindName(kind)) +
                                  " tau=" + std::to_string(tau);
        const auto dense = Hac::Run(features, sims, opts);
        ASSERT_TRUE(dense.ok()) << dense.status();
        const auto oracle = heap_oracle::RunHeapHac(features, sims, opts);
        ASSERT_TRUE(oracle.ok()) << oracle.status();
        ExpectSameDendrogram(*oracle, *dense, label + " dense vs oracle");
        for (std::size_t t : {1u, 2u, 4u}) {
          HacOptions topt = opts;
          topt.num_threads = t;
          const auto graph = RunOverGraph(features, topt);
          ASSERT_TRUE(graph.ok()) << graph.status();
          ExpectSameDendrogram(*dense, *graph,
                               label + " threads=" + std::to_string(t));
        }
      }
    }
  }
}

// Many tau-components side by side (the web shape) with must-links across
// domains: the per-component runs interleave into the dense merge order.
TEST(SparseHacFuzzTest, ManyComponentsInterleaveLikeDense) {
  ManyDomainFeatureOptions gen;
  gen.num_schemas = SmallFuzzMode() ? 400 : 1200;
  const auto features = MakeManyDomainFeatures(gen);
  const SimilarityMatrix sims(features);
  Rng rng(4242);
  for (const LinkageKind kind :
       {LinkageKind::kAverage, LinkageKind::kMin, LinkageKind::kMax}) {
    HacOptions opts;
    opts.linkage = kind;
    opts.tau_c_sim = 0.25;
    for (int k = 0; k < 4; ++k) {
      opts.must_link.emplace_back(
          static_cast<std::uint32_t>(rng.NextBelow(features.size())),
          static_cast<std::uint32_t>(rng.NextBelow(features.size())));
      if (opts.must_link.back().first == opts.must_link.back().second) {
        opts.must_link.pop_back();
      }
    }
    const auto dense = Hac::Run(features, sims, opts);
    ASSERT_TRUE(dense.ok()) << dense.status();
    for (std::size_t t : {1u, 4u}) {
      opts.num_threads = t;
      const auto graph = RunOverGraph(features, opts);
      ASSERT_TRUE(graph.ok()) << graph.status();
      ExpectSameDendrogram(*dense, *graph,
                           std::string(LinkageKindName(kind)) +
                               " threads=" + std::to_string(t));
    }
  }
}

// A component large enough that the engine splits its merge sweeps (more
// than 4,096 slots) across the pool, next to small components the pool
// leaves in one chunk during merges.
TEST(SparseHacFuzzTest, PooledLargeComponentMatchesDense) {
  if (SmallFuzzMode()) GTEST_SKIP() << "too slow under sanitizers";
  // 4,400 schemas over 64 shared features form one big component; 100
  // pairs of identical schemas on private features sit beside it.
  Rng rng(5150);
  const std::size_t dim = 64 + 200;
  std::vector<DynamicBitset> features;
  for (const DynamicBitset& g : RandomFuzzCorpus(rng, 4400, 64, 1)) {
    DynamicBitset f(dim);
    for (std::size_t j : g.SetBits()) f.Set(j);
    features.push_back(std::move(f));
  }
  for (std::size_t i = 0; i < 200; ++i) {
    DynamicBitset f(dim);
    f.Set(64 + i);
    f.Set(64 + (i ^ 1));
    features.push_back(std::move(f));
  }
  HacOptions opts;
  opts.tau_c_sim = 0.3;
  const auto dense = Hac::Run(features, opts);
  ASSERT_TRUE(dense.ok()) << dense.status();
  for (std::size_t t : {1u, 4u}) {
    opts.num_threads = t;
    const auto graph = RunOverGraph(features, opts);
    ASSERT_TRUE(graph.ok()) << graph.status();
    EXPECT_GT(StatsRegistry::Global()
                  .GetGauge("paygo.hac.largest_component")
                  ->value(),
              4096);
    ExpectSameDendrogram(*dense, *graph, "threads=" + std::to_string(t));
  }
}

TEST(SparseHacTest, DisjointSchemasNeverMerge) {
  std::vector<DynamicBitset> f(3, DynamicBitset(9));
  f[0].Set(0);
  f[1].Set(3);
  f[2].Set(6);
  HacOptions opts;
  opts.tau_c_sim = 0.1;
  const auto r = RunOverGraph(f, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->clusters.size(), 3u);
}

}  // namespace
}  // namespace paygo
