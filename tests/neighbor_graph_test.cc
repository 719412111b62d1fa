#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/neighbor_graph.h"
#include "core/integration_system.h"
#include "extend_by_arrivals.h"
#include "synth/many_domains.h"
#include "util/random.h"

namespace paygo {
namespace {

std::vector<DynamicBitset> RandomFeatures(Rng& rng, std::size_t n,
                                          std::size_t dim) {
  std::vector<DynamicBitset> features(n, DynamicBitset(dim));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t g = rng.NextBelow(4);
    const std::size_t width = dim / 4;
    for (std::size_t b = g * width; b < (g + 1) * width; ++b) {
      if (rng.NextBernoulli(0.35)) features[i].Set(b);
    }
    if (rng.NextBernoulli(0.25)) features[i].Set(rng.NextBelow(dim));
  }
  return features;
}

/// The brute-force oracle: every pair with nonzero Jaccard.
struct OracleEdge {
  std::uint32_t a, b;
  float sim;
};

std::vector<OracleEdge> BruteForce(const std::vector<DynamicBitset>& features) {
  std::vector<OracleEdge> edges;
  for (std::uint32_t a = 0; a < features.size(); ++a) {
    for (std::uint32_t b = a + 1; b < features.size(); ++b) {
      const double j = DynamicBitset::Jaccard(features[a], features[b]);
      if (j > 0.0) {
        edges.push_back({a, b, static_cast<float>(j)});
      }
    }
  }
  return edges;
}

void ExpectMatchesOracle(const NeighborGraph& graph,
                         const std::vector<DynamicBitset>& features,
                         const std::string& label) {
  const auto oracle = BruteForce(features);
  ASSERT_EQ(graph.num_edges(), oracle.size()) << label;
  for (const OracleEdge& e : oracle) {
    // Stored similarity must be bitwise the float-rounded exact Jaccard,
    // in both directions.
    ASSERT_EQ(graph.Similarity(e.a, e.b), e.sim)
        << label << " edge " << e.a << "-" << e.b;
    ASSERT_EQ(graph.Similarity(e.b, e.a), e.sim)
        << label << " edge " << e.b << "-" << e.a;
  }
  for (std::uint32_t i = 0; i < features.size(); ++i) {
    ASSERT_EQ(graph.NonEmpty(i), features[i].Count() > 0) << label;
    // Rows sorted by id, no self-loops, all sims positive.
    const auto [begin, end] = graph.Row(i);
    for (const NeighborEdge* e = begin; e != end; ++e) {
      ASSERT_NE(e->id, i) << label;
      ASSERT_GT(e->sim, 0.0f) << label;
      if (e + 1 != end) {
        ASSERT_LT(e->id, (e + 1)->id) << label;
      }
    }
  }
}

TEST(NeighborGraphTest, ExactMatchesBruteForce) {
  Rng rng(11);
  const auto features = RandomFeatures(rng, 80, 96);
  for (std::size_t threads : {1u, 2u, 4u}) {
    NeighborGraphOptions opts;
    opts.num_threads = threads;
    const auto graph = NeighborGraph::Build(features, opts);
    ASSERT_TRUE(graph.ok()) << graph.status();
    ExpectMatchesOracle(*graph, features,
                        "threads=" + std::to_string(threads));
    EXPECT_EQ(graph->stats().num_edges, graph->num_edges());
    EXPECT_GE(graph->stats().candidates_generated, graph->num_edges());
  }
}

TEST(NeighborGraphTest, ExactWithForcedHotPostingsMatchesBruteForce) {
  Rng rng(23);
  const auto features = RandomFeatures(rng, 60, 64);
  // hot_posting_limit = 1 makes EVERY shared feature hot, so all edges
  // must come from the heavy-set pairwise sweep.
  NeighborGraphOptions opts;
  opts.hot_posting_limit = 1;
  for (std::size_t threads : {1u, 4u}) {
    opts.num_threads = threads;
    const auto graph = NeighborGraph::Build(features, opts);
    ASSERT_TRUE(graph.ok()) << graph.status();
    ExpectMatchesOracle(*graph, features,
                        "hot=1 threads=" + std::to_string(threads));
  }
}

TEST(NeighborGraphTest, ExtendMatchesFullRebuild) {
  Rng rng(61);
  const auto features = RandomFeatures(rng, 50, 64);
  const std::vector<DynamicBitset> prefix(features.begin(),
                                          features.begin() + 35);
  NeighborGraphOptions opts;
  const auto base = NeighborGraph::Build(prefix, opts);
  ASSERT_TRUE(base.ok());
  const NeighborGraph extended = ExtendByArrivals(*base, features);
  ASSERT_EQ(extended.num_nodes(), features.size());
  ExpectMatchesOracle(extended, features, "extended");
}

TEST(NeighborGraphTest, RejectsBadOptions) {
  std::vector<DynamicBitset> f(2, DynamicBitset(8));
  f[0].Set(1);
  f[1].Set(1);
  // Postings over a different number of schemas.
  const FeaturePostings postings(std::span(f.data(), 1));
  EXPECT_TRUE(NeighborGraph::Build(f, postings, NeighborGraphOptions{})
                  .status()
                  .IsInvalidArgument());
  // Mismatched dimensions.
  std::vector<DynamicBitset> bad = {DynamicBitset(8), DynamicBitset(16)};
  EXPECT_TRUE(
      NeighborGraph::Build(bad, NeighborGraphOptions{}).status().IsInvalidArgument());
}

TEST(NeighborGraphTest, EmptyAndSingletonInputs) {
  NeighborGraphOptions opts;
  const auto empty = NeighborGraph::Build({}, opts);
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(empty->num_nodes(), 0u);
  EXPECT_EQ(empty->num_edges(), 0u);

  std::vector<DynamicBitset> one(1, DynamicBitset(8));
  one[0].Set(3);
  const auto single = NeighborGraph::Build(one, opts);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->num_nodes(), 1u);
  EXPECT_EQ(single->num_edges(), 0u);
  EXPECT_TRUE(single->NonEmpty(0));
}

// --- the sparse end-to-end build path through IntegrationSystem ---

/// Same clusters and bitwise-equal membership doubles, schema by schema.
void ExpectModelsBitwiseEqual(const DomainModel& dm, const DomainModel& sm) {
  ASSERT_EQ(dm.clusters(), sm.clusters());
  ASSERT_EQ(dm.num_domains(), sm.num_domains());
  ASSERT_EQ(dm.num_schemas(), sm.num_schemas());
  for (std::uint32_t s = 0; s < dm.num_schemas(); ++s) {
    const auto& md = dm.DomainsOf(s);
    const auto& ms = sm.DomainsOf(s);
    ASSERT_EQ(md.size(), ms.size()) << "schema " << s;
    for (std::size_t k = 0; k < md.size(); ++k) {
      EXPECT_EQ(md[k].first, ms[k].first) << "schema " << s;
      // Bitwise probability equality: the sparse assignment path must
      // compute the same sums in the same order as the dense one.
      EXPECT_EQ(md[k].second, ms[k].second) << "schema " << s;
    }
  }
}

SchemaCorpus FortyDomainCorpus() {
  ManyDomainOptions gen;
  gen.num_domains = 40;
  return MakeManyDomainCorpus(gen);
}

TEST(NeighborGraphTest, SparseSystemBuildMatchesDense) {
  const SchemaCorpus corpus = FortyDomainCorpus();
  SystemOptions dense_opts;
  dense_opts.hac.tau_c_sim = 0.25;
  const auto dense = IntegrationSystem::Build(corpus, dense_opts);
  ASSERT_TRUE(dense.ok()) << dense.status();

  SystemOptions sparse_opts = dense_opts;
  sparse_opts.sparse_build = true;
  const auto sparse = IntegrationSystem::Build(corpus, sparse_opts);
  ASSERT_TRUE(sparse.ok()) << sparse.status();

  EXPECT_FALSE((*sparse)->has_similarities());
  EXPECT_TRUE((*sparse)->has_neighbor_graph());
  EXPECT_TRUE((*dense)->has_similarities());
  EXPECT_FALSE((*dense)->has_neighbor_graph());

  // Identical clustering and identical probabilistic assignments.
  ASSERT_EQ((*dense)->clustering().clusters, (*sparse)->clustering().clusters);
  ExpectModelsBitwiseEqual((*dense)->domains(), (*sparse)->domains());
}

TEST(NeighborGraphTest, SparseSystemFeedbackMatchesDense) {
  const SchemaCorpus corpus = FortyDomainCorpus();
  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SystemOptions dense_opts;
    dense_opts.hac.tau_c_sim = 0.25;
    dense_opts.hac.num_threads = threads;
    auto dense = IntegrationSystem::Build(corpus, dense_opts);
    ASSERT_TRUE(dense.ok()) << dense.status();
    SystemOptions sparse_opts = dense_opts;
    sparse_opts.sparse_build = true;
    auto sparse = IntegrationSystem::Build(corpus, sparse_opts);
    ASSERT_TRUE(sparse.ok()) << sparse.status();

    // Feedback that changes the clustering: move one schema out of its
    // cluster into a feature-disjoint one (a must-link across
    // tau-components), split another cluster with a cannot-link, and join
    // two schemas of different clusters outright.
    // Copies: ApplyFeedback replaces the clustering they come from.
    std::vector<std::vector<std::uint32_t>> multi;
    for (const auto& c : (*dense)->clustering().clusters) {
      if (c.size() >= 3) multi.push_back(c);
    }
    ASSERT_GE(multi.size(), 4u);
    FeedbackStore store;
    ASSERT_TRUE(
        store.RecordCorrection(multi[0][0], multi[0][1], multi[1][0]).ok());
    ASSERT_TRUE(store.RecordCannotLink(multi[2][0], multi[2][2]).ok());
    ASSERT_TRUE(store.RecordMustLink(multi[3][1], multi[1][2]).ok());
    for (std::uint32_t d = 0; d < 5; ++d) {
      store.RecordImpression(d);
      if (d % 2 == 0) store.RecordClick(d);
    }

    ASSERT_TRUE((*dense)->ApplyFeedback(store).ok());
    const Status applied = (*sparse)->ApplyFeedback(store);
    ASSERT_TRUE(applied.ok()) << applied;
    EXPECT_FALSE((*sparse)->has_similarities());

    const DomainModel& dm = (*dense)->domains();
    ExpectModelsBitwiseEqual(dm, (*sparse)->domains());
    // The refined runs' merge histories, slot for slot, with == on the
    // similarity doubles.
    const std::vector<HacMerge>& md = (*dense)->clustering().merges;
    const std::vector<HacMerge>& ms = (*sparse)->clustering().merges;
    ASSERT_EQ(md.size(), ms.size());
    EXPECT_FALSE(md.empty());
    for (std::size_t k = 0; k < md.size(); ++k) {
      ASSERT_EQ(md[k].slot_a, ms[k].slot_a) << "merge " << k;
      ASSERT_EQ(md[k].slot_b, ms[k].slot_b) << "merge " << k;
      ASSERT_EQ(md[k].similarity, ms[k].similarity) << "merge " << k;
    }
    // The feedback took: the corrected schema left its old cluster-mate
    // and joined the exemplar it was pointed at.
    const HacResult& refined = (*sparse)->clustering();
    EXPECT_NE(refined.ClusterOf(multi[0][0]), refined.ClusterOf(multi[0][1]));
    EXPECT_EQ(refined.ClusterOf(multi[0][0]), refined.ClusterOf(multi[1][0]));
    EXPECT_NE(refined.ClusterOf(multi[2][0]), refined.ClusterOf(multi[2][2]));

    // Implicit feedback reweighted the same priors: same rankings.
    const auto rd = (*dense)->ClassifyKeywordQuery("price year make model");
    const auto rs = (*sparse)->ClassifyKeywordQuery("price year make model");
    ASSERT_TRUE(rd.ok() && rs.ok());
    ASSERT_EQ(rd->size(), rs->size());
    for (std::size_t k = 0; k < rd->size(); ++k) {
      EXPECT_EQ((*rd)[k].domain, (*rs)[k].domain);
      EXPECT_EQ((*rd)[k].log_posterior, (*rs)[k].log_posterior);
    }
  }
}

}  // namespace
}  // namespace paygo
