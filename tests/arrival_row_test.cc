/// \file arrival_row_test.cc
/// \brief The arrival similarity row read from the feature postings is
/// exact, and everything the write path builds from it is bitwise what a
/// from-scratch build gives.
///
///  * FeaturePostings::JaccardRow, scattered into a dense row, equals a
///    DynamicBitset::Jaccard scan over every indexed schema under memcmp,
///    on DDH, many-domain and random corpora, with empty vectors, queries
///    that set nothing, and features whose lists pass the neighbor graph's
///    hot limit.
///  * AssignArrival's memberships from the sparse row equal Algorithm 3
///    over a dense Jaccard scan, bitwise.
///  * A sparse_build system fed a chain of arrivals keeps a neighbor
///    graph equal edge for edge (id and float bits) to NeighborGraph::Build
///    over its features, and a domain model and classifier rankings equal
///    to those of a twin re-derived from scratch after each arrival
///    (RederiveFromScratch), at 1, 2 and 4 threads.
///  * A snapshot taken before an arrival keeps its posting lists and
///    corpus rows; the arrival copies only the lists it touches.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/neighbor_graph.h"
#include "core/integration_system.h"
#include "extend_by_arrivals.h"
#include "obs/stats.h"
#include "rederive_from_scratch.h"
#include "schema/feature_postings.h"
#include "synth/ddh_generator.h"
#include "synth/many_domains.h"
#include "util/random.h"

namespace paygo {
namespace {

/// Dense rows compared with memcmp: the sparse row scattered over +0.0
/// against a DynamicBitset::Jaccard scan.
void ExpectRowMatchesDenseScan(const FeaturePostings& postings,
                               const std::vector<DynamicBitset>& indexed,
                               const DynamicBitset& query,
                               const std::string& label) {
  const std::size_t n = indexed.size();
  ASSERT_EQ(postings.num_schemas(), n) << label;
  const std::vector<JaccardEntry> row = postings.JaccardRow(query);
  std::vector<double> sparse(n, 0.0);
  for (std::size_t k = 0; k < row.size(); ++k) {
    ASSERT_LT(row[k].id, n) << label;
    if (k > 0) {
      ASSERT_GT(row[k].id, row[k - 1].id) << label;
    }
    ASSERT_GT(row[k].sim, 0.0) << label;
    sparse[row[k].id] = row[k].sim;
  }
  std::vector<double> dense(n);
  for (std::size_t j = 0; j < n; ++j) {
    dense[j] = DynamicBitset::Jaccard(query, indexed[j]);
  }
  EXPECT_EQ(std::memcmp(sparse.data(), dense.data(), n * sizeof(double)), 0)
      << label;
}

/// Indexes the first half of \p features, then checks the row of every
/// vector (indexed ones included) and appends the second half one at a
/// time, checking each arrival's row against the prefix it arrives into.
void ExpectRowsExact(const std::vector<DynamicBitset>& features,
                     const std::string& label) {
  const std::size_t half = features.size() / 2;
  std::vector<DynamicBitset> indexed(features.begin(),
                                     features.begin() + half);
  FeaturePostings postings(indexed);
  for (std::size_t i = 0; i < features.size(); i += 3) {
    ExpectRowMatchesDenseScan(postings, indexed, features[i],
                              label + " query " + std::to_string(i));
  }
  ExpectRowMatchesDenseScan(postings, indexed,
                            DynamicBitset(features.front().size()),
                            label + " empty query");
  for (std::size_t i = half; i < features.size(); ++i) {
    ExpectRowMatchesDenseScan(postings, indexed, features[i],
                              label + " arrival " + std::to_string(i));
    postings.Append(features[i]);
    indexed.push_back(features[i]);
  }
  EXPECT_EQ(postings.num_schemas(), features.size()) << label;
}

std::vector<DynamicBitset> SystemFeatures(SchemaCorpus corpus) {
  SystemOptions options;
  options.build_mediation = false;
  options.build_classifier = false;
  auto sys = IntegrationSystem::Build(std::move(corpus), options);
  EXPECT_TRUE(sys.ok()) << sys.status();
  if (!sys.ok()) return {};
  const FeatureRows& features = (*sys)->features();
  return {features.begin(), features.end()};
}

/// Random vectors with a few empty ones mixed in.
std::vector<DynamicBitset> RandomFeatures(std::size_t n, std::size_t dim,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<DynamicBitset> features(n, DynamicBitset(dim));
  for (DynamicBitset& f : features) {
    if (rng.NextBernoulli(0.05)) continue;
    const double density = 0.01 + 0.1 * rng.NextDouble();
    for (std::size_t b = 0; b < dim; ++b) {
      if (rng.NextBernoulli(density)) f.Set(b);
    }
  }
  return features;
}

/// Edge for edge, ids and float bits, plus the nonempty flags.
void ExpectGraphsEqual(const NeighborGraph& a, const NeighborGraph& b,
                       const std::string& label) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << label;
  ASSERT_EQ(a.num_edges(), b.num_edges()) << label;
  for (std::uint32_t i = 0; i < a.num_nodes(); ++i) {
    ASSERT_EQ(a.NonEmpty(i), b.NonEmpty(i)) << label << " node " << i;
    ASSERT_EQ(a.Degree(i), b.Degree(i)) << label << " node " << i;
    const NeighborEdge* ea = a.Row(i).first;
    const NeighborEdge* eb = b.Row(i).first;
    for (std::size_t k = 0; k < a.Degree(i); ++k) {
      ASSERT_EQ(ea[k].id, eb[k].id) << label << " node " << i;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(ea[k].sim),
                std::bit_cast<std::uint32_t>(eb[k].sim))
          << label << " edge " << i << "-" << ea[k].id;
    }
  }
}

TEST(ArrivalRowTest, MatchesDenseScanOnDdhCorpus) {
  const std::vector<DynamicBitset> features =
      SystemFeatures(MakeDdhCorpus({.num_schemas = 240, .seed = 5}));
  ASSERT_FALSE(features.empty());
  ExpectRowsExact(features, "ddh");
}

TEST(ArrivalRowTest, MatchesDenseScanOnManyDomainCorpus) {
  const std::vector<DynamicBitset> features =
      SystemFeatures(MakeManyDomainCorpus({.num_domains = 60, .seed = 7}));
  ASSERT_FALSE(features.empty());
  ExpectRowsExact(features, "many-domain");
}

TEST(ArrivalRowTest, MatchesDenseScanOnRandomCorpora) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    ExpectRowsExact(RandomFeatures(160, 70 + 37 * seed % 90, seed),
                    "random seed " + std::to_string(seed));
  }
}

TEST(ArrivalRowTest, EmptyVectorsHaveZeroRows) {
  // Jaccard of two empty vectors is 0 (uni == 0), not NaN; an empty query
  // touches no list, and an empty schema is on no list.
  std::vector<DynamicBitset> features(6, DynamicBitset(20));
  features[1].Set(3);
  features[4].Set(3);
  features[4].Set(7);
  const FeaturePostings postings(features);
  EXPECT_TRUE(postings.JaccardRow(DynamicBitset(20)).empty());
  EXPECT_TRUE(postings.JaccardRow(features[0]).empty());
  ExpectRowMatchesDenseScan(postings, features, features[0], "empty");
  ExpectRowMatchesDenseScan(postings, features, features[4], "two bits");
  EXPECT_EQ(postings.Popcount(0), 0u);
  EXPECT_EQ(postings.Popcount(4), 2u);
}

TEST(ArrivalRowTest, HotListsStayExact) {
  // Feature 0 is set in every schema and feature 1 in every other one:
  // both lists pass the graph's default hot limit max(64, n / 8).
  std::vector<DynamicBitset> features = RandomFeatures(600, 120, 21);
  for (std::size_t i = 0; i < features.size(); ++i) {
    features[i].Set(0);
    if (i % 2 == 0) features[i].Set(1);
  }
  ExpectRowsExact(features, "hot");

  // The graph over the hot prefix, extended row by row, equals a build
  // over the whole corpus (whose hot lists go through the heavy sweep).
  const std::vector<DynamicBitset> prefix(features.begin(),
                                          features.begin() + 560);
  auto base = NeighborGraph::Build(prefix, NeighborGraphOptions{});
  ASSERT_TRUE(base.ok()) << base.status();
  const NeighborGraph extended = ExtendByArrivals(*base, features);
  auto scratch = NeighborGraph::Build(features, NeighborGraphOptions{});
  ASSERT_TRUE(scratch.ok()) << scratch.status();
  ExpectGraphsEqual(extended, *scratch, "hot graph");
}

TEST(ArrivalRowTest, CountsEveryPostingVisited) {
  const std::vector<DynamicBitset> features = RandomFeatures(90, 50, 31);
  const FeaturePostings postings(features);
  Counter* visited =
      StatsRegistry::Global().GetCounter("paygo.arrival.postings_visited");
  const DynamicBitset& query = features[17];
  std::uint64_t expected = 0;
  for (std::size_t b : query.SetBits()) expected += postings.List(b).size();
  const std::uint64_t before = visited->value();
  postings.JaccardRow(query);
  EXPECT_EQ(visited->value() - before, expected);
}

// ---------------------------------------------------------------------------
// System level.

void ExpectModelsEqual(const DomainModel& a, const DomainModel& b,
                       const std::string& label) {
  ASSERT_EQ(a.num_schemas(), b.num_schemas()) << label;
  ASSERT_EQ(a.num_domains(), b.num_domains()) << label;
  EXPECT_EQ(a.clusters(), b.clusters()) << label;
  for (std::uint32_t i = 0; i < a.num_schemas(); ++i) {
    EXPECT_EQ(a.DomainsOf(i), b.DomainsOf(i)) << label << " schema " << i;
  }
  for (std::uint32_t r = 0; r < a.num_domains(); ++r) {
    EXPECT_EQ(a.SchemasOf(r), b.SchemasOf(r)) << label << " domain " << r;
  }
}

struct SparseInputs {
  SchemaCorpus base{"web-base"};
  SchemaCorpus arrivals{"web-new"};
};

/// A many-domain corpus with every fifth schema held out as an arrival,
/// plus arrivals that mix two domains and one whose terms are all unseen.
const SparseInputs& Inputs() {
  static const SparseInputs inputs = [] {
    SparseInputs in;
    const SchemaCorpus all =
        MakeManyDomainCorpus({.num_domains = 50, .seed = 41});
    for (std::size_t i = 0; i < all.size(); ++i) {
      (i % 5 == 2 ? in.arrivals : in.base).Add(all.schema(i), all.labels(i));
    }
    for (std::size_t i = 0; i + 7 < all.size() && i < 40; i += 9) {
      Schema mixed = all.schema(i);
      const Schema& other = all.schema(i + 7);
      mixed.source_name += "+mix";
      mixed.attributes.insert(mixed.attributes.end(), other.attributes.begin(),
                              other.attributes.end());
      in.arrivals.Add(std::move(mixed), all.labels(i));
    }
    in.arrivals.Add(Schema("alien", {"qqzx vvkw", "xxjq"}), {"none"});
    return in;
  }();
  return inputs;
}

std::vector<std::string> QueriesFrom(const SchemaCorpus& corpus) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < corpus.size(); i += 4) {
    std::string q;
    for (const std::string& a : corpus.schema(i).attributes) {
      q += (q.empty() ? "" : " ") + a;
    }
    out.push_back(std::move(q));
  }
  return out;
}

class SparseChainTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SparseChainTest, DeltaArrivalsMatchFullRebuildBitwise) {
  const std::size_t width = GetParam();
  SystemOptions options;
  options.sparse_build = true;
  options.hac.num_threads = width;
  auto built = IntegrationSystem::Build(Inputs().base, options);
  ASSERT_TRUE(built.ok()) << built.status();
  auto delta = (*built)->Clone();
  delta->set_num_threads(width);
  auto full = (*built)->Clone();
  full->set_num_threads(width);

  const std::vector<std::string> queries = QueriesFrom(Inputs().arrivals);
  NeighborGraphOptions graph_options;
  graph_options.num_threads = width;
  for (std::size_t j = 0; j < Inputs().arrivals.size(); ++j) {
    const std::string label = "width " + std::to_string(width) +
                              ", arrival " + std::to_string(j);
    // Chained snapshots, the way the serving writer mutates.
    auto next = delta->Clone();
    auto ra = next->AddSchema(Inputs().arrivals.schema(j),
                              Inputs().arrivals.labels(j));
    auto rb = full->AddSchema(Inputs().arrivals.schema(j),
                              Inputs().arrivals.labels(j));
    ASSERT_TRUE(ra.ok()) << ra.status();
    ASSERT_TRUE(rb.ok()) << rb.status();
    auto rederived = RederiveFromScratch(*full);
    ASSERT_TRUE(rederived.ok()) << rederived.status();
    full = std::move(*rederived);
    delta = std::move(next);
    EXPECT_EQ(ra->memberships, rb->memberships) << label;
    EXPECT_EQ(ra->created_new_domain, rb->created_new_domain) << label;

    auto scratch = NeighborGraph::Build(delta->features(), graph_options);
    ASSERT_TRUE(scratch.ok()) << scratch.status();
    ExpectGraphsEqual(delta->neighbor_graph(), *scratch, label + " vs Build");
    ExpectGraphsEqual(delta->neighbor_graph(), full->neighbor_graph(),
                      label + " vs full");
    ExpectModelsEqual(delta->domains(), full->domains(), label);
    if (::testing::Test::HasFailure()) return;
  }
  // The unseen-term arrival set no feature: no edges, empty diagonal.
  const auto last = static_cast<std::uint32_t>(delta->corpus().size() - 1);
  EXPECT_FALSE(delta->neighbor_graph().NonEmpty(last));
  EXPECT_EQ(delta->neighbor_graph().Degree(last), 0u);

  for (const std::string& q : queries) {
    auto sa = delta->ClassifyKeywordQuery(q);
    auto sb = full->ClassifyKeywordQuery(q);
    ASSERT_TRUE(sa.ok() && sb.ok()) << q;
    ASSERT_EQ(sa->size(), sb->size()) << q;
    for (std::size_t k = 0; k < sa->size(); ++k) {
      EXPECT_EQ((*sa)[k].domain, (*sb)[k].domain) << q;
      EXPECT_EQ((*sa)[k].log_posterior, (*sb)[k].log_posterior) << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadWidths, SparseChainTest,
                         ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "width" + std::to_string(info.param);
                         });

/// Algorithm 3 for a newcomer from a dense Jaccard scan, written out
/// directly: the oracle AssignArrival's sparse sums must match bitwise.
std::vector<std::pair<std::uint32_t, double>> DenseMemberships(
    const DomainModel& model, std::span<const DynamicBitset> features,
    const DynamicBitset& arrival, const AssignmentOptions& options) {
  std::vector<double> sc;
  double max_sim = 0.0;
  for (const std::vector<std::uint32_t>& cluster : model.clusters()) {
    double total = 0.0;
    for (std::uint32_t j : cluster) {
      total += DynamicBitset::Jaccard(arrival, features[j]);
    }
    sc.push_back(cluster.empty()
                     ? 0.0
                     : total / static_cast<double>(cluster.size()));
    max_sim = std::max(max_sim, sc.back());
  }
  std::vector<std::pair<std::uint32_t, double>> out;
  double norm = 0.0;
  for (std::uint32_t r = 0; r < sc.size(); ++r) {
    if (sc[r] < options.tau_c_sim) continue;
    if (max_sim > 0.0 && sc[r] / max_sim < 1.0 - options.theta) continue;
    out.emplace_back(r, sc[r]);
    norm += sc[r];
  }
  if (out.empty()) return {{static_cast<std::uint32_t>(sc.size()), 1.0}};
  for (auto& [r, p] : out) p /= norm;
  return out;
}

TEST(ArrivalRowTest, AssignArrivalMatchesDenseAlgorithm3) {
  for (const bool ddh : {true, false}) {
    SystemOptions options;
    options.build_mediation = false;
    options.build_classifier = false;
    SchemaCorpus corpus =
        ddh ? MakeDdhCorpus({.num_schemas = 150, .seed = 9})
            : MakeManyDomainCorpus({.num_domains = 30, .seed = 9});
    auto sys = IntegrationSystem::Build(corpus, options);
    ASSERT_TRUE(sys.ok()) << sys.status();
    const IntegrationSystem& s = **sys;
    const AssignmentOptions& inc = options.assignment;
    // Existing schemas as arrivals, the last one included: its row
    // reaches the highest id.
    for (std::size_t k = 0; k < corpus.size(); k += 7) {
      const std::size_t i = corpus.size() - 1 - k;
      const DynamicBitset& arrival = s.features()[i];
      IncrementalAddResult out;
      const DomainModel grown = AssignArrival(
          s.domains(), s.postings().JaccardRow(arrival), inc, &out);
      EXPECT_EQ(out.memberships,
                DenseMemberships(s.domains(), s.features(), arrival, inc))
          << (ddh ? "ddh" : "many-domain") << " arrival " << i;
      EXPECT_EQ(grown.num_schemas(), s.domains().num_schemas() + 1);
      EXPECT_EQ(grown.DomainsOf(out.schema_id), out.memberships);
    }
  }
}

TEST(ArrivalRowTest, DenseUnseenArrivalRowMatchesScratchMatrix) {
  SystemOptions options;
  options.build_mediation = false;
  options.build_classifier = false;
  auto sys = IntegrationSystem::Build(
      MakeDdhCorpus({.num_schemas = 80, .seed = 3}), options);
  ASSERT_TRUE(sys.ok()) << sys.status();
  ASSERT_TRUE((*sys)->AddSchema(Schema("alien", {"qqzx vvkw"})).ok());
  ASSERT_TRUE((*sys)->AddSchema(MakeDdhCorpus({.num_schemas = 81, .seed = 3})
                                    .schema(80))
                  .ok());
  const SimilarityMatrix scratch((*sys)->features());
  const SimilarityMatrix& sims = (*sys)->similarities();
  ASSERT_EQ(sims.size(), scratch.size());
  for (std::size_t i = 80; i < sims.size(); ++i) {
    EXPECT_EQ(std::memcmp(sims.Row(i).data(), scratch.Row(i).data(),
                          (i + 1) * sizeof(float)),
              0)
        << "row " << i;
  }
  EXPECT_EQ(sims.At(80, 80), 0.0);
}

TEST(ArrivalRowTest, SnapshotKeepsItsPostingsAndCorpusRows) {
  SystemOptions options;
  options.build_mediation = false;
  options.build_classifier = false;
  auto built = IntegrationSystem::Build(Inputs().base, options);
  ASSERT_TRUE(built.ok()) << built.status();
  const std::unique_ptr<IntegrationSystem> snap = (*built)->Clone();
  const FeaturePostings& old_postings = snap->postings();
  const std::size_t n = old_postings.num_schemas();
  std::vector<std::vector<std::uint32_t>> old_lists;
  std::vector<const std::uint32_t*> old_data;
  for (std::size_t f = 0; f < old_postings.dim(); ++f) {
    const auto list = old_postings.List(f);
    old_lists.emplace_back(list.begin(), list.end());
    old_data.push_back(list.data());
  }
  std::vector<const Schema*> old_rows;
  for (std::size_t i = 0; i < n; ++i) old_rows.push_back(&snap->corpus().schema(i));

  auto next = snap->Clone();
  ASSERT_TRUE(next->AddSchema(Inputs().arrivals.schema(0),
                              Inputs().arrivals.labels(0))
                  .ok());

  // The snapshot is untouched.
  ASSERT_EQ(&snap->postings(), &old_postings);
  ASSERT_EQ(old_postings.num_schemas(), n);
  ASSERT_EQ(snap->corpus().size(), n);
  for (std::size_t f = 0; f < old_postings.dim(); ++f) {
    const auto list = old_postings.List(f);
    EXPECT_EQ(list.data(), old_data[f]) << "feature " << f;
    EXPECT_EQ(std::vector<std::uint32_t>(list.begin(), list.end()),
              old_lists[f])
        << "feature " << f;
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(&snap->corpus().schema(i), old_rows[i]) << "row " << i;
  }

  // The arrival copied only its own features' lists and shares the rest,
  // and shares every old corpus row.
  const DynamicBitset& arrived = next->features().back();
  ASSERT_FALSE(arrived.None());
  const FeaturePostings& new_postings = next->postings();
  ASSERT_EQ(new_postings.num_schemas(), n + 1);
  for (std::size_t f = 0; f < old_postings.dim(); ++f) {
    const auto list = new_postings.List(f);
    if (arrived.Test(f)) {
      std::vector<std::uint32_t> expected = old_lists[f];
      expected.push_back(static_cast<std::uint32_t>(n));
      EXPECT_EQ(std::vector<std::uint32_t>(list.begin(), list.end()),
                expected)
          << "feature " << f;
      EXPECT_NE(list.data(), old_data[f]) << "feature " << f;
    } else {
      EXPECT_EQ(list.data(), old_data[f]) << "feature " << f;
    }
  }
  ASSERT_EQ(next->corpus().size(), n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(&next->corpus().schema(i), old_rows[i]) << "row " << i;
  }
}

}  // namespace
}  // namespace paygo
