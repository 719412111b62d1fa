// Bitwise differential test of the dense HAC engine against the lazy-heap
// oracle (tests/heap_hac_oracle.h).
//
// The row-bound engine must reproduce the heap engine's dendrogram merge
// for merge: the same (slot_a, slot_b) pairs in the same order, the same
// similarity doubles compared with ==, and the same final clusters. The
// fuzz covers all four linkages, threshold and max_clusters count mode,
// must-link and cannot-link feedback (including a cannot-link on the best
// pair), engineered ties (duplicate vectors, empty vectors, tiny feature
// spaces), and 1/2/4 threads. Each round prints its seed.
// PAYGO_DETERMINISM_SMALL=1 shrinks the round count (sanitizer CI).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "cluster/hac.h"
#include "heap_hac_oracle.h"
#include "schema/feature_vector.h"
#include "schema/lexicon.h"
#include "synth/ddh_generator.h"
#include "util/random.h"
#include "util/union_find.h"

namespace paygo {
namespace {

bool SmallMode() {
  const char* v = std::getenv("PAYGO_DETERMINISM_SMALL");
  return v != nullptr && std::string(v) != "0";
}

/// Runs the oracle once (it is thread-count invariant) and the production
/// engine at 1, 2 and 4 threads, requiring bitwise-equal dendrograms.
void CheckAgainstOracle(const std::vector<DynamicBitset>& features,
                        const SimilarityMatrix& sims, HacOptions options,
                        const std::string& label) {
  options.num_threads = 1;
  const auto want = heap_oracle::RunHeapHac(features, sims, options);
  ASSERT_TRUE(want.ok()) << want.status();
  for (std::size_t t : {1u, 2u, 4u}) {
    options.num_threads = t;
    const auto got = Hac::Run(features, sims, options);
    ASSERT_TRUE(got.ok()) << label << ": " << got.status();
    heap_oracle::ExpectSameDendrogram(*want, *got,
                         label + " threads=" + std::to_string(t));
  }
}

/// Grouped random vectors with engineered ties: exact duplicates, empty
/// vectors, and (with a tiny dim) many equal Jaccards at different ids.
std::vector<DynamicBitset> TiedCorpus(Rng& rng) {
  const std::size_t n = 12 + rng.NextBelow(60);
  const std::size_t dim = rng.NextBernoulli(0.3) ? 4 + rng.NextBelow(8)
                                                 : 24 + rng.NextBelow(80);
  const std::size_t groups = 1 + rng.NextBelow(5);
  const std::size_t width = std::max<std::size_t>(dim / groups, 1);
  std::vector<DynamicBitset> f(n, DynamicBitset(dim));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t g = rng.NextBelow(groups);
    for (std::size_t b = g * width; b < std::min(dim, (g + 1) * width); ++b) {
      if (rng.NextBernoulli(0.5)) f[i].Set(b);
    }
    if (rng.NextBernoulli(0.3)) f[i].Set(rng.NextBelow(dim));
  }
  // Duplicates of earlier vectors: a row sees equal keys at several j, and
  // several rows see the same best key.
  for (std::size_t k = rng.NextBelow(n / 3 + 1); k > 0; --k) {
    f[rng.NextBelow(n)] = f[rng.NextBelow(n)];
  }
  // Empty vectors: Jaccard 0 against everything, including each other.
  for (std::size_t k = rng.NextBelow(3); k > 0; --k) {
    f[rng.NextBelow(n)] = DynamicBitset(dim);
  }
  return f;
}

/// Must-links and cannot-links that are consistent with each other.
void AddConstraints(Rng& rng, std::size_t n, HacOptions& options) {
  UnionFind uf(n);
  for (std::size_t k = rng.NextBelow(4); k > 0; --k) {
    const auto a = static_cast<std::uint32_t>(rng.NextBelow(n));
    const auto b = static_cast<std::uint32_t>(rng.NextBelow(n));
    if (a == b) continue;
    options.must_link.emplace_back(a, b);
    uf.Union(a, b);
  }
  for (std::size_t k = rng.NextBelow(6); k > 0; --k) {
    const auto a = static_cast<std::uint32_t>(rng.NextBelow(n));
    const auto b = static_cast<std::uint32_t>(rng.NextBelow(n));
    if (a == b || uf.Find(a) == uf.Find(b)) continue;
    options.cannot_link.emplace_back(a, b);
  }
}

/// The pair the first unconstrained merge would take: the most similar
/// schema pair, lowest ids on a tie.
std::pair<std::uint32_t, std::uint32_t> BestPair(
    const SimilarityMatrix& sims) {
  std::pair<std::uint32_t, std::uint32_t> best{0, 1};
  double best_sim = -1.0;
  for (std::uint32_t i = 0; i < sims.size(); ++i) {
    for (std::uint32_t j = i + 1; j < sims.size(); ++j) {
      if (sims.At(i, j) > best_sim) {
        best_sim = sims.At(i, j);
        best = {i, j};
      }
    }
  }
  return best;
}

TEST(HacRowNnDifferentialTest, FuzzMatchesHeapOracleBitwise) {
  const int rounds = SmallMode() ? 24 : 120;
  const std::uint64_t meta_seed = 20261017;
  std::printf("hac_row_nn_differential_test: meta seed %llu, %d rounds\n",
              static_cast<unsigned long long>(meta_seed), rounds);
  Rng meta(meta_seed);
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t seed = meta.NextU64();
    SCOPED_TRACE("round " + std::to_string(round) + " seed " +
                 std::to_string(seed));
    Rng rng(seed);
    const auto features = TiedCorpus(rng);
    const SimilarityMatrix sims(features);
    for (LinkageKind kind : AllLinkageKinds()) {
      HacOptions options;
      options.linkage = kind;
      const int mode = round % 3;
      if (mode == 0) {
        options.tau_c_sim = rng.NextBernoulli(0.2) ? 0.0 : rng.NextDouble();
      } else if (mode == 1) {
        options.max_clusters = 1 + rng.NextBelow(features.size() / 2 + 1);
      } else {
        options.tau_c_sim = 0.1 + 0.5 * rng.NextDouble();
      }
      if (round % 2 == 1) AddConstraints(rng, features.size(), options);
      CheckAgainstOracle(features, sims, options,
                         std::string(LinkageKindName(kind)) + " tau=" +
                             std::to_string(options.tau_c_sim) +
                             " k=" + std::to_string(options.max_clusters));
    }
  }
}

TEST(HacRowNnDifferentialTest, CannotLinkOnTheBestPair) {
  Rng rng(4242);
  std::printf("hac_row_nn_differential_test: cannot-link seed 4242\n");
  for (int round = 0; round < 16; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto features = TiedCorpus(rng);
    const SimilarityMatrix sims(features);
    const auto [x, y] = BestPair(sims);
    for (LinkageKind kind : AllLinkageKinds()) {
      HacOptions options;
      options.linkage = kind;
      options.tau_c_sim = 0.0;
      if (round % 2 == 1) options.max_clusters = 2;
      options.cannot_link = {{x, y}};
      CheckAgainstOracle(features, sims, options,
                         std::string(LinkageKindName(kind)));
      const auto r = Hac::Run(features, sims, options);
      ASSERT_TRUE(r.ok());
      EXPECT_NE(r->ClusterOf(x), r->ClusterOf(y));
    }
  }
}

TEST(HacRowNnDifferentialTest, DdhCorpusMatchesHeapOracleBitwise) {
  DdhGeneratorOptions gen;
  gen.num_schemas = 600;
  const SchemaCorpus corpus = MakeDdhCorpus(gen);
  Tokenizer tok;
  const Lexicon lexicon = Lexicon::Build(corpus, tok);
  FeatureVectorizer vec(lexicon);
  const auto features = vec.VectorizeCorpus();
  std::printf("hac_row_nn_differential_test: DDH n=%zu dim=%zu seed %llu\n",
              features.size(), features.empty() ? 0 : features[0].size(),
              static_cast<unsigned long long>(gen.seed));
  const SimilarityMatrix sims(features);

  HacOptions average;
  average.tau_c_sim = 0.25;
  CheckAgainstOracle(features, sims, average, "avg tau=0.25");

  HacOptions count = average;
  count.max_clusters = 12;
  CheckAgainstOracle(features, sims, count, "avg k=12");

  HacOptions constrained = average;
  constrained.must_link = {{0, 599}, {17, 301}, {301, 450}};
  constrained.cannot_link = {BestPair(sims), {5, 6}};
  CheckAgainstOracle(features, sims, constrained, "avg constrained");

  if (!SmallMode()) {
    HacOptions total = average;
    total.linkage = LinkageKind::kTotal;
    CheckAgainstOracle(features, sims, total, "total tau=0.25");
    for (LinkageKind kind : {LinkageKind::kMin, LinkageKind::kMax}) {
      HacOptions other = average;
      other.linkage = kind;
      CheckAgainstOracle(features, sims, other, LinkageKindName(kind));
    }
  }
}

}  // namespace
}  // namespace paygo
