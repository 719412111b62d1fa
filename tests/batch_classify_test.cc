/// \file batch_classify_test.cc
/// \brief Batch-vs-single classification equivalence, checked bitwise.
///
/// ClassifyBatch ranks B queries in one domain-major struct-of-arrays
/// sweep, but per (query, domain) it sums the same log-odds in the same
/// ascending feature order onto the same base as Classify — so every
/// comparison here is EXPECT_EQ on doubles, never EXPECT_NEAR. Covered:
/// batch sizes {1, 7, 64}, concurrent callers at thread widths {1, 4},
/// the scratch/Into flavors, a delta-churned classifier (the
/// delta_differential_test harness), and the PaygoServer coalesced
/// SubmitBatch path against the plain single-query server path.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "classify/naive_bayes.h"
#include "core/integration_system.h"
#include "dense_classifier_oracle.h"
#include "serve/paygo_server.h"
#include "synth/ddh_generator.h"
#include "util/bitset.h"
#include "util/random.h"

namespace paygo {
namespace {

constexpr std::size_t kDim = 400;

/// A synthetic classifier with dense random conditionals, the same shape
/// the perf bench uses.
NaiveBayesClassifier MakeClassifier(std::size_t num_domains, unsigned seed) {
  Rng rng(seed);
  std::vector<dense_oracle::DenseConditionals> conds(num_domains);
  for (auto& c : conds) {
    c.prior = 0.01 + rng.NextDouble();
    c.q1.resize(kDim);
    for (double& q : c.q1) q = 0.001 + 0.9 * rng.NextDouble();
  }
  return dense_oracle::ClassifierFromDense(
      std::move(conds), std::vector<bool>(num_domains, false), {});
}

std::vector<DynamicBitset> MakeQueries(std::size_t count, unsigned seed) {
  Rng rng(seed);
  std::vector<DynamicBitset> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    DynamicBitset q(kDim);
    // Mixed sparsity, including the empty query (base scores only).
    const std::size_t set = i % 9;
    for (std::size_t k = 0; k < set; ++k) q.Set(rng.NextBelow(kDim));
    queries.push_back(std::move(q));
  }
  return queries;
}

void ExpectSameRanking(const std::vector<DomainScore>& batch,
                       const std::vector<DomainScore>& single,
                       std::size_t query_index) {
  ASSERT_EQ(batch.size(), single.size()) << "query " << query_index;
  for (std::size_t k = 0; k < batch.size(); ++k) {
    EXPECT_EQ(batch[k].domain, single[k].domain)
        << "query " << query_index << " rank " << k;
    EXPECT_EQ(batch[k].log_posterior, single[k].log_posterior)
        << "query " << query_index << " rank " << k;
  }
}

TEST(BatchClassifyTest, BatchMatchesSingleBitwise) {
  const NaiveBayesClassifier clf = MakeClassifier(37, 101);
  for (std::size_t batch_size : {1u, 7u, 64u}) {
    const std::vector<DynamicBitset> queries = MakeQueries(batch_size, 202);
    const auto batched = clf.ClassifyBatch(queries);
    ASSERT_EQ(batched.size(), queries.size());
    for (std::size_t b = 0; b < queries.size(); ++b) {
      ExpectSameRanking(batched[b], clf.Classify(queries[b]), b);
    }
  }
}

TEST(BatchClassifyTest, IntoFlavorsMatchAndReuseBuffers) {
  const NaiveBayesClassifier clf = MakeClassifier(20, 303);
  const std::vector<DynamicBitset> queries = MakeQueries(64, 404);

  ClassifyScratch scratch;
  std::vector<DomainScore> single_out;
  std::vector<std::vector<DomainScore>> batch_out;

  // Several rounds through the SAME buffers: results must not depend on
  // leftover state from the previous round.
  for (int round = 0; round < 3; ++round) {
    clf.ClassifyBatchInto(queries, &scratch, &batch_out);
    ASSERT_EQ(batch_out.size(), queries.size());
    for (std::size_t b = 0; b < queries.size(); ++b) {
      clf.ClassifyInto(queries[b], &scratch, &single_out);
      ExpectSameRanking(batch_out[b], single_out, b);
      ExpectSameRanking(batch_out[b], clf.Classify(queries[b]), b);
    }
  }
}

TEST(BatchClassifyTest, SkipSingletonDomainsHonoredInBatch) {
  Rng rng(55);
  std::vector<dense_oracle::DenseConditionals> conds(8);
  for (auto& c : conds) {
    c.prior = 0.01 + rng.NextDouble();
    c.q1.resize(kDim);
    for (double& q : c.q1) q = 0.001 + 0.9 * rng.NextDouble();
  }
  std::vector<bool> singleton(8, false);
  singleton[2] = singleton[5] = true;
  ClassifierOptions options;
  options.skip_singleton_domains = true;
  const auto clf = dense_oracle::ClassifierFromDense(
      std::move(conds), std::move(singleton), options);

  const std::vector<DynamicBitset> queries = MakeQueries(7, 66);
  const auto batched = clf.ClassifyBatch(queries);
  for (std::size_t b = 0; b < queries.size(); ++b) {
    ASSERT_EQ(batched[b].size(), 6u);
    for (const DomainScore& s : batched[b]) {
      EXPECT_NE(s.domain, 2u);
      EXPECT_NE(s.domain, 5u);
    }
    ExpectSameRanking(batched[b], clf.Classify(queries[b]), b);
  }
}

TEST(BatchClassifyTest, ConcurrentBatchCallersMatchSingle) {
  const NaiveBayesClassifier clf = MakeClassifier(25, 505);
  const std::vector<DynamicBitset> queries = MakeQueries(64, 606);

  // Golden single-path answers, computed up front on the main thread.
  std::vector<std::vector<DomainScore>> golden;
  golden.reserve(queries.size());
  for (const DynamicBitset& q : queries) golden.push_back(clf.Classify(q));

  for (std::size_t width : {1u, 4u}) {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < width; ++t) {
      threads.emplace_back([&clf, &queries, &golden, t] {
        // Each thread slices the queries differently so the thread_local
        // scratch sees varying batch sizes.
        const std::size_t chunk = t + 3;
        for (std::size_t start = 0; start < queries.size(); start += chunk) {
          const std::size_t len = std::min(chunk, queries.size() - start);
          const auto batched = clf.ClassifyBatch(
              std::span<const DynamicBitset>(queries.data() + start, len));
          ASSERT_EQ(batched.size(), len);
          for (std::size_t b = 0; b < len; ++b) {
            ExpectSameRanking(batched[b], golden[start + b], start + b);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
}

/// The delta-churned classifier: stream schemas through the O(delta) write
/// path (the delta_differential_test harness), then require batch == single
/// on the UPDATED classifier — proving the batch sweep is exact over
/// UpdateDomains-produced models too, not just fresh Build() ones.
TEST(BatchClassifyTest, DeltaChurnedClassifierMatchesBitwise) {
  constexpr std::size_t kBase = 60;
  constexpr std::size_t kExtra = 10;
  const SchemaCorpus pool =
      MakeDdhCorpus({.num_schemas = kBase + kExtra, .seed = 29});
  SchemaCorpus corpus("ddh-base");
  for (std::size_t i = 0; i < kBase; ++i) {
    corpus.Add(pool.schema(i), pool.labels(i));
  }
  auto built = IntegrationSystem::Build(corpus);
  ASSERT_TRUE(built.ok()) << built.status();
  auto sys = (*built)->Clone();
  sys->set_delta_mutations(true);
  for (std::size_t i = kBase; i < pool.size(); ++i) {
    auto added = sys->AddSchema(pool.schema(i), pool.labels(i));
    ASSERT_TRUE(added.ok()) << added.status();
  }

  // Queries over the pool's own attribute vocabulary.
  std::vector<std::string> queries;
  for (std::size_t i = 0; i < pool.size(); i += 3) {
    std::string q;
    for (const std::string& attr : pool.schema(i).attributes) {
      if (!q.empty()) q += ' ';
      q += attr;
    }
    queries.push_back(std::move(q));
  }

  auto batched = sys->ClassifyKeywordQueryBatch(queries);
  ASSERT_TRUE(batched.ok()) << batched.status();
  ASSERT_EQ(batched->size(), queries.size());
  for (std::size_t b = 0; b < queries.size(); ++b) {
    auto single = sys->ClassifyKeywordQuery(queries[b]);
    ASSERT_TRUE(single.ok()) << single.status();
    ExpectSameRanking((*batched)[b], *single, b);
  }
}

/// The server-level coalesced path: SubmitBatch with classify_batch_max>1
/// must answer every query exactly as the direct single-query system call,
/// cache hits and sweeps alike.
TEST(BatchClassifyTest, ServerSubmitBatchMatchesDirectClassify) {
  const SchemaCorpus corpus = MakeDdhCorpus({.num_schemas = 40, .seed = 7});
  auto built = IntegrationSystem::Build(corpus);
  ASSERT_TRUE(built.ok()) << built.status();

  // Golden answers straight off the system, before the server owns it.
  std::vector<std::string> queries;
  for (std::size_t i = 0; i < corpus.size(); i += 2) {
    std::string q;
    for (const std::string& attr : corpus.schema(i).attributes) {
      if (!q.empty()) q += ' ';
      q += attr;
    }
    queries.push_back(std::move(q));
  }
  // Duplicates exercise the cache interplay inside one sweep.
  queries.push_back(queries[0]);
  queries.push_back(queries[1]);
  std::vector<std::vector<DomainScore>> golden;
  for (const std::string& q : queries) {
    auto scores = (*built)->ClassifyKeywordQuery(q);
    ASSERT_TRUE(scores.ok()) << scores.status();
    golden.push_back(std::move(*scores));
  }

  ServeOptions options;
  options.num_workers = 2;
  options.classify_batch_max = 8;
  PaygoServer server(std::move(*built), options);
  ASSERT_TRUE(server.Start().ok());

  for (int round = 0; round < 3; ++round) {
    auto results = server.ClassifyBatch(queries);
    ASSERT_EQ(results.size(), queries.size());
    for (std::size_t b = 0; b < queries.size(); ++b) {
      ASSERT_TRUE(results[b].ok()) << results[b].status();
      ExpectSameRanking(*results[b], golden[b], b);
    }
  }
  // Every answer flowed through the classify path; at least one sweep ran
  // (even a width-1 drain counts as a sweep).
  EXPECT_GT(server.metrics().batch_sweeps.load(), 0u);
  EXPECT_GE(server.metrics().batched_requests.load(),
            server.metrics().batch_sweeps.load());
  server.Stop();
}

}  // namespace
}  // namespace paygo
