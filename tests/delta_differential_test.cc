/// \file delta_differential_test.cc
/// \brief The arrival path's exactness guarantee, checked end to end: a
/// system grown through AddSchema is BITWISE equal to a twin that takes
/// the same arrival and is then re-derived from scratch
/// (RederiveFromScratch: a fresh matrix, every mediation and the
/// classifier rebuilt), over randomized AddSchema/feedback sequences and
/// at every thread width.
///
/// "Bitwise" is literal — every comparison below is EXPECT_EQ on doubles,
/// never EXPECT_NEAR. The arrival path earns this because each of its
/// three shortcuts is exact, not approximate:
///   * the similarity matrix extend-constructor shares the old rows and
///     adds only the new row of a pure function;
///   * a mediation depends only on the domain's own members, so untouched
///     domains' mediations are shared verbatim, and a touched domain's is
///     Mediator::Extend of the old one: the arrival's attributes are added
///     to the stored pre-threshold tally in member order (the same
///     additions, in the same order, as a tally from scratch), name pairs
///     between names kept before reuse their stored decision, and the old
///     mappings stand when the mediated schema keeps its (name, members)
///     sequence;
///   * the factored classifier's per-domain conditionals depend only on
///     the domain's membership rows, and UpdateDomains routes affected
///     domains through the same canonical PrecomputeDomain as Build(),
///     and re-derives every other prior from its domain's mass.
/// Any drift here — a forgotten affected domain, a stale prior, a
/// reordered float accumulation — fails this test immediately.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/integration_system.h"
#include "rederive_from_scratch.h"
#include "synth/ddh_generator.h"

namespace paygo {
namespace {

constexpr std::size_t kBaseSchemas = 100;
constexpr std::size_t kExtraSchemas = 12;

/// One generated pool; the first kBaseSchemas seed the system, the rest
/// stream in through AddSchema.
const SchemaCorpus& Pool() {
  static const SchemaCorpus pool = MakeDdhCorpus(
      {.num_schemas = kBaseSchemas + kExtraSchemas, .seed = 29});
  return pool;
}

SchemaCorpus BaseCorpus() {
  SchemaCorpus corpus("ddh-base");
  for (std::size_t i = 0; i < kBaseSchemas; ++i) {
    corpus.Add(Pool().schema(i), Pool().labels(i));
  }
  return corpus;
}

/// Keyword queries drawn from the pool's own vocabulary, so they light up
/// real features.
std::vector<std::string> Queries() {
  std::vector<std::string> queries;
  for (std::size_t i = 0; i < Pool().size(); i += 7) {
    std::string q;
    for (const std::string& attr : Pool().schema(i).attributes) {
      if (!q.empty()) q += ' ';
      q += attr;
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

/// Asserts every externally observable number of the two systems is
/// bit-for-bit equal.
void ExpectBitwiseEqual(const IntegrationSystem& a,
                        const IntegrationSystem& b) {
  ASSERT_EQ(a.corpus().size(), b.corpus().size());
  ASSERT_EQ(a.features().size(), b.features().size());
  for (std::size_t i = 0; i < a.features().size(); ++i) {
    EXPECT_TRUE(a.features()[i] == b.features()[i]) << "feature row " << i;
  }

  // Similarity matrix: the extended matrix vs a scratch build.
  ASSERT_EQ(a.similarities().size(), b.similarities().size());
  for (std::size_t i = 0; i < a.similarities().size(); ++i) {
    for (std::size_t j = 0; j < a.similarities().size(); ++j) {
      EXPECT_EQ(a.similarities().At(i, j), b.similarities().At(i, j))
          << "sims(" << i << ", " << j << ")";
    }
  }

  // Domain model: same clusters, same membership probabilities.
  ASSERT_EQ(a.domains().num_domains(), b.domains().num_domains());
  EXPECT_EQ(a.domains().clusters(), b.domains().clusters());
  for (std::uint32_t i = 0; i < a.domains().num_schemas(); ++i) {
    EXPECT_EQ(a.domains().DomainsOf(i), b.domains().DomainsOf(i))
        << "memberships of schema " << i;
  }

  // Classifier: priors, conditionals, and scores.
  ASSERT_EQ(a.classifier().num_domains(), b.classifier().num_domains());
  for (std::uint32_t r = 0; r < a.classifier().num_domains(); ++r) {
    EXPECT_EQ(a.classifier().Prior(r), b.classifier().Prior(r))
        << "prior of domain " << r;
    EXPECT_EQ(a.classifier().conditionals()[r],
              b.classifier().conditionals()[r])
        << "q1 of domain " << r;
  }
  for (const std::string& q : Queries()) {
    auto sa = a.ClassifyKeywordQuery(q);
    auto sb = b.ClassifyKeywordQuery(q);
    ASSERT_TRUE(sa.ok() && sb.ok());
    ASSERT_EQ(sa->size(), sb->size());
    for (std::size_t k = 0; k < sa->size(); ++k) {
      EXPECT_EQ((*sa)[k].domain, (*sb)[k].domain) << "query: " << q;
      EXPECT_EQ((*sa)[k].log_posterior, (*sb)[k].log_posterior)
          << "query: " << q;
    }
  }

  // Mediation: shared objects vs rebuilt ones must have equal content.
  for (std::uint32_t r = 0; r < a.domains().num_domains(); ++r) {
    ExpectSameMediation(a.mediation(r), b.mediation(r),
                        "domain " + std::to_string(r));
  }
}

class DeltaDifferentialTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DeltaDifferentialTest, RandomizedMutationsMatchScratchBitwise) {
  const std::size_t width = GetParam();

  auto built = IntegrationSystem::Build(BaseCorpus());
  ASSERT_TRUE(built.ok()) << built.status();

  // Two clones of the SAME built system, so both start from bit-identical
  // state; the scratch twin is re-derived after each of its arrivals.
  auto delta = (*built)->Clone();
  delta->set_num_threads(width);
  auto scratch = (*built)->Clone();
  scratch->set_num_threads(width);

  // Randomized but reproducible interleaving of schema adds and implicit
  // click feedback, applied identically to both systems.
  std::mt19937 rng(0x5eedu + static_cast<unsigned>(width));
  std::size_t next_extra = kBaseSchemas;
  int checked = 0;
  while (next_extra < Pool().size()) {
    if (rng() % 3 == 0) {
      FeedbackStore store;
      const std::uint32_t d =
          rng() % static_cast<std::uint32_t>(delta->domains().num_domains());
      store.RecordImpression(d);
      if (rng() % 2 == 0) store.RecordClick(d);
      ASSERT_TRUE(delta->ApplyFeedback(store).ok());
      ASSERT_TRUE(scratch->ApplyFeedback(store).ok());
    } else {
      auto ra =
          delta->AddSchema(Pool().schema(next_extra), Pool().labels(next_extra));
      auto rb = scratch->AddSchema(Pool().schema(next_extra),
                                   Pool().labels(next_extra));
      ASSERT_TRUE(ra.ok()) << ra.status();
      ASSERT_TRUE(rb.ok()) << rb.status();
      EXPECT_EQ(ra->memberships, rb->memberships);
      auto rederived = RederiveFromScratch(*scratch);
      ASSERT_TRUE(rederived.ok()) << rederived.status();
      scratch = std::move(*rederived);
      ++next_extra;
    }
    // Full bitwise sweep every few mutations (it is O(n^2) in the sims),
    // and always after the final one.
    if (++checked % 4 == 0 || next_extra == Pool().size()) {
      ExpectBitwiseEqual(*delta, *scratch);
      if (::testing::Test::HasFailure()) break;
    }
  }
  ExpectBitwiseEqual(*delta, *scratch);
}

INSTANTIATE_TEST_SUITE_P(ThreadWidths, DeltaDifferentialTest,
                         ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "width" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace paygo
