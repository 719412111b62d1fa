#include "cluster/incremental.h"

#include <gtest/gtest.h>

#include "core/integration_system.h"

namespace paygo {
namespace {

/// Two built domains to add schemas into, under \p assignment.
std::unique_ptr<IntegrationSystem> BuildTwoDomains(
    AssignmentOptions assignment = {.tau_c_sim = 0.25}) {
  SchemaCorpus corpus;
  corpus.Add(Schema("t1", {"departure airport", "destination airport",
                           "airline"}),
             {"travel"});
  corpus.Add(Schema("t2", {"departure airport", "airline", "passengers"}),
             {"travel"});
  corpus.Add(Schema("b1", {"title", "authors", "journal"}), {"bib"});
  corpus.Add(Schema("b2", {"title", "authors", "publisher"}), {"bib"});
  SystemOptions opts;
  opts.hac.tau_c_sim = 0.25;
  opts.assignment = assignment;
  opts.build_mediation = false;
  opts.build_classifier = false;
  return std::move(*IntegrationSystem::Build(std::move(corpus), opts));
}

/// A built two-domain system to add schemas into.
struct Fixture {
  std::unique_ptr<IntegrationSystem> sys = BuildTwoDomains();
};

TEST(IncrementalTest, SimilarSchemaJoinsExistingDomain) {
  Fixture fx;
  const std::uint32_t travel_domain = fx.sys->domains().DomainsOf(0)[0].first;
  const auto result = fx.sys->AddSchema(
      Schema("t3", {"departure airport", "destination airport",
                    "airline", "class"}));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->created_new_domain);
  ASSERT_FALSE(result->memberships.empty());
  EXPECT_EQ(result->memberships[0].first, travel_domain);
  // The model now places the newcomer in the travel domain.
  EXPECT_GT(fx.sys->domains().Membership(result->schema_id, travel_domain),
            0.0);
}

TEST(IncrementalTest, UnrelatedSchemaOpensNewDomain) {
  Fixture fx;
  const std::size_t before = fx.sys->domains().num_domains();
  const auto result = fx.sys->AddSchema(
      Schema("plants", {"botanical classification", "hardiness zone",
                        "bloom season"}));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->created_new_domain);
  EXPECT_EQ(fx.sys->domains().num_domains(), before + 1);
  EXPECT_DOUBLE_EQ(result->memberships[0].second, 1.0);
}

TEST(IncrementalTest, UnseenTermsTrackedAsDrift) {
  Fixture fx;
  const auto r1 = fx.sys->AddSchema(
      Schema("t3", {"departure airport", "airline"}));
  ASSERT_TRUE(r1.ok());
  EXPECT_DOUBLE_EQ(r1->unseen_term_fraction, 0.0);
  const auto r2 = fx.sys->AddSchema(
      Schema("alien", {"zzzqqq wwwvvv", "kkkjjj"}));
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r2->unseen_term_fraction, 1.0);
  EXPECT_NEAR((r1->unseen_term_fraction + r2->unseen_term_fraction) / 2,
              0.5, 1e-9);
}

TEST(IncrementalTest, MembershipsSumToOne) {
  auto sys = BuildTwoDomains({.tau_c_sim = 0.05, .theta = 0.9});
  const auto result = sys->AddSchema(
      Schema("mixed", {"departure airport", "title", "authors"}));
  ASSERT_TRUE(result.ok());
  double total = 0.0;
  for (const auto& [domain, prob] : result->memberships) total += prob;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(IncrementalTest, SequentialIdsContinueCorpusNumbering) {
  Fixture fx;
  const auto r1 = fx.sys->AddSchema(Schema("x", {"departure airport"}));
  const auto r2 = fx.sys->AddSchema(Schema("y", {"title", "authors"}));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->schema_id, 4u);
  EXPECT_EQ(r2->schema_id, 5u);
  EXPECT_EQ(fx.sys->features().size(), 6u);
  EXPECT_EQ(fx.sys->corpus().size(), 6u);
}

TEST(IncrementalTest, RejectsDegenerateSchemas) {
  Fixture fx;
  EXPECT_TRUE(fx.sys->AddSchema(Schema("empty", {}))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(fx.sys->AddSchema(Schema("stopwords", {"the", "of"}))
                  .status()
                  .IsInvalidArgument());
}

TEST(IncrementalTest, ModelRebuiltLazilyAndConsistently) {
  Fixture fx;
  const auto r = fx.sys->AddSchema(
      Schema("t3", {"departure airport", "airline", "destination airport"}));
  ASSERT_TRUE(r.ok());
  const DomainModel& m1 = fx.sys->domains();
  const DomainModel& m2 = fx.sys->domains();  // cached
  EXPECT_EQ(&m1, &m2);
  EXPECT_EQ(m1.num_schemas(), 5u);
  // Every schema's memberships still sum to 1 (or 0 for dropped ones).
  for (std::uint32_t i = 0; i < m1.num_schemas(); ++i) {
    const double total = m1.TotalMembership(i);
    EXPECT_TRUE(total == 0.0 || std::abs(total - 1.0) < 1e-9);
  }
}

}  // namespace
}  // namespace paygo
