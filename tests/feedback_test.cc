#include "feedback/feedback.h"

#include <gtest/gtest.h>

namespace paygo {
namespace {

/// Two natural clusters {0,1,2} and {3,4}; schema 2 sits near the border.
std::vector<DynamicBitset> Features() {
  std::vector<DynamicBitset> f(5, DynamicBitset(16));
  for (std::size_t b : {0u, 1u, 2u, 3u}) {
    f[0].Set(b);
    f[1].Set(b);
  }
  for (std::size_t b : {0u, 1u, 2u, 9u}) f[2].Set(b);
  for (std::size_t b : {8u, 9u, 10u, 11u}) {
    f[3].Set(b);
    f[4].Set(b);
  }
  return f;
}

TEST(FeedbackStoreTest, RecordsAndValidates) {
  FeedbackStore store;
  EXPECT_TRUE(store.RecordMustLink(0, 1).ok());
  EXPECT_TRUE(store.RecordCannotLink(0, 3).ok());
  EXPECT_TRUE(store.RecordMustLink(2, 2).IsInvalidArgument());
  EXPECT_TRUE(store.RecordCorrection(2, 2, 2).IsInvalidArgument());
  EXPECT_TRUE(store.has_explicit_feedback());
  EXPECT_EQ(store.must_link().size(), 1u);
  EXPECT_EQ(store.cannot_link().size(), 1u);
}

TEST(FeedbackStoreTest, CorrectionCompilesToBothConstraints) {
  FeedbackStore store;
  ASSERT_TRUE(store.RecordCorrection(2, 0, 3).ok());
  ASSERT_EQ(store.cannot_link().size(), 1u);
  ASSERT_EQ(store.must_link().size(), 1u);
  EXPECT_EQ(store.cannot_link()[0], std::make_pair(2u, 0u));
  EXPECT_EQ(store.must_link()[0], std::make_pair(2u, 3u));
}

TEST(FeedbackStoreTest, ClickCounting) {
  FeedbackStore store;
  store.RecordImpression(3);
  store.RecordImpression(3);
  store.RecordClick(3);
  EXPECT_EQ(store.impressions(3), 2u);
  EXPECT_EQ(store.clicks(3), 1u);
  EXPECT_EQ(store.clicks(99), 0u);
  EXPECT_TRUE(store.has_implicit_feedback());
}

TEST(ConstrainedHacTest, MustLinkForcesMerge) {
  const auto features = Features();
  SimilarityMatrix sims(features);
  HacOptions opts;
  opts.tau_c_sim = 0.9;  // nothing would merge on similarity alone
  opts.must_link = {{0, 4}};
  const auto result = Hac::Run(features, sims, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->ClusterOf(0), result->ClusterOf(4));
}

TEST(ConstrainedHacTest, CannotLinkPreventsMerge) {
  const auto features = Features();
  SimilarityMatrix sims(features);
  HacOptions base;
  base.tau_c_sim = 0.3;
  const auto unconstrained = Hac::Run(features, sims, base);
  ASSERT_TRUE(unconstrained.ok());
  ASSERT_EQ(unconstrained->ClusterOf(0), unconstrained->ClusterOf(1));

  HacOptions opts = base;
  opts.cannot_link = {{0, 1}};
  const auto result = Hac::Run(features, sims, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->ClusterOf(0), result->ClusterOf(1));
}

TEST(ConstrainedHacTest, CannotLinkPropagatesThroughMerges) {
  // 2 joins {0,1}'s cluster; cannot-link(2, 3) must then keep schema 3's
  // cluster from merging with the whole group even if similarities allow.
  const auto features = Features();
  SimilarityMatrix sims(features);
  HacOptions opts;
  opts.tau_c_sim = 0.0;  // merge everything permitted
  opts.cannot_link = {{2, 3}};
  const auto result = Hac::Run(features, sims, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->ClusterOf(2), result->ClusterOf(3));
  // Everything else collapsed as far as constraints allow: exactly two
  // clusters remain.
  EXPECT_EQ(result->clusters.size(), 2u);
}

TEST(ConstrainedHacTest, ConflictingConstraintsRejected) {
  const auto features = Features();
  SimilarityMatrix sims(features);
  HacOptions opts;
  opts.must_link = {{0, 1}, {1, 2}};
  opts.cannot_link = {{0, 2}};  // conflicts through the must-link closure
  EXPECT_TRUE(Hac::Run(features, sims, opts).status().IsInvalidArgument());
}

TEST(ConstrainedHacTest, OutOfRangeConstraintRejected) {
  const auto features = Features();
  SimilarityMatrix sims(features);
  HacOptions opts;
  opts.must_link = {{0, 99}};
  EXPECT_TRUE(Hac::Run(features, sims, opts).status().IsOutOfRange());
}

TEST(ConstrainedHacTest, NaiveEngineHonorsConstraintsIdentically) {
  const auto features = Features();
  SimilarityMatrix sims(features);
  HacOptions fast;
  fast.tau_c_sim = 0.2;
  fast.must_link = {{0, 3}};
  fast.cannot_link = {{1, 4}};
  HacOptions naive = fast;
  naive.use_naive_engine = true;
  const auto rf = Hac::Run(features, sims, fast);
  const auto rn = Hac::Run(features, sims, naive);
  ASSERT_TRUE(rf.ok());
  ASSERT_TRUE(rn.ok());
  auto sorted = [](const HacResult& r) {
    auto c = r.clusters;
    std::sort(c.begin(), c.end());
    return c;
  };
  EXPECT_EQ(sorted(*rf), sorted(*rn));
}

TEST(ReclusterWithFeedbackTest, CorrectionMovesSchema) {
  const auto features = Features();
  SimilarityMatrix sims(features);
  HacOptions hac;
  hac.tau_c_sim = 0.25;
  AssignmentOptions assign;
  assign.tau_c_sim = 0.25;

  // Without feedback, boundary schema 2 clusters with {0,1}.
  const auto before = Hac::Run(features, sims, hac);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->ClusterOf(2), before->ClusterOf(0));

  // The user says: schema 2 belongs with schema 3, not schema 0.
  FeedbackStore store;
  ASSERT_TRUE(store.RecordCorrection(2, 0, 3).ok());
  const auto model = ReclusterWithFeedback(features, sims, hac, assign, store);
  ASSERT_TRUE(model.ok()) << model.status();
  // Schema 2 now lives (with certainty) in schema 3's domain.
  std::uint32_t domain_of_3 = model->DomainsOf(3)[0].first;
  EXPECT_DOUBLE_EQ(model->Membership(2, domain_of_3), 1.0);
  // And not in schema 0's domain.
  std::uint32_t domain_of_0 = model->DomainsOf(0)[0].first;
  EXPECT_DOUBLE_EQ(model->Membership(2, domain_of_0), 0.0);
}

TEST(AdjustClassifierWithClicksTest, ClicksBoostRelativeRanking) {
  // Two structurally identical domains: without feedback they tie; clicks
  // on domain 1 must break the tie in its favor.
  const std::size_t dim = 6;
  std::vector<DynamicBitset> features(4, DynamicBitset(dim));
  features[0].Set(0);
  features[1].Set(0);
  features[2].Set(0);
  features[3].Set(0);
  DomainModel model = DomainModel::Build(
      {{0, 1}, {2, 3}},
      {{{0, 1.0}}, {{0, 1.0}}, {{1, 1.0}}, {{1, 1.0}}});
  const auto clf = NaiveBayesClassifier::Build(model, features, 4, {});
  ASSERT_TRUE(clf.ok());

  DynamicBitset query(dim);
  query.Set(0);
  const auto before = clf->Classify(query);
  ASSERT_EQ(before[0].domain, 0u);  // tie broken by id

  FeedbackStore store;
  for (int i = 0; i < 10; ++i) {
    store.RecordImpression(0);
    store.RecordImpression(1);
    store.RecordClick(1);
  }
  const auto adjusted = AdjustClassifierWithClicks(*clf, store);
  ASSERT_TRUE(adjusted.ok()) << adjusted.status();
  const auto after = adjusted->Classify(query);
  EXPECT_EQ(after[0].domain, 1u);
}

TEST(AdjustClassifierWithClicksTest, NoFeedbackKeepsRanking) {
  const std::size_t dim = 4;
  std::vector<DynamicBitset> features(2, DynamicBitset(dim));
  features[0].Set(0);
  features[1].Set(2);
  DomainModel model =
      DomainModel::Build({{0}, {1}}, {{{0, 1.0}}, {{1, 1.0}}});
  const auto clf = NaiveBayesClassifier::Build(model, features, 2, {});
  ASSERT_TRUE(clf.ok());
  FeedbackStore store;
  const auto adjusted = AdjustClassifierWithClicks(*clf, store);
  ASSERT_TRUE(adjusted.ok()) << adjusted.status();
  DynamicBitset q(dim);
  q.Set(0);
  EXPECT_EQ(adjusted->Classify(q)[0].domain, clf->Classify(q)[0].domain);
}

TEST(AdjustClassifierWithClicksTest, InvalidReweightingIsAStatus) {
  // A negative blend exponent over a zero click-through rate drives every
  // prior to infinity: the adjustment must fail, not publish it.
  const std::size_t dim = 4;
  std::vector<DynamicBitset> features(2, DynamicBitset(dim));
  features[0].Set(0);
  features[1].Set(2);
  DomainModel model =
      DomainModel::Build({{0}, {1}}, {{{0, 1.0}}, {{1, 1.0}}});
  const auto clf = NaiveBayesClassifier::Build(model, features, 2, {});
  ASSERT_TRUE(clf.ok());
  FeedbackStore store;
  store.RecordImpression(0);
  ClickAdjustOptions options;
  options.alpha = 0.0;
  options.strength = -1.0;
  const auto adjusted = AdjustClassifierWithClicks(*clf, store, options);
  EXPECT_TRUE(adjusted.status().IsInvalidArgument()) << adjusted.status();
}

TEST(WithPriorsTest, SizeMismatchIsInvalidArgument) {
  const std::size_t dim = 4;
  std::vector<DynamicBitset> features(2, DynamicBitset(dim));
  features[0].Set(0);
  features[1].Set(2);
  DomainModel model =
      DomainModel::Build({{0}, {1}}, {{{0, 1.0}}, {{1, 1.0}}});
  const auto clf = NaiveBayesClassifier::Build(model, features, 2, {});
  ASSERT_TRUE(clf.ok());
  // Too few and too many priors both fail; in Release the short vector
  // used to leave the tail domains on their old priors silently.
  EXPECT_TRUE(clf->WithPriors({0.5}).status().IsInvalidArgument());
  EXPECT_TRUE(
      clf->WithPriors({0.5, 0.25, 0.25}).status().IsInvalidArgument());
  EXPECT_TRUE(clf->WithPriors({0.5, -1.0}).status().IsInvalidArgument());
  const auto ok = clf->WithPriors({0.25, 0.75});
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->Prior(0), 0.25);
  EXPECT_EQ(ok->Prior(1), 0.75);
}

}  // namespace
}  // namespace paygo
