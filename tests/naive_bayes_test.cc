#include "classify/naive_bayes.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "util/random.h"

namespace paygo {
namespace {

/// Builds a DomainModel directly from (cluster, membership) specs.
DomainModel MakeModel(
    std::vector<std::vector<std::uint32_t>> clusters,
    std::vector<std::vector<std::pair<std::uint32_t, double>>> schema_domains) {
  return DomainModel::Build(std::move(clusters), std::move(schema_domains));
}

DynamicBitset Bits(std::size_t dim, std::initializer_list<std::size_t> set) {
  DynamicBitset b(dim);
  for (std::size_t i : set) b.Set(i);
  return b;
}

// Hand-computed example (see the derivation in the accompanying comments):
// domain 0 has certain schema s0 and uncertain schema s1 with p = 0.6,
// |S| = 4, dim L = 3, m-estimate p = 1/3.
// Possible worlds: {s0} (Pr .4, |S'| = 1) and {s0, s1} (Pr .6, |S'| = 2).
//   omega({s0})     = (1/4) * 0.4 = 0.1
//   omega({s0,s1})  = (2/4) * 0.6 = 0.3
//   Pr(D0)          = 0.4;   Pr(S'|D0) = 0.25 / 0.75
// With f0 = {bit0}, f1 = {bit0, bit1}:
//   q1[0] = .25*(1 + 2/3)/3        + .75*(2 + 1)/5        = 0.588888...
//   q1[1] = .25*(0 + 2/3)/3        + .75*(1 + 1)/5        = 0.355555...
//   q1[2] = .25*(0 + 2/3)/3        + .75*(0 + 1)/5        = 0.205555...
class HandComputedCase : public ::testing::TestWithParam<ClassifierEngine> {
 protected:
  void Run() {
    const std::size_t dim = 3;
    std::vector<DynamicBitset> features = {Bits(dim, {0}), Bits(dim, {0, 1})};
    DomainModel model = MakeModel({{0, 1}}, {{{0, 1.0}}, {{0, 0.6}}});
    const auto cond =
        ComputeDomainConditionals(model, 0, features, 4, GetParam(), 24);
    ASSERT_TRUE(cond.ok()) << cond.status();
    EXPECT_NEAR(cond->prior, 0.4, 1e-12);
    ASSERT_EQ(cond->dim, 3u);
    EXPECT_NEAR(cond->Q1(0), 0.25 * (1 + 2.0 / 3) / 3 + 0.75 * 3.0 / 5, 1e-12);
    EXPECT_NEAR(cond->Q1(1), 0.25 * (2.0 / 3) / 3 + 0.75 * 2.0 / 5, 1e-12);
    EXPECT_NEAR(cond->Q1(2), 0.25 * (2.0 / 3) / 3 + 0.75 * 1.0 / 5, 1e-12);
  }
};

TEST_P(HandComputedCase, MatchesManualDerivation) { Run(); }

INSTANTIATE_TEST_SUITE_P(Engines, HandComputedCase,
                         ::testing::Values(ClassifierEngine::kExhaustive,
                                           ClassifierEngine::kFactored));

TEST(NaiveBayesTest, AllCertainDomainIsSingleWorld) {
  const std::size_t dim = 4;
  std::vector<DynamicBitset> features = {Bits(dim, {0, 1}), Bits(dim, {1, 2})};
  DomainModel model = MakeModel({{0, 1}}, {{{0, 1.0}}, {{0, 1.0}}});
  const auto cond = ComputeDomainConditionals(
      model, 0, features, 2, ClassifierEngine::kFactored, 24);
  ASSERT_TRUE(cond.ok());
  // Single world {s0, s1}: prior = 2/2 = 1; m = 3, denom = 5, p = 1/4.
  EXPECT_NEAR(cond->prior, 1.0, 1e-12);
  EXPECT_NEAR(cond->Q1(0), (1 + 3.0 / 4) / 5, 1e-12);
  EXPECT_NEAR(cond->Q1(1), (2 + 3.0 / 4) / 5, 1e-12);
  EXPECT_NEAR(cond->Q1(3), (0 + 3.0 / 4) / 5, 1e-12);
}

TEST(NaiveBayesTest, ConditionalsStayInsideOpenUnitInterval) {
  // The m-estimate's purpose (Section 5.2): no feature probability may hit
  // 0 or 1, so extra/missing query terms never zero out a posterior.
  const std::size_t dim = 5;
  std::vector<DynamicBitset> features = {Bits(dim, {0, 1, 2, 3, 4}),
                                         Bits(dim, {})};
  DomainModel model = MakeModel({{0}, {1}}, {{{0, 1.0}}, {{1, 1.0}}});
  for (std::uint32_t r = 0; r < 2; ++r) {
    const auto cond = ComputeDomainConditionals(
        model, r, features, 2, ClassifierEngine::kFactored, 24);
    ASSERT_TRUE(cond.ok());
    for (std::size_t j = 0; j < dim; ++j) {
      EXPECT_GT(cond->Q1(j), 0.0);
      EXPECT_LT(cond->Q1(j), 1.0);
    }
  }
}

TEST(NaiveBayesTest, ExhaustiveRefusesTooManyUncertainSchemas) {
  const std::size_t n = 30;
  std::vector<DynamicBitset> features(n, DynamicBitset(4));
  std::vector<std::vector<std::uint32_t>> clusters(1);
  std::vector<std::vector<std::pair<std::uint32_t, double>>> sd(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    clusters[0].push_back(i);
    sd[i] = {{0, 0.5}};
  }
  DomainModel model = MakeModel(std::move(clusters), std::move(sd));
  ClassifierOptions opts;
  opts.engine = ClassifierEngine::kExhaustive;
  opts.max_uncertain_exhaustive = 10;
  const auto clf = NaiveBayesClassifier::Build(model, features, n, opts);
  EXPECT_TRUE(clf.status().IsResourceExhausted());

  // The factored engine handles the same domain without a limit.
  opts.engine = ClassifierEngine::kFactored;
  EXPECT_TRUE(NaiveBayesClassifier::Build(model, features, n, opts).ok());
}

TEST(NaiveBayesTest, ClassifiesObviousQueriesCorrectly) {
  // Domain 0 over features {0,1,2}; domain 1 over features {5,6,7}.
  const std::size_t dim = 8;
  std::vector<DynamicBitset> features = {
      Bits(dim, {0, 1, 2}), Bits(dim, {0, 1}), Bits(dim, {5, 6, 7}),
      Bits(dim, {6, 7})};
  DomainModel model = MakeModel(
      {{0, 1}, {2, 3}},
      {{{0, 1.0}}, {{0, 1.0}}, {{1, 1.0}}, {{1, 1.0}}});
  const auto clf = NaiveBayesClassifier::Build(model, features, 4, {});
  ASSERT_TRUE(clf.ok()) << clf.status();
  const auto r0 = clf->Classify(Bits(dim, {0, 1}));
  ASSERT_EQ(r0.size(), 2u);
  EXPECT_EQ(r0[0].domain, 0u);
  const auto r1 = clf->Classify(Bits(dim, {6}));
  EXPECT_EQ(r1[0].domain, 1u);
  EXPECT_GT(r0[0].log_posterior, r0[1].log_posterior);
}

TEST(NaiveBayesTest, ExtraTermDoesNotZeroOutRelevantDomain) {
  const std::size_t dim = 8;
  std::vector<DynamicBitset> features = {
      Bits(dim, {0, 1, 2}), Bits(dim, {0, 1}), Bits(dim, {5, 6, 7}),
      Bits(dim, {6, 7})};
  DomainModel model = MakeModel(
      {{0, 1}, {2, 3}},
      {{{0, 1.0}}, {{0, 1.0}}, {{1, 1.0}}, {{1, 1.0}}});
  const auto clf = NaiveBayesClassifier::Build(model, features, 4, {});
  ASSERT_TRUE(clf.ok());
  // Query {0, 1, 4}: bit 4 appears in no schema at all (an "extra term").
  const auto r = clf->Classify(Bits(dim, {0, 1, 4}));
  EXPECT_EQ(r[0].domain, 0u);
  EXPECT_TRUE(std::isfinite(r[0].log_posterior));
}

TEST(NaiveBayesTest, MissingTermDoesNotZeroOutDomain) {
  // Every schema of domain 0 contains feature 0; a query without it must
  // still be classifiable into domain 0.
  const std::size_t dim = 6;
  std::vector<DynamicBitset> features = {Bits(dim, {0, 1, 2}),
                                         Bits(dim, {0, 1, 3}),
                                         Bits(dim, {5})};
  DomainModel model =
      MakeModel({{0, 1}, {2}}, {{{0, 1.0}}, {{0, 1.0}}, {{1, 1.0}}});
  const auto clf = NaiveBayesClassifier::Build(model, features, 3, {});
  ASSERT_TRUE(clf.ok());
  const auto r = clf->Classify(Bits(dim, {1}));
  EXPECT_EQ(r[0].domain, 0u);
  EXPECT_TRUE(std::isfinite(r[0].log_posterior));
}

TEST(NaiveBayesTest, SkipSingletonDomainsOption) {
  const std::size_t dim = 4;
  std::vector<DynamicBitset> features = {Bits(dim, {0}), Bits(dim, {0, 1}),
                                         Bits(dim, {3})};
  DomainModel model =
      MakeModel({{0, 1}, {2}}, {{{0, 1.0}}, {{0, 1.0}}, {{1, 1.0}}});
  ClassifierOptions opts;
  opts.skip_singleton_domains = true;
  const auto clf = NaiveBayesClassifier::Build(model, features, 3, opts);
  ASSERT_TRUE(clf.ok());
  const auto r = clf->Classify(Bits(dim, {3}));
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].domain, 0u);
}

TEST(NaiveBayesTest, EmptyDomainGetsZeroPrior) {
  // A domain whose cluster exists but whose member list is empty (all
  // schemas dropped under strict Algorithm 3 semantics).
  const std::size_t dim = 4;
  std::vector<DynamicBitset> features = {Bits(dim, {0}), Bits(dim, {1})};
  DomainModel model = MakeModel({{0, 1}}, {{}, {}});
  const auto cond = ComputeDomainConditionals(
      model, 0, features, 2, ClassifierEngine::kFactored, 24);
  ASSERT_TRUE(cond.ok());
  EXPECT_DOUBLE_EQ(cond->prior, 0.0);
}

TEST(NaiveBayesTest, DeterministicTieBreakByDomainId) {
  const std::size_t dim = 4;
  // Two structurally identical domains.
  std::vector<DynamicBitset> features = {Bits(dim, {0}), Bits(dim, {0})};
  DomainModel model = MakeModel({{0}, {1}}, {{{0, 1.0}}, {{1, 1.0}}});
  const auto clf = NaiveBayesClassifier::Build(model, features, 2, {});
  ASSERT_TRUE(clf.ok());
  const auto r = clf->Classify(Bits(dim, {0}));
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].domain, 0u);
  EXPECT_EQ(r[1].domain, 1u);
  EXPECT_DOUBLE_EQ(r[0].log_posterior, r[1].log_posterior);
}

/// Property: the factored engine agrees with the exhaustive enumeration on
/// randomized probabilistic domains (the exponential-to-polynomial
/// reduction must be algebraically exact).
class EngineAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineAgreementTest, FactoredEqualsExhaustive) {
  Rng rng(1000 + GetParam());
  const std::size_t n = 12, dim = 10;
  std::vector<DynamicBitset> features(n, DynamicBitset(dim));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t b = 0; b < dim; ++b) {
      if (rng.NextBernoulli(0.35)) features[i].Set(b);
    }
  }
  // One domain with a random mix of certain and uncertain members.
  std::vector<std::vector<std::uint32_t>> clusters(1);
  std::vector<std::vector<std::pair<std::uint32_t, double>>> sd(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    clusters[0].push_back(i);
    const double p =
        rng.NextBernoulli(0.5) ? 1.0 : 0.05 + 0.9 * rng.NextDouble();
    sd[i] = {{0, p}};
  }
  DomainModel model = MakeModel(std::move(clusters), std::move(sd));

  const auto exact = ComputeDomainConditionals(
      model, 0, features, n, ClassifierEngine::kExhaustive, 24);
  const auto factored = ComputeDomainConditionals(
      model, 0, features, n, ClassifierEngine::kFactored, 24);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(factored.ok());
  EXPECT_NEAR(exact->prior, factored->prior, 1e-12);
  ASSERT_EQ(exact->dim, factored->dim);
  for (std::size_t j = 0; j < dim; ++j) {
    EXPECT_NEAR(exact->Q1(j), factored->Q1(j), 1e-10) << "feature " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineAgreementTest, ::testing::Range(0, 10));

/// Two valid domains over dim 8: a default plus a few exceptions each.
std::vector<DomainConditionals> ValidConditionals() {
  std::vector<DomainConditionals> conds(2);
  conds[0] = {0.5, 8, 0.125, {1, 4, 7}, {0.5, 0.25, 0.75}};
  conds[1] = {0.25, 8, 0.0625, {0}, {0.875}};
  return conds;
}

/// FromConditionals on \p conds must fail with InvalidArgument.
void ExpectRejected(std::vector<DomainConditionals> conds,
                    const std::string& why) {
  const auto clf = NaiveBayesClassifier::FromConditionals(
      std::move(conds), std::vector<bool>(2, false), {});
  EXPECT_TRUE(clf.status().IsInvalidArgument()) << why << ": " << clf.status();
}

TEST(ValidateConditionalsTest, AcceptsValidRows) {
  const auto clf = NaiveBayesClassifier::FromConditionals(
      ValidConditionals(), std::vector<bool>(2, false), {});
  ASSERT_TRUE(clf.ok()) << clf.status();
  EXPECT_EQ(clf->dim(), 8u);
  EXPECT_EQ(clf->FeatureProb(0, 4), 0.25);
  EXPECT_EQ(clf->FeatureProb(0, 5), 0.125);
  EXPECT_EQ(clf->FeatureProb(1, 0), 0.875);
}

TEST(ValidateConditionalsTest, RejectsUnsortedExceptions) {
  auto conds = ValidConditionals();
  conds[1].exceptions = {5, 2};
  conds[1].exception_q1 = {0.5, 0.5};
  ExpectRejected(std::move(conds), "unsorted");
}

TEST(ValidateConditionalsTest, RejectsDuplicateExceptions) {
  auto conds = ValidConditionals();
  conds[1].exceptions = {3, 3};
  conds[1].exception_q1 = {0.5, 0.5};
  ExpectRejected(std::move(conds), "duplicate");
}

TEST(ValidateConditionalsTest, RejectsExceptionOutOfRange) {
  auto conds = ValidConditionals();
  conds[1].exceptions = {8};  // dim is 8
  ExpectRejected(std::move(conds), "out of range");
}

TEST(ValidateConditionalsTest, RejectsValueCountMismatch) {
  auto conds = ValidConditionals();
  conds[1].exception_q1.push_back(0.5);
  ExpectRejected(std::move(conds), "value count");
}

TEST(ValidateConditionalsTest, RejectsDimMismatchInAnyDomain) {
  auto conds = ValidConditionals();
  conds[1].dim = 7;
  ExpectRejected(std::move(conds), "short row in domain 1");
}

TEST(ValidateConditionalsTest, RejectsNonFiniteOrOutOfUnitValues) {
  for (double bad : {0.0, 1.0, -0.5, 1.5, std::nan(""), HUGE_VAL}) {
    auto exc = ValidConditionals();
    exc[1].exception_q1[0] = bad;
    ExpectRejected(std::move(exc), "exception q1 " + std::to_string(bad));
    auto dflt = ValidConditionals();
    dflt[0].default_q1 = bad;
    ExpectRejected(std::move(dflt), "default q1 " + std::to_string(bad));
  }
}

TEST(ValidateConditionalsTest, RejectsBadPriors) {
  for (double bad : {-0.25, std::nan(""), HUGE_VAL}) {
    auto conds = ValidConditionals();
    conds[1].prior = bad;
    ExpectRejected(std::move(conds), "prior " + std::to_string(bad));
  }
}

TEST(SparsifyConditionalsTest, MostFrequentValueBecomesTheDefault) {
  const std::vector<double> q1 = {0.25, 0.5, 0.25, 0.75, 0.25};
  const DomainConditionals c = SparsifyConditionals(0.5, q1);
  EXPECT_EQ(c.dim, 5u);
  EXPECT_EQ(c.default_q1, 0.25);
  EXPECT_EQ(c.exceptions, (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(c.exception_q1, (std::vector<double>{0.5, 0.75}));
  for (std::size_t j = 0; j < q1.size(); ++j) EXPECT_EQ(c.Q1(j), q1[j]);
}

TEST(NaiveBayesTest, ExactConditionalsStayInsideOpenUnitIntervalAtDimOne) {
  // At dim 1 the m-estimate's p is 1, and a feature every member has
  // rounds to q1 = 1.0 unless clamped; the stored conditionals must still
  // pass ValidateConditionals (a snapshot of them must restore).
  std::vector<DynamicBitset> features = {Bits(1, {0}), Bits(1, {})};
  DomainModel model = MakeModel({{0}, {1}}, {{{0, 1.0}}, {}});
  const auto clf = NaiveBayesClassifier::Build(model, features, 2, {});
  ASSERT_TRUE(clf.ok()) << clf.status();
  EXPECT_TRUE(ValidateConditionals(clf->conditionals()).ok());
  EXPECT_LT(clf->FeatureProb(0, 0), 1.0);
  EXPECT_LT(clf->FeatureProb(1, 0), 1.0);
}

}  // namespace
}  // namespace paygo
