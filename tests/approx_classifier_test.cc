#include "classify/approx_classifier.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/random.h"

namespace paygo {
namespace {

DynamicBitset Bits(std::size_t dim, std::initializer_list<std::size_t> set) {
  DynamicBitset b(dim);
  for (std::size_t i : set) b.Set(i);
  return b;
}

struct Fixture {
  std::vector<DynamicBitset> features;
  DomainModel model;
  std::size_t total = 0;
};

Fixture MakeRandomDomain(std::uint64_t seed, std::size_t n = 10,
                         std::size_t dim = 8) {
  Rng rng(seed);
  Fixture fx;
  fx.total = n;
  fx.features.assign(n, DynamicBitset(dim));
  std::vector<std::vector<std::uint32_t>> clusters(1);
  std::vector<std::vector<std::pair<std::uint32_t, double>>> sd(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::size_t b = 0; b < dim; ++b) {
      if (rng.NextBernoulli(0.4)) fx.features[i].Set(b);
    }
    clusters[0].push_back(i);
    const double p =
        rng.NextBernoulli(0.4) ? 1.0 : 0.1 + 0.8 * rng.NextDouble();
    sd[i] = {{0, p}};
  }
  fx.model = DomainModel::Build(std::move(clusters), std::move(sd));
  return fx;
}

TEST(ExpectedWorldTest, PriorIsExact) {
  // The expected-world prior E|S'|/|S| equals the exact prior by linearity
  // of expectation.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Fixture fx = MakeRandomDomain(seed);
    ApproxClassifierOptions opts;
    opts.kind = ApproxKind::kExpectedWorld;
    const auto approx = ComputeApproxDomainConditionals(
        fx.model, 0, fx.features, fx.total, opts);
    const auto exact = ComputeDomainConditionals(
        fx.model, 0, fx.features, fx.total, ClassifierEngine::kFactored, 24);
    ASSERT_TRUE(approx.ok());
    ASSERT_TRUE(exact.ok());
    EXPECT_NEAR(approx->prior, exact->prior, 1e-12) << "seed " << seed;
  }
}

TEST(ExpectedWorldTest, ConditionalsCloseToExact) {
  const Fixture fx = MakeRandomDomain(42);
  ApproxClassifierOptions opts;
  opts.kind = ApproxKind::kExpectedWorld;
  const auto approx = ComputeApproxDomainConditionals(fx.model, 0, fx.features,
                                                      fx.total, opts);
  const auto exact = ComputeDomainConditionals(
      fx.model, 0, fx.features, fx.total, ClassifierEngine::kFactored, 24);
  ASSERT_TRUE(approx.ok());
  ASSERT_TRUE(exact.ok());
  for (std::size_t j = 0; j < approx->dim; ++j) {
    // Jensen gap of the 1/(2|S'|+1) factor is small for domains this size.
    EXPECT_NEAR(approx->Q1(j), exact->Q1(j), 0.05) << "feature " << j;
  }
}

TEST(ExpectedWorldTest, ExactWhenAllMembersCertain) {
  const std::size_t dim = 6;
  std::vector<DynamicBitset> features = {Bits(dim, {0, 1}),
                                         Bits(dim, {1, 2})};
  DomainModel model =
      DomainModel::Build({{0, 1}}, {{{0, 1.0}}, {{0, 1.0}}});
  ApproxClassifierOptions opts;
  opts.kind = ApproxKind::kExpectedWorld;
  const auto approx =
      ComputeApproxDomainConditionals(model, 0, features, 2, opts);
  const auto exact = ComputeDomainConditionals(
      model, 0, features, 2, ClassifierEngine::kFactored, 24);
  ASSERT_TRUE(approx.ok());
  ASSERT_TRUE(exact.ok());
  // With no uncertainty there is a single world; the approximation is
  // exact.
  EXPECT_NEAR(approx->prior, exact->prior, 1e-12);
  for (std::size_t j = 0; j < dim; ++j) {
    EXPECT_NEAR(approx->Q1(j), exact->Q1(j), 1e-9);
  }
}

TEST(MonteCarloTest, ConvergesToExactWithSamples) {
  const Fixture fx = MakeRandomDomain(7);
  const auto exact = ComputeDomainConditionals(
      fx.model, 0, fx.features, fx.total, ClassifierEngine::kFactored, 24);
  ASSERT_TRUE(exact.ok());

  ApproxClassifierOptions opts;
  opts.kind = ApproxKind::kMonteCarlo;
  opts.num_samples = 20000;
  opts.seed = 3;
  const auto mc = ComputeApproxDomainConditionals(fx.model, 0, fx.features,
                                                  fx.total, opts);
  ASSERT_TRUE(mc.ok());
  EXPECT_NEAR(mc->prior, exact->prior, 0.01);
  for (std::size_t j = 0; j < mc->dim; ++j) {
    EXPECT_NEAR(mc->Q1(j), exact->Q1(j), 0.02) << "feature " << j;
  }
}

TEST(MonteCarloTest, DeterministicGivenSeed) {
  const Fixture fx = MakeRandomDomain(9);
  ApproxClassifierOptions opts;
  opts.kind = ApproxKind::kMonteCarlo;
  opts.num_samples = 100;
  opts.seed = 5;
  const auto a = ComputeApproxDomainConditionals(fx.model, 0, fx.features,
                                                 fx.total, opts);
  const auto b = ComputeApproxDomainConditionals(fx.model, 0, fx.features,
                                                 fx.total, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->prior, b->prior);
  for (std::size_t j = 0; j < a->dim; ++j) {
    EXPECT_DOUBLE_EQ(a->Q1(j), b->Q1(j));
  }
}

TEST(MonteCarloTest, RejectsZeroSamples) {
  const Fixture fx = MakeRandomDomain(9);
  ApproxClassifierOptions opts;
  opts.kind = ApproxKind::kMonteCarlo;
  opts.num_samples = 0;
  EXPECT_TRUE(ComputeApproxDomainConditionals(fx.model, 0, fx.features,
                                              fx.total, opts)
                  .status()
                  .IsInvalidArgument());
}

TEST(ApproxClassifierTest, BuildsAndRanksLikeExactOnSeparableDomains) {
  const std::size_t dim = 8;
  std::vector<DynamicBitset> features = {
      Bits(dim, {0, 1, 2}), Bits(dim, {0, 1}), Bits(dim, {5, 6, 7}),
      Bits(dim, {6, 7})};
  DomainModel model = DomainModel::Build(
      {{0, 1}, {2, 3}},
      {{{0, 1.0}}, {{0, 0.9}, {1, 0.1}}, {{1, 1.0}}, {{1, 1.0}}});
  for (ApproxKind kind :
       {ApproxKind::kExpectedWorld, ApproxKind::kMonteCarlo}) {
    ApproxClassifierOptions opts;
    opts.kind = kind;
    opts.num_samples = 2000;
    const auto clf = BuildApproxClassifier(model, features, 4, opts);
    ASSERT_TRUE(clf.ok()) << clf.status();
    EXPECT_EQ(clf->Classify(Bits(dim, {0, 1}))[0].domain, 0u);
    EXPECT_EQ(clf->Classify(Bits(dim, {6, 7}))[0].domain, 1u);
  }
}

}  // namespace
}  // namespace paygo
