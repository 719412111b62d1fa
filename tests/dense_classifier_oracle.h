#ifndef PAYGO_TESTS_DENSE_CLASSIFIER_ORACLE_H_
#define PAYGO_TESTS_DENSE_CLASSIFIER_ORACLE_H_

/// \file dense_classifier_oracle.h
/// \brief Test-only dense naive-Bayes classifier: the |D| x dim layout
/// NaiveBayesClassifier stored before it went sparse, kept as the oracle
/// the sparse classifier is differentially tested against.
///
/// Every engine here fills a full dim-long q1 row per domain (the smoothing
/// term everywhere, then each member's weight added to its features, in
/// member order), and scoring reads a full dim-long log-odds row per
/// domain. The sparse classifier must match it bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "classify/approx_classifier.h"
#include "classify/naive_bayes.h"
#include "cluster/probabilistic_assignment.h"
#include "util/bitset.h"
#include "util/random.h"

namespace paygo {
namespace dense_oracle {

/// One domain's prior and its full q1 row.
struct DenseConditionals {
  double prior = 0.0;
  std::vector<double> q1;
};

/// Wraps dense rows as a NaiveBayesClassifier (rows are compressed by
/// SparsifyConditionals; a test with invalid rows fails here).
inline NaiveBayesClassifier ClassifierFromDense(
    std::vector<DenseConditionals> rows, std::vector<bool> singleton,
    const ClassifierOptions& options = {}) {
  std::vector<DomainConditionals> conds;
  conds.reserve(rows.size());
  for (const DenseConditionals& d : rows) {
    conds.push_back(SparsifyConditionals(d.prior, d.q1));
  }
  auto clf = NaiveBayesClassifier::FromConditionals(
      std::move(conds), std::move(singleton), options);
  EXPECT_TRUE(clf.ok()) << clf.status();
  return std::move(*clf);
}

// --- The exact engines' accumulators, as naive_bayes.cc computes them. ---

struct WorldSums {
  double mass = 0.0;
  double t0 = 0.0;
  double t1 = 0.0;
  std::vector<double> h;
};

inline WorldSums SumExhaustive(const std::vector<double>& probs,
                               std::size_t num_certain) {
  const std::size_t u = probs.size();
  WorldSums acc;
  acc.h.assign(u, 0.0);
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << u); ++mask) {
    double w = 1.0;
    for (std::size_t i = 0; i < u; ++i) {
      w *= (mask >> i) & 1 ? probs[i] : 1.0 - probs[i];
    }
    const std::size_t sz = num_certain + std::popcount(mask);
    if (sz == 0) continue;
    const double omega = static_cast<double>(sz) * w;
    const double denom = static_cast<double>(2 * sz + 1);
    acc.mass += omega;
    acc.t0 += omega / denom;
    acc.t1 += omega * static_cast<double>(1 + sz) / denom;
    for (std::size_t i = 0; i < u; ++i) {
      if ((mask >> i) & 1) acc.h[i] += omega / denom;
    }
  }
  return acc;
}

inline std::vector<double> SizePoly(const std::vector<double>& probs) {
  std::vector<double> coef = {1.0};
  for (double p : probs) {
    std::vector<double> next(coef.size() + 1, 0.0);
    for (std::size_t c = 0; c < coef.size(); ++c) {
      next[c] += coef[c] * (1.0 - p);
      next[c + 1] += coef[c] * p;
    }
    coef = std::move(next);
  }
  return coef;
}

inline WorldSums SumFactored(const std::vector<double>& probs,
                             std::size_t num_certain) {
  const std::size_t u = probs.size();
  WorldSums acc;
  acc.h.assign(u, 0.0);
  const std::vector<double> coef = SizePoly(probs);
  for (std::size_t c = 0; c <= u; ++c) {
    const std::size_t sz = num_certain + c;
    if (sz == 0) continue;
    const double omega = static_cast<double>(sz) * coef[c];
    const double denom = static_cast<double>(2 * sz + 1);
    acc.mass += omega;
    acc.t0 += omega / denom;
    acc.t1 += omega * static_cast<double>(1 + sz) / denom;
  }
  for (std::size_t i = 0; i < u; ++i) {
    std::vector<double> rest;
    for (std::size_t k = 0; k < u; ++k) {
      if (k != i) rest.push_back(probs[k]);
    }
    const std::vector<double> loo = SizePoly(rest);
    for (std::size_t c = 0; c < loo.size(); ++c) {
      const std::size_t sz = num_certain + c + 1;
      const double omega = static_cast<double>(sz) * probs[i] * loo[c];
      acc.h[i] += omega / static_cast<double>(2 * sz + 1);
    }
  }
  return acc;
}

/// The scorer's clamp. The sparse exact engines store their output clamped
/// this way (a no-op except at dim 1, where p = 1 can round q1 to 1.0).
inline double ScorerClamp(double q) {
  return std::min(std::max(q, 1e-300), 1.0 - 1e-15);
}

inline double Smoothing(std::size_t dim) {
  return dim > 0 ? 1.0 / static_cast<double>(dim) : 0.5;
}

/// One domain's dense conditionals from an exact engine.
inline DenseConditionals ExactRow(const DomainModel& model,
                                  std::uint32_t domain,
                                  std::span<const DynamicBitset> features,
                                  std::size_t num_schemas_total,
                                  ClassifierEngine engine) {
  const std::size_t dim = features.empty() ? 0 : features[0].size();
  const double p = Smoothing(dim);
  const std::vector<std::uint32_t> certain = model.CertainSchemas(domain);
  const std::vector<std::uint32_t> uncertain = model.UncertainSchemas(domain);
  std::vector<double> probs;
  for (std::uint32_t i : uncertain) {
    probs.push_back(model.Membership(i, domain));
  }
  const WorldSums acc = engine == ClassifierEngine::kExhaustive
                            ? SumExhaustive(probs, certain.size())
                            : SumFactored(probs, certain.size());
  DenseConditionals out;
  out.q1.assign(dim, ScorerClamp(p));
  if (acc.mass <= 0.0) return out;
  out.prior = acc.mass / static_cast<double>(num_schemas_total);
  const double inv_mass = 1.0 / acc.mass;
  const double smooth = p * acc.t1 * inv_mass;
  const double slope = acc.t0 * inv_mass;
  for (std::size_t j = 0; j < dim; ++j) out.q1[j] = smooth;
  for (std::uint32_t s : certain) {
    for (std::size_t j : features[s].SetBits()) out.q1[j] += slope;
  }
  for (std::size_t i = 0; i < uncertain.size(); ++i) {
    const double hi = acc.h[i] * inv_mass;
    for (std::size_t j : features[uncertain[i]].SetBits()) out.q1[j] += hi;
  }
  for (double& q : out.q1) q = ScorerClamp(q);
  return out;
}

inline double ApproxClamp(double q) {
  return std::min(std::max(q, 1e-12), 1.0 - 1e-12);
}

/// One domain's dense conditionals from the expected-world approximation.
inline DenseConditionals ExpectedWorldRow(
    const DomainModel& model, std::uint32_t domain,
    std::span<const DynamicBitset> features,
    std::size_t num_schemas_total) {
  const std::size_t dim = features.empty() ? 0 : features[0].size();
  const double p = Smoothing(dim);
  DenseConditionals out;
  out.q1.assign(dim, ScorerClamp(p));
  double expected_size = 0.0;
  for (const auto& [schema, prob] : model.SchemasOf(domain)) {
    expected_size += prob;
  }
  if (expected_size <= 0.0) return out;
  out.prior = expected_size / static_cast<double>(num_schemas_total);
  const double m = 1.0 + expected_size;
  const double denom = expected_size + m;
  const double smooth = p * m / denom;
  for (std::size_t j = 0; j < dim; ++j) out.q1[j] = smooth;
  for (const auto& [schema, prob] : model.SchemasOf(domain)) {
    for (std::size_t j : features[schema].SetBits()) {
      out.q1[j] += prob / denom;
    }
  }
  for (double& q : out.q1) q = ApproxClamp(q);
  return out;
}

/// One domain's dense conditionals from the Monte-Carlo approximation
/// (the per-domain seed derivation of approx_classifier.cc).
inline DenseConditionals MonteCarloRow(
    const DomainModel& model, std::uint32_t domain,
    std::span<const DynamicBitset> features, std::size_t num_schemas_total,
    std::size_t num_samples, std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + domain);
  const std::size_t dim = features.empty() ? 0 : features[0].size();
  const double p = Smoothing(dim);
  std::vector<std::uint32_t> certain;
  std::vector<std::uint32_t> uncertain;
  std::vector<double> probs;
  for (const auto& [schema, prob] : model.SchemasOf(domain)) {
    if (prob >= 1.0) {
      certain.push_back(schema);
    } else if (prob > 0.0) {
      uncertain.push_back(schema);
      probs.push_back(prob);
    }
  }
  double pr_d = 0.0, t0 = 0.0, t1 = 0.0;
  std::vector<double> h(uncertain.size(), 0.0);
  std::vector<bool> included(uncertain.size());
  const double inv_total = 1.0 / static_cast<double>(num_schemas_total);
  const double inv_samples = 1.0 / static_cast<double>(num_samples);
  for (std::size_t s = 0; s < num_samples; ++s) {
    std::size_t sz = certain.size();
    for (std::size_t i = 0; i < uncertain.size(); ++i) {
      included[i] = rng.NextBernoulli(probs[i]);
      if (included[i]) ++sz;
    }
    if (sz == 0) continue;
    const double omega = static_cast<double>(sz) * inv_total * inv_samples;
    const double denom = static_cast<double>(2 * sz + 1);
    pr_d += omega;
    t0 += omega / denom;
    t1 += omega * static_cast<double>(1 + sz) / denom;
    for (std::size_t i = 0; i < uncertain.size(); ++i) {
      if (included[i]) h[i] += omega / denom;
    }
  }
  DenseConditionals out;
  out.q1.assign(dim, ScorerClamp(p));
  if (pr_d <= 0.0) return out;
  out.prior = pr_d;
  const double inv_pr = 1.0 / pr_d;
  const double smooth = p * t1 * inv_pr;
  const double slope = t0 * inv_pr;
  for (std::size_t j = 0; j < dim; ++j) out.q1[j] = smooth;
  for (std::uint32_t s : certain) {
    for (std::size_t j : features[s].SetBits()) out.q1[j] += slope;
  }
  for (std::size_t i = 0; i < uncertain.size(); ++i) {
    const double hi = h[i] * inv_pr;
    for (std::size_t j : features[uncertain[i]].SetBits()) out.q1[j] += hi;
  }
  for (double& q : out.q1) q = ApproxClamp(q);
  return out;
}

/// \brief The dense scorer: per domain a full log-odds row, the base
/// log prior + sum_j log(1 - q1[j]), and a query's score the base plus
/// its set features' log-odds in ascending order.
class DenseClassifier {
 public:
  DenseClassifier(std::vector<DenseConditionals> rows,
                  std::vector<bool> singleton, bool skip_singletons)
      : rows_(std::move(rows)),
        singleton_(std::move(singleton)),
        skip_singletons_(skip_singletons) {
    singleton_.resize(rows_.size(), false);
    base_.resize(rows_.size());
    log1mq_sum_.resize(rows_.size());
    log_odds_.resize(rows_.size());
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      double s = 0.0;
      log_odds_[r].resize(rows_[r].q1.size());
      for (std::size_t j = 0; j < rows_[r].q1.size(); ++j) {
        const double q = ScorerClamp(rows_[r].q1[j]);
        s += std::log1p(-q);
        log_odds_[r][j] = std::log(q) - std::log1p(-q);
      }
      log1mq_sum_[r] = s;
      RefreshBase(r);
    }
  }

  /// The prior-only refresh (WithPriors).
  void SetPriors(const std::vector<double>& priors) {
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      rows_[r].prior = priors[r];
      RefreshBase(r);
    }
  }

  std::vector<DomainScore> Classify(const DynamicBitset& query) const {
    const std::vector<std::size_t> bits = query.SetBits();
    std::vector<DomainScore> out;
    for (std::uint32_t r = 0; r < rows_.size(); ++r) {
      if (skip_singletons_ && singleton_[r]) continue;
      double s = base_[r];
      for (std::size_t j : bits) s += log_odds_[r][j];
      out.push_back({r, s});
    }
    std::sort(out.begin(), out.end(),
              [](const DomainScore& a, const DomainScore& b) {
                if (a.log_posterior != b.log_posterior) {
                  return a.log_posterior > b.log_posterior;
                }
                return a.domain < b.domain;
              });
    return out;
  }

  const std::vector<DenseConditionals>& rows() const { return rows_; }

 private:
  void RefreshBase(std::size_t r) {
    const double prior = rows_[r].prior;
    base_[r] = (prior > 0.0 ? std::log(prior) : -1e300) + log1mq_sum_[r];
  }

  std::vector<DenseConditionals> rows_;
  std::vector<bool> singleton_;
  bool skip_singletons_;
  std::vector<double> base_;
  std::vector<double> log1mq_sum_;
  std::vector<std::vector<double>> log_odds_;
};

}  // namespace dense_oracle
}  // namespace paygo

#endif  // PAYGO_TESTS_DENSE_CLASSIFIER_ORACLE_H_
