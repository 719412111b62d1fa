#include "classify/approx_classifier.h"

#include <algorithm>
#include <cmath>

#include "classify/conditionals_builder.h"
#include "util/random.h"

namespace paygo {
namespace {

/// Clamps into the open interval (the exact engines guarantee this by
/// construction; the approximations preserve it up to rounding).
void ClampIntoOpenUnit(DomainConditionals* c) {
  auto clamp = [](double q) {
    return std::min(std::max(q, 1e-12), 1.0 - 1e-12);
  };
  c->default_q1 = clamp(c->default_q1);
  for (double& q : c->exception_q1) q = clamp(q);
}

DomainConditionals ExpectedWorld(const DomainModel& model,
                                 std::uint32_t domain,
                                 std::span<const DynamicBitset> features,
                                 std::size_t num_schemas_total) {
  const std::size_t dim = features.empty() ? 0 : features[0].size();
  const double p = dim > 0 ? 1.0 / static_cast<double>(dim) : 0.5;

  // Expected member count: E|S'| = sum of membership probabilities. The
  // prior Pr(D_r) = E|S'| / |S| is exact (linearity of expectation over
  // Eq. 5.3 + 5.5 + 5.6).
  double expected_size = 0.0;
  for (const auto& [schema, prob] : model.SchemasOf(domain)) {
    expected_size += prob;
  }
  if (expected_size <= 0.0) return FlatConditionals(dim);

  // Single pseudo-world: member counts replaced by their expectations.
  const double m = 1.0 + expected_size;
  const double denom = expected_size + m;  // == 2 E|S'| + 1
  ConditionalsBuilder row(dim);
  for (const auto& [schema, prob] : model.SchemasOf(domain)) {
    row.AddSupport(features[schema]);
  }
  row.Start(p * m / denom);
  for (const auto& [schema, prob] : model.SchemasOf(domain)) {
    row.Add(features[schema], prob / denom);
  }
  DomainConditionals out = std::move(row).Finish(
      expected_size / static_cast<double>(num_schemas_total));
  ClampIntoOpenUnit(&out);
  return out;
}

DomainConditionals MonteCarlo(const DomainModel& model, std::uint32_t domain,
                              std::span<const DynamicBitset> features,
                              std::size_t num_schemas_total,
                              std::size_t num_samples, Rng& rng) {
  const std::size_t dim = features.empty() ? 0 : features[0].size();
  const double p = dim > 0 ? 1.0 / static_cast<double>(dim) : 0.5;

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

  // Sampled analogs of the exact engines' accumulators (see naive_bayes.cc).
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

  if (pr_d <= 0.0) return FlatConditionals(dim);
  const double inv_pr = 1.0 / pr_d;
  ConditionalsBuilder row(dim);
  for (std::uint32_t s : certain) row.AddSupport(features[s]);
  for (std::uint32_t s : uncertain) row.AddSupport(features[s]);
  row.Start(p * t1 * inv_pr);
  for (std::uint32_t s : certain) row.Add(features[s], t0 * inv_pr);
  for (std::size_t i = 0; i < uncertain.size(); ++i) {
    row.Add(features[uncertain[i]], h[i] * inv_pr);
  }
  DomainConditionals out = std::move(row).Finish(pr_d);
  ClampIntoOpenUnit(&out);
  return out;
}

}  // namespace

Result<DomainConditionals> ComputeApproxDomainConditionals(
    const DomainModel& model, std::uint32_t domain,
    std::span<const DynamicBitset> features, std::size_t num_schemas_total,
    const ApproxClassifierOptions& options) {
  if (num_schemas_total == 0) {
    return Status::InvalidArgument("num_schemas_total must be positive");
  }
  switch (options.kind) {
    case ApproxKind::kExpectedWorld:
      return ExpectedWorld(model, domain, features, num_schemas_total);
    case ApproxKind::kMonteCarlo: {
      if (options.num_samples == 0) {
        return Status::InvalidArgument("num_samples must be positive");
      }
      // Derive a per-domain seed so domains are independent yet the whole
      // build stays deterministic.
      Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + domain);
      return MonteCarlo(model, domain, features, num_schemas_total,
                        options.num_samples, rng);
    }
  }
  return Status::InvalidArgument("unknown approximation kind");
}

Result<NaiveBayesClassifier> BuildApproxClassifier(
    const DomainModel& model, std::span<const DynamicBitset> features,
    std::size_t num_schemas_total, const ApproxClassifierOptions& options) {
  if (features.size() != model.num_schemas()) {
    return Status::InvalidArgument(
        "feature count does not match the domain model's schema count");
  }
  std::vector<DomainConditionals> conds;
  std::vector<bool> singleton;
  conds.reserve(model.num_domains());
  for (std::uint32_t r = 0; r < model.num_domains(); ++r) {
    PAYGO_ASSIGN_OR_RETURN(DomainConditionals c,
                           ComputeApproxDomainConditionals(
                               model, r, features, num_schemas_total,
                               options));
    conds.push_back(std::move(c));
    singleton.push_back(model.IsSingletonDomain(r));
  }
  return NaiveBayesClassifier::FromConditionals(std::move(conds),
                                                std::move(singleton),
                                                options.base);
}

}  // namespace paygo
