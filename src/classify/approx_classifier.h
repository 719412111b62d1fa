#ifndef PAYGO_CLASSIFY_APPROX_CLASSIFIER_H_
#define PAYGO_CLASSIFY_APPROX_CLASSIFIER_H_

/// \file approx_classifier.h
/// \brief Approximate classifier construction (Chapter 7 future work).
///
/// The thesis's conclusion proposes "approximating the probability
/// distributions that require such exponential time" as a remedy for the
/// classifier's setup cost. Two approximations are provided (alongside the
/// exact factored engine in naive_bayes.h, which removes the exponential
/// factor with no approximation at all):
///
///  * kExpectedWorld — collapse the possible worlds of each domain into a
///    single pseudo-world with the expected member count and expected
///    per-feature counts; exact for the prior, approximate for the
///    conditionals (Jensen gap of the 1/(2|S'|+1) factor).
///  * kMonteCarlo — sample K worlds from the membership Bernoullis and
///    average the same accumulators the exact engines use; unbiased,
///    variance ~ 1/K.

#include <cstdint>
#include <span>

#include "classify/naive_bayes.h"
#include "cluster/probabilistic_assignment.h"
#include "util/bitset.h"
#include "util/status.h"

namespace paygo {

/// \brief Which approximation to use.
enum class ApproxKind {
  kExpectedWorld,
  kMonteCarlo,
};

/// \brief Options of the approximate construction.
struct ApproxClassifierOptions {
  ApproxKind kind = ApproxKind::kExpectedWorld;
  /// Monte-Carlo sample count per domain.
  std::size_t num_samples = 1024;
  /// Monte-Carlo seed (deterministic).
  std::uint64_t seed = 7;
  /// Options forwarded to the resulting classifier.
  ClassifierOptions base;
};

/// \brief Builds a NaiveBayesClassifier whose per-domain conditionals are
/// approximated instead of computed exactly.
Result<NaiveBayesClassifier> BuildApproxClassifier(
    const DomainModel& model, std::span<const DynamicBitset> features,
    std::size_t num_schemas_total, const ApproxClassifierOptions& options = {});

/// Approximate conditionals for one domain (exposed for accuracy tests
/// against ComputeDomainConditionals).
Result<DomainConditionals> ComputeApproxDomainConditionals(
    const DomainModel& model, std::uint32_t domain,
    std::span<const DynamicBitset> features, std::size_t num_schemas_total,
    const ApproxClassifierOptions& options);

}  // namespace paygo

#endif  // PAYGO_CLASSIFY_APPROX_CLASSIFIER_H_
