#ifndef PAYGO_CLASSIFY_CONDITIONALS_BUILDER_H_
#define PAYGO_CLASSIFY_CONDITIONALS_BUILDER_H_

/// \file conditionals_builder.h
/// \brief How the classifier engines (naive_bayes.cc, approx_classifier.cc)
/// assemble one domain's sparse DomainConditionals.

#include <cstdint>
#include <vector>

#include "classify/naive_bayes.h"
#include "util/bitset.h"

namespace paygo {

/// The conditionals of a zero-mass domain (no possible world has a
/// member): prior 0 and every feature at the m-estimate's p = 1/dim
/// (0.5 at dim 0), clamped strictly inside (0, 1) the way scoring clamps.
DomainConditionals FlatConditionals(std::size_t dim);

/// \brief Accumulates one domain's conditionals the way every engine does:
/// the exceptions are the union of the members' set features, each starts
/// at the default, and each member then adds its weight to its own
/// features. Members are added in the engine's order, so every exception
/// sees exactly the additions — and the rounding — a dense row would.
class ConditionalsBuilder {
 public:
  explicit ConditionalsBuilder(std::size_t dim);

  /// Makes \p member's set features exceptions. Call for every member
  /// before Start().
  void AddSupport(const DynamicBitset& member);
  /// Freezes the exceptions; each starts at \p default_q1.
  void Start(double default_q1);
  /// Adds \p weight to the q1 of each of \p member's set features (all
  /// of which must have been passed to AddSupport).
  void Add(const DynamicBitset& member, double weight);
  /// The finished conditionals, with \p prior.
  DomainConditionals Finish(double prior) &&;

 private:
  DomainConditionals out_;
  std::vector<std::uint64_t> support_;  // exception bitmap
  std::vector<std::uint32_t> rank_;     // exceptions before each word
  std::vector<std::size_t> set_bits_;   // per-member scratch
};

}  // namespace paygo

#endif  // PAYGO_CLASSIFY_CONDITIONALS_BUILDER_H_
