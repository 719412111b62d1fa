#ifndef PAYGO_TESTS_EXTEND_BY_ARRIVALS_H_
#define PAYGO_TESTS_EXTEND_BY_ARRIVALS_H_

/// \file extend_by_arrivals.h
/// \brief Test helper: grow a SimilarityMatrix or NeighborGraph built over
/// a prefix of \p features to all of them, one arrival at a time, the way
/// IntegrationSystem::AddSchema does: each tail schema's
/// FeaturePostings::JaccardRow against the schemas before it, appended
/// through the substrate's row constructor.

#include <cstddef>
#include <span>

#include "cluster/linkage.h"
#include "cluster/neighbor_graph.h"
#include "schema/feature_postings.h"
#include "util/bitset.h"

namespace paygo {

template <typename Substrate>
Substrate ExtendByArrivals(const Substrate& base, std::size_t base_size,
                           std::span<const DynamicBitset> features) {
  Substrate out = base;
  FeaturePostings postings(features.first(base_size));
  for (std::size_t k = base_size; k < features.size(); ++k) {
    out = Substrate(out, postings.JaccardRow(features[k]),
                    !features[k].None());
    postings.Append(features[k]);
  }
  return out;
}

inline SimilarityMatrix ExtendByArrivals(
    const SimilarityMatrix& base, std::span<const DynamicBitset> features) {
  return ExtendByArrivals(base, base.size(), features);
}

inline NeighborGraph ExtendByArrivals(
    const NeighborGraph& base, std::span<const DynamicBitset> features) {
  return ExtendByArrivals(base, base.num_nodes(), features);
}

}  // namespace paygo

#endif  // PAYGO_TESTS_EXTEND_BY_ARRIVALS_H_
