#ifndef PAYGO_TESTS_EXTEND_BY_ARRIVALS_H_
#define PAYGO_TESTS_EXTEND_BY_ARRIVALS_H_

/// \file extend_by_arrivals.h
/// \brief Test helper: grow a NeighborGraph built over a prefix of
/// \p features to all of them, one arrival at a time, the way
/// IntegrationSystem::AddSchema does: each tail schema's
/// FeaturePostings::JaccardRow against the schemas before it, appended
/// through the graph's row constructor.

#include <cstddef>
#include <span>

#include "cluster/neighbor_graph.h"
#include "schema/feature_postings.h"
#include "util/bitset.h"

namespace paygo {

inline NeighborGraph ExtendByArrivals(
    const NeighborGraph& base, std::span<const DynamicBitset> features) {
  NeighborGraph out = base;
  FeaturePostings postings(features.first(base.num_nodes()));
  for (std::size_t k = base.num_nodes(); k < features.size(); ++k) {
    out = NeighborGraph(out, postings.JaccardRow(features[k]),
                        !features[k].None());
    postings.Append(features[k]);
  }
  return out;
}

}  // namespace paygo

#endif  // PAYGO_TESTS_EXTEND_BY_ARRIVALS_H_
