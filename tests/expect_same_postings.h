#ifndef PAYGO_TESTS_EXPECT_SAME_POSTINGS_H_
#define PAYGO_TESTS_EXPECT_SAME_POSTINGS_H_

/// \file expect_same_postings.h
/// \brief Test helper: two feature-posting indexes hold the same lists
/// and popcounts. The postings are the dense path's only similarity
/// substrate, so an appended or restored index must equal a scratch one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "schema/feature_postings.h"

namespace paygo {

inline void ExpectSamePostings(const FeaturePostings& a,
                               const FeaturePostings& b) {
  ASSERT_EQ(a.num_schemas(), b.num_schemas());
  ASSERT_EQ(a.dim(), b.dim());
  for (std::size_t f = 0; f < a.dim(); ++f) {
    EXPECT_TRUE(std::ranges::equal(a.List(f), b.List(f)))
        << "posting list " << f;
  }
  for (std::uint32_t i = 0; i < a.num_schemas(); ++i) {
    EXPECT_EQ(a.Popcount(i), b.Popcount(i)) << "popcount " << i;
  }
}

}  // namespace paygo

#endif  // PAYGO_TESTS_EXPECT_SAME_POSTINGS_H_
