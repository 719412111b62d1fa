#ifndef PAYGO_UTIL_UNION_FIND_H_
#define PAYGO_UTIL_UNION_FIND_H_

/// \file union_find.h
/// \brief Disjoint-set forest over dense indices [0, n).
///
/// Shared by must-link closure (HAC), single-link attribute clustering
/// (mediation), possible-mediated-schema enumeration, and multi-table
/// joining. Find uses path halving; Union always links the root of \p a
/// under the root of \p b. Callers that group elements by root id (for
/// example in a std::map) depend on that direction for their output order,
/// so it is part of the contract.

#include <cstdint>
#include <vector>

namespace paygo {

/// \brief Union-find with path halving and no union by rank.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::uint32_t i = 0; i < n; ++i) parent_[i] = i;
  }

  /// Root of \p x's set.
  std::uint32_t Find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Joins the sets of \p a and \p b: root(a) becomes a child of root(b).
  void Union(std::uint32_t a, std::uint32_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<std::uint32_t> parent_;
};

}  // namespace paygo

#endif  // PAYGO_UTIL_UNION_FIND_H_
