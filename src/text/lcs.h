#ifndef PAYGO_TEXT_LCS_H_
#define PAYGO_TEXT_LCS_H_

/// \file lcs.h
/// \brief Longest common substring computation (Section 4.1).
///
/// The thesis's term-similarity function is based on the longest common
/// substring: t_sim(t1, t2) = 2*len(LCS(t1,t2)) / (len(t1)+len(t2)). The
/// thesis remarks that it "can be computed efficiently in linear time using
/// suffix trees"; schema terms are a few to a few dozen bytes long, so the
/// library uses a rolling-row O(n*m) dynamic program that does not
/// allocate.

#include <cstddef>
#include <string_view>

namespace paygo {

/// Length of the longest common substring of \p a and \p b (O(|a|*|b|) DP).
/// Allocation-free when the shorter input has at most 64 bytes.
std::size_t LcsLengthDp(std::string_view a, std::string_view b);

}  // namespace paygo

#endif  // PAYGO_TEXT_LCS_H_
