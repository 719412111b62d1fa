#ifndef PAYGO_TEXT_LCS_H_
#define PAYGO_TEXT_LCS_H_

/// \file lcs.h
/// \brief Longest common substring computation (Section 4.1).
///
/// The thesis's term-similarity function is based on the longest common
/// substring: t_sim(t1, t2) = 2*len(LCS(t1,t2)) / (len(t1)+len(t2)). Two
/// implementations are provided: a simple O(n*m) dynamic program and a
/// suffix-automaton-based variant that runs in O(n+m) time after an O(n)
/// build, mirroring the thesis's remark that "the longest common substring
/// can be computed efficiently in linear time using suffix trees".

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace paygo {

/// Length of the longest common substring of \p a and \p b (O(|a|*|b|) DP).
/// Allocation-free when the shorter input has at most 64 bytes.
std::size_t LcsLengthDp(std::string_view a, std::string_view b);

/// \brief Suffix automaton over one string; answers LCS-length queries
/// against other strings in linear time per query.
///
/// Build once per term, then call LcsLengthWith() for each comparison — the
/// similarity index uses this to amortize the build across the many
/// candidate pairs a term participates in.
class SuffixAutomaton {
 public:
  /// Builds the automaton of \p text (lower-case ASCII expected; any bytes
  /// work, transitions are per-byte).
  explicit SuffixAutomaton(std::string_view text);

  /// Length of the longest common substring between the built text and \p s.
  std::size_t LcsLengthWith(std::string_view s) const;

  /// Number of automaton states (for tests).
  std::size_t num_states() const { return states_.size(); }

 private:
  struct State {
    int len = 0;
    int link = -1;
    std::array<int, 26> next;  // 'a'..'z'; other bytes mapped to 26-bucket -1
    std::vector<std::pair<unsigned char, int>> other;  // rare non-letter bytes
    State() { next.fill(-1); }
  };

  int Transition(int state, unsigned char c) const;
  void SetTransition(int state, unsigned char c, int to);

  std::vector<State> states_;
  int last_;
};

/// Length of the longest common substring via a suffix automaton of \p a.
std::size_t LcsLengthAutomaton(std::string_view a, std::string_view b);

}  // namespace paygo

#endif  // PAYGO_TEXT_LCS_H_
