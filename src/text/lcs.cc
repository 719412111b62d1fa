#include "text/lcs.h"

#include <algorithm>

namespace paygo {

std::size_t LcsLengthDp(std::string_view a, std::string_view b) {
  if (a.empty() || b.empty()) return 0;
  // LCS length is symmetric; keep the DP row over the shorter string so
  // that term-sized inputs use the on-stack row and never allocate.
  if (b.size() > a.size()) std::swap(a, b);
  std::array<std::size_t, 65> stack_row;
  std::vector<std::size_t> heap_row;
  std::size_t* dp = stack_row.data();
  if (b.size() < stack_row.size()) {
    std::fill_n(dp, b.size() + 1, 0);
  } else {
    heap_row.assign(b.size() + 1, 0);
    dp = heap_row.data();
  }
  // Rolling single-row DP: dp[j] = length of common suffix of a[..i], b[..j].
  std::size_t best = 0;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t prev_diag = 0;  // dp[i-1][j-1]
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t saved = dp[j];
      if (a[i - 1] == b[j - 1]) {
        dp[j] = prev_diag + 1;
        best = std::max(best, dp[j]);
      } else {
        dp[j] = 0;
      }
      prev_diag = saved;
    }
  }
  return best;
}

int SuffixAutomaton::Transition(int state, unsigned char c) const {
  const State& st = states_[static_cast<std::size_t>(state)];
  if (c >= 'a' && c <= 'z') return st.next[c - 'a'];
  for (const auto& [ch, to] : st.other) {
    if (ch == c) return to;
  }
  return -1;
}

void SuffixAutomaton::SetTransition(int state, unsigned char c, int to) {
  State& st = states_[static_cast<std::size_t>(state)];
  if (c >= 'a' && c <= 'z') {
    st.next[c - 'a'] = to;
    return;
  }
  for (auto& [ch, existing] : st.other) {
    if (ch == c) {
      existing = to;
      return;
    }
  }
  st.other.emplace_back(c, to);
}

SuffixAutomaton::SuffixAutomaton(std::string_view text) {
  states_.reserve(2 * text.size() + 2);
  states_.emplace_back();  // initial state 0
  last_ = 0;
  for (char raw : text) {
    const unsigned char c = static_cast<unsigned char>(raw);
    const int cur = static_cast<int>(states_.size());
    states_.emplace_back();
    states_[static_cast<std::size_t>(cur)].len =
        states_[static_cast<std::size_t>(last_)].len + 1;
    int p = last_;
    while (p != -1 && Transition(p, c) == -1) {
      SetTransition(p, c, cur);
      p = states_[static_cast<std::size_t>(p)].link;
    }
    if (p == -1) {
      states_[static_cast<std::size_t>(cur)].link = 0;
    } else {
      const int q = Transition(p, c);
      if (states_[static_cast<std::size_t>(p)].len + 1 ==
          states_[static_cast<std::size_t>(q)].len) {
        states_[static_cast<std::size_t>(cur)].link = q;
      } else {
        const int clone = static_cast<int>(states_.size());
        states_.push_back(states_[static_cast<std::size_t>(q)]);
        states_[static_cast<std::size_t>(clone)].len =
            states_[static_cast<std::size_t>(p)].len + 1;
        while (p != -1 && Transition(p, c) == q) {
          SetTransition(p, c, clone);
          p = states_[static_cast<std::size_t>(p)].link;
        }
        states_[static_cast<std::size_t>(q)].link = clone;
        states_[static_cast<std::size_t>(cur)].link = clone;
      }
    }
    last_ = cur;
  }
}

std::size_t SuffixAutomaton::LcsLengthWith(std::string_view s) const {
  int v = 0;
  int length = 0;
  std::size_t best = 0;
  for (char raw : s) {
    const unsigned char c = static_cast<unsigned char>(raw);
    while (v != 0 && Transition(v, c) == -1) {
      v = states_[static_cast<std::size_t>(v)].link;
      length = states_[static_cast<std::size_t>(v)].len;
    }
    const int to = Transition(v, c);
    if (to != -1) {
      v = to;
      ++length;
    } else {
      v = 0;
      length = 0;
    }
    best = std::max(best, static_cast<std::size_t>(length));
  }
  return best;
}

std::size_t LcsLengthAutomaton(std::string_view a, std::string_view b) {
  if (a.empty() || b.empty()) return 0;
  SuffixAutomaton sam(a);
  return sam.LcsLengthWith(b);
}

}  // namespace paygo
