#include "text/lcs.h"

#include <algorithm>
#include <array>
#include <vector>

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

}  // namespace paygo
