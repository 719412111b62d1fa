#ifndef PAYGO_MEDIATE_TERM_TABLE_H_
#define PAYGO_MEDIATE_TERM_TABLE_H_

/// \file term_table.h
/// \brief The attribute-name similarity kernel of mediation, shared by the
/// string entry point and the memoized term-id path.
///
/// Mediation scores attribute names by soft Dice over t_sim. Within one
/// mediation call the same few terms meet again and again (a `web` domain's
/// kept names use at most 8 distinct terms), so a TermTable gives the
/// call's terms local ids and evaluates t_sim once per ordered id pair.
/// SoftDice is the one loop body: over strings with a direct t_sim, or
/// over ids with the memo, it adds the same doubles in the same order, so
/// both give bitwise the same similarity.

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "text/term_similarity.h"

namespace paygo {

/// Soft Dice over two names' terms: each term contributes its
/// best-partner similarity \p t_sim(term, partner), but only when that
/// best reaches \p tau_t_sim. Sub-threshold matches count zero, so a single
/// shared sub-word cannot chain unrelated attribute names (e.g. "year of
/// publish" vs "publisher" share only publish~publisher).
template <typename Term, typename TermSim>
double SoftDice(std::span<const Term> a, std::span<const Term> b,
                double tau_t_sim, TermSim&& t_sim) {
  if (a.empty() || b.empty()) return 0.0;
  auto matched_weight = [&](std::span<const Term> from,
                            std::span<const Term> to) {
    double total = 0.0;
    for (const Term& t : from) {
      double best = 0.0;
      for (const Term& u : to) best = std::max(best, t_sim(t, u));
      if (best >= tau_t_sim) total += best;
    }
    return total;
  };
  return (matched_weight(a, b) + matched_weight(b, a)) /
         static_cast<double>(a.size() + b.size());
}

/// \brief The distinct terms of one mediation call as local ids, with
/// t_sim memoized per ordered id pair.
///
/// t_sim is not assumed symmetric (Jaro-Winkler's greedy matching is not
/// proven bitwise symmetric), so (a, b) and (b, a) are evaluated apart.
/// Names are interned into the table and scored by their handles.
class TermTable {
 public:
  /// A name's terms: ids at [begin, end) of the table's id list.
  struct Name {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  explicit TermTable(const TermSimilarity& sim) : sim_(sim) {}

  /// Interns \p terms (new terms get the next ids) and returns the name.
  Name Intern(const std::vector<std::string>& terms);

  /// AttributeNameSimilarity of the two names' terms, bitwise.
  double NameSimilarity(Name a, Name b, double tau_t_sim) {
    return SoftDice(Ids(a), Ids(b), tau_t_sim,
                    [this](std::uint32_t t, std::uint32_t u) {
                      return Sim(t, u);
                    });
  }

  /// t_sim calls made so far (one per ordered term pair scored).
  std::uint64_t kernel_calls() const { return kernel_calls_; }

 private:
  std::span<const std::uint32_t> Ids(Name n) const {
    return std::span<const std::uint32_t>(name_ids_).subspan(
        n.begin, n.end - n.begin);
  }

  /// t_sim(term a, term b), from the memo or computed once.
  double Sim(std::uint32_t a, std::uint32_t b) {
    std::vector<double>& row = memo_[a];
    if (b >= row.size()) row.resize(terms_.size(), kUnset);
    double& cell = row[b];
    if (cell == kUnset) {
      cell = sim_.Compute(*terms_[a], *terms_[b]);
      ++kernel_calls_;
    }
    return cell;
  }

  /// Marks a memo cell not yet computed; t_sim is in [0, 1].
  static constexpr double kUnset = -1.0;

  const TermSimilarity& sim_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  /// Per id: its term (a key of ids_, whose nodes never move).
  std::vector<const std::string*> terms_;
  /// The interned names' term ids, back to back.
  std::vector<std::uint32_t> name_ids_;
  /// memo_[a][b] = t_sim(a, b), or kUnset; a row grows to the table's
  /// size when asked for a column past its end.
  std::vector<std::vector<double>> memo_;
  std::uint64_t kernel_calls_ = 0;
};

}  // namespace paygo

#endif  // PAYGO_MEDIATE_TERM_TABLE_H_
