#ifndef PAYGO_TEXT_SIMILARITY_INDEX_H_
#define PAYGO_TEXT_SIMILARITY_INDEX_H_

/// \file similarity_index.h
/// \brief Term-similarity neighborhoods over a term lexicon.
///
/// Algorithm 1 needs, for every lexicon term L_j and every schema term t,
/// whether t_sim(L_j, t) >= tau_t_sim. Computing this naively is
/// O(|L| * total terms) LCS evaluations, which is infeasible on the
/// many-domain web shape (dim L ~ 8k-16k). SimilarityIndex precomputes,
/// for each lexicon term, the set of lexicon terms similar to it, and
/// answers the same question for out-of-lexicon terms (Match). For the LCS
/// similarity it runs the LCS kernel only on pairs that pass two exact
/// filters:
///
///  * a length bound — with l1, l2 the term lengths, let L(l1,l2) be the
///    smallest integer k <= min(l1,l2) with 2.0*k/(l1+l2) >= threshold,
///    evaluated with the same double expression as LcsTermSimilarity. A
///    pair reaches the threshold iff its LCS length is >= L, so pairs for
///    which no such k exists are skipped, bit-for-bit at the boundary; and
///  * a q-gram count filter (q = 3; Gravano et al., "Approximate String
///    Joins in a Database (Almost) for Free", VLDB 2001) — a pair with
///    LCS >= L shares a substring of length L, whose L-q+1 q-gram
///    positions all occur in both terms, so
///    sum_g min(cnt_a(g), cnt_b(g)) >= L-q+1. The counts are multiplicities
///    (a repeated q-gram counts once per occurrence), which keeps the bound
///    valid for periodic terms like "abababab". Shared-q-gram counts come
///    from flat q-gram postings keyed on the raw bytes, accumulated in a
///    flat counts[] array with a first-touch list.
///
/// A pair with L < q cannot be filtered by q-grams (it may share none), so
/// such pairs are verified exhaustively, scanning only the term-length
/// buckets that can produce them. At the thesis default tau = 0.8 with the
/// tokenizer's 3-character minimum no such bucket exists.
///
/// The edit-distance kinds (Levenshtein, Jaro-Winkler) scan exhaustively
/// under their length upper bound. The stem kind buckets terms by Porter
/// stem and the exact kind looks terms up by value, so Match does no work
/// proportional to the lexicon for either.
///
/// Build statistics (registry counters, flushed once per build):
/// `paygo.simindex.pairs_evaluated` counts similarity-kernel calls and
/// `paygo.simindex.pairs_pruned` counts candidates rejected by the length
/// or the q-gram count bound (for the edit-distance kinds, pairs rejected
/// by the length bound).

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "text/term_similarity.h"

namespace paygo {

/// \brief Precomputed tau-neighborhoods of a term lexicon.
class SimilarityIndex {
 public:
  /// Builds neighborhoods for \p terms under \p sim with threshold
  /// \p threshold. \p terms must be deduplicated; neighborhoods always
  /// include the term itself. \p num_threads spreads the pair scan over a
  /// worker pool (0 = hardware_concurrency, 1 = serial, the default);
  /// qualifying pairs are buffered per chunk and applied in ascending
  /// chunk order, and every row is sorted afterwards, so the neighborhoods
  /// are identical at any thread count. Build statistics are aggregated
  /// per chunk and flushed to the registry once, so parallel builds never
  /// tear or double-count.
  SimilarityIndex(std::vector<std::string> terms, TermSimilarity sim,
                  double threshold, std::size_t num_threads = 1);

  /// Lexicon terms similar to term \p i (sorted indices, includes i).
  const std::vector<std::uint32_t>& Neighbors(std::size_t i) const {
    return neighbors_[i];
  }

  /// Lexicon indices of all terms with t_sim(term, L_j) >= threshold, for an
  /// arbitrary (possibly out-of-lexicon) \p term — used to featurize keyword
  /// queries. Sorted ascending. Safe to call from concurrent threads.
  std::vector<std::uint32_t> Match(std::string_view term) const;

  /// The lexicon the index was built over.
  const std::vector<std::string>& terms() const { return terms_; }
  double threshold() const { return threshold_; }
  const TermSimilarity& similarity() const { return sim_; }

 private:
  /// One q-gram posting: a lexicon term and how often the q-gram occurs in
  /// it.
  struct Posting {
    std::uint32_t term;
    std::uint32_t count;
  };
  /// Per-caller scratch of the filter (counts[] is all-zero between uses).
  struct Scratch;
  /// Filter tallies of one scan.
  struct ScanStats {
    std::uint64_t evaluated = 0;
    std::uint64_t pruned = 0;
  };

  void BuildLengthBuckets();
  void BuildQGramPostings();
  void BuildNeighborhoods();

  /// L(l1, l2) from the file comment, or kUnreachable when no LCS length
  /// reaches the threshold.
  std::size_t MinLcs(std::size_t l1, std::size_t l2) const;

  /// Appends to \p out every lexicon id j >= \p first with
  /// sim_(term, terms_[j]) >= threshold_, in unspecified order
  /// (LCS and edit-distance kinds only).
  void ScanMatches(std::string_view term, std::uint32_t first,
                   Scratch& scratch, ScanStats& stats,
                   std::vector<std::uint32_t>& out) const;

  std::vector<std::string> terms_;
  TermSimilarity sim_;
  double threshold_;
  std::size_t num_threads_ = 1;

  // Term ids grouped by length: bucket b holds the terms of length
  // bucket_lengths_[b] at by_length_[bucket_offsets_[b], [b+1]), ascending.
  std::vector<std::size_t> bucket_lengths_;
  std::vector<std::uint32_t> bucket_offsets_;
  std::vector<std::uint32_t> by_length_;

  // LCS kind: CSR q-gram postings. gram_keys_ holds the distinct q-gram keys
  // (three raw bytes) ascending; gram k's postings are
  // postings_[gram_offsets_[k], [k+1]), ascending by term id.
  std::vector<std::uint32_t> gram_keys_;
  std::vector<std::uint32_t> gram_offsets_;
  std::vector<Posting> postings_;

  // Stem kind: (Porter stem, term id) for every term, ascending, so each
  // stem's terms form one run.
  std::vector<std::pair<std::string, std::uint32_t>> stem_ids_;

  // Exact kind: term ids ordered by term value.
  std::vector<std::uint32_t> sorted_ids_;

  std::vector<std::vector<std::uint32_t>> neighbors_;
};

}  // namespace paygo

#endif  // PAYGO_TEXT_SIMILARITY_INDEX_H_
