#include "text/similarity_index.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <utility>

#include "obs/stats.h"
#include "obs/trace.h"
#include "text/porter_stemmer.h"
#include "util/thread_pool.h"

namespace paygo {
namespace {

/// q of the q-gram count filter.
constexpr std::size_t kQ = 3;
/// MinLcs result when no LCS length reaches the threshold.
constexpr std::size_t kUnreachable = static_cast<std::size_t>(-1);

/// The q-gram keys of \p term (three raw bytes each), one entry per
/// occurrence, sorted so equal keys form runs.
void SortedGramKeys(std::string_view term, std::vector<std::uint32_t>& keys) {
  keys.clear();
  for (std::size_t k = 0; k + kQ <= term.size(); ++k) {
    keys.push_back(static_cast<std::uint32_t>(
                       static_cast<unsigned char>(term[k])) << 16 |
                   static_cast<std::uint32_t>(
                       static_cast<unsigned char>(term[k + 1])) << 8 |
                   static_cast<unsigned char>(term[k + 2]));
  }
  std::sort(keys.begin(), keys.end());
}

/// Length of the run of equal keys starting at \p k.
std::size_t RunLength(const std::vector<std::uint32_t>& keys, std::size_t k) {
  std::size_t e = k + 1;
  while (e < keys.size() && keys[e] == keys[k]) ++e;
  return e - k;
}

}  // namespace

struct SimilarityIndex::Scratch {
  std::vector<std::uint32_t> counts;  // shared q-grams per lexicon id
  std::vector<std::uint32_t> touched;  // ids with a nonzero count
  std::vector<std::uint32_t> keys;
};

SimilarityIndex::SimilarityIndex(std::vector<std::string> terms,
                                 TermSimilarity sim, double threshold,
                                 std::size_t num_threads)
    : terms_(std::move(terms)),
      sim_(sim),
      threshold_(threshold),
      num_threads_(ThreadPool::ResolveThreadCount(num_threads)) {
  BuildNeighborhoods();
}

std::size_t SimilarityIndex::MinLcs(std::size_t l1, std::size_t l2) const {
  const double total = static_cast<double>(l1 + l2);
  // LcsTermSimilarity's expression for an LCS of length k; monotone in k.
  auto reaches = [&](std::size_t k) {
    return 2.0 * static_cast<double>(k) / total >= threshold_;
  };
  const std::size_t shorter = std::min(l1, l2);
  if (!reaches(shorter)) return kUnreachable;
  // Start at the real-valued bound and settle on the exact boundary.
  const double guess = std::ceil(threshold_ * total / 2.0);
  std::size_t k =
      guess <= 0.0 ? 0
                   : std::min(shorter, static_cast<std::size_t>(guess));
  while (k > 0 && reaches(k - 1)) --k;
  while (!reaches(k)) ++k;
  return k;
}

void SimilarityIndex::BuildLengthBuckets() {
  by_length_.resize(terms_.size());
  std::iota(by_length_.begin(), by_length_.end(), 0u);
  std::stable_sort(by_length_.begin(), by_length_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return terms_[a].size() < terms_[b].size();
                   });
  for (std::uint32_t p = 0; p < by_length_.size(); ++p) {
    const std::size_t len = terms_[by_length_[p]].size();
    if (bucket_lengths_.empty() || bucket_lengths_.back() != len) {
      bucket_lengths_.push_back(len);
      bucket_offsets_.push_back(p);
    }
  }
  bucket_offsets_.push_back(static_cast<std::uint32_t>(by_length_.size()));
}

void SimilarityIndex::BuildQGramPostings() {
  struct Entry {
    std::uint32_t key;
    Posting posting;
  };
  std::vector<Entry> entries;
  std::vector<std::uint32_t> keys;
  for (std::uint32_t i = 0; i < terms_.size(); ++i) {
    SortedGramKeys(terms_[i], keys);
    for (std::size_t k = 0; k < keys.size();) {
      const std::size_t run = RunLength(keys, k);
      entries.push_back({keys[k], {i, static_cast<std::uint32_t>(run)}});
      k += run;
    }
  }
  // Entries are in ascending term order; a stable sort by key keeps each
  // posting list ascending.
  std::stable_sort(
      entries.begin(), entries.end(),
      [](const Entry& a, const Entry& b) { return a.key < b.key; });
  postings_.reserve(entries.size());
  for (std::uint32_t e = 0; e < entries.size(); ++e) {
    if (gram_keys_.empty() || gram_keys_.back() != entries[e].key) {
      gram_keys_.push_back(entries[e].key);
      gram_offsets_.push_back(e);
    }
    postings_.push_back(entries[e].posting);
  }
  gram_offsets_.push_back(static_cast<std::uint32_t>(postings_.size()));
}

void SimilarityIndex::ScanMatches(std::string_view term, std::uint32_t first,
                                  Scratch& scratch, ScanStats& stats,
                                  std::vector<std::uint32_t>& out) const {
  const std::size_t len = term.size();
  const bool lcs = sim_.kind() == TermSimilarityKind::kLcs;
  auto verify = [&](std::uint32_t j) {
    ++stats.evaluated;
    if (sim_.Compute(term, terms_[j]) >= threshold_) out.push_back(j);
  };

  // Pairs with L >= q: count shared q-grams (with multiplicity) against
  // every lexicon term that has one, then verify the survivors of the
  // length and count bounds.
  if (lcs && len >= kQ) {
    std::vector<std::uint32_t>& counts = scratch.counts;
    if (counts.size() < terms_.size()) {
      counts.resize(terms_.size(), 0);
      // Never reallocates mid-scan, so counts[] cannot be left dirty.
      scratch.touched.reserve(terms_.size());
    }
    scratch.touched.clear();
    SortedGramKeys(term, scratch.keys);
    const std::vector<std::uint32_t>& keys = scratch.keys;
    for (std::size_t k = 0; k < keys.size();) {
      const std::size_t run = RunLength(keys, k);
      const std::uint32_t key = keys[k];
      k += run;
      const auto it =
          std::lower_bound(gram_keys_.begin(), gram_keys_.end(), key);
      if (it == gram_keys_.end() || *it != key) continue;
      const std::size_t g = static_cast<std::size_t>(it - gram_keys_.begin());
      const Posting* pe = postings_.data() + gram_offsets_[g + 1];
      const Posting* p = std::lower_bound(
          postings_.data() + gram_offsets_[g], pe, first,
          [](const Posting& a, std::uint32_t v) { return a.term < v; });
      for (; p != pe; ++p) {
        if (counts[p->term] == 0) scratch.touched.push_back(p->term);
        counts[p->term] += std::min(static_cast<std::uint32_t>(run), p->count);
      }
    }
    for (std::uint32_t j : scratch.touched) {
      const std::uint32_t shared = counts[j];
      counts[j] = 0;
      const std::size_t need = MinLcs(len, terms_[j].size());
      if (need < kQ) continue;  // the short-pair scan below verifies it
      if (need == kUnreachable || shared < need - kQ + 1) {
        ++stats.pruned;
        continue;
      }
      verify(j);
    }
  }

  // Length buckets the count filter cannot cover: LCS pairs with L < q
  // (they may share no q-gram), or every length admissible under the
  // edit-distance kinds' upper bound.
  for (std::size_t b = 0; b < bucket_lengths_.size(); ++b) {
    const std::uint32_t* ie = by_length_.data() + bucket_offsets_[b + 1];
    const std::uint32_t* ib =
        std::lower_bound(by_length_.data() + bucket_offsets_[b], ie, first);
    if (lcs) {
      if (MinLcs(len, bucket_lengths_[b]) >= kQ) continue;
    } else if (sim_.UpperBound(len, bucket_lengths_[b]) < threshold_) {
      stats.pruned += static_cast<std::uint64_t>(ie - ib);
      continue;
    }
    for (; ib != ie; ++ib) verify(*ib);
  }
}

void SimilarityIndex::BuildNeighborhoods() {
  PAYGO_TRACE_SPAN("simindex.build");
  // Build instrumentation is accumulated per scan chunk in plain locals
  // (never shared between workers, so parallel builds cannot tear or
  // double-count), summed into these totals on the single build thread,
  // and flushed to the registry once at the end of the build.
  ScanStats totals;
  StatsRegistry& reg = StatsRegistry::Global();
  static Counter* builds = reg.GetCounter("paygo.simindex.builds");
  static Counter* evaluated_total =
      reg.GetCounter("paygo.simindex.pairs_evaluated");
  static Counter* pruned_total = reg.GetCounter("paygo.simindex.pairs_pruned");
  builds->Increment();
  struct Flush {
    ScanStats& totals;
    Counter* evaluated_total;
    Counter* pruned_total;
    ~Flush() {
      evaluated_total->Add(totals.evaluated);
      pruned_total->Add(totals.pruned);
    }
  } flush{totals, evaluated_total, pruned_total};

  const std::size_t n = terms_.size();
  neighbors_.assign(n, {});
  for (std::uint32_t i = 0; i < n; ++i) neighbors_[i].push_back(i);

  std::unique_ptr<ThreadPool> pool;
  if (num_threads_ > 1 && n > 1) {
    pool = std::make_unique<ThreadPool>(num_threads_);
  }

  switch (sim_.kind()) {
    case TermSimilarityKind::kExact:
      // Identity only (terms_ is deduplicated); Match looks terms up here.
      sorted_ids_.resize(n);
      std::iota(sorted_ids_.begin(), sorted_ids_.end(), 0u);
      std::sort(sorted_ids_.begin(), sorted_ids_.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return terms_[a] < terms_[b];
                });
      return;
    case TermSimilarityKind::kStem: {
      // Bucket terms by Porter stem; all terms in a bucket are mutually
      // similar with similarity 1 (>= any threshold in (0,1]). The
      // stemming map parallelizes (slot per term); the sort and the
      // neighbor fan-out stay serial. The sorted stems are kept for Match.
      stem_ids_.resize(n);
      auto stem_range = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          stem_ids_[i] = {PorterStem(terms_[i]), static_cast<std::uint32_t>(i)};
        }
      };
      if (pool != nullptr) {
        pool->ParallelFor(0, n, /*grain=*/256,
                          [&](const ThreadPool::Chunk& c) {
                            stem_range(c.begin, c.end);
                          });
      } else {
        stem_range(0, n);
      }
      std::sort(stem_ids_.begin(), stem_ids_.end());
      if (threshold_ > 1.0) return;
      for (auto run = stem_ids_.begin(); run != stem_ids_.end();) {
        auto end = run;
        while (end != stem_ids_.end() && end->first == run->first) ++end;
        for (auto a = run; a != end; ++a) {
          for (auto b = run; b != end; ++b) {
            if (a != b) neighbors_[a->second].push_back(b->second);
          }
        }
        run = end;
      }
      for (auto& nb : neighbors_) std::sort(nb.begin(), nb.end());
      return;
    }
    case TermSimilarityKind::kLcs:
    case TermSimilarityKind::kLevenshtein:
    case TermSimilarityKind::kJaroWinkler:
      break;
  }

  BuildLengthBuckets();
  if (sim_.kind() == TermSimilarityKind::kLcs) BuildQGramPostings();

  // Each chunk of rows i scans candidates j > i with its own scratch and
  // buffers the qualifying (i, j) pairs locally; chunks are applied to the
  // symmetric neighbor lists serially in ascending chunk order, and every
  // row is sorted at the end, so the result is identical at any thread
  // count.
  struct ChunkOut {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    ScanStats stats;
  };
  auto scan_rows = [&](std::size_t lo, std::size_t hi, ChunkOut& out) {
    Scratch scratch;
    std::vector<std::uint32_t> hits;
    for (std::uint32_t i = static_cast<std::uint32_t>(lo); i < hi; ++i) {
      hits.clear();
      ScanMatches(terms_[i], i + 1, scratch, out.stats, hits);
      for (std::uint32_t j : hits) out.pairs.emplace_back(i, j);
    }
  };
  auto apply = [&](const ChunkOut& out) {
    totals.evaluated += out.stats.evaluated;
    totals.pruned += out.stats.pruned;
    for (const auto& [i, j] : out.pairs) {
      neighbors_[i].push_back(j);
      neighbors_[j].push_back(i);
    }
  };
  const std::size_t grain = 16;
  const std::size_t chunks = pool != nullptr ? pool->NumChunks(n, grain) : 1;
  if (chunks > 1) {
    std::vector<ChunkOut> outs(chunks);
    pool->ParallelFor(0, n, grain, [&](const ThreadPool::Chunk& c) {
      scan_rows(c.begin, c.end, outs[c.index]);
    });
    for (const ChunkOut& out : outs) apply(out);
  } else {
    ChunkOut out;
    scan_rows(0, n, out);
    apply(out);
  }
  for (auto& nb : neighbors_) std::sort(nb.begin(), nb.end());
}

std::vector<std::uint32_t> SimilarityIndex::Match(std::string_view term) const {
  // Lookup hit rate: hits / lookups across every index in the process.
  StatsRegistry& reg = StatsRegistry::Global();
  static Counter* lookups = reg.GetCounter("paygo.simindex.lookups");
  static Counter* hits = reg.GetCounter("paygo.simindex.lookup_hits");
  lookups->Increment();
  std::vector<std::uint32_t> out;
  struct HitFlush {  // counts on every return path
    const std::vector<std::uint32_t>& out;
    Counter* hits;
    ~HitFlush() {
      if (!out.empty()) hits->Increment();
    }
  } hit_flush{out, hits};
  if (term.empty() || terms_.empty()) return out;

  switch (sim_.kind()) {
    case TermSimilarityKind::kExact: {
      const auto it = std::lower_bound(
          sorted_ids_.begin(), sorted_ids_.end(), term,
          [&](std::uint32_t id, std::string_view t) { return terms_[id] < t; });
      if (it != sorted_ids_.end() && terms_[*it] == term) out.push_back(*it);
      return out;
    }
    case TermSimilarityKind::kStem: {
      std::pair<std::string, std::uint32_t> key{PorterStem(term), 0};
      for (auto it = std::lower_bound(stem_ids_.begin(), stem_ids_.end(), key);
           it != stem_ids_.end() && it->first == key.first; ++it) {
        out.push_back(it->second);
      }
      return out;
    }
    case TermSimilarityKind::kLcs:
    case TermSimilarityKind::kLevenshtein:
    case TermSimilarityKind::kJaroWinkler:
      break;
  }

  // Per-thread scratch keeps Match const and safe for concurrent callers;
  // every scan leaves counts[] all-zero for the next one.
  thread_local Scratch scratch;
  ScanStats stats;
  ScanMatches(term, 0, scratch, stats, out);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace paygo
