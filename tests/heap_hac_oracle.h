#ifndef PAYGO_TESTS_HEAP_HAC_ORACLE_H_
#define PAYGO_TESTS_HEAP_HAC_ORACLE_H_

/// \file heap_hac_oracle.h
/// \brief Test-only dense HAC engine driven by a global lazy-deletion
/// max-heap: the engine Hac::Run used before per-row nearest-neighbour
/// bounds replaced it, kept as the oracle the row-bound engine is
/// differentially tested against.
///
/// Every merge pushes one heap entry per re-evaluated pair, carrying the
/// unrounded similarity double; entries whose endpoints merged since the
/// push are discarded when popped. Merge order is (similarity desc, slot_a
/// asc, slot_b asc). Options are assumed valid (the caller runs Hac's own
/// validation first). Counters are kept locally and never reach the
/// global registry, so counter tests see only the production engine.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_set>
#include <vector>

#include "cluster/hac.h"
#include "cluster/linkage.h"
#include "util/bitset.h"
#include "util/thread_pool.h"

namespace paygo {
namespace heap_oracle {

/// Local stand-in for the engine's per-run counters.
struct OracleStats {
  std::uint64_t pairs_evaluated = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t merges = 0;
  std::uint64_t heap_pushes = 0;
  std::uint64_t stale_skips = 0;
};

/// A candidate merge in the lazy-deletion heap. Entries become stale when
/// either endpoint is merged; staleness is detected via per-slot versions.
struct HeapEntry {
  double sim;
  std::uint32_t a, b;          // slot ids, a < b
  std::uint32_t va, vb;        // slot versions at push time

  bool operator<(const HeapEntry& other) const {
    // Max-heap on similarity; deterministic tie-break on slot ids.
    if (sim != other.sim) return sim < other.sim;
    if (a != other.a) return a > other.a;
    return b > other.b;
  }
};

inline std::uint64_t PairKey(std::uint32_t a, std::uint32_t b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Cannot-link bookkeeping: the schemas of each slot that participate in
/// any constraint, plus the forbidden pair set.
struct ConstraintState {
  std::unordered_set<std::uint64_t> forbidden;
  std::vector<std::vector<std::uint32_t>> constrained;  // per slot

  bool Active() const { return !forbidden.empty(); }

  /// True when merging slots a and b would join a forbidden schema pair.
  bool Violates(std::uint32_t a, std::uint32_t b) const {
    if (!Active()) return false;
    const auto& ca = constrained[a];
    const auto& cb = constrained[b];
    for (std::uint32_t x : ca) {
      for (std::uint32_t y : cb) {
        if (forbidden.count(PairKey(x, y))) return true;
      }
    }
    return false;
  }

  void MergeInto(std::uint32_t a, std::uint32_t b) {
    if (!Active()) return;
    auto& ca = constrained[a];
    auto& cb = constrained[b];
    ca.insert(ca.end(), cb.begin(), cb.end());
    cb.clear();
  }
};

/// Shared cluster bookkeeping for both engines.
struct ClusterState {
  std::vector<std::vector<std::uint32_t>> members;  // per active slot
  std::vector<bool> active;
  std::vector<std::uint32_t> version;
  // Total-Jaccard summaries: AND / OR of member feature vectors.
  std::vector<DynamicBitset> and_bits;
  std::vector<DynamicBitset> or_bits;
  bool track_bits = false;

  void Init(std::size_t n, const std::vector<DynamicBitset>& features,
            bool need_bits) {
    members.resize(n);
    active.assign(n, true);
    version.assign(n, 0);
    track_bits = need_bits;
    for (std::uint32_t i = 0; i < n; ++i) members[i] = {i};
    if (need_bits) {
      and_bits = features;
      or_bits = features;
    }
  }

  /// Merges slot b into slot a.
  void Merge(std::uint32_t a, std::uint32_t b) {
    auto& ma = members[a];
    auto& mb = members[b];
    ma.insert(ma.end(), mb.begin(), mb.end());
    mb.clear();
    mb.shrink_to_fit();
    active[b] = false;
    ++version[a];
    ++version[b];
    if (track_bits) {
      and_bits[a] &= and_bits[b];
      or_bits[a] |= or_bits[b];
    }
  }

  HacResult Finish(std::vector<HacMerge> merges) const {
    HacResult result;
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (!active[i]) continue;
      std::vector<std::uint32_t> c = members[i];
      std::sort(c.begin(), c.end());
      result.clusters.push_back(std::move(c));
    }
    std::sort(result.clusters.begin(), result.clusters.end(),
              [](const auto& x, const auto& y) { return x[0] < y[0]; });
    result.merges = std::move(merges);
    return result;
  }
};

/// Cluster-to-cluster similarity recomputed from first principles (the
/// Total-Jaccard key source).
inline double LinkageFromScratch(const ClusterState& st,
                                 const SimilarityMatrix& sims,
                                 LinkageKind kind, std::uint32_t a,
                                 std::uint32_t b) {
  switch (kind) {
    case LinkageKind::kAverage: {
      double total = 0.0;
      for (std::uint32_t x : st.members[a]) {
        for (std::uint32_t y : st.members[b]) total += sims.At(x, y);
      }
      return total / (static_cast<double>(st.members[a].size()) *
                      static_cast<double>(st.members[b].size()));
    }
    case LinkageKind::kMin: {
      double best = 1.0;
      for (std::uint32_t x : st.members[a]) {
        for (std::uint32_t y : st.members[b]) {
          best = std::min(best, sims.At(x, y));
        }
      }
      return best;
    }
    case LinkageKind::kMax: {
      double best = 0.0;
      for (std::uint32_t x : st.members[a]) {
        for (std::uint32_t y : st.members[b]) {
          best = std::max(best, sims.At(x, y));
        }
      }
      return best;
    }
    case LinkageKind::kTotal:
      return DynamicBitset::Jaccard(
          // Intersection of all features across both clusters ...
          [&] {
            DynamicBitset x = st.and_bits[a];
            x &= st.and_bits[b];
            return x;
          }(),
          // ... over the union of all features across both clusters.
          [&] {
            DynamicBitset x = st.or_bits[a];
            x |= st.or_bits[b];
            return x;
          }());
  }
  return 0.0;
}

inline ConstraintState BuildConstraintState(std::size_t n,
                                            const HacOptions& options) {
  ConstraintState cs;
  if (options.cannot_link.empty()) return cs;
  cs.constrained.resize(n);
  for (const auto& [a, b] : options.cannot_link) {
    cs.forbidden.insert(PairKey(a, b));
    cs.constrained[a].push_back(a);
    cs.constrained[b].push_back(b);
  }
  for (auto& c : cs.constrained) {
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
  }
  return cs;
}

inline Result<HacResult> RunHeapHac(
    const std::vector<DynamicBitset>& features, const SimilarityMatrix& sims,
    const HacOptions& options) {
  OracleStats stats;
  const std::size_t n = features.size();
  ClusterState st;
  st.Init(n, features, options.linkage == LinkageKind::kTotal);
  ConstraintState cs = BuildConstraintState(n, options);

  // Worker pool for the O(n^2) phases. Width 1 (the default) bypasses the
  // pool entirely — the exact legacy serial path. At any width the result
  // is bit-identical to serial: chunk outputs are applied in ascending
  // chunk order over an ordered contiguous partition, which reproduces the
  // serial heap-push sequence, and every float/double is computed from the
  // same inputs the serial path reads (no cross-chunk FP reductions).
  const std::size_t pool_width =
      ThreadPool::ResolveThreadCount(options.num_threads);
  std::unique_ptr<ThreadPool> pool;
  if (pool_width > 1 && n > 1) pool = std::make_unique<ThreadPool>(pool_width);

  // Memoized cluster-to-cluster similarities, indexed by slot pair. For the
  // Lance-Williams-updatable linkages this is required for the O(|U|)
  // per-merge update; for Total Jaccard similarities are recomputed from
  // the AND/OR summaries (O(dim L / 64) each), so the matrix is unused.
  const bool memoized = options.linkage != LinkageKind::kTotal;
  std::vector<float> csim;
  if (memoized) {
    csim.resize(n * n);
    auto fill_rows = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          csim[i * n + j] = static_cast<float>(sims.At(i, j));
        }
      }
    };
    if (pool != nullptr) {
      pool->ParallelFor(0, n, /*grain=*/64,
                        [&](const ThreadPool::Chunk& c) {
                          fill_rows(c.begin, c.end);
                        });
    } else {
      fill_rows(0, n);
    }
  }

  // In count mode (max_clusters set) the similarity threshold is ignored:
  // every pair is a candidate and merging stops at the target count.
  const bool count_mode = options.max_clusters > 0;
  const double push_threshold = count_mode ? -1.0 : options.tau_c_sim;

  std::priority_queue<HeapEntry> heap;
  std::vector<HacMerge> merges;

  // Candidates and instrumentation produced by one chunk of a parallel
  // scan. Buffered per chunk and flushed in ascending chunk order so heap
  // pushes land in the serial iteration order; counters are exact integers
  // so summation order is immaterial.
  struct ChunkEmit {
    std::vector<HeapEntry> entries;
    std::uint64_t pairs_evaluated = 0;
    std::uint64_t memo_hits = 0;
  };
  auto flush_emit = [&](const ChunkEmit& out) {
    stats.pairs_evaluated += out.pairs_evaluated;
    stats.memo_hits += out.memo_hits;
    for (const HeapEntry& e : out.entries) {
      heap.push(e);
      ++stats.heap_pushes;
    }
  };

  // Candidate re-evaluation against the freshly merged slot `a`: the
  // per-merge O(|U|) loop, over candidate range [lo, hi). Thread-safe for
  // disjoint ranges: iteration c reads csim rows c (its own) and column b
  // (untouched) and writes csim[a][c] / csim[c][a] (owned by c).
  auto reevaluate = [&](std::uint32_t a, std::uint32_t b, double size_a,
                        double size_b, std::size_t lo, std::size_t hi,
                        ChunkEmit& out) {
    for (std::uint32_t c = lo; c < hi; ++c) {
      if (!st.active[c] || c == a) continue;
      double s;
      if (memoized) {
        out.memo_hits += 2;
        const double sca = csim[static_cast<std::size_t>(c) * n + a];
        const double scb = csim[static_cast<std::size_t>(c) * n + b];
        switch (options.linkage) {
          case LinkageKind::kAverage:
            // The thesis's constant-time memoization update:
            // c_sim(c, ab) = (|a| c_sim(c,a) + |b| c_sim(c,b)) / (|a|+|b|).
            s = (size_a * sca + size_b * scb) / (size_a + size_b);
            break;
          case LinkageKind::kMin:
            s = std::min(sca, scb);
            break;
          case LinkageKind::kMax:
            s = std::max(sca, scb);
            break;
          default:
            s = 0.0;
            assert(false);
        }
        csim[static_cast<std::size_t>(a) * n + c] = static_cast<float>(s);
        csim[static_cast<std::size_t>(c) * n + a] = static_cast<float>(s);
      } else {
        ++out.pairs_evaluated;
        s = LinkageFromScratch(st, sims, options.linkage, a, c);
      }
      if (s >= push_threshold) {
        const std::uint32_t lo_id = std::min(a, c);
        const std::uint32_t hi_id = std::max(a, c);
        out.entries.push_back(
            {s, lo_id, hi_id, st.version[lo_id], st.version[hi_id]});
      }
    }
  };

  // Performs the merge of slot b into slot a at similarity `sim`,
  // updating memoized similarities and pushing refreshed heap entries.
  auto do_merge = [&](std::uint32_t a, std::uint32_t b, double sim) {
    ++stats.merges;
    const double size_a = static_cast<double>(st.members[a].size());
    const double size_b = static_cast<double>(st.members[b].size());
    st.Merge(a, b);
    cs.MergeInto(a, b);
    merges.push_back({a, b, sim});

    // Memoized re-evaluation is O(1) per candidate — only worth spreading
    // for very wide ranges; the Total-Jaccard recomputation is O(dim/64)
    // per candidate and parallelizes at much smaller n.
    const std::size_t grain = memoized ? 4096 : 256;
    const std::size_t chunks = pool != nullptr ? pool->NumChunks(n, grain) : 1;
    if (chunks > 1) {
      std::vector<ChunkEmit> outs(chunks);
      pool->ParallelFor(0, n, grain, [&](const ThreadPool::Chunk& c) {
        reevaluate(a, b, size_a, size_b, c.begin, c.end, outs[c.index]);
      });
      for (const ChunkEmit& out : outs) flush_emit(out);
    } else {
      ChunkEmit out;
      reevaluate(a, b, size_a, size_b, 0, n, out);
      flush_emit(out);
    }
  };

  // Must-link preprocessing.
  {
    std::vector<std::uint32_t> slot_of(n);
    for (std::uint32_t i = 0; i < n; ++i) slot_of[i] = i;
    for (const auto& [x, y] : options.must_link) {
      const std::uint32_t a = slot_of[x];
      const std::uint32_t b = slot_of[y];
      if (a == b) continue;
      do_merge(a, b, 1.0);
      for (std::uint32_t i = 0; i < n; ++i) {
        if (slot_of[i] == b) slot_of[i] = a;
      }
    }
  }

  // Initial pairwise candidate scan over rows [lo, hi) x (row, n). Pure
  // reads of csim / cluster state, so chunks never interfere.
  auto scan_rows = [&](std::size_t lo, std::size_t hi, ChunkEmit& out) {
    for (std::uint32_t a = lo; a < hi; ++a) {
      if (!st.active[a]) continue;
      for (std::uint32_t b = a + 1; b < n; ++b) {
        if (!st.active[b]) continue;
        double s;
        if (memoized) {
          ++out.memo_hits;
          s = csim[static_cast<std::size_t>(a) * n + b];
        } else {
          ++out.pairs_evaluated;
          s = LinkageFromScratch(st, sims, options.linkage, a, b);
        }
        if (s >= push_threshold) {
          out.entries.push_back({s, a, b, st.version[a], st.version[b]});
        }
      }
    }
  };
  {
    // Row a costs n - a pairs; small grain + chunk oversubscription keep
    // the triangular load balanced.
    const std::size_t grain = memoized ? 64 : 8;
    const std::size_t chunks = pool != nullptr ? pool->NumChunks(n, grain) : 1;
    if (chunks > 1) {
      std::vector<ChunkEmit> outs(chunks);
      pool->ParallelFor(0, n, grain, [&](const ThreadPool::Chunk& c) {
        scan_rows(c.begin, c.end, outs[c.index]);
      });
      for (const ChunkEmit& out : outs) flush_emit(out);
    } else {
      ChunkEmit out;
      scan_rows(0, n, out);
      flush_emit(out);
    }
  }

  while (!heap.empty()) {
    if (count_mode && n - merges.size() <= options.max_clusters) break;
    const HeapEntry top = heap.top();
    heap.pop();
    if (!st.active[top.a] || !st.active[top.b]) {
      ++stats.stale_skips;
      continue;
    }
    if (st.version[top.a] != top.va || st.version[top.b] != top.vb) {
      ++stats.stale_skips;
      continue;
    }
    if (!count_mode && top.sim < options.tau_c_sim) break;
    // Cannot-link: skip the violating merge; the pair stays apart (new
    // constraints only accumulate through merges, so dropping the entry
    // permanently is sound).
    if (cs.Violates(top.a, top.b)) continue;
    do_merge(top.a, top.b, top.sim);
  }
  return st.Finish(std::move(merges));
}

}  // namespace heap_oracle
}  // namespace paygo

#endif  // PAYGO_TESTS_HEAP_HAC_ORACLE_H_
