#include "cluster/hac.h"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <queue>
#include <span>
#include <string>
#include <unordered_set>

#include "cluster/neighbor_graph.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "util/union_find.h"

namespace paygo {
namespace {

/// Per-call instrumentation accumulated in plain locals (the merge loops
/// are the hottest code in the library; no atomics inside them) and
/// flushed to the global registry once, on destruction: a RunOnGraph call
/// over many tau-components is one run.
struct HacRunStats {
  std::uint64_t pairs_evaluated = 0;  ///< Total-Jaccard linkages computed.
  std::uint64_t memo_hits = 0;        ///< Memoized cluster-sim reads.
  std::uint64_t merges = 0;
  std::uint64_t row_rescans = 0;      ///< Stale or merged rows rescanned.
  std::uint64_t components = 0;       ///< Row-NN engine runs.
  std::uint64_t largest_component = 0;  ///< Slots of the largest such run.

  ~HacRunStats() {
    StatsRegistry& reg = StatsRegistry::Global();
    static Counter* runs = reg.GetCounter("paygo.hac.runs");
    static Counter* pairs = reg.GetCounter("paygo.hac.pairs_evaluated");
    static Counter* memo = reg.GetCounter("paygo.hac.memo_hits");
    static Counter* merged = reg.GetCounter("paygo.hac.merges");
    static Counter* rescans = reg.GetCounter("paygo.hac.row_rescans");
    static Counter* comps = reg.GetCounter("paygo.hac.components");
    static Gauge* largest = reg.GetGauge("paygo.hac.largest_component");
    runs->Increment();
    pairs->Add(pairs_evaluated);
    memo->Add(memo_hits);
    merged->Add(merges);
    rescans->Add(row_rescans);
    comps->Add(components);
    largest->Set(static_cast<std::int64_t>(largest_component));
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

/// Cluster bookkeeping of the row-NN engine.
struct ClusterState {
  std::vector<std::vector<std::uint32_t>> members;  // per active slot
  std::vector<bool> active;
  // Total-Jaccard summaries: AND / OR of member feature vectors.
  std::vector<DynamicBitset> and_bits;
  std::vector<DynamicBitset> or_bits;
  bool track_bits = false;

  void Init(std::size_t n, std::span<const DynamicBitset> features,
            bool need_bits) {
    members.resize(n);
    active.assign(n, true);
    track_bits = need_bits;
    for (std::uint32_t i = 0; i < n; ++i) members[i] = {i};
    if (need_bits) {
      and_bits.assign(features.begin(), features.end());
      or_bits.assign(features.begin(), features.end());
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

/// Total Jaccard of slots a and b from their AND/OR feature summaries.
double TotalLinkage(const ClusterState& st, std::uint32_t a, std::uint32_t b) {
  // Intersection of all features across both clusters ...
  DynamicBitset all = st.and_bits[a];
  all &= st.and_bits[b];
  // ... over the union of all features across both clusters.
  DynamicBitset any = st.or_bits[a];
  any |= st.or_bits[b];
  return DynamicBitset::Jaccard(all, any);
}

Status ValidateConstraints(std::size_t n, const HacOptions& options) {
  for (const auto& [a, b] : options.must_link) {
    if (a >= n || b >= n) {
      return Status::OutOfRange("must_link schema id out of range");
    }
    if (a == b) return Status::InvalidArgument("must_link pair of a schema with itself");
  }
  for (const auto& [a, b] : options.cannot_link) {
    if (a >= n || b >= n) {
      return Status::OutOfRange("cannot_link schema id out of range");
    }
    if (a == b) {
      return Status::InvalidArgument(
          "cannot_link pair of a schema with itself");
    }
  }
  // Must-link closure must not contain a cannot-link pair.
  UnionFind uf(n);
  for (const auto& [a, b] : options.must_link) uf.Union(a, b);
  for (const auto& [a, b] : options.cannot_link) {
    if (uf.Find(a) == uf.Find(b)) {
      return Status::InvalidArgument(
          "conflicting feedback: schemas " + std::to_string(a) + " and " +
          std::to_string(b) + " are both must-linked and cannot-linked");
    }
  }
  return Status::OK();
}

/// The option checks shared by every entry point. \p graph adds the modes
/// RunOnGraph cannot run: each can merge across tau-components.
Status ValidateHacOptions(std::size_t n, const HacOptions& options,
                          bool graph) {
  // isfinite first: NaN passes every range comparison.
  if (!std::isfinite(options.tau_c_sim) || options.tau_c_sim < 0.0 ||
      options.tau_c_sim > 1.0) {
    return Status::InvalidArgument(
        "tau_c_sim must be a finite value in [0, 1]");
  }
  PAYGO_RETURN_NOT_OK(ValidateConstraints(n, options));
  if (!graph) return Status::OK();
  if (options.linkage == LinkageKind::kTotal) {
    return Status::InvalidArgument(
        "clustering over a neighbor graph does not support Total Jaccard "
        "(it needs cluster feature summaries, not pair similarities)");
  }
  if (options.max_clusters > 0) {
    return Status::InvalidArgument(
        "clustering over a neighbor graph cannot merge feature-disjoint "
        "clusters and so does not support max_clusters count mode");
  }
  if (options.tau_c_sim <= 0.0) {
    return Status::InvalidArgument(
        "clustering over a neighbor graph requires tau_c_sim > 0 "
        "(zero-similarity pairs are not materialized)");
  }
  return Status::OK();
}

Status ValidateFeatures(std::span<const DynamicBitset> features) {
  for (std::size_t i = 1; i < features.size(); ++i) {
    if (features[i].size() != features[0].size()) {
      return Status::InvalidArgument(
          "feature vectors have inconsistent dimensionality");
    }
  }
  return Status::OK();
}

ConstraintState BuildConstraintState(std::size_t n,
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

/// Merge keys of every slot pair i < j, packed as the strict upper
/// triangle of an n x n matrix: row i holds columns i+1..n-1 contiguously.
/// n(n-1)/2 doubles take the bytes of a full n x n float matrix. The
/// cells start uninitialized: every seeder writes every cell of its rows.
class PairKeys {
 public:
  explicit PairKeys(std::size_t n) : row_start_(n) {
    std::size_t offset = 0;
    for (std::size_t i = 0; i < n; ++i) {
      row_start_[i] = offset;
      offset += n - i - 1;
    }
    const std::size_t bytes = offset * sizeof(double);
    void* p = nullptr;
    if (bytes >= Hac::kHugePageKeyBytes) {
      if (posix_memalign(&p, kHugePageBytes, bytes) != 0) p = nullptr;
#ifdef MADV_HUGEPAGE
      // Only the whole 2 MiB blocks: a huge page over the partial tail
      // block would back bytes the triangle never uses.
      if (p != nullptr) {
        madvise(p, bytes / kHugePageBytes * kHugePageBytes, MADV_HUGEPAGE);
      }
#endif
    } else if (bytes > 0) {
      p = std::malloc(bytes);
    }
    if (p == nullptr && bytes > 0) throw std::bad_alloc();
    keys_.reset(static_cast<double*>(p));
  }

  /// Row i's cells for j = i+1..n-1, at index j - i - 1.
  double* Row(std::uint32_t i) { return keys_.get() + row_start_[i]; }

  /// The cell of the unordered pair {x, y}, x != y.
  double& Cell(std::uint32_t x, std::uint32_t y) {
    if (x > y) std::swap(x, y);
    return Row(x)[y - x - 1];
  }

 private:
  static constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;
  struct Free {
    void operator()(double* p) const { std::free(p); }
  };

  std::vector<std::size_t> row_start_;
  std::unique_ptr<double[], Free> keys_;
};

/// Fills the initial merge keys of rows [lo, hi): cell (i, j) for every
/// j > i. Called from concurrent chunks with disjoint row ranges.
using KeySeeder =
    std::function<void(std::size_t lo, std::size_t hi, PairKeys& keys)>;

constexpr std::uint32_t kNoNeighbor =
    std::numeric_limits<std::uint32_t>::max();
/// Merge-sweep iterations between a cell prefetch and its use.
constexpr std::uint32_t kPrefetchAhead = 32;
/// Key of a pair with a retired slot, and the bound of a row without a
/// candidate. Below every threshold, including count mode's -1.
constexpr double kNoKey = -std::numeric_limits<double>::infinity();

/// The row-NN engine: memoized cluster similarities (the thesis's O(|U|)
/// Lance-Williams update per merge) with per-row nearest-neighbour bounds
/// (the "generic" algorithm of Müllner, arXiv:1109.2378) in place of a
/// global priority queue.
///
/// Every active pair (i, j), i < j, has a double merge key: the stored
/// float similarity at seeding, the unrounded Lance-Williams result after a merge, or
/// the from-scratch linkage for Total Jaccard. Lance-Williams reads the key
/// rounded to float, the precision the memo has always had. Row i keeps a
/// bound (nnsim[i], nn[i]) on its best candidate j > i — key at or above
/// the threshold, not cannot-linked, ties to the lowest j. A bound is exact
/// unless stale[i] is set, in which case it may overestimate the row's
/// best. The selected merge is the best bound by (key desc, row asc); a
/// stale winner is rescanned and the selection repeated. That order is the
/// (similarity desc, slot_a asc, slot_b asc) order of a max-heap over all
/// pairs, so the dendrogram is the same merge for merge.
///
/// \p seed_keys fills the memoized linkages' initial keys; the dense path
/// runs the bitset Jaccard kernel per row (or copies matrix rows), a
/// tau-component scatters graph rows. \p features
/// is read only by Total Jaccard. \p pool (null = serial) runs the O(n^2)
/// phases. At any width the result is bit-identical to serial: every key
/// cell and every row bound is written by the chunk that owns its row (or
/// its candidate c in a merge sweep), each from the same inputs the serial
/// path reads, and no FP reduction crosses chunks.
HacResult RunFast(std::size_t n, std::span<const DynamicBitset> features,
                  const KeySeeder& seed_keys, const HacOptions& options,
                  ThreadPool* pool, HacRunStats& stats) {
  ++stats.components;
  stats.largest_component = std::max<std::uint64_t>(stats.largest_component, n);
  ClusterState st;
  st.Init(n, features, options.linkage == LinkageKind::kTotal);
  ConstraintState cs = BuildConstraintState(n, options);
  const bool constrained = cs.Active();

  // Runs body(lo, hi) over [0, count) in chunks of at least `grain`.
  auto parallel_for = [&](std::size_t count, std::size_t grain,
                          auto&& body) {
    if (pool != nullptr) {
      pool->ParallelFor(0, count, grain, [&](const ThreadPool::Chunk& c) {
        body(c.begin, c.end);
      });
    } else {
      body(0, count);
    }
  };

  // The active slots, ascending. Retiring a slot is an O(n) memmove of
  // 4-byte ids; in exchange the merge sweep and the best-bound argmax
  // visit only active slots, in slot order, so they keep the slot
  // order's tie-breaks.
  std::vector<std::uint32_t> live(n);
  for (std::uint32_t i = 0; i < n; ++i) live[i] = i;

  // For the Lance-Williams-updatable linkages the keys double as the memo;
  // Total Jaccard recomputes each key from the AND/OR summaries
  // (O(dim L / 64)), so its keys are filled once the must-links are in.
  const bool memoized = options.linkage != LinkageKind::kTotal;
  // Total Jaccard writes every active row at seeding; rows retired by a
  // must-link merge before then are never read.
  PairKeys keys(n);
  if (memoized) {
    parallel_for(n, SimilarityMatrix::kPanelRows,
                [&](std::size_t lo, std::size_t hi) {
                  seed_keys(lo, hi, keys);
                });
  }

  // In count mode (max_clusters set) the similarity threshold is ignored:
  // every pair is a candidate and merging stops at the target count.
  const bool count_mode = options.max_clusters > 0;
  const double push_threshold = count_mode ? -1.0 : options.tau_c_sim;

  std::vector<double> nnsim(n, kNoKey);
  std::vector<std::uint32_t> nn(n, kNoNeighbor);
  std::vector<std::uint8_t> stale(n, 0);

  // Recomputes row i's bound exactly. Retired slots' cells hold kNoKey, so
  // only the threshold and cannot-link need checking.
  auto rescan = [&](std::uint32_t i) {
    const double* row = keys.Row(i);
    double best = kNoKey;
    std::uint32_t best_j = kNoNeighbor;
    for (std::uint32_t j = i + 1; j < n; ++j) {
      const double k = row[j - i - 1];
      // Strict >: the lowest j wins a tie.
      if (k > best && k >= push_threshold &&
          !(constrained && cs.Violates(i, j))) {
        best = k;
        best_j = j;
      }
    }
    nnsim[i] = best;
    nn[i] = best_j;
    stale[i] = 0;
  };

  // Re-evaluation against the freshly merged slot a (b retired): the
  // per-merge O(|U|) loop over the active candidates at live positions
  // [lo, hi). Iteration c reads and writes only its own cells {c, a} and
  // {c, b} and its own row state, so disjoint ranges never interfere.
  // Before the rows are seeded (must-link preprocessing) only the keys are
  // maintained.
  auto sweep = [&](std::uint32_t a, std::uint32_t b, double size_a,
                   double size_b, bool seeded, std::size_t lo,
                   std::size_t hi) {
    const std::uint32_t strided_end = std::max(a, b);
    for (std::size_t p = lo; p < hi; ++p) {
      // Below the larger slot, cell {c, b} (and below both, {c, a} too)
      // sits in row c: a new row every iteration, at a varying stride the
      // hardware prefetcher cannot follow.
      if (p + kPrefetchAhead < hi) {
        const std::uint32_t ahead = live[p + kPrefetchAhead];
        if (ahead < strided_end && ahead != a) {
          __builtin_prefetch(&keys.Cell(ahead, a), 1);
          __builtin_prefetch(&keys.Cell(ahead, b), 1);
        }
      }
      const std::uint32_t c = live[p];
      if (c == a) continue;
      double& key_ca = keys.Cell(c, a);
      double& key_cb = keys.Cell(c, b);
      double s;
      if (memoized) {
        const double sca = static_cast<float>(key_ca);
        const double scb = static_cast<float>(key_cb);
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
        // A pair re-evaluated by a must-link merge is seeded again from its
        // float memo, and the better of the two values is its key.
        if (!seeded) {
          s = std::max(s, static_cast<double>(static_cast<float>(s)));
        }
      } else {
        s = TotalLinkage(st, a, c);
      }
      key_ca = s;
      key_cb = kNoKey;
      if (!seeded) continue;
      if (c < a) {
        // Row c sees both a and b. A new key ranking above the bound is the
        // row's exact best (the bound still dominates every other cell);
        // otherwise a bound on a or b may now overestimate.
        if (s >= push_threshold &&
            (s > nnsim[c] || (s == nnsim[c] && a < nn[c])) &&
            !(constrained && cs.Violates(c, a))) {
          nnsim[c] = s;
          nn[c] = a;
          stale[c] = 0;
        } else if (nn[c] == a || nn[c] == b) {
          stale[c] = 1;
        }
      } else if (c < b && nn[c] == b) {
        stale[c] = 1;  // row c sees b but not a
      }
    }
  };

  std::vector<HacMerge> merges;
  // Merges slot b into slot a at similarity `sim`. After seeding a < b.
  auto do_merge = [&](std::uint32_t a, std::uint32_t b, double sim,
                      bool seeded) {
    PAYGO_TRACE_SPAN("hac.merge");
    ++stats.merges;
    const double size_a = static_cast<double>(st.members[a].size());
    const double size_b = static_cast<double>(st.members[b].size());
    st.Merge(a, b);
    cs.MergeInto(a, b);
    live.erase(std::lower_bound(live.begin(), live.end(), b));
    merges.push_back({a, b, sim});
    if (!seeded && !memoized) return;  // Total keys are filled at seeding
    keys.Cell(a, b) = kNoKey;

    // Memoized re-evaluation is O(1) per candidate — only worth spreading
    // for very wide ranges; the Total-Jaccard recomputation is O(dim/64)
    // per candidate and parallelizes at much smaller n.
    parallel_for(live.size(), memoized ? 4096 : 256,
                 [&](std::size_t lo, std::size_t hi) {
                   sweep(a, b, size_a, size_b, seeded, lo, hi);
                 });
    const std::uint64_t candidates = n - merges.size() - 1;  // active c != a
    if (memoized) {
      stats.memo_hits += 2 * candidates;
    } else {
      stats.pairs_evaluated += candidates;
    }
    if (!seeded) return;
    rescan(a);
    ++stats.row_rescans;
    nnsim[b] = kNoKey;
    nn[b] = kNoNeighbor;
    stale[b] = 0;
  };

  // Must-link preprocessing.
  {
    std::vector<std::uint32_t> slot_of(n);
    for (std::uint32_t i = 0; i < n; ++i) slot_of[i] = i;
    for (const auto& [x, y] : options.must_link) {
      const std::uint32_t a = slot_of[x];
      const std::uint32_t b = slot_of[y];
      if (a == b) continue;
      do_merge(a, b, 1.0, /*seeded=*/false);
      for (std::uint32_t i = 0; i < n; ++i) {
        if (slot_of[i] == b) slot_of[i] = a;
      }
    }
  }

  // Seed every active row's bound (and, for Total Jaccard, its keys). Row
  // i costs n - i cells; a small grain plus chunk oversubscription keeps
  // the triangular load balanced.
  {
    PAYGO_TRACE_SPAN("hac.parallel_pairs");
    parallel_for(n, memoized ? 64 : 8, [&](std::size_t lo, std::size_t hi) {
      for (std::uint32_t i = lo; i < hi; ++i) {
        if (!st.active[i]) continue;
        if (!memoized) {
          double* row = keys.Row(i);
          for (std::uint32_t j = i + 1; j < n; ++j) {
            row[j - i - 1] = st.active[j] ? TotalLinkage(st, i, j) : kNoKey;
          }
        }
        rescan(i);
      }
    });
    if (!memoized) {
      const std::uint64_t m = n - merges.size();  // active slots
      stats.pairs_evaluated += m * (m - 1) / 2;
    }
  }

  for (;;) {
    if (count_mode && n - merges.size() <= options.max_clusters) break;
    std::uint32_t best = kNoNeighbor;
    double best_sim = kNoKey;
    for (const std::uint32_t i : live) {
      if (nnsim[i] > best_sim) {  // strict: the lowest row wins a tie
        best_sim = nnsim[i];
        best = i;
      }
    }
    if (best == kNoNeighbor) break;  // no admissible pair left
    if (stale[best]) {
      rescan(best);
      ++stats.row_rescans;
      continue;
    }
    do_merge(best, nn[best], best_sim, /*seeded=*/true);
  }
  return st.Finish(std::move(merges));
}

/// Dense path: one engine run over the whole corpus.
Result<HacResult> RunDense(std::span<const DynamicBitset> features,
                           const KeySeeder& seeder,
                           const HacOptions& options) {
  PAYGO_TRACE_SPAN("hac.run");
  HacRunStats stats;
  const std::size_t n = features.size();
  const std::size_t width = ThreadPool::ResolveThreadCount(options.num_threads);
  std::unique_ptr<ThreadPool> pool;
  if (width > 1 && n > 1) pool = std::make_unique<ThreadPool>(width);
  return RunFast(n, features, seeder, options, pool.get(), stats);
}

constexpr std::uint32_t kNoComponent =
    std::numeric_limits<std::uint32_t>::max();
/// Largest merge-key triangle the graph path allocates for one
/// tau-component: c(c-1)/2 doubles, so components of up to 23,170 schemas.
constexpr std::size_t kMaxComponentKeyBytes = std::size_t{2} << 30;
/// Graph edges this many doubles below tau still join components. An
/// Avg-linkage key is a double average of float similarities and can round
/// a few ulps above the largest of them; with the slack, every cross
/// component key stays strictly below tau. A larger component is still
/// exact, only less split.
constexpr int kJoinSlackUlps = 8;

/// The tau-components of two or more schemas.
struct TauComponents {
  /// Members of each component, ascending; largest component first, ties
  /// by smallest member.
  std::vector<std::vector<std::uint32_t>> members;
  /// Per schema: its component, or kNoComponent when it is alone.
  std::vector<std::uint32_t> component_of;
  /// Per schema: its index inside its component.
  std::vector<std::uint32_t> local_of;
};

TauComponents FindTauComponents(const NeighborGraph& graph,
                                const HacOptions& options) {
  const std::size_t n = graph.num_nodes();
  UnionFind uf(n);
  for (const auto& [x, y] : options.must_link) uf.Union(x, y);
  double join_at = options.tau_c_sim;
  for (int k = 0; k < kJoinSlackUlps; ++k) {
    join_at = std::nextafter(join_at, 0.0);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto [begin, end] = graph.Row(i);
    for (const NeighborEdge* e = begin; e != end; ++e) {
      if (e->id > i && e->sim >= join_at) uf.Union(i, e->id);
    }
  }

  std::vector<std::uint32_t> root(n);
  std::vector<std::uint32_t> size(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    root[i] = uf.Find(i);
    ++size[root[i]];
  }
  TauComponents tc;
  std::vector<std::uint32_t> index_of_root(n, kNoComponent);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t r = root[i];
    if (size[r] < 2) continue;
    if (index_of_root[r] == kNoComponent) {
      index_of_root[r] = static_cast<std::uint32_t>(tc.members.size());
      tc.members.emplace_back().reserve(size[r]);
    }
    tc.members[index_of_root[r]].push_back(i);
  }
  std::stable_sort(tc.members.begin(), tc.members.end(),
                   [](const auto& x, const auto& y) {
                     return x.size() > y.size();
                   });
  tc.component_of.assign(n, kNoComponent);
  tc.local_of.assign(n, 0);
  for (std::uint32_t k = 0; k < tc.members.size(); ++k) {
    const auto& members = tc.members[k];
    for (std::uint32_t li = 0; li < members.size(); ++li) {
      tc.component_of[members[li]] = k;
      tc.local_of[members[li]] = li;
    }
  }
  return tc;
}

/// Clusters tau-component \p k with the row-NN engine. Its members' graph
/// rows are scattered into the local key triangle (an absent edge keeps
/// key 0, the exact Jaccard of the pair) and its constraints renumbered to
/// local slots. Local slots follow global schema order, so every tie
/// breaks as in one dense run over the whole corpus. Returns the merges
/// and clusters in global schema ids.
HacResult RunComponent(const NeighborGraph& graph, const TauComponents& tc,
                       std::uint32_t k, HacOptions local, ThreadPool* pool,
                       HacRunStats& stats) {
  const std::vector<std::uint32_t>& members = tc.members[k];
  const KeySeeder from_graph = [&](std::size_t lo, std::size_t hi,
                                   PairKeys& keys) {
    for (std::size_t li = lo; li < hi; ++li) {
      const std::uint32_t g = members[li];
      double* key = keys.Row(static_cast<std::uint32_t>(li));
      // The graph holds only the edges it has; an absent edge must read
      // key 0, the exact Jaccard of a pair sharing no feature.
      std::fill_n(key, members.size() - li - 1, 0.0);
      const auto [begin, end] = graph.Row(g);
      const NeighborEdge* e = std::upper_bound(
          begin, end, g,
          [](std::uint32_t id, const NeighborEdge& x) { return id < x.id; });
      for (; e != end; ++e) {
        if (tc.component_of[e->id] != k) continue;
        key[tc.local_of[e->id] - li - 1] = e->sim;
      }
    }
  };
  HacResult r = RunFast(members.size(), /*features=*/{}, from_graph, local,
                        pool, stats);
  for (HacMerge& m : r.merges) {
    m.slot_a = members[m.slot_a];
    m.slot_b = members[m.slot_b];
  }
  for (auto& cluster : r.clusters) {
    for (std::uint32_t& id : cluster) id = members[id];
  }
  return r;
}

/// Graph path: one row-NN run per tau-component, the runs interleaved into
/// the dense engine's merge order. ResourceExhausted, before anything is
/// clustered, when the largest component's key triangle would pass
/// kMaxComponentKeyBytes.
Result<HacResult> RunOnComponents(const NeighborGraph& graph,
                                  const HacOptions& options) {
  PAYGO_TRACE_SPAN("hac.run");
  HacRunStats stats;
  const std::size_t n = graph.num_nodes();
  const TauComponents tc = FindTauComponents(graph, options);
  const std::size_t num = tc.members.size();
  if (num > 0) {
    const std::size_t c = tc.members[0].size();
    const std::size_t bytes = c * (c - 1) / 2 * sizeof(double);
    if (bytes > kMaxComponentKeyBytes) {
      return Status::ResourceExhausted(
          "tau-component of " + std::to_string(c) + " schemas needs a " +
          std::to_string(bytes) + "-byte merge-key triangle, over the " +
          std::to_string(kMaxComponentKeyBytes) +
          "-byte budget; raise tau_c_sim or drop the features that join it");
    }
  }

  // Per-component options: the same linkage and tau, the constraints that
  // can bind inside the component in local slots. Must-link pairs keep
  // their option order. A cannot-link pair across components can never be
  // violated and is dropped.
  std::vector<HacOptions> local(num);
  for (HacOptions& o : local) {
    o.linkage = options.linkage;
    o.tau_c_sim = options.tau_c_sim;
  }
  for (const auto& [x, y] : options.must_link) {
    local[tc.component_of[x]].must_link.emplace_back(tc.local_of[x],
                                                     tc.local_of[y]);
  }
  for (const auto& [x, y] : options.cannot_link) {
    const std::uint32_t k = tc.component_of[x];
    if (k == kNoComponent || k != tc.component_of[y]) continue;
    local[k].cannot_link.emplace_back(tc.local_of[x], tc.local_of[y]);
  }

  // Components run largest first, one after another on the one pool; the
  // engine splits a phase across it only when the phase is large enough.
  std::vector<HacResult> runs(num);
  const std::size_t width = ThreadPool::ResolveThreadCount(options.num_threads);
  std::unique_ptr<ThreadPool> pool;
  if (width > 1 && num > 0) pool = std::make_unique<ThreadPool>(width);
  for (std::uint32_t k = 0; k < num; ++k) {
    runs[k] = RunComponent(graph, tc, k, std::move(local[k]), pool.get(),
                           stats);
  }

  // Interleave. The dense engine does the must-link merges first, in
  // option order, skipping pairs already joined; each component's run
  // starts with its own share of them in that same order.
  HacResult result;
  std::vector<std::size_t> cursor(num, 0);
  {
    UnionFind joined(n);
    for (const auto& [x, y] : options.must_link) {
      if (joined.Find(x) == joined.Find(y)) continue;
      joined.Union(x, y);
      const std::uint32_t c = tc.component_of[x];
      result.merges.push_back(runs[c].merges[cursor[c]++]);
    }
  }
  // Then it always takes the best merge left anywhere. Components do not
  // interact, so that is the best next merge of any component's sequence:
  // a k-way merge on (similarity desc, slot_a asc, slot_b asc).
  auto after = [&](std::uint32_t x, std::uint32_t y) {
    const HacMerge& a = runs[x].merges[cursor[x]];
    const HacMerge& b = runs[y].merges[cursor[y]];
    if (a.similarity != b.similarity) return a.similarity < b.similarity;
    if (a.slot_a != b.slot_a) return a.slot_a > b.slot_a;
    return a.slot_b > b.slot_b;
  };
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      decltype(after)>
      next_merge(after);
  for (std::uint32_t c = 0; c < num; ++c) {
    if (cursor[c] < runs[c].merges.size()) next_merge.push(c);
  }
  while (!next_merge.empty()) {
    const std::uint32_t c = next_merge.top();
    next_merge.pop();
    result.merges.push_back(runs[c].merges[cursor[c]++]);
    if (cursor[c] < runs[c].merges.size()) next_merge.push(c);
  }

  for (std::uint32_t i = 0; i < n; ++i) {
    if (tc.component_of[i] == kNoComponent) result.clusters.push_back({i});
  }
  for (HacResult& r : runs) {
    for (auto& cluster : r.clusters) {
      result.clusters.push_back(std::move(cluster));
    }
  }
  std::sort(result.clusters.begin(), result.clusters.end(),
            [](const auto& x, const auto& y) { return x[0] < y[0]; });
  return result;
}

}  // namespace

std::uint32_t HacResult::ClusterOf(std::uint32_t schema_id) const {
  for (std::uint32_t r = 0; r < clusters.size(); ++r) {
    if (std::binary_search(clusters[r].begin(), clusters[r].end(),
                           schema_id)) {
      return r;
    }
  }
  assert(false && "schema not in any cluster");
  return static_cast<std::uint32_t>(clusters.size());
}

std::size_t HacResult::NumSingletons() const {
  std::size_t c = 0;
  for (const auto& cl : clusters) {
    if (cl.size() == 1) ++c;
  }
  return c;
}

Result<HacResult> Hac::Run(std::span<const DynamicBitset> features,
                           const SimilarityMatrix& sims,
                           const HacOptions& options) {
  if (features.size() != sims.size()) {
    return Status::InvalidArgument(
        "feature count does not match similarity matrix size");
  }
  PAYGO_RETURN_NOT_OK(
      ValidateHacOptions(features.size(), options, /*graph=*/false));
  PAYGO_RETURN_NOT_OK(ValidateFeatures(features));
  if (features.empty()) return HacResult{};
  const std::size_t n = features.size();
  // Full rows come from panel gathers: cell (i, j > i) is a column read of
  // the matrix's lower triangle.
  const KeySeeder from_matrix = [&](std::size_t lo, std::size_t hi,
                                    PairKeys& keys) {
    sims.ForEachRow(lo, hi, [&](std::size_t i, std::span<const float> row) {
      double* key = keys.Row(i);
      for (std::size_t j = i + 1; j < n; ++j) key[j - i - 1] = row[j];
    });
  };
  return RunDense(features, from_matrix, options);
}

Result<HacResult> Hac::Run(std::span<const DynamicBitset> features,
                           const HacOptions& options) {
  PAYGO_RETURN_NOT_OK(
      ValidateHacOptions(features.size(), options, /*graph=*/false));
  PAYGO_RETURN_NOT_OK(ValidateFeatures(features));
  if (features.empty()) return HacResult{};
  const std::size_t n = features.size();
  std::vector<std::uint32_t> counts(n);
  for (std::size_t k = 0; k < n; ++k) {
    counts[k] = static_cast<std::uint32_t>(features[k].Count());
  }
  // Row i's keys are float(Jaccard(F_i, F_j)) for j > i, one kernel call
  // per row: the matrix's cells, computed where they are consumed, with
  // no matrix. The float row goes through one buffer per chunk.
  const KeySeeder from_features = [&](std::size_t lo, std::size_t hi,
                                      PairKeys& keys) {
    std::vector<float> row(n);
    for (std::size_t i = lo; i < hi; ++i) {
      DynamicBitset::JaccardRow(features.subspan(i + 1),
                                std::span(counts).subspan(i + 1), features[i],
                                row.data());
      double* key = keys.Row(static_cast<std::uint32_t>(i));
      for (std::size_t t = 0; t + i + 1 < n; ++t) key[t] = row[t];
    }
  };
  return RunDense(features, from_features, options);
}

Result<HacResult> Hac::RunOnGraph(const NeighborGraph& graph,
                                  const HacOptions& options) {
  PAYGO_RETURN_NOT_OK(
      ValidateHacOptions(graph.num_nodes(), options, /*graph=*/true));
  if (graph.num_nodes() == 0) return HacResult{};
  return RunOnComponents(graph, options);
}

}  // namespace paygo
