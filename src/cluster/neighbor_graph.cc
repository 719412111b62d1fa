#include "cluster/neighbor_graph.h"

#include <algorithm>

#include "obs/stats.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace paygo {

namespace {

/// Flushes build telemetry to the global registry once per Build call.
void FlushStats(const NeighborGraphStats& s) {
  static Counter* generated =
      StatsRegistry::Global().GetCounter("paygo.hac.sparse.candidates_generated");
  static Counter* edges =
      StatsRegistry::Global().GetCounter("paygo.hac.sparse.graph_edges");
  static Counter* builds =
      StatsRegistry::Global().GetCounter("paygo.hac.sparse.graph_builds");
  generated->Add(s.candidates_generated);
  edges->Add(s.num_edges);
  builds->Increment();
}

/// One undirected edge, a < b, before the rows are laid out.
struct Triple {
  std::uint32_t a, b;
  float sim;
};

}  // namespace

float NeighborGraph::Similarity(std::uint32_t a, std::uint32_t b) const {
  auto [begin, end] = Row(a);
  const NeighborEdge* it = std::lower_bound(
      begin, end, b,
      [](const NeighborEdge& e, std::uint32_t id) { return e.id < id; });
  if (it != end && it->id == b) return it->sim;
  return 0.0f;
}

Result<NeighborGraph> NeighborGraph::Build(
    std::span<const DynamicBitset> features,
    const NeighborGraphOptions& options) {
  return Build(features, FeaturePostings(features), options);
}

Result<NeighborGraph> NeighborGraph::Build(
    std::span<const DynamicBitset> features,
    const FeaturePostings& postings, const NeighborGraphOptions& options) {
  PAYGO_TRACE_SPAN("hac.neighbor_graph");
  const std::size_t n = features.size();
  for (const DynamicBitset& f : features) {
    if (f.size() != features.front().size()) {
      return Status::InvalidArgument(
          "all feature vectors must have the same dimensionality");
    }
  }
  if (postings.num_schemas() != n) {
    return Status::InvalidArgument(
        "the feature postings index a different number of schemas");
  }
  ThreadPool pool(ThreadPool::ResolveThreadCount(options.num_threads));

  // Lists longer than the hot limit are skipped below; the schemas on them
  // are heavy.
  const std::size_t hot_limit = options.hot_posting_limit > 0
                                    ? options.hot_posting_limit
                                    : std::max<std::size_t>(64, n / 8);
  std::vector<std::uint8_t> heavy(n, 0);
  for (std::size_t f = 0; f < postings.dim(); ++f) {
    const std::span<const std::uint32_t> list = postings.List(f);
    if (list.size() <= hot_limit) continue;
    for (std::uint32_t i : list) heavy[i] = 1;
  }
  std::vector<std::uint32_t> heavy_ids;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (heavy[i]) heavy_ids.push_back(i);
  }

  // Per-chunk candidate generation with flat scratch accumulators. Each
  // chunk owns its rows outright, so the only cross-chunk artifact is the
  // triple buffer, merged in ascending chunk order below — the serial
  // iteration order exactly, at any thread count.
  struct ChunkOut {
    std::vector<Triple> triples;
    std::uint64_t generated = 0;
  };
  std::vector<ChunkOut> outs(pool.NumChunks(n, 8));
  pool.ParallelFor(0, n, 8, [&](const ThreadPool::Chunk& chunk) {
    ChunkOut& out = outs[chunk.index];
    std::vector<std::uint32_t> counts(n, 0);
    std::vector<std::uint32_t> touched;
    std::vector<std::size_t> bits;
    for (std::size_t ai = chunk.begin; ai < chunk.end; ++ai) {
      const std::uint32_t a = static_cast<std::uint32_t>(ai);
      touched.clear();
      bits.clear();
      features[a].AppendSetBits(&bits);
      for (std::size_t f : bits) {
        const std::span<const std::uint32_t> list = postings.List(f);
        if (list.size() > hot_limit) continue;
        // Postings are ascending; skip to entries past `a`.
        for (auto it = std::upper_bound(list.begin(), list.end(), a);
             it != list.end(); ++it) {
          const std::uint32_t b = *it;
          if (counts[b]++ == 0) touched.push_back(b);
        }
      }
      // Pairs whose shared features are all hot never appear in a posting
      // list; both endpoints are heavy, so the heavy sweep restores them.
      // A heavy row's counts are partial (hot features skipped), so *all*
      // of its candidates are re-verified with the exact kernel instead of
      // the count formula.
      if (heavy[a]) {
        for (std::uint32_t b : heavy_ids) {
          if (b <= a) continue;
          if (counts[b]++ == 0) touched.push_back(b);
        }
      }
      out.generated += touched.size();
      for (std::uint32_t b : touched) {
        double sim;
        if (heavy[a]) {
          sim = DynamicBitset::Jaccard(features[a], features[b]);
        } else {
          const std::uint64_t inter = counts[b];
          const std::uint64_t uni = std::uint64_t{postings.Popcount(a)} +
                                    postings.Popcount(b) - inter;
          sim = uni == 0
                    ? 0.0
                    : static_cast<double>(inter) / static_cast<double>(uni);
        }
        counts[b] = 0;
        if (sim > 0.0) out.triples.push_back({a, b, static_cast<float>(sim)});
      }
    }
  });

  NeighborGraph g;
  std::vector<Triple> upper;
  for (ChunkOut& out : outs) {
    upper.insert(upper.end(), out.triples.begin(), out.triples.end());
    g.stats_.candidates_generated += out.generated;
  }
  g.stats_.num_edges = upper.size();

  g.nonempty_.resize(n);
  g.offsets_.assign(n + 1, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    g.nonempty_[i] = postings.Popcount(i) > 0 ? 1 : 0;
  }
  for (const Triple& t : upper) {
    ++g.offsets_[t.a + 1];
    ++g.offsets_[t.b + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) g.offsets_[i] += g.offsets_[i - 1];
  g.edges_.resize(upper.size() * 2);
  std::vector<std::uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Triple& t : upper) {
    g.edges_[cursor[t.a]++] = NeighborEdge{t.b, t.sim};
    g.edges_[cursor[t.b]++] = NeighborEdge{t.a, t.sim};
  }
  // Each row was filled in triple order; normalize to id-ascending. Rows
  // are disjoint slots, so the parallel sort is trivially deterministic.
  pool.ParallelFor(0, n, 64, [&](const ThreadPool::Chunk& chunk) {
    for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
      std::sort(g.edges_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[i]),
                g.edges_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[i + 1]),
                [](const NeighborEdge& x, const NeighborEdge& y) {
                  return x.id < y.id;
                });
    }
  });
  FlushStats(g.stats_);
  return g;
}

NeighborGraph::NeighborGraph(const NeighborGraph& base,
                             std::span<const JaccardEntry> row, bool nonempty)
    : nonempty_(base.nonempty_), stats_(base.stats_) {
  const std::size_t n = base.num_nodes();
  const auto id = static_cast<std::uint32_t>(n);
  nonempty_.push_back(nonempty ? 1 : 0);
  offsets_.resize(n + 2);
  edges_.reserve(base.edges_.size() + 2 * row.size());
  // Every stored id is below the new one, so it goes last in each touched
  // row and the rows stay sorted.
  auto next = row.begin();
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto [begin, end] = base.Row(i);
    edges_.insert(edges_.end(), begin, end);
    if (next != row.end() && next->id == i) {
      edges_.push_back(NeighborEdge{id, static_cast<float>(next->sim)});
      ++next;
    }
    offsets_[i + 1] = edges_.size();
  }
  for (const JaccardEntry& e : row) {
    edges_.push_back(NeighborEdge{e.id, static_cast<float>(e.sim)});
  }
  offsets_[n + 1] = edges_.size();
  stats_.candidates_generated += row.size();
  stats_.num_edges = edges_.size() / 2;
}

}  // namespace paygo
