#include "baseline/mdc_clustering.h"

#include <algorithm>
#include <cassert>
#include <queue>

namespace paygo {
namespace {

/// Per-cluster model: term-occurrence counts (how many member schemas
/// contain each term) and their sum.
struct ClusterModel {
  std::vector<std::uint32_t> counts;
  std::size_t total = 0;
  std::vector<std::uint32_t> members;
  bool active = true;
  std::uint32_t version = 0;

  void Absorb(ClusterModel& other) {
    for (std::size_t t = 0; t < counts.size(); ++t) {
      counts[t] += other.counts[t];
    }
    total += other.total;
    members.insert(members.end(), other.members.begin(),
                   other.members.end());
    other.active = false;
    other.members.clear();
    other.members.shrink_to_fit();
    ++version;
    ++other.version;
  }
};

/// A cluster pair in the merge heap; stale once either side's version
/// moves on.
struct MergeCandidate {
  double sim;
  std::uint32_t a, b, va, vb;
  bool operator<(const MergeCandidate& o) const {
    if (sim != o.sim) return sim < o.sim;
    if (a != o.a) return a > o.a;
    return b > o.b;
  }
};

/// Greedy anchor selection: most frequent terms that never co-occur with
/// an already chosen anchor in any schema.
std::vector<std::uint32_t> SelectAnchors(const Lexicon& lexicon,
                                         std::size_t k,
                                         std::size_t min_frequency) {
  std::vector<std::uint32_t> by_freq(lexicon.dim());
  for (std::uint32_t t = 0; t < lexicon.dim(); ++t) by_freq[t] = t;
  std::sort(by_freq.begin(), by_freq.end(),
            [&](std::uint32_t x, std::uint32_t y) {
              if (lexicon.TermFrequency(x) != lexicon.TermFrequency(y)) {
                return lexicon.TermFrequency(x) > lexicon.TermFrequency(y);
              }
              return x < y;
            });
  std::vector<std::uint32_t> anchors;
  for (std::uint32_t t : by_freq) {
    if (anchors.size() >= k) break;
    if (lexicon.TermFrequency(t) < min_frequency) break;
    bool co_occurs = false;
    for (std::size_t i = 0; i < lexicon.num_schemas() && !co_occurs; ++i) {
      const auto& terms = lexicon.schema_terms(i);
      if (!std::binary_search(terms.begin(), terms.end(), t)) continue;
      for (std::uint32_t a : anchors) {
        if (std::binary_search(terms.begin(), terms.end(), a)) {
          co_occurs = true;
          break;
        }
      }
    }
    if (!co_occurs) anchors.push_back(t);
  }
  return anchors;
}

}  // namespace

double MdcBaseline::ChiSquareSimilarity(
    const std::vector<std::uint32_t>& counts_a, std::size_t total_a,
    const std::vector<std::uint32_t>& counts_b, std::size_t total_b) {
  assert(counts_a.size() == counts_b.size());
  if (total_a == 0 || total_b == 0) return 0.0;
  const double na = static_cast<double>(total_a);
  const double nb = static_cast<double>(total_b);
  double chi2 = 0.0;
  std::size_t dof = 0;
  for (std::size_t t = 0; t < counts_a.size(); ++t) {
    const double joint =
        static_cast<double>(counts_a[t]) + static_cast<double>(counts_b[t]);
    if (joint <= 0.0) continue;
    ++dof;
    const double ea = joint * na / (na + nb);
    const double eb = joint * nb / (na + nb);
    const double da = static_cast<double>(counts_a[t]) - ea;
    const double db = static_cast<double>(counts_b[t]) - eb;
    chi2 += da * da / ea + db * db / eb;
  }
  if (dof <= 1) return 0.0;
  // Similarity: negative normalized statistic, mapped into (0, 1] so that
  // identical distributions score 1.
  const double normalized = chi2 / static_cast<double>(dof - 1);
  return 1.0 / (1.0 + normalized);
}

Result<HacResult> MdcBaseline::Run(const Lexicon& lexicon,
                                   const MdcOptions& options) {
  if (options.num_clusters == 0) {
    return Status::InvalidArgument("num_clusters must be positive");
  }
  const std::size_t n = lexicon.num_schemas();
  const std::size_t dim = lexicon.dim();
  if (n == 0) return HacResult{};

  std::vector<ClusterModel> clusters(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    clusters[i].counts.assign(dim, 0);
    for (std::uint32_t t : lexicon.schema_terms(i)) clusters[i].counts[t] = 1;
    clusters[i].total = lexicon.schema_terms(i).size();
    clusters[i].members = {i};
  }
  std::size_t active = n;
  std::vector<HacMerge> merges;

  // Anchor seeding: pre-merge each anchor's schemas into one cluster.
  if (options.use_anchor_seeding) {
    const std::vector<std::uint32_t> anchors = SelectAnchors(
        lexicon, options.num_clusters, options.min_anchor_frequency);
    for (std::uint32_t anchor : anchors) {
      std::int64_t seed = -1;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (!clusters[i].active || clusters[i].members.size() != 1) continue;
        const auto& terms = lexicon.schema_terms(clusters[i].members[0]);
        if (!std::binary_search(terms.begin(), terms.end(), anchor)) continue;
        if (seed < 0) {
          seed = i;
        } else {
          clusters[static_cast<std::size_t>(seed)].Absorb(clusters[i]);
          merges.push_back({static_cast<std::uint32_t>(seed), i, 1.0});
          --active;
        }
      }
    }
  }

  auto pair_sim = [&](std::uint32_t a, std::uint32_t b) {
    return ChiSquareSimilarity(clusters[a].counts, clusters[a].total,
                               clusters[b].counts, clusters[b].total);
  };

  std::priority_queue<MergeCandidate> heap;
  for (std::uint32_t a = 0; a < n; ++a) {
    if (!clusters[a].active) continue;
    for (std::uint32_t b = a + 1; b < n; ++b) {
      if (!clusters[b].active) continue;
      heap.push({pair_sim(a, b), a, b, clusters[a].version,
                 clusters[b].version});
    }
  }

  while (active > options.num_clusters && !heap.empty()) {
    const MergeCandidate top = heap.top();
    heap.pop();
    if (!clusters[top.a].active || !clusters[top.b].active) continue;
    if (clusters[top.a].version != top.va ||
        clusters[top.b].version != top.vb) {
      continue;
    }
    // Chi-square similarity is not monotone under merges, so a stale-free
    // heap top is only an approximation of the global argmax; recompute
    // and re-push when the cached value is out of date.
    const double fresh = pair_sim(top.a, top.b);
    if (fresh + 1e-12 < top.sim && !heap.empty() &&
        fresh < heap.top().sim) {
      heap.push({fresh, top.a, top.b, clusters[top.a].version,
                 clusters[top.b].version});
      continue;
    }
    clusters[top.a].Absorb(clusters[top.b]);
    merges.push_back({top.a, top.b, fresh});
    --active;
    for (std::uint32_t c = 0; c < n; ++c) {
      if (!clusters[c].active || c == top.a) continue;
      const std::uint32_t lo = std::min(top.a, c);
      const std::uint32_t hi = std::max(top.a, c);
      heap.push({pair_sim(lo, hi), lo, hi, clusters[lo].version,
                 clusters[hi].version});
    }
  }

  HacResult result;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!clusters[i].active) continue;
    std::vector<std::uint32_t> members = clusters[i].members;
    std::sort(members.begin(), members.end());
    result.clusters.push_back(std::move(members));
  }
  std::sort(result.clusters.begin(), result.clusters.end(),
            [](const auto& x, const auto& y) { return x[0] < y[0]; });
  result.merges = std::move(merges);
  return result;
}

DomainModel HardAssignment(const HacResult& clustering,
                           std::size_t num_schemas) {
  std::vector<std::vector<std::pair<std::uint32_t, double>>> schema_domains(
      num_schemas);
  for (std::uint32_t r = 0; r < clustering.clusters.size(); ++r) {
    for (std::uint32_t i : clustering.clusters[r]) {
      schema_domains[i] = {{r, 1.0}};
    }
  }
  return DomainModel::Build(clustering.clusters, std::move(schema_domains));
}

}  // namespace paygo
