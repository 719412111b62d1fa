/// \file perf_clustering.cc
/// \brief google-benchmark microbenchmarks for the clustering pipeline
/// (Section 4.2's memoized O(n) merge updates, plus Algorithm 1 costs).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/hac.h"
#include "cluster/neighbor_graph.h"
#include "cluster/probabilistic_assignment.h"
#include "obs/stats.h"
#include "schema/feature_vector.h"
#include "schema/lexicon.h"
#include "synth/ddh_generator.h"
#include "synth/many_domains.h"
#include "text/similarity_index.h"
#include "text/term_similarity.h"
#include "text/tokenizer.h"
#include "util/random.h"
#include "util/union_find.h"

namespace paygo {
namespace {

SchemaCorpus CorpusOfSize(std::size_t n) {
  DdhGeneratorOptions opts;
  opts.num_schemas = n;
  return MakeDdhCorpus(opts);
}

struct Prepared {
  SchemaCorpus corpus;
  Tokenizer tokenizer;
  Lexicon lexicon;
  std::vector<DynamicBitset> features;

  explicit Prepared(std::size_t n)
      : corpus(CorpusOfSize(n)),
        lexicon(Lexicon::Build(corpus, tokenizer)),
        features(FeatureVectorizer(lexicon).VectorizeCorpus()) {}
};

void BM_LexiconBuild(benchmark::State& state) {
  const SchemaCorpus corpus = CorpusOfSize(state.range(0));
  Tokenizer tok;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Lexicon::Build(corpus, tok));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LexiconBuild)->Arg(100)->Arg(500)->Arg(2323);

void BM_FeatureVectors(benchmark::State& state) {
  const SchemaCorpus corpus = CorpusOfSize(state.range(0));
  Tokenizer tok;
  const Lexicon lexicon = Lexicon::Build(corpus, tok);
  for (auto _ : state) {
    FeatureVectorizer vec(lexicon);  // includes the similarity index build
    benchmark::DoNotOptimize(vec.VectorizeCorpus());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FeatureVectors)->Arg(100)->Arg(500)->Arg(2323);

void BM_SimilarityMatrix(benchmark::State& state) {
  const Prepared prep(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimilarityMatrix(prep.features));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(0));
}
BENCHMARK(BM_SimilarityMatrix)
    ->Arg(100)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2323)
    ->Arg(4646);  // the pipebench `ddh` size

void BM_HacFastEngine(benchmark::State& state) {
  const Prepared prep(state.range(0));
  const SimilarityMatrix sims(prep.features);
  HacOptions opts;
  opts.tau_c_sim = 0.25;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hac::Run(prep.features, sims, opts));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HacFastEngine)
    ->Arg(100)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2323)
    ->Arg(4646);  // the pipebench `ddh` size

void BM_HacByLinkage(benchmark::State& state) {
  const Prepared prep(500);
  const SimilarityMatrix sims(prep.features);
  HacOptions opts;
  opts.linkage = static_cast<LinkageKind>(state.range(0));
  opts.tau_c_sim = 0.25;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hac::Run(prep.features, sims, opts));
  }
  state.SetLabel(LinkageKindName(opts.linkage));
}
BENCHMARK(BM_HacByLinkage)->DenseRange(0, 3);

void BM_HacSparseWebShape(benchmark::State& state) {
  // The graph path's regime: many small feature-disjoint domains.
  ManyDomainOptions gen;
  gen.num_domains = static_cast<std::size_t>(state.range(0));
  const SchemaCorpus corpus = MakeManyDomainCorpus(gen);
  Tokenizer tok;
  const Lexicon lexicon = Lexicon::Build(corpus, tok);
  FeatureVectorizer vec(lexicon);
  const auto features = vec.VectorizeCorpus();
  HacOptions opts;
  opts.tau_c_sim = 0.25;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::ClusterOverGraph(features, opts));
  }
  state.SetLabel(std::to_string(corpus.size()) + " schemas");
  state.SetItemsProcessed(state.iterations() * corpus.size());
}
BENCHMARK(BM_HacSparseWebShape)->Arg(100)->Arg(300)->Arg(600);

void BM_HacDenseWebShape(benchmark::State& state) {
  // Dense engine on the same web-shape corpora (includes the dense matrix
  // build, which the graph path never needs).
  ManyDomainOptions gen;
  gen.num_domains = static_cast<std::size_t>(state.range(0));
  const SchemaCorpus corpus = MakeManyDomainCorpus(gen);
  Tokenizer tok;
  const Lexicon lexicon = Lexicon::Build(corpus, tok);
  FeatureVectorizer vec(lexicon);
  const auto features = vec.VectorizeCorpus();
  HacOptions opts;
  opts.tau_c_sim = 0.25;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hac::Run(features, opts));
  }
  state.SetLabel(std::to_string(corpus.size()) + " schemas");
  state.SetItemsProcessed(state.iterations() * corpus.size());
}
BENCHMARK(BM_HacDenseWebShape)->Arg(100)->Arg(300);

// --- parallel scaling curves (--threads=N adds N to the sweep) ---
//
// Each benchmark reports one point of the scaling curve; compare the
// /threads:1 row against /threads:4 etc. to read off the speedup (see
// bench/README.md). Thread count 0 = hardware concurrency.

void BM_SimilarityMatrixThreads(benchmark::State& state) {
  const Prepared prep(400);
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimilarityMatrix(prep.features, threads));
  }
  state.SetItemsProcessed(state.iterations() * 400 * 400);
}

void BM_HacFastEngineThreads(benchmark::State& state) {
  const Prepared prep(400);
  const SimilarityMatrix sims(prep.features);
  HacOptions opts;
  opts.tau_c_sim = 0.25;
  opts.num_threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hac::Run(prep.features, sims, opts));
  }
  state.SetItemsProcessed(state.iterations() * 400);
}

void BM_SimilarityIndexThreads(benchmark::State& state) {
  const SchemaCorpus corpus = CorpusOfSize(400);
  Tokenizer tok;
  const Lexicon lexicon = Lexicon::Build(corpus, tok);
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimilarityIndex(
        lexicon.terms(), TermSimilarity(TermSimilarityKind::kLcs), 0.8,
        threads));
  }
  state.SetItemsProcessed(state.iterations() * lexicon.dim());
}

void BM_ClusterPipelineThreads(benchmark::State& state) {
  // End to end over the parallel phases: dense matrix build + fast HAC
  // (the convenience overload), at 400 schemas — the acceptance-criteria
  // configuration for the 4-thread speedup.
  const Prepared prep(400);
  HacOptions opts;
  opts.tau_c_sim = 0.25;
  opts.num_threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hac::Run(prep.features, opts));
  }
  state.SetItemsProcessed(state.iterations() * 400);
}

void BM_AssignProbabilities(benchmark::State& state) {
  const Prepared prep(state.range(0));
  const SimilarityMatrix sims(prep.features);
  HacOptions hac;
  hac.tau_c_sim = 0.25;
  const auto clustering = Hac::Run(prep.features, sims, hac);
  AssignmentOptions assign;
  assign.tau_c_sim = 0.25;
  for (auto _ : state) {
    benchmark::DoNotOptimize(AssignProbabilities(sims, *clustering, assign));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AssignProbabilities)->Arg(100)->Arg(500)->Arg(2323);

// --- the sparse-scaling lane (`--sparse-scaling`) ---
//
// Not a google-benchmark microbenchmark: one shot per corpus size, wall
// clock, up to 100k schemas — sizes where the dense engines are not merely
// slow but infeasible (the n^2 similarity matrix alone would be tens of
// GB). Writes a {"mode": "sparse_scaling"} curve to the --json-out file
// (schema documented in bench/README.md) and, under --check, gates on the
// acceptance criteria: sparse >= 5x dense at the largest dense-feasible n
// and bitwise-identical merges at small n across thread counts.

/// True iff the two merge histories are identical, similarity compared
/// bitwise (memcmp on the doubles), not within an epsilon.
bool MergesBitwiseEqual(const HacResult& x, const HacResult& y) {
  if (x.merges.size() != y.merges.size()) return false;
  for (std::size_t i = 0; i < x.merges.size(); ++i) {
    const HacMerge& a = x.merges[i];
    const HacMerge& b = y.merges[i];
    if (a.slot_a != b.slot_a || a.slot_b != b.slot_b) return false;
    if (std::memcmp(&a.similarity, &b.similarity, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

struct ScalePoint {
  std::size_t n = 0;
  std::size_t dim = 0;
  double sparse_seconds = 0.0;  // exact graph build + sparse HAC
  double graph_seconds = 0.0;   // exact graph build alone
  std::uint64_t edges = 0;
  std::uint64_t candidates = 0;
  double dense_seconds = -1.0;  // dense matrix + fast HAC; -1 = not run
  int merges_match_dense = -1;  // 1/0; -1 = dense not run
};

int RunGraphScalingLane(std::size_t max_n, std::size_t dense_max, bool check,
                         const std::string& json_out) {
  using Clock = std::chrono::steady_clock;
  const auto secs = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  HacOptions hac;
  hac.tau_c_sim = 0.25;

  std::vector<std::size_t> ns = {1000, 2000, 5000, 10000, 20000, 50000};
  ns.push_back(max_n);
  if (dense_max > 0 && dense_max <= max_n) ns.push_back(dense_max);
  std::sort(ns.begin(), ns.end());
  ns.erase(std::unique(ns.begin(), ns.end()), ns.end());
  ns.erase(std::remove_if(ns.begin(), ns.end(),
                          [&](std::size_t n) { return n > max_n; }),
           ns.end());

  std::vector<ScalePoint> points;
  bool passed = true;
  std::string failure;

  for (std::size_t n : ns) {
    ManyDomainFeatureOptions gen;
    gen.num_schemas = n;
    const auto features = MakeManyDomainFeatures(gen);
    // Small corpora finish in milliseconds; take best-of-3 so the --check
    // speedup ratio is not timer noise.
    const int reps = n <= 4000 ? 3 : 1;

    ScalePoint p;
    p.n = n;
    p.dim = features.empty() ? 0 : features[0].size();

    Result<HacResult> sparse = HacResult{};
    for (int r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      auto graph = NeighborGraph::Build(features, NeighborGraphOptions{});
      if (!graph.ok()) {
        std::fprintf(stderr, "sparse-scaling: graph build failed at n=%zu: %s\n",
                     n, graph.status().message().c_str());
        return 1;
      }
      const auto t1 = Clock::now();
      sparse = Hac::RunOnGraph(*graph, hac);
      if (!sparse.ok()) {
        std::fprintf(stderr, "sparse-scaling: sparse HAC failed at n=%zu: %s\n",
                     n, sparse.status().message().c_str());
        return 1;
      }
      const auto t2 = Clock::now();
      const double total = secs(t0, t2);
      if (r == 0 || total < p.sparse_seconds) {
        p.sparse_seconds = total;
        p.graph_seconds = secs(t0, t1);
      }
      p.edges = graph->num_edges();
      p.candidates = graph->stats().candidates_generated;
    }

    if (n <= dense_max) {
      Result<HacResult> dense = HacResult{};
      for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        const SimilarityMatrix sims(features);
        dense = Hac::Run(features, sims, hac);
        const auto t1 = Clock::now();
        if (!dense.ok()) {
          std::fprintf(stderr, "sparse-scaling: dense HAC failed at n=%zu: %s\n",
                       n, dense.status().message().c_str());
          return 1;
        }
        const double total = secs(t0, t1);
        if (r == 0 || total < p.dense_seconds || p.dense_seconds < 0) {
          p.dense_seconds = total;
        }
      }
      p.merges_match_dense = MergesBitwiseEqual(*sparse, *dense) ? 1 : 0;
      if (p.merges_match_dense != 1) {
        passed = false;
        failure = "exact sparse merges differ from dense at n=" +
                  std::to_string(n);
      }
    }

    std::fprintf(stderr,
                 "n=%-7zu dim=%-6zu sparse=%8.3fs (graph %7.3fs, %llu edges, "
                 "%llu cands)  dense=%s\n",
                 p.n, p.dim, p.sparse_seconds, p.graph_seconds,
                 static_cast<unsigned long long>(p.edges),
                 static_cast<unsigned long long>(p.candidates),
                 p.dense_seconds < 0
                     ? "-"
                     : (std::to_string(p.dense_seconds) + "s").c_str());
    points.push_back(p);
  }

  // The --check gates.
  double speedup = -1.0;
  std::size_t largest_dense_n = 0;
  for (const ScalePoint& p : points) {
    if (p.dense_seconds >= 0 && p.n > largest_dense_n) {
      largest_dense_n = p.n;
      speedup = p.sparse_seconds > 0 ? p.dense_seconds / p.sparse_seconds : 0;
    }
  }
  constexpr double kRequiredSpeedup = 5.0;
  if (check) {
    if (largest_dense_n == 0) {
      passed = false;
      failure = "--check needs at least one dense-feasible n (--dense-max)";
    } else if (speedup < kRequiredSpeedup) {
      passed = false;
      failure = "sparse speedup " + std::to_string(speedup) + "x at n=" +
                std::to_string(largest_dense_n) + " is below the required " +
                std::to_string(kRequiredSpeedup) + "x";
    }
  }

  // Thread-count determinism at the smallest corpus: the graph path must
  // reproduce the dense serial merges bitwise at every thread count.
  std::vector<std::size_t> thread_counts = {1, 2, 4};
  bool threads_identical = true;
  if (check && !ns.empty()) {
    ManyDomainFeatureOptions gen;
    gen.num_schemas = std::min<std::size_t>(ns.front(), 2000);
    const auto features = MakeManyDomainFeatures(gen);
    const SimilarityMatrix sims(features);
    const auto dense = Hac::Run(features, sims, hac);
    if (!dense.ok()) return 1;
    for (std::size_t t : thread_counts) {
      NeighborGraphOptions go;
      go.num_threads = t;
      auto graph = NeighborGraph::Build(features, go);
      if (!graph.ok()) return 1;
      HacOptions topt = hac;
      topt.num_threads = t;
      const auto sparse = Hac::RunOnGraph(*graph, topt);
      if (!sparse.ok() || !MergesBitwiseEqual(*sparse, *dense)) {
        threads_identical = false;
        passed = false;
        failure = "sparse merges at " + std::to_string(t) +
                  " threads differ from the serial dense merges";
      }
    }
  }

  if (!json_out.empty()) {
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "sparse-scaling: cannot write %s\n",
                   json_out.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"mode\": \"sparse_scaling\",\n");
    std::fprintf(f, "  \"tau_c_sim\": %.3f,\n", hac.tau_c_sim);
    std::fprintf(f,
                 "  \"generator\": {\"schemas_per_domain\": 32, "
                 "\"words_per_domain\": 24, \"seed\": 97},\n");
    std::fprintf(f, "  \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const ScalePoint& p = points[i];
      std::fprintf(f,
                   "    {\"n\": %zu, \"dim\": %zu, \"sparse_seconds\": %.6f, "
                   "\"graph_seconds\": %.6f, \"edges\": %llu, "
                   "\"candidates_generated\": %llu, ",
                   p.n, p.dim, p.sparse_seconds, p.graph_seconds,
                   static_cast<unsigned long long>(p.edges),
                   static_cast<unsigned long long>(p.candidates));
      if (p.dense_seconds >= 0) {
        std::fprintf(f, "\"dense_seconds\": %.6f, \"speedup\": %.2f, ",
                     p.dense_seconds,
                     p.sparse_seconds > 0 ? p.dense_seconds / p.sparse_seconds
                                          : 0.0);
        std::fprintf(f, "\"merges_match_dense\": %s}",
                     p.merges_match_dense == 1 ? "true" : "false");
      } else {
        std::fprintf(
            f, "\"dense_seconds\": null, \"speedup\": null, "
               "\"merges_match_dense\": null}");
      }
      std::fprintf(f, "%s\n", i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"check\": {\"enabled\": %s, ", check ? "true" : "false");
    if (largest_dense_n > 0) {
      std::fprintf(f,
                   "\"largest_dense_n\": %zu, \"speedup\": %.2f, "
                   "\"required_speedup\": %.1f, ",
                   largest_dense_n, speedup, kRequiredSpeedup);
    }
    std::fprintf(f, "\"threads_bitwise_identical\": %s, \"passed\": %s}\n",
                 threads_identical ? "true" : "false",
                 passed ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::fprintf(stderr, "sparse-scaling: wrote %s\n", json_out.c_str());
  }

  if (check && !passed) {
    std::fprintf(stderr, "sparse-scaling: CHECK FAILED: %s\n",
                 failure.c_str());
    return 1;
  }
  if (check) std::fprintf(stderr, "sparse-scaling: check passed\n");
  return 0;
}

// --- the generic-attribute sweep (`--generic-sweep`) ---
//
// The graph path's worst case. Attributes any domain may carry ("name",
// "price", "date") tie otherwise separate domains into one tau-component,
// and a component of c schemas needs a key triangle of about 4 c^2 bytes.
// The lane appends kGenericIds shared feature ids to MakeManyDomainFeatures
// output; each schema carries all of them with probability `rate`. Per
// (n, rate) point it first estimates the largest tau-component with a
// union-find over the exact graph's edges at or above tau (no must-links,
// no join slack: an estimate, used only to decide whether to run) and
// its triangle bytes, 4 c^2. A point whose estimate exceeds
// kMaxTriangleBytes is not clustered. The others run Hac::RunOnGraph and
// report its seconds plus the component count and largest component the
// library itself clustered (paygo.hac.components and
// paygo.hac.largest_component). Everything runs on one thread.

constexpr std::size_t kGenericIds = 4;
constexpr double kMaxTriangleBytes = 2e9;

std::vector<DynamicBitset> WithGenericIds(
    const std::vector<DynamicBitset>& base, double rate, std::uint64_t seed,
    std::size_t* carriers) {
  const std::size_t dim = base.empty() ? 0 : base[0].size();
  const std::size_t wide = (dim + kGenericIds + 63) / 64 * 64;
  Rng rng(seed);
  std::vector<DynamicBitset> out;
  out.reserve(base.size());
  *carriers = 0;
  for (const DynamicBitset& f : base) {
    DynamicBitset g(wide);
    for (std::size_t j : f.SetBits()) g.Set(j);
    if (rng.NextBernoulli(rate)) {
      for (std::size_t k = 0; k < kGenericIds; ++k) g.Set(dim + k);
      ++*carriers;
    }
    out.push_back(std::move(g));
  }
  return out;
}

struct GenericPoint {
  std::size_t n = 0;
  double rate = 0.0;
  std::size_t carriers = 0;
  std::uint64_t edges = 0;
  double graph_seconds = 0.0;
  std::size_t estimated_largest = 0;
  double triangle_bytes = 0.0;  // 4 c^2 for estimated_largest c
  double hac_seconds = -1.0;    // -1 = skipped; the rest is then unset
  std::size_t components = 0;   // tau-components of two or more schemas
  std::size_t largest = 0;
  std::size_t clusters = 0;
};

int RunGenericSweepLane(std::size_t max_n, const std::string& json_out) {
  using Clock = std::chrono::steady_clock;
  const auto secs = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  HacOptions hac;
  hac.tau_c_sim = 0.25;
  StatsRegistry& reg = StatsRegistry::Global();
  const Counter* components = reg.GetCounter("paygo.hac.components");
  const Gauge* largest = reg.GetGauge("paygo.hac.largest_component");
  std::vector<GenericPoint> points;
  for (const std::size_t n : {std::size_t{20000}, std::size_t{100000}}) {
    if (n > max_n) continue;
    ManyDomainFeatureOptions gen;
    gen.num_schemas = n;
    const auto base = MakeManyDomainFeatures(gen);
    for (const double rate : {0.0, 0.01, 0.05}) {
      GenericPoint p;
      p.n = n;
      p.rate = rate;
      const auto features = WithGenericIds(base, rate, 20260 + n, &p.carriers);
      const auto t0 = Clock::now();
      const auto graph = NeighborGraph::Build(features, NeighborGraphOptions{});
      if (!graph.ok()) {
        std::fprintf(stderr, "generic-sweep: graph build failed at n=%zu: %s\n",
                     n, graph.status().message().c_str());
        return 1;
      }
      p.graph_seconds = secs(t0, Clock::now());
      p.edges = graph->num_edges();

      UnionFind uf(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto [begin, end] = graph->Row(i);
        for (const NeighborEdge* e = begin; e != end; ++e) {
          if (e->id > i && e->sim >= hac.tau_c_sim) uf.Union(i, e->id);
        }
      }
      std::vector<std::size_t> size(n, 0);
      for (std::uint32_t i = 0; i < n; ++i) ++size[uf.Find(i)];
      p.estimated_largest = *std::max_element(size.begin(), size.end());
      p.triangle_bytes = 4.0 * static_cast<double>(p.estimated_largest) *
                         static_cast<double>(p.estimated_largest);

      if (p.triangle_bytes <= kMaxTriangleBytes) {
        const std::uint64_t components_before = components->value();
        const auto t1 = Clock::now();
        const auto clustering = Hac::RunOnGraph(*graph, hac);
        p.hac_seconds = secs(t1, Clock::now());
        if (!clustering.ok()) {
          std::fprintf(stderr, "generic-sweep: HAC failed at n=%zu: %s\n", n,
                       clustering.status().message().c_str());
          return 1;
        }
        p.components = components->value() - components_before;
        p.largest = static_cast<std::size_t>(largest->value());
        p.clusters = clustering->clusters.size();
      }
      std::fprintf(stderr,
                   "n=%-7zu rate=%.2f carriers=%-6zu edges=%-9llu "
                   "graph=%7.3fs est.largest=%-6zu triangle=%.3g B  ",
                   n, rate, p.carriers,
                   static_cast<unsigned long long>(p.edges), p.graph_seconds,
                   p.estimated_largest, p.triangle_bytes);
      if (p.hac_seconds < 0) {
        std::fprintf(stderr, "hac=skipped\n");
      } else {
        std::fprintf(stderr, "components=%-6zu largest=%-6zu hac=%.3fs\n",
                     p.components, p.largest, p.hac_seconds);
      }
      points.push_back(p);
    }
  }

  if (json_out.empty()) return 0;
  std::FILE* f = std::fopen(json_out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "generic-sweep: cannot write %s\n", json_out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"mode\": \"generic_sweep\",\n");
  std::fprintf(f, "  \"tau_c_sim\": %.3f,\n  \"threads\": 1,\n",
               hac.tau_c_sim);
  std::fprintf(f,
               "  \"generator\": {\"schemas_per_domain\": 32, "
               "\"words_per_domain\": 24, \"seed\": 97, "
               "\"generic_ids\": %zu},\n",
               kGenericIds);
  std::fprintf(f, "  \"max_triangle_bytes\": %.0f,\n  \"points\": [\n",
               kMaxTriangleBytes);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const GenericPoint& p = points[i];
    std::fprintf(f,
                 "    {\"n\": %zu, \"rate\": %.2f, \"carriers\": %zu, "
                 "\"edges\": %llu, \"graph_seconds\": %.6f, "
                 "\"estimated_largest_component\": %zu, "
                 "\"triangle_bytes\": %.0f, ",
                 p.n, p.rate, p.carriers,
                 static_cast<unsigned long long>(p.edges), p.graph_seconds,
                 p.estimated_largest, p.triangle_bytes);
    if (p.hac_seconds >= 0) {
      std::fprintf(f,
                   "\"hac_seconds\": %.6f, \"components\": %zu, "
                   "\"largest_component\": %zu, \"clusters\": %zu}",
                   p.hac_seconds, p.components, p.largest, p.clusters);
    } else {
      std::fprintf(f,
                   "\"hac_seconds\": null, \"components\": null, "
                   "\"largest_component\": null, \"clusters\": null}");
    }
    std::fprintf(f, "%s\n", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "generic-sweep: wrote %s\n", json_out.c_str());
  return 0;
}

}  // namespace
}  // namespace paygo

// Custom main: `--threads=N` (consumed before google-benchmark sees the
// argv) adds N to the thread sweep of the scaling benchmarks, so a box
// with more cores can extend the curve without recompiling:
//
//   bench/perf_clustering --threads=16 --benchmark_filter='Threads'
//
// `--json-out=FILE` (default BENCH_clustering.json; empty disables)
// forwards to google-benchmark's JSON file reporter, giving CI a
// machine-readable record without memorizing the two underlying flags.
//
// `--sparse-scaling` switches to the hand-rolled dense-matrix-free scaling
// lane instead of google-benchmark (see RunGraphScalingLane above):
//
//   bench/perf_clustering --sparse-scaling --max-n=100000 --dense-max=8000
//       --check
//
// `--generic-sweep` runs the generic-attribute worst case instead (see
// RunGenericSweepLane): n = 20k and 100k (capped by --max-n) at generic
// rates 0, 1% and 5%, on one thread:
//
//   bench/perf_clustering --generic-sweep --json-out=generic.json
//
// `--max-n=N` caps the corpus sweep (default 100000), `--dense-max=N` is
// the largest n the dense baseline runs at (default 8000; 0 disables the
// baseline), and `--check` exits nonzero unless sparse is >= 5x faster
// than dense at the largest dense-feasible n and the exact sparse merges
// are bitwise-identical to the dense serial merges at 1/2/4 threads.
int main(int argc, char** argv) {
  std::vector<std::size_t> sweep = {1, 2, 4, 8};
  std::string json_out = "BENCH_clustering.json";
  bool user_set_benchmark_out = false;
  bool sparse_scaling = false;
  bool generic_sweep = false;
  bool sparse_check = false;
  std::size_t sparse_max_n = 100000;
  std::size_t sparse_dense_max = 8000;
  // Stable storage for flags we synthesize: google-benchmark keeps the
  // char* pointers it is given.
  std::vector<std::string> storage;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--threads=";
    const std::string json_prefix = "--json-out=";
    if (arg.rfind(prefix, 0) == 0) {
      const std::size_t extra = paygo::bench::FlagValue<std::size_t>(
          "--threads", arg.c_str() + prefix.size(), 0,
          paygo::bench::kMaxFlagThreads);
      if (std::find(sweep.begin(), sweep.end(), extra) == sweep.end()) {
        sweep.push_back(extra);
      }
      continue;
    }
    if (arg.rfind(json_prefix, 0) == 0) {
      json_out = arg.substr(json_prefix.size());
      continue;
    }
    if (arg == "--sparse-scaling") {
      sparse_scaling = true;
      continue;
    }
    if (arg == "--generic-sweep") {
      generic_sweep = true;
      continue;
    }
    if (arg == "--check") {
      sparse_check = true;
      continue;
    }
    if (arg.rfind("--max-n=", 0) == 0) {
      sparse_max_n = paygo::bench::FlagValue<std::size_t>(
          "--max-n", arg.c_str() + std::strlen("--max-n="));
      continue;
    }
    if (arg.rfind("--dense-max=", 0) == 0) {
      sparse_dense_max = paygo::bench::FlagValue<std::size_t>(
          "--dense-max", arg.c_str() + std::strlen("--dense-max="));
      continue;
    }
    if (arg.rfind("--benchmark_out", 0) == 0) user_set_benchmark_out = true;
    args.push_back(argv[i]);
  }
  if (generic_sweep) {
    return paygo::RunGenericSweepLane(sparse_max_n, json_out);
  }
  if (sparse_scaling) {
    return paygo::RunGraphScalingLane(sparse_max_n, sparse_dense_max,
                                       sparse_check, json_out);
  }
  if (!json_out.empty() && !user_set_benchmark_out) {
    storage.push_back("--benchmark_out=" + json_out);
    storage.push_back("--benchmark_out_format=json");
    for (std::string& s : storage) args.push_back(s.data());
  }
  for (auto* bench :
       {benchmark::RegisterBenchmark("BM_SimilarityMatrixThreads",
                                     paygo::BM_SimilarityMatrixThreads),
        benchmark::RegisterBenchmark("BM_HacFastEngineThreads",
                                     paygo::BM_HacFastEngineThreads),
        benchmark::RegisterBenchmark("BM_SimilarityIndexThreads",
                                     paygo::BM_SimilarityIndexThreads),
        benchmark::RegisterBenchmark("BM_ClusterPipelineThreads",
                                     paygo::BM_ClusterPipelineThreads)}) {
    bench->ArgName("threads");
    for (std::size_t t : sweep) {
      bench->Arg(static_cast<std::int64_t>(t));
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
