/// \file pipeline_bench.cc
/// \brief End-to-end pipeline benchmark: raw schema text -> Build -> served
/// keyword queries and source arrivals, on the DDH and web corpus shapes.
///
///   pipeline_bench --workload ddh|web --seed N --seconds S
///                  --trace 0|1 [--trace-out FILE]
///
/// Every input (corpus, held-out arrivals, query streams, evaluation set)
/// is derived from --seed. One run:
///   1. generates the raw-text corpus and holds out kArrivals schemas;
///   2. builds the IntegrationSystem kSetupRepeats times (setup_s is the
///      median; every build must produce the same domain model);
///   3. starts a PaygoServer with two workers and, for about --seconds,
///      times direct ClassifyKeywordQuery calls on the served snapshot,
///      then a served closed loop (two clients, each keeping
///      kClosedInFlight requests outstanding), then a served open loop at
///      the workload's fixed rate; then sends the arrivals through
///      AddSchemaAsync, one after another;
///   4. checks the outputs: served rankings bitwise-equal to direct
///      ClassifyKeywordQuery rankings (before and after the arrivals), every
///      arrival OK, the final snapshot holding n + kArrivals schemas;
///   5. prints one JSON object as the last stdout line.
///
/// --trace 1 additionally replays Build stage by stage through each
/// layer's public calls (checking the replayed domain model is bitwise
/// Build's), splits query time into featurize and score, times clone plus
/// AddSchema, and reports the per-layer metrics instead of the end-to-end
/// ones. Spans are recorded by this file around its own calls; the
/// library's trace sites stay idle in both modes. See pipebench/README.md
/// for the metric dictionary.

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "classify/naive_bayes.h"
#include "classify/query_featurizer.h"
#include "cluster/hac.h"
#include "cluster/linkage.h"
#include "cluster/neighbor_graph.h"
#include "cluster/probabilistic_assignment.h"
#include "core/integration_system.h"
#include "eval/classification_metrics.h"
#include "eval/clustering_metrics.h"
#include "mediate/mediator.h"
#include "obs/stats.h"
#include "schema/feature_vector.h"
#include "schema/lexicon.h"
#include "serve/paygo_server.h"
#include "span_recorder.h"
#include "synth/ddh_generator.h"
#include "synth/many_domains.h"
#include "synth/query_generator.h"
#include "util/random.h"
#include "util/string_util.h"

namespace {

using namespace paygo;
using pipebench::ScopedSpan;
using pipebench::SpanRecorder;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Fixed run parameters.

/// Builds per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Held-out schemas that arrive through AddSchemaAsync: enough for ten to
/// lie beyond add_p95_ms.
constexpr std::size_t kArrivals = 200;
/// Serving runtime shape: two workers, two load-generator threads.
constexpr std::size_t kServeWorkers = 2;
constexpr int kLoadThreads = 2;
/// --seconds is cut into rounds of kRoundSeconds. Each round makes one
/// direct-query pass (see Workload::direct_queries) and one closed-loop
/// slice of kClosedShare of the round; the open loop then runs for
/// kOpenShare of --seconds.
constexpr double kRoundSeconds = 1.0;
constexpr double kClosedShare = 0.3;
constexpr double kOpenShare = 0.3;
/// Requests each closed-loop client keeps outstanding.
constexpr std::size_t kClosedInFlight = 16;
/// Open-loop percentiles are taken over up to kMaxWindows equal windows of
/// the due-ordered samples (each holding at least kMinWindowSamples), and
/// the median over the windows is reported, so a stall of the machine
/// moves the windows it lands in, not the run.
constexpr std::size_t kMaxWindows = 15;
constexpr std::size_t kMinWindowSamples = 500;
/// Served queries compared bitwise against direct calls, before the load
/// phases and again after the arrivals.
constexpr std::size_t kCheckQueries = 256;
/// Evaluation-set size for top1_accuracy.
constexpr std::size_t kEvalQueries = 1500;
/// Traced query phase and clone-plus-add phase sizes.
constexpr std::size_t kTraceQueries = 1000;
constexpr std::size_t kTraceAdds = 20;

/// Seed-derivation tags: each input stream gets its own generator.
enum SeedTag : std::uint64_t {
  kCorpusSeed = 1,
  kHoldoutSeed,
  kOpenLoopSeed,
  kCheckPreSeed,
  kCheckPostSeed,
  kEvalSeed,
  kTraceQuerySeed,
  kDirectSeed,
  kClosedLoopSeed,  // + client index
};

enum class Shape { kDdh, kWeb };

/// One workload. Rates are frozen here (BENCHMARK.json has a fixed key
/// set); README.md records why each workload exists.
struct Workload {
  const char* name;
  Shape shape;
  /// kDdh: base corpus size (arrivals are generated on top of it).
  /// kWeb: number of pseudo-domains (arrivals are held out of them).
  std::size_t size;
  bool sparse_build;
  /// QueryGenerator's min_label_fraction (thesis: 0.1 on DDH).
  double min_label_fraction;
  /// Open-loop read rate, queries per second. Set to about a fifth of
  /// what the two synchronous senders can issue (a third on web), so that
  /// a several-fold slowdown of the machine does not build a backlog.
  double read_rate;
  /// Queries in one direct-query pass: 0.3-0.6 s of model time.
  std::size_t direct_queries;
};

constexpr Workload kWorkloads[] = {
    {"ddh", Shape::kDdh, 4646, false, 0.1, 6000.0, 10000},
    {"web", Shape::kWeb, 1000, true, 0.25, 500.0, 600},
};

// ---------------------------------------------------------------------------
// Small helpers.

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t tag) {
  // splitmix64 finalizer over (seed, tag).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}
double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

/// The percentile of each of up to kMaxWindows equal consecutive slices of
/// \p v (samples in due order, at least kMinWindowSamples per slice), then
/// the median over the slices.
double WindowedPercentile(const std::vector<double>& v, double p) {
  const std::size_t windows =
      std::clamp<std::size_t>(v.size() / kMinWindowSamples, 1, kMaxWindows);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    per_window.push_back(Percentile(
        std::vector<double>(v.begin() + v.size() * w / windows,
                            v.begin() + v.size() * (w + 1) / windows),
        p));
  }
  std::cerr << "  p" << p * 100 << " by window:";
  for (double x : per_window) std::cerr << " " << x;
  std::cerr << "\n";
  return Median(per_window);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Current resident set, from /proc/self/statm.
double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Returns freed heap pages to the kernel, then reads the resident set:
/// the baseline for a "resident growth across one call" measurement, which
/// would otherwise be hidden by pages an earlier build freed.
double TrimmedRssMb() {
  malloc_trim(0);
  return CurrentRssMb();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Sleeps with ~1 us timer slack instead of the default 50 us, so the
/// open-loop schedule is kept to the microsecond.
void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

std::uint64_t CounterValue(const char* name) {
  return StatsRegistry::Global().GetCounter(name)->value();
}

bool BitwiseEqual(const std::vector<DomainScore>& a,
                  const std::vector<DomainScore>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].domain != b[i].domain ||
        std::bit_cast<std::uint64_t>(a[i].log_posterior) !=
            std::bit_cast<std::uint64_t>(b[i].log_posterior)) {
      return false;
    }
  }
  return true;
}

/// Bitwise equality of two domain models: clusters and every membership.
bool SameModel(const DomainModel& a, const DomainModel& b) {
  if (a.num_schemas() != b.num_schemas() || a.clusters() != b.clusters()) {
    return false;
  }
  for (std::uint32_t i = 0; i < a.num_schemas(); ++i) {
    const auto& da = a.DomainsOf(i);
    const auto& db = b.DomainsOf(i);
    if (da.size() != db.size()) return false;
    for (std::size_t k = 0; k < da.size(); ++k) {
      if (da[k].first != db[k].first ||
          std::bit_cast<std::uint64_t>(da[k].second) !=
              std::bit_cast<std::uint64_t>(db[k].second)) {
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Inputs.

struct Inputs {
  SchemaCorpus base;
  SchemaCorpus arrivals;  ///< In arrival order.
};

/// Generates the raw-text corpus and holds out a seed-chosen random subset
/// as arrivals, so they join existing domains.
Inputs MakeInputs(const Workload& w, std::uint64_t seed) {
  const std::uint64_t corpus_seed = DeriveSeed(seed, kCorpusSeed);
  SchemaCorpus all =
      w.shape == Shape::kDdh
          ? MakeDdhCorpus({.num_schemas = w.size + kArrivals,
                           .seed = corpus_seed})
          : MakeManyDomainCorpus({.num_domains = w.size, .seed = corpus_seed});
  std::vector<std::size_t> order(all.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(DeriveSeed(seed, kHoldoutSeed));
  rng.Shuffle(order);
  std::vector<bool> held(all.size(), false);
  Inputs in{SchemaCorpus(w.name), SchemaCorpus(std::string(w.name) + "-new")};
  for (std::size_t j = 0; j < kArrivals; ++j) {
    held[order[j]] = true;
    in.arrivals.Add(all.schema(order[j]), all.labels(order[j]));
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!held[i]) in.base.Add(all.schema(i), all.labels(i));
  }
  return in;
}

SystemOptions MakeSystemOptions(const Workload& w) {
  SystemOptions options;
  options.sparse_build = w.sparse_build;
  return options;
}

/// One §6.1.3 query with 1-5 keywords, as the raw string a user types.
std::string NextQuery(const QueryGenerator& gen, Rng& rng) {
  const std::size_t keywords = 1 + static_cast<std::size_t>(rng.NextBelow(5));
  return Join(gen.Generate(keywords, rng).keywords, " ");
}

std::vector<std::string> MakeQueries(const QueryGenerator& gen,
                                     std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(NextQuery(gen, rng));
  return out;
}

// ---------------------------------------------------------------------------
// Output checks.

class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      all_ok_ = false;
      std::cerr << "CHECK FAILED: " << what << "\n";
    }
  }
  bool ok() const { return all_ok_; }

 private:
  bool all_ok_ = true;
};

// ---------------------------------------------------------------------------
// Traced replay of IntegrationSystem::Build, stage by stage.

struct ReplayResult {
  double lexicon_s = 0, index_build_s = 0, vectorize_s = 0;
  double similarity_s = 0, similarity_mb = 0, hac_s = 0, assign_s = 0;
  double mediate_s = 0, classify_s = 0, classify_mb = 0;
  double total_s = 0;
  std::uint64_t index_pairs = 0, index_neighbors = 0;
  std::uint64_t hac_merges = 0, hac_pushes = 0, hac_stale = 0;
  std::uint64_t graph_edges = 0;
  DomainModel model;

  double StageSum() const {
    return lexicon_s + index_build_s + vectorize_s + similarity_s + hac_s +
           assign_s + mediate_s + classify_s;
  }
};

/// Runs Build's stages through each layer's public calls, in
/// IntegrationSystem::Build's order and with its option plumbing.
Result<ReplayResult> ReplayBuild(const SchemaCorpus& corpus,
                                 const SystemOptions& options,
                                 SpanRecorder& rec) {
  ReplayResult r;
  ScopedSpan root(rec, "core.build_replay");

  std::optional<Tokenizer> tokenizer;
  std::optional<Lexicon> lexicon;
  {
    ScopedSpan s(rec, "text.lexicon");
    tokenizer.emplace(options.tokenizer);
    lexicon.emplace(Lexicon::Build(corpus, *tokenizer));
    r.lexicon_s = s.End();
  }
  const std::uint64_t pairs0 = CounterValue("paygo.simindex.pairs_evaluated");
  std::optional<FeatureVectorizer> vectorizer;
  {
    ScopedSpan s(rec, "text.index_build");
    vectorizer.emplace(*lexicon, options.features);
    r.index_build_s = s.End();
  }
  r.index_pairs = CounterValue("paygo.simindex.pairs_evaluated") - pairs0;
  for (std::size_t i = 0; i < lexicon->dim(); ++i) {
    r.index_neighbors += vectorizer->index().Neighbors(i).size();
  }
  std::vector<DynamicBitset> features;
  {
    ScopedSpan s(rec, "schema.vectorize");
    features = vectorizer->VectorizeCorpus();
    r.vectorize_s = s.End();
  }

  const std::uint64_t merges0 = CounterValue("paygo.hac.merges");
  const std::uint64_t pushes0 = CounterValue("paygo.hac.heap_pushes");
  const std::uint64_t stale0 = CounterValue("paygo.hac.stale_skips");
  HacResult clustering;
  std::optional<SimilarityMatrix> sims;
  std::optional<NeighborGraph> graph;
  const double rss0 = TrimmedRssMb();
  if (options.sparse_build) {
    {
      ScopedSpan s(rec, "cluster.similarity");
      NeighborGraphOptions graph_options = options.neighbor_graph;
      graph_options.num_threads = options.hac.num_threads;
      PAYGO_ASSIGN_OR_RETURN(NeighborGraph g,
                             NeighborGraph::Build(features, graph_options));
      graph.emplace(std::move(g));
      r.similarity_s = s.End();
    }
    r.similarity_mb = CurrentRssMb() - rss0;
    {
      ScopedSpan s(rec, "cluster.hac");
      PAYGO_ASSIGN_OR_RETURN(clustering, Hac::RunOnGraph(*graph, options.hac));
      r.hac_s = s.End();
    }
    {
      ScopedSpan s(rec, "cluster.assign");
      PAYGO_ASSIGN_OR_RETURN(
          r.model, AssignProbabilities(*graph, clustering, options.assignment,
                                       options.hac.num_threads));
      r.assign_s = s.End();
    }
    r.graph_edges = graph->num_edges();
  } else {
    {
      ScopedSpan s(rec, "cluster.similarity");
      sims.emplace(features, options.hac.num_threads);
      r.similarity_s = s.End();
    }
    r.similarity_mb = CurrentRssMb() - rss0;
    {
      ScopedSpan s(rec, "cluster.hac");
      PAYGO_ASSIGN_OR_RETURN(clustering,
                             Hac::Run(features, *sims, options.hac));
      r.hac_s = s.End();
    }
    {
      ScopedSpan s(rec, "cluster.assign");
      PAYGO_ASSIGN_OR_RETURN(
          r.model, AssignProbabilities(*sims, clustering, options.assignment));
      r.assign_s = s.End();
    }
  }
  r.hac_merges = CounterValue("paygo.hac.merges") - merges0;
  r.hac_pushes = CounterValue("paygo.hac.heap_pushes") - pushes0;
  r.hac_stale = CounterValue("paygo.hac.stale_skips") - stale0;

  if (options.build_mediation) {
    ScopedSpan s(rec, "mediate.build");
    for (std::uint32_t d = 0; d < r.model.num_domains(); ++d) {
      const auto& members = r.model.SchemasOf(d);
      if (members.empty()) continue;
      ScopedSpan one(rec, "mediate.domain");
      PAYGO_ASSIGN_OR_RETURN(
          DomainMediation med,
          Mediator::BuildForDomain(corpus, *tokenizer, members,
                                   options.mediator));
    }
    r.mediate_s = s.End();
  }
  if (options.build_classifier) {
    const double rss1 = TrimmedRssMb();
    ScopedSpan s(rec, "classify.build");
    PAYGO_ASSIGN_OR_RETURN(
        NaiveBayesClassifier clf,
        NaiveBayesClassifier::Build(r.model, features, corpus.size(),
                                    options.classifier));
    r.classify_s = s.End();
    r.classify_mb = CurrentRssMb() - rss1;
  }
  r.total_s = root.End();

  // The dense path has no graph; count the edges the exact graph would
  // have (pairs with nonzero similarity), outside every span.
  if (sims) {
    const std::size_t n = sims->size();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (sims->At(i, j) > 0.0) ++r.graph_edges;
      }
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Load phases.

struct LoadCounts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void Add(const LoadCounts& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

struct ClosedLoopResult {
  LoadCounts counts;
  double qps = 0.0;  ///< Answers per second of wall time.
};

/// One client per entry of \p rngs (each drawing its query stream from its
/// own generator) keeps kClosedInFlight Classify requests outstanding for
/// \p seconds, sending the next query as soon as the oldest answer arrives.
/// Keeping the queue non-empty measures what the workers can serve rather
/// than how fast threads wake each other.
ClosedLoopResult RunClosedLoop(PaygoServer& server, const QueryGenerator& gen,
                               std::vector<Rng>& rngs, double seconds) {
  using Future = std::future<Result<std::vector<DomainScore>>>;
  std::vector<LoadCounts> per_thread(rngs.size());
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (std::size_t k = 0; k < rngs.size(); ++k) {
    clients.emplace_back([&, k] {
      LoadCounts& c = per_thread[k];
      std::deque<Future> in_flight;
      auto complete_oldest = [&] {
        const bool ok = in_flight.front().get().ok();
        in_flight.pop_front();
        ++c.attempted;
        if (!ok) ++c.failed;
      };
      while (Clock::now() < deadline) {
        while (in_flight.size() < kClosedInFlight) {
          in_flight.push_back(server.ClassifyAsync(NextQuery(gen, rngs[k])));
        }
        complete_oldest();
      }
      while (!in_flight.empty()) complete_oldest();
    });
  }
  for (std::thread& t : clients) t.join();
  ClosedLoopResult r;
  const double elapsed_s = Seconds(Clock::now() - t0);
  for (const LoadCounts& c : per_thread) r.counts.Add(c);
  r.qps = static_cast<double>(r.counts.attempted - r.counts.failed) / elapsed_s;
  return r;
}

struct OpenLoopResult {
  LoadCounts counts;
  std::vector<double> latency_us;  ///< From due time to the answer.
  std::vector<double> late_us;     ///< How late each query was sent.
};

/// Open loop at \p rate: query i is due at t0 + i / rate. kLoadThreads
/// senders take the next due slot, wait for it, and send synchronously; a
/// query sent late still counts its wait from the due time (so a stall is
/// charged to every query it delays).
OpenLoopResult RunOpenLoop(PaygoServer& server,
                           const std::vector<std::string>& queries,
                           double rate) {
  OpenLoopResult r;
  r.latency_us.assign(queries.size(), 0.0);
  r.late_us.assign(queries.size(), 0.0);
  std::vector<char> ok(queries.size(), 0);
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const double period_ns = 1e9 / rate;
  std::vector<std::thread> senders;
  for (int k = 0; k < kLoadThreads; ++k) {
    senders.emplace_back([&] {
      TightenTimerSlack();
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= queries.size()) break;
        const Clock::time_point due =
            t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                     period_ns * static_cast<double>(i)));
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        ok[i] = server.Classify(queries[i]).ok() ? 1 : 0;
        r.latency_us[i] = Micros(Clock::now() - due);
        r.late_us[i] = Micros(sent - due);
      }
    });
  }
  for (std::thread& t : senders) t.join();
  const double window_us = 1e6 * static_cast<double>(queries.size()) / rate;
  r.counts.attempted = queries.size();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!ok[i]) {
      // A refused or failed query misses any latency limit.
      ++r.counts.failed;
      r.latency_us[i] = std::max(r.latency_us[i], window_us);
    }
  }
  return r;
}

struct ArrivalResult {
  LoadCounts counts;
  std::vector<double> latency_ms;  ///< Call to the future resolving.
};

/// Sends the held-out schemas through AddSchemaAsync one after another;
/// each is timed from its call to its future resolving, which happens once
/// the snapshot holding it is published.
ArrivalResult RunArrivals(PaygoServer& server, const SchemaCorpus& arrivals) {
  ArrivalResult out;
  for (std::size_t j = 0; j < arrivals.size(); ++j) {
    const Clock::time_point t0 = Clock::now();
    const Status st =
        server.AddSchemaAsync(arrivals.schema(j), arrivals.labels(j)).get();
    out.latency_ms.push_back(Micros(Clock::now() - t0) / 1e3);
    ++out.counts.attempted;
    if (!st.ok()) {
      ++out.counts.failed;
      std::cerr << "arrival " << j << " failed: " << st << "\n";
    }
  }
  return out;
}

/// Sends each query through the server and asks the served snapshot
/// directly; the rankings must be bitwise-equal. Records both latencies,
/// alternating which call goes first so neither always finds the query's
/// data warm in the CPU caches.
LoadCounts CheckServedAgainstDirect(PaygoServer& server,
                                    const std::vector<std::string>& queries,
                                    Checks& checks,
                                    std::vector<double>* served_us,
                                    std::vector<double>* direct_us) {
  LoadCounts counts;
  const PaygoServer::Snapshot snap = server.snapshot();
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    std::optional<Result<std::vector<DomainScore>>> served, direct;
    double served_call_us = 0.0, direct_call_us = 0.0;
    for (int call = 0; call < 2; ++call) {
      const bool serve_now = (call == 0) == (i % 2 == 0);
      const Clock::time_point t0 = Clock::now();
      if (serve_now) {
        served.emplace(server.Classify(queries[i]));
        served_call_us = Micros(Clock::now() - t0);
      } else {
        direct.emplace(snap->ClassifyKeywordQuery(queries[i]));
        direct_call_us = Micros(Clock::now() - t0);
      }
    }
    ++counts.attempted;
    if (!served->ok()) {
      ++counts.failed;
      continue;
    }
    if (!direct->ok() || !BitwiseEqual(**served, **direct)) ++mismatches;
    if (served_us) served_us->push_back(served_call_us);
    if (direct_us) direct_us->push_back(direct_call_us);
  }
  checks.Expect(mismatches == 0,
                std::to_string(mismatches) +
                    " served rankings differ from direct ClassifyKeywordQuery");
  checks.Expect(counts.failed == 0, "a check query was not served");
  return counts;
}

struct DirectLatency {
  LoadCounts counts;
  std::vector<double> best_us;  ///< Per query, its fastest pass.
};

/// One thread asks \p sys for every query of \p queries, \p passes times
/// over; only the ClassifyKeywordQuery call is timed, and each query keeps
/// its fastest time. The passes span several seconds, so a query's best
/// time misses the seconds in which the host slowed the machine.
DirectLatency RunDirectQueries(const IntegrationSystem& sys,
                               const std::vector<std::string>& queries,
                               std::size_t passes) {
  DirectLatency r;
  r.best_us.assign(queries.size(), std::numeric_limits<double>::infinity());
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      const bool ok = sys.ClassifyKeywordQuery(queries[i]).ok();
      r.best_us[i] = std::min(r.best_us[i], Micros(Clock::now() - t0));
      ++r.counts.attempted;
      if (!ok) ++r.counts.failed;
    }
  }
  return r;
}

/// §6.4 top-1 hit rate of direct ClassifyKeywordQuery calls on \p sys.
double Top1Accuracy(const IntegrationSystem& sys,
                    const std::vector<GeneratedQuery>& eval, Checks& checks) {
  std::vector<std::vector<std::string>> domain_labels;
  domain_labels.reserve(sys.domains().num_domains());
  for (std::uint32_t d = 0; d < sys.domains().num_domains(); ++d) {
    domain_labels.push_back(DominantLabels(sys.domains(), d, sys.corpus()));
  }
  TopKAccumulator acc;
  std::size_t failures = 0;
  for (const GeneratedQuery& q : eval) {
    auto ranking = sys.ClassifyKeywordQuery(Join(q.keywords, " "));
    if (!ranking.ok()) {
      ++failures;
      continue;
    }
    acc.Record(*ranking, domain_labels, q.target_label);
  }
  checks.Expect(failures == 0, "direct ClassifyKeywordQuery failed");
  return acc.Top1Fraction();
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, const LoadCounts& counts,
                 const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(12);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << counts.attempted
     << ", \"failed\": " << counts.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << (std::isfinite(metrics[i].value) ? metrics[i].value : -1.0)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void PrintSelfTimes(const SpanRecorder& rec) {
  std::cerr << "traced spans (name: count, total s, self s):\n";
  for (const auto& [name, t] : rec.TotalsByName()) {
    std::cerr << "  " << std::left << std::setw(22) << name << std::right
              << std::setw(7) << t.count << std::fixed << std::setprecision(4)
              << std::setw(10) << t.total_s << std::setw(10) << t.self_s
              << "\n";
  }
  std::cerr.unsetf(std::ios::floatfield);
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0') return std::nullopt;
    } else if (flag == "--trace") {
      a.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (a.workload.empty() || !have_seed || !(a.seconds > 0.0) || a.trace < 0) {
    return std::nullopt;
  }
  return a;
}

int Run(const Workload& w, const Args& args) {
  const bool traced = args.trace == 1;
  Checks checks;
  SpanRecorder rec;
  LoadCounts counts;

  const Inputs in = MakeInputs(w, args.seed);
  const SystemOptions options = MakeSystemOptions(w);
  std::cerr << "workload " << w.name << " seed " << args.seed << ": "
            << in.base.size() << " schemas + " << in.arrivals.size()
            << " arrivals\n";

  // Setup: Build from the generated corpus, several times.
  std::vector<double> setup_s;
  std::unique_ptr<IntegrationSystem> sys;
  std::optional<DomainModel> first_model;
  for (int k = 0; k < kSetupRepeats; ++k) {
    SchemaCorpus corpus = in.base;
    sys.reset();
    std::optional<ScopedSpan> span;
    if (traced) span.emplace(rec, "core.build");
    const Clock::time_point t0 = Clock::now();
    auto built = IntegrationSystem::Build(std::move(corpus), options);
    setup_s.push_back(Seconds(Clock::now() - t0));
    span.reset();
    if (!built.ok()) {
      std::cerr << "Build failed: " << built.status() << "\n";
      return 1;
    }
    sys = std::move(*built);
    if (!first_model) {
      first_model = sys->domains();
    } else {
      checks.Expect(SameModel(*first_model, sys->domains()),
                    "repeated Build produced a different domain model");
    }
  }
  const double setup_median = Median(setup_s);
  std::cerr << "setup " << setup_median << " s (" << sys->lexicon().dim()
            << " dims, " << sys->domains().num_domains() << " domains)\n";

  // The traced replay runs after the builds, so it meets the same warm
  // heap they did and trace_overhead compares like with like.
  std::optional<ReplayResult> replay;
  if (traced) {
    auto r = ReplayBuild(in.base, options, rec);
    if (!r.ok()) {
      std::cerr << "replay failed: " << r.status() << "\n";
      return 1;
    }
    replay = std::move(*r);
    checks.Expect(SameModel(replay->model, sys->domains()),
                  "stage replay drifted from Build's domain model");
  }

  const ClusteringEvaluation cluster_eval =
      EvaluateClustering(sys->domains(), in.base);
  QueryGeneratorOptions gen_options;
  gen_options.min_label_fraction = w.min_label_fraction;
  auto gen_or = QueryGenerator::Build(in.base, sys->lexicon(), gen_options);
  if (!gen_or.ok()) {
    std::cerr << "QueryGenerator failed: " << gen_or.status() << "\n";
    return 1;
  }
  const QueryGenerator gen = std::move(*gen_or);

  // Traced layer phases: featurize vs score, then clone plus AddSchema.
  std::vector<double> featurize_us, score_us, clone_us, add_ms;
  double refresh_ratio = 0.0;
  if (traced) {
    const QueryFeaturizer featurizer(sys->tokenizer(), sys->vectorizer());
    for (const std::string& q : MakeQueries(
             gen, DeriveSeed(args.seed, kTraceQuerySeed), kTraceQueries)) {
      ScopedSpan query(rec, "query");
      DynamicBitset f;
      {
        ScopedSpan s(rec, "text.featurize");
        f = featurizer.Featurize(q);
        featurize_us.push_back(s.End() * 1e6);
      }
      ScopedSpan s(rec, "classify.score");
      const std::vector<DomainScore> ranking = sys->classifier().Classify(f);
      score_us.push_back(s.End() * 1e6);
      checks.Expect(!ranking.empty(), "classifier returned no domains");
    }
    const std::uint64_t refreshed0 =
        CounterValue("paygo.classifier.domains_refreshed");
    const std::uint64_t reused0 =
        CounterValue("paygo.classifier.domains_reused");
    std::unique_ptr<IntegrationSystem> cur = sys->Clone();
    for (std::size_t j = 0; j < kTraceAdds && j < in.arrivals.size(); ++j) {
      std::unique_ptr<IntegrationSystem> draft;
      {
        ScopedSpan s(rec, "core.clone");
        draft = cur->Clone();
        clone_us.push_back(s.End() * 1e6);
      }
      ScopedSpan s(rec, "core.add_schema");
      auto added = draft->AddSchema(in.arrivals.schema(j),
                                    in.arrivals.labels(j));
      add_ms.push_back(s.End() * 1e3);
      checks.Expect(added.ok(), "AddSchema on a clone failed");
      cur = std::move(draft);
    }
    const double refreshed = static_cast<double>(
        CounterValue("paygo.classifier.domains_refreshed") - refreshed0);
    const double reused = static_cast<double>(
        CounterValue("paygo.classifier.domains_reused") - reused0);
    refresh_ratio = Ratio(refreshed, refreshed + reused);
  }

  // Serve.
  ServeOptions serve_options;
  serve_options.num_workers = kServeWorkers;
  PaygoServer server(std::move(sys), serve_options);
  if (Status st = server.Start(); !st.ok()) {
    std::cerr << "server start failed: " << st << "\n";
    return 1;
  }
  std::vector<double> served_us, direct_us;
  counts.Add(CheckServedAgainstDirect(
      server,
      MakeQueries(gen, DeriveSeed(args.seed, kCheckPreSeed), kCheckQueries),
      checks, &served_us, &direct_us));

  // Load phases. On a shared host the machine's speed wanders by 10-20%
  // from one second to the next, so no metric is one block's figure: direct
  // queries keep their best of one pass per round, and throughput is the
  // median over rounds. Direct queries run first: after the served phases
  // their latency spread twice as widely from run to run.
  const std::size_t rounds = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(args.seconds / kRoundSeconds)));
  const double round_s = args.seconds / static_cast<double>(rounds);
  DirectLatency direct;
  {
    std::optional<ScopedSpan> span;
    if (traced) span.emplace(rec, "core.direct_queries");
    direct = RunDirectQueries(
        *server.snapshot(),
        MakeQueries(gen, DeriveSeed(args.seed, kDirectSeed), w.direct_queries),
        rounds);
  }
  std::vector<double> qps_by_round;
  {
    std::optional<ScopedSpan> span;
    if (traced) span.emplace(rec, "serve.closed_loop");
    std::vector<Rng> rngs;
    rngs.reserve(kLoadThreads);
    for (int k = 0; k < kLoadThreads; ++k) {
      rngs.emplace_back(DeriveSeed(args.seed, kClosedLoopSeed + k));
    }
    for (std::size_t r = 0; r < rounds; ++r) {
      const ClosedLoopResult c =
          RunClosedLoop(server, gen, rngs, kClosedShare * round_s);
      counts.Add(c.counts);
      qps_by_round.push_back(c.qps);
    }
  }
  OpenLoopResult open;
  {
    std::optional<ScopedSpan> span;
    if (traced) span.emplace(rec, "serve.open_loop");
    open = RunOpenLoop(
        server,
        MakeQueries(gen, DeriveSeed(args.seed, kOpenLoopSeed),
                    static_cast<std::size_t>(std::ceil(
                        w.read_rate * kOpenShare * args.seconds))),
        w.read_rate);
  }
  ArrivalResult arrivals;
  {
    std::optional<ScopedSpan> span;
    if (traced) span.emplace(rec, "serve.arrivals");
    arrivals = RunArrivals(server, in.arrivals);
  }
  counts.Add(direct.counts);
  counts.Add(open.counts);
  counts.Add(arrivals.counts);
  checks.Expect(direct.counts.failed == 0,
                "a direct ClassifyKeywordQuery failed");
  checks.Expect(arrivals.counts.failed == 0, "an arrival was not OK");
  checks.Expect(server.snapshot()->corpus().size() ==
                    in.base.size() + in.arrivals.size(),
                "final snapshot does not hold n + arrivals schemas");
  counts.Add(CheckServedAgainstDirect(
      server,
      MakeQueries(gen, DeriveSeed(args.seed, kCheckPostSeed), kCheckQueries),
      checks, nullptr, nullptr));

  std::vector<GeneratedQuery> eval;
  {
    Rng rng(DeriveSeed(args.seed, kEvalSeed));
    for (std::size_t i = 0; i < kEvalQueries; ++i) {
      eval.push_back(gen.Generate(1 + rng.NextBelow(5), rng));
    }
  }
  const double top1 = Top1Accuracy(*server.snapshot(), eval, checks);

  const ServerMetrics& sm = server.metrics();
  const double cache_hit_rate = sm.CacheHitRate();
  const std::uint64_t rejected = sm.requests_rejected.load();
  const std::uint64_t timed_out = sm.requests_timed_out.load();
  const std::uint64_t swaps = sm.snapshot_swaps.load();
  server.Stop();

  const double query_qps = Median(qps_by_round);
  const double query_p50_us = Median(direct.best_us);
  const double open_p50_us = WindowedPercentile(open.latency_us, 0.5);
  const double open_p95_us = WindowedPercentile(open.latency_us, 0.95);
  const double open_p99_us = WindowedPercentile(open.latency_us, 0.99);
  std::cerr << "served " << query_qps << " q/s, direct p50 " << query_p50_us
            << " us, open loop p50 " << open_p50_us << " us p95 "
            << open_p95_us << " us p99 " << open_p99_us << " us, adds p50 "
            << Median(arrivals.latency_ms) << " ms p95 "
            << Percentile(arrivals.latency_ms, 0.95) << " ms, cache hit "
            << cache_hit_rate << ", top1 " << top1 << "\n";

  std::vector<Metric> metrics;
  if (!traced) {
    metrics = {
        {"setup_s", setup_median, "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"add_p50_ms", Median(arrivals.latency_ms), "ms"},
        {"add_p95_ms", Percentile(arrivals.latency_ms, 0.95), "ms"},
        {"top1_accuracy", top1, "fraction"},
        {"cluster_precision", cluster_eval.avg_precision, "fraction"},
        {"cluster_recall", cluster_eval.avg_recall, "fraction"},
    };
  } else {
    const ReplayResult& r = *replay;
    metrics = {
        {"text.lexicon_s", r.lexicon_s, "s"},
        {"text.index_build_s", r.index_build_s, "s"},
        {"text.index_pairs_evaluated", static_cast<double>(r.index_pairs),
         "count"},
        {"text.index_yield",
         Ratio(static_cast<double>(r.index_neighbors),
               static_cast<double>(r.index_pairs)),
         "ratio"},
        {"text.featurize_us", Median(featurize_us), "us"},
        {"schema.vectorize_s", r.vectorize_s, "s"},
        {"cluster.similarity_s", r.similarity_s, "s"},
        {"cluster.similarity_mb", r.similarity_mb, "MB"},
        {"cluster.hac_s", r.hac_s, "s"},
        {"cluster.hac_merges", static_cast<double>(r.hac_merges), "count"},
        {"cluster.hac_stale_skip_ratio",
         Ratio(static_cast<double>(r.hac_stale),
               static_cast<double>(r.hac_pushes)),
         "ratio"},
        {"cluster.graph_edges", static_cast<double>(r.graph_edges), "count"},
        {"cluster.assign_s", r.assign_s, "s"},
        {"mediate.build_s", r.mediate_s, "s"},
        {"classify.build_s", r.classify_s, "s"},
        {"classify.model_mb", r.classify_mb, "MB"},
        {"classify.score_us", Median(score_us), "us"},
        {"classify.refresh_ratio", refresh_ratio, "ratio"},
        {"core.build_s", setup_median, "s"},
        {"core.stage_coverage", Ratio(r.StageSum(), setup_median), "ratio"},
        {"core.clone_us", Median(clone_us), "us"},
        {"core.add_schema_ms", Median(add_ms), "ms"},
        {"core.query_p50_us", query_p50_us, "us"},
        {"serve.overhead_us", Median(served_us) - Median(direct_us), "us"},
        {"serve.cache_hit_rate", cache_hit_rate, "fraction"},
        {"serve.rejected", static_cast<double>(rejected), "count"},
        {"serve.timed_out", static_cast<double>(timed_out), "count"},
        {"serve.swaps", static_cast<double>(swaps), "count"},
        {"serve.query_qps", query_qps, "1/s"},
        {"serve.query_p50_us", open_p50_us, "us"},
        {"serve.query_p95_us", open_p95_us, "us"},
        {"serve.query_p99_us", open_p99_us, "us"},
        {"bench.gen_late_p99_us", Percentile(open.late_us, 0.99), "us"},
        {"bench.trace_overhead", Ratio(r.total_s, setup_median) - 1.0,
         "ratio"},
        {"bench.failed_frac",
         Ratio(static_cast<double>(counts.failed),
               static_cast<double>(counts.attempted)),
         "fraction"},
    };
    PrintSelfTimes(rec);
    if (!args.trace_out.empty() && !rec.WriteChromeTrace(args.trace_out)) {
      std::cerr << "could not write " << args.trace_out << "\n";
    }
  }
  PrintResult(checks.ok(), counts, metrics);
  return checks.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) {
    std::cerr << "usage: pipeline_bench --workload ddh|web "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n";
    return 2;
  }
  for (const Workload& w : kWorkloads) {
    if (args->workload == w.name) return Run(w, *args);
  }
  std::cerr << "unknown workload '" << args->workload << "'\n";
  return 2;
}
