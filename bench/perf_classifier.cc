/// \file perf_classifier.cc
/// \brief Classifier performance: google-benchmark microbenchmarks plus a
/// gated batch-throughput harness.
///
/// Two personalities in one binary:
///
///  * **google-benchmark mode** (no harness flags, the default): the
///    Section 5.3 microbenchmarks — exhaustive vs factored setup cost and
///    single-query classification time.
///  * **harness mode** (any of --check/--smoke/--json-out/--human/
///    --domains/--dim/--bits/--queries/--seconds/--batches/--shape): two
///    lanes, both writing BENCH_classifier.json (schema in
///    bench/README.md).
///    - `--shape dense` (default): a synthetic classifier whose every
///      conditional is distinct. Measures single-thread classify
///      throughput and per-query p50/p99 latency at each batch size via
///      the zero-alloc ClassifyInto/ClassifyBatchInto paths, interleaving
///      the batch sizes over 5 rounds; with --check exits 1 unless the
///      median per-round batch-64 / batch-1 throughput ratio is >= 2 AND
///      per-query p99 stays under budget — the CI regression gate for the
///      struct-of-arrays batch sweep (tools/ci.sh).
///    - `--shape web`: the many-domain web shape built from raw
///      MakeManyDomainCorpus text (--domains pseudo-domains) through
///      IntegrationSystem::Build. Measures the classifier's build seconds,
///      MemoryBytes() against the 2 * |D| * dim * 8 bytes of dense rows,
///      and classify p50/p99 over generated keyword queries; with --check
///      exits 1 unless the model stays under 5% of the dense bytes and
///      every p99 under budget.
///
/// The headline microbenchmark contrast: the thesis's exhaustive setup is
/// exponential in the number of uncertain schemas per domain (2^u
/// subsets), while the factored engine is polynomial — the exact removal
/// of the exponential factor that Chapter 7 lists as future work.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "classify/approx_classifier.h"
#include "classify/naive_bayes.h"
#include "core/integration_system.h"
#include "synth/many_domains.h"
#include "synth/query_generator.h"
#include "util/bitset.h"
#include "util/random.h"
#include "util/string_util.h"

namespace paygo {
namespace {

/// One domain with `u` uncertain and `c` certain members over `dim`
/// features.
struct DomainFixture {
  std::vector<DynamicBitset> features;
  DomainModel model;
  std::size_t total;

  DomainFixture(std::size_t certain, std::size_t uncertain, std::size_t dim) {
    Rng rng(17);
    total = certain + uncertain;
    features.assign(total, DynamicBitset(dim));
    std::vector<std::vector<std::uint32_t>> clusters(1);
    std::vector<std::vector<std::pair<std::uint32_t, double>>> sd(total);
    for (std::uint32_t i = 0; i < total; ++i) {
      for (std::size_t b = 0; b < dim; ++b) {
        if (rng.NextBernoulli(0.2)) features[i].Set(b);
      }
      clusters[0].push_back(i);
      const double p =
          i < certain ? 1.0 : 0.1 + 0.8 * rng.NextDouble();
      sd[i] = {{0, p}};
    }
    model = DomainModel::Build(std::move(clusters), std::move(sd));
  }
};

void BM_SetupExhaustive(benchmark::State& state) {
  const DomainFixture fx(8, state.range(0), 500);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeDomainConditionals(
        fx.model, 0, fx.features, fx.total, ClassifierEngine::kExhaustive,
        64));
  }
  state.SetLabel("u=" + std::to_string(state.range(0)) + " (2^u subsets)");
}
BENCHMARK(BM_SetupExhaustive)->DenseRange(2, 20, 3);

void BM_SetupFactored(benchmark::State& state) {
  const DomainFixture fx(8, state.range(0), 500);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeDomainConditionals(
        fx.model, 0, fx.features, fx.total, ClassifierEngine::kFactored, 64));
  }
  state.SetLabel("u=" + std::to_string(state.range(0)) + " (poly)");
}
// The factored engine keeps going long after the exhaustive one has
// exploded.
BENCHMARK(BM_SetupFactored)->DenseRange(2, 20, 3)->Arg(50)->Arg(200);

void BM_SetupExpectedWorld(benchmark::State& state) {
  const DomainFixture fx(8, state.range(0), 500);
  ApproxClassifierOptions opts;
  opts.kind = ApproxKind::kExpectedWorld;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeApproxDomainConditionals(
        fx.model, 0, fx.features, fx.total, opts));
  }
}
BENCHMARK(BM_SetupExpectedWorld)->Arg(8)->Arg(50)->Arg(200);

void BM_SetupMonteCarlo(benchmark::State& state) {
  const DomainFixture fx(8, 50, 500);
  ApproxClassifierOptions opts;
  opts.kind = ApproxKind::kMonteCarlo;
  opts.num_samples = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeApproxDomainConditionals(
        fx.model, 0, fx.features, fx.total, opts));
  }
}
BENCHMARK(BM_SetupMonteCarlo)->Arg(128)->Arg(1024)->Arg(8192);

/// A classifier whose every conditional is drawn at random, so no two
/// features of a domain share a value: the dense worst case of the sparse
/// layout (every feature but one is an exception).
NaiveBayesClassifier RandomDenseClassifier(std::size_t num_domains,
                                           std::size_t dim, Rng& rng) {
  std::vector<DomainConditionals> conds;
  conds.reserve(num_domains);
  std::vector<double> q1(dim);
  for (std::size_t r = 0; r < num_domains; ++r) {
    const double prior = 0.01 + rng.NextDouble();
    for (double& q : q1) q = 0.001 + 0.9 * rng.NextDouble();
    conds.push_back(SparsifyConditionals(prior, q1));
  }
  auto clf = NaiveBayesClassifier::FromConditionals(
      std::move(conds), std::vector<bool>(num_domains, false), {});
  if (!clf.ok()) {
    std::cerr << "synthetic classifier rejected: " << clf.status() << "\n";
    std::exit(1);
  }
  return std::move(*clf);
}

void BM_QueryClassification(benchmark::State& state) {
  // |D| domains over dim features; measure per-query ranking cost.
  const std::size_t num_domains = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = 2000;
  Rng rng(23);
  const NaiveBayesClassifier clf = RandomDenseClassifier(num_domains, dim, rng);
  DynamicBitset query(dim);
  for (int k = 0; k < 6; ++k) query.Set(rng.NextBelow(dim));
  for (auto _ : state) {
    benchmark::DoNotOptimize(clf.Classify(query));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryClassification)->Arg(10)->Arg(50)->Arg(200);

// ---------------------------------------------------------------------------
// Harness mode: the gated batch-throughput measurement.
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// The web lane's --check gate: the sparse model must stay under this
/// fraction of the 2 * |D| * dim * 8 bytes dense rows would take.
constexpr double kMaxModelFraction = 0.05;

struct HarnessOptions {
  /// "dense" (the batch-sweep gate) or "web" (the many-domain model).
  std::string shape = "dense";
  // The default shape makes the sweep memory-bound (the regime batching is
  // for): num_domains * dim * 8 bytes of log-odds far exceeds L2, and
  // dense-ish queries make each domain row earn its cache residency.
  /// Classifier domains (dense) or MakeManyDomainCorpus pseudo-domains
  /// (web); 0 picks the lane's default, 600 or 1000.
  std::size_t num_domains = 0;
  std::size_t dim = 4000;
  std::size_t bits = 48;      ///< set features per query
  std::size_t queries = 512;  ///< pool size (multiple of every batch size)
  double seconds = 1.0;       ///< time box per batch size
  std::vector<std::size_t> batches = {1, 8, 64};
  bool check = false;
  double min_speedup = 2.0;      ///< batch-64-vs-1 throughput gate
  double p99_budget_us = 20000;  ///< per-query p99 budget, every batch size
  std::string json_out = "BENCH_classifier.json";  // "" disables the file
  bool human = false;
};

struct BatchPoint {
  std::size_t batch = 0;
  double qps = 0.0;
  double p50_us = 0.0;   // per-query
  double p99_us = 0.0;
  double mean_us = 0.0;
  std::uint64_t total_queries = 0;
};

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Rounds of the batch sweep. Each round measures every batch size once,
/// in order, so a slow phase of a shared machine hits all sizes alike; the
/// speedup gate takes the median of the per-round throughput ratios.
constexpr std::size_t kSweepRounds = 5;

/// One timed run of one batch size.
struct BatchSamples {
  std::vector<double> per_query_us;
  std::uint64_t total_queries = 0;
  double elapsed_us = 0.0;

  double qps() const {
    return elapsed_us > 0.0 ? total_queries / (elapsed_us / 1e6) : 0.0;
  }
};

/// Single-thread throughput at one batch size, through the zero-alloc
/// paths (batch 1 = ClassifyInto, the single-query hot path; batch B > 1 =
/// one ClassifyBatchInto sweep per chunk). Per-query latency for a sweep
/// is sweep_time / B.
BatchSamples SampleBatchSize(const NaiveBayesClassifier& clf,
                             const std::vector<DynamicBitset>& pool,
                             std::size_t batch, double seconds) {
  ClassifyScratch scratch;
  std::vector<DomainScore> single_out;
  std::vector<std::vector<DomainScore>> batch_out;

  auto run_chunk = [&](std::size_t start) {
    if (batch == 1) {
      clf.ClassifyInto(pool[start], &scratch, &single_out);
    } else {
      clf.ClassifyBatchInto(
          std::span<const DynamicBitset>(pool.data() + start, batch),
          &scratch, &batch_out);
    }
  };
  for (std::size_t s = 0; s < pool.size(); s += batch) run_chunk(s);  // warm

  BatchSamples out;
  const Clock::time_point t0 = Clock::now();
  const double budget_us = seconds * 1e6;
  while (MicrosSince(t0) < budget_us) {
    for (std::size_t s = 0; s < pool.size(); s += batch) {
      const Clock::time_point c0 = Clock::now();
      run_chunk(s);
      out.per_query_us.push_back(MicrosSince(c0) /
                                 static_cast<double>(batch));
      out.total_queries += batch;
    }
  }
  out.elapsed_us = MicrosSince(t0);
  return out;
}

/// Pools one batch size's samples over all rounds.
BatchPoint Summarize(std::size_t batch, BatchSamples samples) {
  BatchPoint point;
  point.batch = batch;
  point.total_queries = samples.total_queries;
  point.qps = samples.qps();
  std::vector<double>& us = samples.per_query_us;
  std::sort(us.begin(), us.end());
  if (!us.empty()) {
    point.p50_us = us[us.size() / 2];
    point.p99_us = us[std::min(us.size() - 1,
                               static_cast<std::size_t>(us.size() * 0.99))];
    for (double v : us) point.mean_us += v;
    point.mean_us /= static_cast<double>(us.size());
  }
  return point;
}

/// Writes BENCH_classifier.json: {"bench", "ts_ms", "config", "results"}.
bool WriteBenchJson(const HarnessOptions& opts, const std::string& bench,
                    const std::string& config, const std::string& results) {
  if (opts.json_out.empty()) return true;
  const auto ts_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
  std::ofstream out(opts.json_out, std::ios::trunc);
  out << "{\"bench\": \"" << bench << "\", \"ts_ms\": " << ts_ms
      << ", \"config\": " << config << ", \"results\": " << results
      << "}\n";
  if (!out) {
    std::cerr << "failed writing " << opts.json_out << "\n";
    return false;
  }
  std::cerr << "wrote " << opts.json_out << "\n";
  return true;
}

std::string BatchesJson(const std::vector<BatchPoint>& points) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const BatchPoint& p = points[i];
    if (i > 0) os << ", ";
    os << "{\"batch\": " << p.batch << ", \"qps\": " << p.qps
       << ", \"p50_us\": " << p.p50_us << ", \"p99_us\": " << p.p99_us
       << ", \"mean_us\": " << p.mean_us
       << ", \"total_queries\": " << p.total_queries << "}";
  }
  os << "]";
  return os.str();
}

/// True when every batch size's p99 is within \p budget_us; otherwise
/// appends each overrun to \p detail.
bool P99WithinBudget(const std::vector<BatchPoint>& points, double budget_us,
                     std::string* detail) {
  bool ok = true;
  for (const BatchPoint& p : points) {
    if (p.p99_us > budget_us) {
      ok = false;
      *detail += "batch-" + std::to_string(p.batch) + " p99 " +
                 std::to_string(p.p99_us) + "us over budget " +
                 std::to_string(budget_us) + "us; ";
    }
  }
  return ok;
}

/// Measures every requested batch size over \p pool, interleaved over
/// kSweepRounds rounds of seconds / kSweepRounds each; \p round_qps[k] gets
/// batch size k's throughput in each round. False (after printing why)
/// when a batch size does not divide the pool.
bool MeasureBatches(const NaiveBayesClassifier& clf,
                    const std::vector<DynamicBitset>& pool,
                    const HarnessOptions& opts,
                    std::vector<BatchPoint>* points,
                    std::vector<std::vector<double>>* round_qps) {
  for (std::size_t batch : opts.batches) {
    if (batch == 0 || pool.size() % batch != 0) {
      std::cerr << "batch size " << batch << " must divide --queries "
                << pool.size() << "\n";
      return false;
    }
  }
  const std::size_t sizes = opts.batches.size();
  std::vector<BatchSamples> pooled(sizes);
  round_qps->assign(sizes, {});
  for (std::size_t round = 0; round < kSweepRounds; ++round) {
    for (std::size_t k = 0; k < sizes; ++k) {
      BatchSamples s = SampleBatchSize(clf, pool, opts.batches[k],
                                       opts.seconds / kSweepRounds);
      (*round_qps)[k].push_back(s.qps());
      BatchSamples& acc = pooled[k];
      acc.per_query_us.insert(acc.per_query_us.end(), s.per_query_us.begin(),
                              s.per_query_us.end());
      acc.total_queries += s.total_queries;
      acc.elapsed_us += s.elapsed_us;
    }
  }
  for (std::size_t k = 0; k < sizes; ++k) {
    points->push_back(Summarize(opts.batches[k], std::move(pooled[k])));
  }
  return true;
}

/// The web lane: raw many-domain text -> IntegrationSystem::Build (the
/// pipeline benchmark's web options), then the classifier rebuilt alone
/// (timed) and queried with generated keyword queries.
int RunWebHarness(const HarnessOptions& opts) {
  SystemOptions options;
  options.sparse_build = true;
  auto built = IntegrationSystem::Build(
      MakeManyDomainCorpus({.num_domains = opts.num_domains}), options);
  if (!built.ok()) {
    std::cerr << "web build failed: " << built.status() << "\n";
    return 1;
  }
  const IntegrationSystem& sys = **built;
  const Clock::time_point t0 = Clock::now();
  auto clf = NaiveBayesClassifier::Build(sys.domains(), sys.features(),
                                         sys.corpus().size(),
                                         options.classifier);
  const double build_s = MicrosSince(t0) / 1e6;
  if (!clf.ok()) {
    std::cerr << "classifier build failed: " << clf.status() << "\n";
    return 1;
  }
  const std::size_t model_bytes = clf->MemoryBytes();
  const double dense_bytes = 2.0 * static_cast<double>(clf->num_domains()) *
                             static_cast<double>(clf->dim()) * 8.0;
  const double fraction = dense_bytes > 0 ? model_bytes / dense_bytes : 0.0;

  QueryGeneratorOptions gen_options;
  gen_options.min_label_fraction = 0.25;
  auto gen = QueryGenerator::Build(sys.corpus(), sys.lexicon(), gen_options);
  if (!gen.ok()) {
    std::cerr << "query generator failed: " << gen.status() << "\n";
    return 1;
  }
  const QueryFeaturizer featurizer(sys.tokenizer(), sys.vectorizer());
  Rng rng(41);
  std::vector<DynamicBitset> pool;
  pool.reserve(opts.queries);
  for (std::size_t i = 0; i < opts.queries; ++i) {
    const std::size_t keywords = 1 + static_cast<std::size_t>(rng.NextBelow(5));
    pool.push_back(featurizer.Featurize(
        Join(gen->Generate(keywords, rng).keywords, " ")));
  }
  std::vector<BatchPoint> points;
  std::vector<std::vector<double>> round_qps;
  if (!MeasureBatches(*clf, pool, opts, &points, &round_qps)) return 2;

  bool check_failed = false;
  std::string check_detail;
  if (fraction > kMaxModelFraction) {
    check_failed = true;
    check_detail += "model " + std::to_string(model_bytes) + " B is " +
                    std::to_string(fraction) + " of the dense rows > " +
                    std::to_string(kMaxModelFraction) + "; ";
  }
  if (!P99WithinBudget(points, opts.p99_budget_us, &check_detail)) {
    check_failed = true;
  }

  std::ostringstream results;
  results << "{\"kernel\": \"" << DynamicBitset::KernelName()
          << "\", \"model_domains\": " << clf->num_domains()
          << ", \"dim\": " << clf->dim()
          << ", \"model_bytes\": " << model_bytes
          << ", \"dense_bytes\": " << dense_bytes
          << ", \"model_fraction\": " << fraction
          << ", \"build_s\": " << build_s
          << ", \"batches\": " << BatchesJson(points)
          << ", \"max_model_fraction\": " << kMaxModelFraction
          << ", \"p99_budget_us\": " << opts.p99_budget_us
          << ", \"check\": \"" << (check_failed ? "FAIL" : "PASS") << "\"}";
  std::ostringstream config;
  config << "{\"shape\": \"web\", \"domains\": " << opts.num_domains
         << ", \"queries\": " << opts.queries
         << ", \"seconds\": " << opts.seconds << "}";
  if (!WriteBenchJson(opts, "classifier_web", config.str(), results.str())) {
    return 1;
  }

  if (opts.human) {
    std::cout << "web shape: " << clf->num_domains() << " domains x "
              << clf->dim() << " features, model " << model_bytes
              << " B (" << fraction * 100.0 << "% of dense), build "
              << build_s << " s\n";
    for (const BatchPoint& p : points) {
      std::cout << "  batch " << p.batch << ": " << p.qps << " qps, p50 "
                << p.p50_us << "us, p99 " << p.p99_us << "us\n";
    }
  } else {
    std::cout << results.str() << "\n";
  }
  if (opts.check && check_failed) {
    std::cerr << "FAIL: " << check_detail << "\n";
    return 1;
  }
  return 0;
}

int RunHarness(const HarnessOptions& opts) {
  if (opts.shape == "web") return RunWebHarness(opts);
  if (opts.shape != "dense") {
    std::cerr << "unknown --shape " << opts.shape << " (dense|web)\n";
    return 2;
  }
  Rng rng(41);
  const NaiveBayesClassifier clf =
      RandomDenseClassifier(opts.num_domains, opts.dim, rng);

  std::vector<DynamicBitset> pool;
  pool.reserve(opts.queries);
  for (std::size_t i = 0; i < opts.queries; ++i) {
    DynamicBitset q(opts.dim);
    for (std::size_t k = 0; k < opts.bits; ++k) q.Set(rng.NextBelow(opts.dim));
    pool.push_back(std::move(q));
  }

  std::vector<BatchPoint> points;
  std::vector<std::vector<double>> round_qps;
  if (!MeasureBatches(clf, pool, opts, &points, &round_qps)) return 2;

  // The speedup is the median over rounds of batch-max / batch-1 measured
  // back to back, not a ratio of two time boxes far apart.
  std::size_t k1 = points.size(), kmax = 0;
  for (std::size_t k = 0; k < points.size(); ++k) {
    if (points[k].batch == 1) k1 = k;
    if (points[k].batch > points[kmax].batch) kmax = k;
  }
  const std::size_t bmax = points.empty() ? 0 : points[kmax].batch;
  std::vector<double> round_speedups;
  if (k1 < points.size()) {
    for (std::size_t r = 0; r < kSweepRounds; ++r) {
      const double b1 = round_qps[k1][r];
      round_speedups.push_back(b1 > 0.0 ? round_qps[kmax][r] / b1 : 0.0);
    }
  }
  std::vector<double> sorted_speedups = round_speedups;
  std::sort(sorted_speedups.begin(), sorted_speedups.end());
  const double speedup = sorted_speedups.empty()
                             ? 0.0
                             : sorted_speedups[sorted_speedups.size() / 2];

  bool check_failed = false;
  std::string check_detail;
  if (bmax > 1 && speedup < opts.min_speedup) {
    check_failed = true;
    check_detail += "batch-" + std::to_string(bmax) + " speedup " +
                    std::to_string(speedup) + "x < required " +
                    std::to_string(opts.min_speedup) + "x; ";
  }
  if (!P99WithinBudget(points, opts.p99_budget_us, &check_detail)) {
    check_failed = true;
  }

  std::ostringstream results;
  results << "{\"kernel\": \"" << DynamicBitset::KernelName()
          << "\", \"batches\": " << BatchesJson(points)
          << ", \"speedup_batch" << bmax << "_vs_1\": " << speedup
          << ", \"speedup_rounds\": [";
  for (std::size_t r = 0; r < round_speedups.size(); ++r) {
    results << (r ? ", " : "") << round_speedups[r];
  }
  results << "]"
          << ", \"min_speedup\": " << opts.min_speedup
          << ", \"p99_budget_us\": " << opts.p99_budget_us
          << ", \"check\": \"" << (check_failed ? "FAIL" : "PASS") << "\"}";

  std::ostringstream config;
  config << "{\"domains\": " << opts.num_domains << ", \"dim\": " << opts.dim
         << ", \"bits\": " << opts.bits << ", \"queries\": " << opts.queries
         << ", \"seconds\": " << opts.seconds << "}";
  if (!WriteBenchJson(opts, "classifier_batch", config.str(), results.str())) {
    return 1;
  }

  if (opts.human) {
    std::cout << "kernel " << DynamicBitset::KernelName() << ", "
              << opts.num_domains << " domains x " << opts.dim
              << " features, " << opts.bits << " set bits/query\n";
    for (const BatchPoint& p : points) {
      std::cout << "  batch " << p.batch << ": " << p.qps << " qps, p50 "
                << p.p50_us << "us, p99 " << p.p99_us << "us\n";
    }
    std::cout << "  batch-" << bmax << " vs batch-1 speedup: " << speedup
              << "x (median of " << round_speedups.size() << " rounds)\n";
  } else {
    std::cout << results.str() << "\n";
  }

  if (opts.check && check_failed) {
    std::cerr << "FAIL: " << check_detail << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace paygo

int main(int argc, char** argv) {
  paygo::HarnessOptions opts;
  bool harness = false;
  std::vector<char*> bench_args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--check") {
      opts.check = true;
      harness = true;
    } else if (arg == "--smoke") {
      // Shorter time box, same memory-bound shape (the speedup gate needs
      // the working set to stay bigger than cache).
      opts.seconds = 0.25;
      opts.queries = 256;
      harness = true;
    } else if (arg == "--shape" && next()) {
      opts.shape = argv[i];
      harness = true;
    } else if (arg == "--domains" && next()) {
      opts.num_domains = static_cast<std::size_t>(std::atoll(argv[i]));
      harness = true;
    } else if (arg == "--dim" && next()) {
      opts.dim = static_cast<std::size_t>(std::atoll(argv[i]));
      harness = true;
    } else if (arg == "--bits" && next()) {
      opts.bits = static_cast<std::size_t>(std::atoll(argv[i]));
      harness = true;
    } else if (arg == "--queries" && next()) {
      opts.queries = static_cast<std::size_t>(std::atoll(argv[i]));
      harness = true;
    } else if (arg == "--seconds" && next()) {
      opts.seconds = std::atof(argv[i]);
      harness = true;
    } else if (arg == "--batches" && next()) {
      opts.batches.clear();
      std::stringstream ss(argv[i]);
      std::string piece;
      while (std::getline(ss, piece, ',')) {
        opts.batches.push_back(
            static_cast<std::size_t>(std::atoll(piece.c_str())));
      }
      harness = true;
    } else if (arg == "--min-speedup" && next()) {
      opts.min_speedup = std::atof(argv[i]);
      harness = true;
    } else if (arg == "--p99-budget-us" && next()) {
      opts.p99_budget_us = std::atof(argv[i]);
      harness = true;
    } else if (arg == "--json-out" && next()) {
      opts.json_out = argv[i];
      harness = true;
    } else if (arg == "--human") {
      opts.human = true;
      harness = true;
    } else {
      bench_args.push_back(argv[i]);  // google-benchmark flag
    }
  }
  if (opts.num_domains == 0) {
    opts.num_domains = opts.shape == "web" ? 1000 : 600;
  }
  if (harness) return paygo::RunHarness(opts);

  int bench_argc = static_cast<int>(bench_args.size());
  ::benchmark::Initialize(&bench_argc, bench_args.data());
  if (::benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_args.data())) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
