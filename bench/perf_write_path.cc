/// \file perf_write_path.cc
/// \brief AddSchema churn benchmark of the delta write path.
///
/// Builds an integration system once per corpus, then streams extra
/// schemas into it the way the serving writer does — clone, mutate,
/// adopt — under both write paths:
///   * delta  — SystemOptions::delta_mutations = true (the default):
///     the arrival's sparse similarity row from the feature postings,
///     one-row matrix or graph extension, touched-domain mediation,
///     incremental classifier refresh;
///   * full   — delta_mutations = false: the legacy rebuild-everything
///     path, kept as the baseline.
/// Reports p50/p99/mean mutation latency per path and the speedup. A third
/// phase streams the same adds through a live PaygoServer and measures
/// snapshot staleness: the time from submitting AddSchemaAsync until a
/// reader polling server.generation() can observe the new snapshot.
///
/// Two corpus shapes (--shape):
///   * ddh (default): DDH-like corpora of --corpora sizes on the dense
///     similarity matrix; arrivals are generated on top of the base;
///   * web: MakeManyDomainCorpus at --domains pseudo-domains with
///     sparse_build, arrivals held out evenly across the corpus so they
///     join existing domains — the shape where an arrival shares features
///     with only a handful of schemas.
///
/// The delta run exports four O(delta) witnesses, all turned into
/// PASS/FAIL gates by `--check`:
///   * paygo.classifier.domains_refreshed / domains_reused: refreshed
///     domains must stay within a small per-add budget;
///   * paygo.arrival.postings_visited: on the web shape, the posting-list
///     entries read per arrival must stay within n / 8 for a base corpus of
///     n schemas (reported, not gated, on ddh, whose few domains make every
///     list long);
///   * paygo.mediate.domains_rebuilt: every touched domain's mediation
///     must be extended from its old one (domains_extended), never
///     re-mediated from scratch — exact, since every arrival appends to
///     its domains' member lists. Reported per add with the other
///     paygo.mediate.* counters: mappings_reused / mappings_computed
///     (member mappings copied from the old mediation or computed) and
///     name_sims (attribute-name similarity calls);
///   * heap allocations per add (clone + AddSchema + dropping the old
///     snapshot), counted by this binary's own global operator new. They
///     are counted in an untimed delta run that goes first, so it appends
///     into the built system's feature and membership blocks the way a
///     serving writer does (a chain that starts from a snapshot a sibling
///     already appended to pays one O(n) block copy on its first add).
///     Allocations and bytes per add are reported. On the web shape the
///     same count on a twin built without mediation must stay within the
///     same n / 8, so no step may copy the per-schema or per-domain rows
///     one allocation each. Mediation is left out of the gate because
///     a touched domain's new mediation copies or recomputes one mapping
///     per member, a few allocations each: a cost that grows with the
///     domain, not with n, so no n-relative budget could hold it at every
///     corpus size.
/// A second, traced delta pass reports each add's mean self time in every
/// span it records (system.clone, system.add_schema, its .assign and
/// .similarity children, system.mediate_delta, system.update_classifier
/// and theirs), so the per-add latency can be accounted for span by span.
///
/// Output: JSON on stdout (and, unless --json-out is empty, the same
/// object wrapped with provenance into BENCH_write.json — schema in
/// bench/README.md). Flags:
///   --shape ddh|web      corpus shape (default ddh)
///   --corpora 500,2000   ddh: comma-separated base corpus sizes
///   --domains N          web: pseudo-domains (default 1000)
///   --adds N             schemas streamed per corpus (default 40)
///   --smoke              tiny preset (ddh: one 120-schema corpus; web:
///                        200 domains; 8 adds)
///   --check              exit 1 if refresh, postings work, mediation or
///                        allocations are not O(delta)
///   --json-out FILE      machine-readable output ("" disables)
///   --human              readable summary instead of JSON

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/integration_system.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "serve/paygo_server.h"
#include "synth/ddh_generator.h"
#include "synth/many_domains.h"

namespace {

/// Heap allocations (and their bytes) made by any thread of this process.
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = align == 0 ? std::malloc(size == 0 ? 1 : size)
                       : std::aligned_alloc(align, size == 0 ? align : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Counting global allocation hooks; every form funnels through malloc/free.
void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new[](std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
// GCC pairs free() with the replaced operator new and warns about it.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using namespace paygo;
using Clock = std::chrono::steady_clock;

struct BenchOptions {
  std::string shape = "ddh";
  std::vector<std::size_t> corpora = {500, 2000};
  std::size_t domains = 1000;
  std::size_t adds = 40;
  bool check = false;
  std::string json_out = "BENCH_write.json";  // "" disables the file
  bool human = false;
};

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
      .count();
}

struct LatencySummary {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;

  static LatencySummary Of(std::vector<double> us) {
    LatencySummary s;
    if (us.empty()) return s;
    std::sort(us.begin(), us.end());
    s.p50_us = us[us.size() / 2];
    s.p99_us = us[std::min(us.size() - 1,
                           static_cast<std::size_t>(us.size() * 0.99))];
    for (double v : us) s.mean_us += v;
    s.mean_us /= static_cast<double>(us.size());
    return s;
  }

  std::string ToJson() const {
    std::ostringstream os;
    os << "{\"p50_us\": " << p50_us << ", \"p99_us\": " << p99_us
       << ", \"mean_us\": " << mean_us << "}";
    return os.str();
  }
};

/// Heap traffic of a churn run, summed over its adds.
struct HeapTally {
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
  std::uint64_t max_allocations = 0;  ///< Of the single heaviest add.
};

/// The writer's per-update work, measured end to end: clone the served
/// system, fold one schema in, adopt the draft (dropping the old one).
/// With \p tally, also counts that work's heap allocations.
std::vector<double> RunChurn(const IntegrationSystem& base, bool delta_mode,
                             const SchemaCorpus& arrivals,
                             HeapTally* tally = nullptr) {
  auto sys = base.Clone();
  sys->set_delta_mutations(delta_mode);
  std::vector<double> us;
  us.reserve(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const std::uint64_t allocs0 =
        g_allocations.load(std::memory_order_relaxed);
    const std::uint64_t bytes0 =
        g_allocated_bytes.load(std::memory_order_relaxed);
    const Clock::time_point t0 = Clock::now();
    auto draft = sys->Clone();
    auto added = draft->AddSchema(arrivals.schema(i), arrivals.labels(i));
    us.push_back(MicrosSince(t0));
    if (!added.ok()) {
      std::cerr << "AddSchema failed: " << added.status() << "\n";
      std::exit(1);
    }
    sys = std::move(draft);
    if (tally != nullptr) {
      const std::uint64_t allocs =
          g_allocations.load(std::memory_order_relaxed) - allocs0;
      tally->allocations += allocs;
      tally->bytes += g_allocated_bytes.load(std::memory_order_relaxed) -
                      bytes0;
      tally->max_allocations = std::max(tally->max_allocations, allocs);
    }
  }
  return us;
}

/// Streams the same adds through a live server; staleness is how long a
/// generation-polling reader waits for each add to become visible.
std::vector<double> RunServedStaleness(const IntegrationSystem& base,
                                       const SchemaCorpus& arrivals) {
  auto sys = base.Clone();
  ServeOptions serve;
  serve.num_workers = 1;
  PaygoServer server(std::move(sys), serve);
  if (Status s = server.Start(); !s.ok()) {
    std::cerr << s << "\n";
    std::exit(1);
  }
  std::vector<double> us;
  us.reserve(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const std::uint64_t gen_before = server.generation();
    const Clock::time_point t0 = Clock::now();
    auto fut = server.AddSchemaAsync(arrivals.schema(i), arrivals.labels(i));
    while (server.generation() == gen_before) {
      std::this_thread::yield();
    }
    us.push_back(MicrosSince(t0));
    if (Status s = fut.get(); !s.ok()) {
      std::cerr << "AddSchemaAsync failed: " << s << "\n";
      std::exit(1);
    }
  }
  server.Stop();
  return us;
}

/// Streams the arrivals once more on the delta path with tracing on and
/// returns every recorded span's self time (its duration minus its direct
/// children's) in microseconds, summed by span name and averaged per add.
std::map<std::string, double> ArrivalSpanSelfMicros(
    const IntegrationSystem& base, const SchemaCorpus& arrivals) {
  Tracer::ClearAll();
  Tracer::Enable();
  RunChurn(base, /*delta_mode=*/true, arrivals);
  Tracer::Disable();
  // Sorted so that a parent precedes its children even when they start in
  // the same microsecond; a span's parent is then the latest earlier span
  // one level up on the same thread that contains it.
  std::vector<TraceEvent> events = Tracer::SnapshotEvents();
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return std::tie(a.tid, a.start_us, a.depth) <
                     std::tie(b.tid, b.start_us, b.depth);
            });
  std::vector<double> self(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    self[i] = static_cast<double>(events[i].dur_us);
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& child = events[i];
    for (std::size_t j = i; j-- > 0;) {
      const TraceEvent& p = events[j];
      if (p.tid == child.tid && p.depth + 1 == child.depth &&
          p.start_us + p.dur_us >= child.start_us + child.dur_us) {
        self[j] -= static_cast<double>(child.dur_us);
        break;
      }
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    out[events[i].name] += self[i] / static_cast<double>(arrivals.size());
  }
  return out;
}

/// One base corpus plus the schemas that arrive into it.
struct Workload {
  std::string key;  ///< Result key, e.g. "corpus_2000" or "web_1000".
  SchemaCorpus base;
  SchemaCorpus arrivals;
  SystemOptions options;
  /// Posting entries an arrival may read, and heap allocations an add may
  /// make, under --check; 0 = not gated.
  std::uint64_t visited_budget = 0;
};

std::vector<Workload> MakeWorkloads(const BenchOptions& opts) {
  std::vector<Workload> out;
  if (opts.shape == "web") {
    const SchemaCorpus all =
        MakeManyDomainCorpus({.num_domains = opts.domains});
    Workload w{"web_" + std::to_string(opts.domains),
               SchemaCorpus("web-base"), SchemaCorpus("web-new"), {}, 0};
    w.options.sparse_build = true;
    const std::size_t stride = std::max<std::size_t>(1, all.size() / opts.adds);
    for (std::size_t i = 0; i < all.size(); ++i) {
      const bool held = i % stride == stride / 2 && w.arrivals.size() < opts.adds;
      (held ? w.arrivals : w.base).Add(all.schema(i), all.labels(i));
    }
    w.visited_budget = w.base.size() / 8;
    out.push_back(std::move(w));
    return out;
  }
  for (std::size_t corpus_size : opts.corpora) {
    // One pool holds base + extras so both paths fold identical schemas.
    const SchemaCorpus pool = MakeDdhCorpus(
        {.num_schemas = corpus_size + opts.adds, .seed = 17});
    Workload w{"corpus_" + std::to_string(corpus_size),
               SchemaCorpus("ddh-base"), SchemaCorpus("ddh-new"), {}, 0};
    for (std::size_t i = 0; i < pool.size(); ++i) {
      (i < corpus_size ? w.base : w.arrivals)
          .Add(pool.schema(i), pool.labels(i));
    }
    out.push_back(std::move(w));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--shape" && next()) {
      opts.shape = argv[i];
    } else if (arg == "--domains" && next()) {
      opts.domains = static_cast<std::size_t>(std::atoll(argv[i]));
    } else if (arg == "--corpora" && next()) {
      opts.corpora.clear();
      std::stringstream ss(argv[i]);
      std::string piece;
      while (std::getline(ss, piece, ',')) {
        opts.corpora.push_back(
            static_cast<std::size_t>(std::atoll(piece.c_str())));
      }
    } else if (arg == "--adds" && next()) {
      opts.adds = static_cast<std::size_t>(std::atoi(argv[i]));
    } else if (arg == "--smoke") {
      opts.corpora = {120};
      opts.domains = 200;
      opts.adds = 8;
    } else if (arg == "--check") {
      opts.check = true;
    } else if (arg == "--json-out" && next()) {
      opts.json_out = argv[i];
    } else if (arg == "--human") {
      opts.human = true;
    } else {
      std::cerr << "unknown flag '" << arg << "'\n";
      return 2;
    }
  }
  if (opts.shape != "ddh" && opts.shape != "web") {
    std::cerr << "unknown --shape " << opts.shape << " (ddh|web)\n";
    return 2;
  }
  if (opts.adds == 0) {
    std::cerr << "--adds must be positive\n";
    return 2;
  }

  Counter* refreshed =
      StatsRegistry::Global().GetCounter("paygo.classifier.domains_refreshed");
  Counter* reused =
      StatsRegistry::Global().GetCounter("paygo.classifier.domains_reused");
  Counter* visited =
      StatsRegistry::Global().GetCounter("paygo.arrival.postings_visited");
  // The paygo.mediate.* counters, in report order.
  const std::vector<std::string> mediate = {
      "domains_extended", "domains_rebuilt", "mappings_reused",
      "mappings_computed", "name_sims"};
  std::vector<Counter*> mediate_counters;
  for (const std::string& name : mediate) {
    mediate_counters.push_back(
        StatsRegistry::Global().GetCounter("paygo.mediate." + name));
  }

  bool check_failed = false;
  std::ostringstream results;
  std::ostringstream human;
  results << "{";
  bool first_corpus = true;
  for (const Workload& w : MakeWorkloads(opts)) {
    auto built = IntegrationSystem::Build(w.base, w.options);
    if (!built.ok()) {
      std::cerr << built.status() << "\n";
      return 1;
    }
    const std::size_t adds = w.arrivals.size();

    HeapTally heap;
    RunChurn(**built, /*delta_mode=*/true, w.arrivals, &heap);
    HeapTally unmediated;
    if (w.visited_budget > 0) {
      SystemOptions bare = w.options;
      bare.build_mediation = false;
      auto twin = IntegrationSystem::Build(w.base, bare);
      if (!twin.ok()) {
        std::cerr << twin.status() << "\n";
        return 1;
      }
      RunChurn(**twin, /*delta_mode=*/true, w.arrivals, &unmediated);
    }
    const double allocs_per_add =
        static_cast<double>(heap.allocations) / static_cast<double>(adds);
    const double alloc_bytes_per_add =
        static_cast<double>(heap.bytes) / static_cast<double>(adds);
    const double unmediated_allocs_per_add =
        static_cast<double>(unmediated.allocations) /
        static_cast<double>(adds);

    const std::vector<double> full_us =
        RunChurn(**built, /*delta_mode=*/false, w.arrivals);
    refreshed->Reset();
    reused->Reset();
    visited->Reset();
    for (Counter* c : mediate_counters) c->Reset();
    const std::vector<double> delta_us =
        RunChurn(**built, /*delta_mode=*/true, w.arrivals);
    const std::uint64_t delta_refreshed = refreshed->value();
    const std::uint64_t delta_reused = reused->value();
    const double visited_per_add =
        static_cast<double>(visited->value()) / static_cast<double>(adds);
    const std::uint64_t domains_rebuilt =
        mediate_counters[1]->value();  // paygo.mediate.domains_rebuilt
    std::vector<double> mediate_per_add;
    for (Counter* c : mediate_counters) {
      mediate_per_add.push_back(static_cast<double>(c->value()) /
                                static_cast<double>(adds));
    }
    const std::map<std::string, double> span_self_us =
        ArrivalSpanSelfMicros(**built, w.arrivals);
    const std::vector<double> staleness_us =
        RunServedStaleness(**built, w.arrivals);

    const LatencySummary full = LatencySummary::Of(full_us);
    const LatencySummary delta = LatencySummary::Of(delta_us);
    const LatencySummary staleness = LatencySummary::Of(staleness_us);
    const double speedup_p50 =
        delta.p50_us > 0.0 ? full.p50_us / delta.p50_us : 0.0;
    const double speedup_mean =
        delta.mean_us > 0.0 ? full.mean_us / delta.mean_us : 0.0;
    const std::size_t num_domains = (*built)->domains().num_domains();

    // The O(delta) gates: across all adds, the classifier must have fully
    // recomputed only a small per-add number of domains — not the whole
    // model. The budget is loose (a schema can legitimately join several
    // qualifying domains) but catastrophically smaller than D * adds. On
    // the web shape an arrival must also read only a small share of the
    // posting lists, not a corpus-wide scan.
    const std::uint64_t budget =
        adds * std::max<std::uint64_t>(4, num_domains / 10);
    const bool refresh_ok = delta_refreshed <= budget;
    const bool visited_ok =
        w.visited_budget == 0 ||
        visited_per_add <= static_cast<double>(w.visited_budget);
    const bool allocs_ok =
        w.visited_budget == 0 ||
        unmediated_allocs_per_add <= static_cast<double>(w.visited_budget);
    // Every arrival appends to its domains' member lists, so each touched
    // mediation must be an extension of the old one.
    const bool mediate_ok = domains_rebuilt == 0;
    if (!refresh_ok || !visited_ok || !allocs_ok || !mediate_ok) {
      check_failed = true;
    }
    std::ostringstream mediate_json;
    for (std::size_t k = 0; k < mediate.size(); ++k) {
      mediate_json << "\"" << mediate[k] << "_per_add\": "
                   << mediate_per_add[k] << ", ";
    }

    std::ostringstream spans_json;
    const char* sep = "";
    for (const auto& [name, us] : span_self_us) {
      spans_json << sep << "\"" << name << "\": " << us;
      sep = ", ";
    }

    if (!first_corpus) results << ", ";
    first_corpus = false;
    results << "\"" << w.key << "\": {\"schemas\": " << w.base.size()
            << ", \"adds\": " << adds
            << ", \"full\": " << full.ToJson()
            << ", \"delta\": " << delta.ToJson()
            << ", \"speedup_p50\": " << speedup_p50
            << ", \"speedup_mean\": " << speedup_mean
            << ", \"staleness\": " << staleness.ToJson()
            << ", \"span_self_us\": {" << spans_json.str() << "}"
            << ", \"classifier\": {\"num_domains\": " << num_domains
            << ", \"domains_refreshed\": " << delta_refreshed
            << ", \"domains_reused\": " << delta_reused
            << ", \"refresh_budget\": " << budget
            << ", \"o_delta\": " << (refresh_ok ? "true" : "false") << "}"
            << ", \"mediate\": {" << mediate_json.str()
            << "\"o_delta\": " << (mediate_ok ? "true" : "false") << "}"
            << ", \"arrival\": {\"postings_visited_per_add\": "
            << visited_per_add
            << ", \"visited_budget\": " << w.visited_budget
            << ", \"o_delta\": " << (visited_ok ? "true" : "false") << "}"
            << ", \"heap\": {\"allocs_per_add\": " << allocs_per_add
            << ", \"alloc_bytes_per_add\": " << alloc_bytes_per_add
            << ", \"max_allocs_one_add\": " << heap.max_allocations
            << ", \"unmediated_allocs_per_add\": " << unmediated_allocs_per_add
            << ", \"alloc_budget\": " << w.visited_budget
            << ", \"o_delta\": " << (allocs_ok ? "true" : "false")
            << "}}";

    human << w.key << " (" << w.base.size() << " schemas, " << num_domains
          << " domains), " << adds << " adds:\n"
          << "  full   p50 " << full.p50_us << "us  p99 " << full.p99_us
          << "us  mean " << full.mean_us << "us\n"
          << "  delta  p50 " << delta.p50_us << "us  p99 " << delta.p99_us
          << "us  mean " << delta.mean_us << "us  ("
          << speedup_p50 << "x p50, " << speedup_mean << "x mean)\n"
          << "  staleness p50 " << staleness.p50_us << "us  p99 "
          << staleness.p99_us << "us\n"
          << "  delta self time per add:\n";
    for (const auto& [name, us] : span_self_us) {
      human << "    " << name << " " << us << "us\n";
    }
    human << "  classifier refreshed " << delta_refreshed << " / reused "
          << delta_reused << " domain rebuilds (budget " << budget << ", "
          << (refresh_ok ? "O(delta) OK" : "O(delta) VIOLATED") << ")\n"
          << "  postings visited per add " << visited_per_add;
    if (w.visited_budget > 0) {
      human << " (budget " << w.visited_budget << ", "
            << (visited_ok ? "O(delta) OK" : "O(delta) VIOLATED") << ")";
    }
    human << "\n  mediation per add:";
    for (std::size_t k = 0; k < mediate.size(); ++k) {
      human << " " << mediate[k] << " " << mediate_per_add[k];
    }
    human << " (" << (mediate_ok ? "O(delta) OK" : "O(delta) VIOLATED")
          << ")";
    human << "\n  heap allocations per add " << allocs_per_add << " ("
          << alloc_bytes_per_add << " bytes; heaviest add "
          << heap.max_allocations << ")";
    if (w.visited_budget > 0) {
      human << "\n  without mediation " << unmediated_allocs_per_add
            << " (budget " << w.visited_budget << ", "
            << (allocs_ok ? "O(delta) OK" : "O(delta) VIOLATED") << ")";
    }
    human << "\n";
  }
  results << "}";

  if (!opts.json_out.empty()) {
    const auto ts_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    std::ofstream out(opts.json_out, std::ios::trunc);
    out << "{\"bench\": \"write_path\", \"ts_ms\": " << ts_ms
        << ", \"config\": {\"shape\": \"" << opts.shape << "\", ";
    if (opts.shape == "web") {
      out << "\"domains\": " << opts.domains;
    } else {
      out << "\"corpora\": [";
      for (std::size_t i = 0; i < opts.corpora.size(); ++i) {
        out << (i ? ", " : "") << opts.corpora[i];
      }
      out << "]";
    }
    out << ", \"adds\": " << opts.adds << "}, \"results\": "
        << results.str() << "}\n";
    if (!out) {
      std::cerr << "failed writing " << opts.json_out << "\n";
      return 1;
    }
    std::cerr << "wrote " << opts.json_out << "\n";
  }

  if (opts.human) {
    std::cout << human.str();
  } else {
    std::cout << results.str() << "\n";
  }
  if (opts.check && check_failed) {
    std::cerr << "FAIL: classifier refresh, postings work, mediation or "
                 "heap allocations exceeded the O(delta) budget\n";
    return 1;
  }
  return 0;
}
