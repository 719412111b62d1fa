/// \file paygo_cli.cc
/// \brief Command-line front end to the paygo library.
///
/// Subcommands:
///   generate <dw|ss|both|ddh> <out-file>     emit a synthetic corpus
///   stats <corpus-file>                      Table 6.1-style statistics
///   cluster <corpus-file> [opts]             cluster into domains, print them
///   classify <corpus-file> <keywords...>     rank domains for a query
///   snapshot <corpus-file> <snapshot-file>   build and persist a system
///   query <snapshot-file> <keywords...>      classify against a snapshot
///   dendrogram <corpus-file>                 print the merge tree
///   bench-queries <corpus-file>              top-k quality on generated
///                                            queries (labels required)
///   serve-bench <corpus-file>                closed-loop load test of the
///                                            concurrent serving runtime
///                                            (JSON report)
///   shard-node <corpus-file>                 run one shard server (wire
///                                            protocol + admin HTTP) until
///                                            SIGINT/SIGTERM; --primary
///                                            turns it into a read replica
///   shard-router <keywords...> --shard a:p   one-shot cross-domain
///                                            scatter/gather over a fleet
///
/// Common options: --tau <v> (tau_c_sim, default 0.25), --theta <v>
/// (default 0.02), --linkage <avg|min|max|total>, --eval (score clustering
/// against the corpus labels, when present), --newick (dendrogram format),
/// --queries <n> (per size, default 50). serve-bench options:
/// --serve-threads, --serve-seconds, --serve-workers, --serve-queue-depth,
/// --human.

#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "classify/query_featurizer.h"
#include "cluster/dendrogram.h"
#include "core/integration_system.h"
#include "eval/classification_metrics.h"
#include "eval/clustering_metrics.h"
#include "obs/admin_server.h"
#include "obs/build_info.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "persist/model_io.h"
#include "schema/corpus_io.h"
#include "serve/load_generator.h"
#include "serve/paygo_server.h"
#include "shard/hash_ring.h"
#include "shard/router.h"
#include "shard/shard_node.h"
#include "synth/ddh_generator.h"
#include "synth/query_generator.h"
#include "synth/web_generator.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace paygo;

int Usage() {
  std::cerr <<
      R"(usage: paygo_cli <command> [args]

commands:
  generate <dw|ss|both|ddh> <out-file>   write a synthetic corpus file
  stats <corpus-file>                    corpus statistics (Table 6.1 style)
  cluster <corpus-file> [opts]           discover domains and print them
  classify <corpus-file> <keywords...>   rank domains for a keyword query
  snapshot <corpus-file> <snapshot-file> build a system and persist it
  query <snapshot-file> <keywords...>    classify against a saved snapshot
  serve-bench <corpus-file>              load-test the concurrent serving
                                         runtime; emits a JSON report
  shard-node <corpus-file>               serve one shard over the wire
                                         protocol until SIGINT/SIGTERM
  shard-router <keywords...> --shard a:p cross-domain scatter/gather query
                                         over a running fleet (one-shot, or
                                         persistent with --admin-port)
  --version                              print build provenance (bitset
                                         kernel, cmake toggles, compiler)

options (cluster/classify/snapshot):
  --batch <n>     (classify) score the query n times (at most 1000000)
                  through one batch sweep AND the single path, verify the
                  rankings are identical, and report both per-query
                  timings
  --tau <v>       clustering threshold tau_c_sim (default 0.25)
  --theta <v>     uncertainty threshold theta (default 0.02)
  --linkage <k>   avg | min | max | total (default avg)
  --threads <n>   worker threads for clustering + index builds, at most
                  1024 (0 = hardware concurrency, default 1 = serial;
                  results are bit-identical at any setting)
  --sparse        (cluster) dense-matrix-free build: cluster over the
                  exact sparse neighbor graph instead of the O(n^2)
                  similarity matrix; output is bitwise identical to the
                  dense build
  --eval          also score clustering against corpus labels

options (serve-bench):
  --serve-threads <n>      client threads (default 4, at most 1024)
  --serve-seconds <s>      load duration per phase (default 2)
  --serve-workers <n>      server worker threads (default 4, at most 1024)
  --serve-queue-depth <n>  admission-control queue depth (default 256)
  --slow-us <n>            slow-query log threshold in us (default 0:
                           every request qualifies for the slow_queries
                           section of the JSON report)
  --admin-port <p>         serve the admin HTTP endpoint on 127.0.0.1:<p>
                           while the bench runs (0 = ephemeral port; the
                           bound port is printed to stderr). Endpoints:
                           /metrics /varz /healthz /readyz /statusz
                           /slowz /tracez
  --export-jsonl <file>    append periodic metric snapshots to <file>
                           (one JSON object per line)
  --export-interval-ms <n> exporter wake interval (default 1000)
  --human                  readable summary instead of JSON

options (shard-node/shard-router):
  --shard-port <p>         wire-protocol port (default 0 = ephemeral; the
                           bound port is printed to stderr as
                           "shard server listening on 127.0.0.1:<p>")
  --primary <host:port>    run as a read replica of that primary: start
                           empty, pull snapshots/deltas, serve reads only
                           (no corpus file; /readyz flips 200 when the
                           first replicated snapshot installs)
  --shards <n>             with --shard-index: consistent-hash partition
  --shard-index <i>        the corpus into n <= 4096 shards and serve only
                           shard i's share
  --poll-ms <n>            replica poll cadence (default 200)
  --shard <host:port>      (shard-router; repeatable) fleet member to
                           scatter the query to
  --trace                  (shard-node/shard-router) enable tracing without
                           a trace file: shard nodes record spans for
                           wire-propagated trace contexts, the router
                           propagates a trace id with every scatter
  --fleet-trace-out <file> (shard-router) after the query, pull matching
                           spans from every shard (kTraceFetch), merge
                           into one Chrome trace (pid per shard, clocks
                           aligned by RTT midpoint), and write it here
  --admin-port <p>         (shard-router) keep serving after the query:
                           admin HTTP on 127.0.0.1:<p> with /shardz /slowz
                           /fleet_tracez (+ obs endpoints) until SIGTERM

observability (cluster/classify/serve-bench):
  --trace-out <file>  enable tracing; write Chrome trace-event JSON on
                      exit (load in Perfetto / chrome://tracing)
  --stats-json <file> write the StatsRegistry dump as JSON on exit

Numeric values must be plain decimal numbers (no sign on counts, ports
or durations); any other value exits with status 2.
)";
  return 2;
}

struct CliOptions {
  SystemOptions system;
  bool eval = false;
  bool newick = false;
  bool human = false;
  std::size_t queries_per_size = 50;
  std::size_t classify_batch = 0;  // 0/1 = single path; N>1 = batch sweep
  std::size_t serve_threads = 4;
  double serve_seconds = 2.0;
  std::size_t serve_workers = 4;
  std::size_t serve_queue_depth = 256;
  std::uint64_t slow_us = 0;
  int admin_port = -1;
  std::string export_jsonl;
  std::uint64_t export_interval_ms = 1000;
  std::string trace_out;
  std::string stats_json;
  bool trace = false;
  std::string fleet_trace_out;
  int shard_port = 0;
  std::string primary;
  std::size_t shards_total = 0;
  std::size_t shard_index = 0;
  std::uint64_t poll_ms = 200;
  std::vector<std::string> shard_addrs;
  std::vector<std::string> positional;
};

/// Upper bound for every thread-count flag: far above any core count, far
/// below what would exhaust the process's threads.
constexpr std::size_t kMaxThreads = 1024;
/// Upper bounds for flags that size an allocation up front.
constexpr std::size_t kMaxRepeats = 1000000;  // --batch, --queries
constexpr std::size_t kMaxShards = 4096;

/// Reads flag \p name's value \p v as a \p T in [lo, hi] into \p out.
/// Prints why and returns false when \p v is missing, is not entirely a
/// decimal number (ParseNumber), or is out of range.
template <typename T>
bool ParseFlag(const std::string& name, const char* v, T* out,
               T lo = std::numeric_limits<T>::lowest(),
               T hi = std::numeric_limits<T>::max()) {
  if (v == nullptr) {
    std::cerr << name << " needs a value\n";
    return false;
  }
  const std::optional<T> value = ParseNumber<T>(v);
  if (!value || *value < lo || *value > hi) {
    std::cerr << "invalid value '" << v << "' for " << name;
    if (hi != std::numeric_limits<T>::max()) {
      std::cerr << " (expected " << lo << " to " << hi << ")";
    } else if (lo != std::numeric_limits<T>::lowest()) {
      std::cerr << " (expected at least " << lo << ")";
    }
    std::cerr << "\n";
    return false;
  }
  *out = *value;
  return true;
}

bool ParseCommon(int argc, char** argv, int first, CliOptions* out) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--tau") {
      if (!ParseFlag(arg, next(), &out->system.hac.tau_c_sim)) return false;
      out->system.assignment.tau_c_sim = out->system.hac.tau_c_sim;
    } else if (arg == "--theta") {
      if (!ParseFlag(arg, next(), &out->system.assignment.theta)) {
        return false;
      }
    } else if (arg == "--linkage") {
      const char* v = next();
      if (!v) return false;
      const std::string k = v;
      if (k == "avg") {
        out->system.hac.linkage = LinkageKind::kAverage;
      } else if (k == "min") {
        out->system.hac.linkage = LinkageKind::kMin;
      } else if (k == "max") {
        out->system.hac.linkage = LinkageKind::kMax;
      } else if (k == "total") {
        out->system.hac.linkage = LinkageKind::kTotal;
      } else {
        std::cerr << "unknown linkage '" << k << "'\n";
        return false;
      }
    } else if (arg == "--threads") {
      std::size_t n = 0;
      if (!ParseFlag(arg, next(), &n, std::size_t{0}, kMaxThreads)) {
        return false;
      }
      out->system.hac.num_threads = n;
      out->system.features.num_threads = n;
    } else if (arg == "--sparse") {
      out->system.sparse_build = true;
    } else if (arg == "--eval") {
      out->eval = true;
    } else if (arg == "--newick") {
      out->newick = true;
    } else if (arg == "--queries") {
      if (!ParseFlag(arg, next(), &out->queries_per_size, std::size_t{1},
                     kMaxRepeats)) {
        return false;
      }
    } else if (arg == "--serve-threads") {
      if (!ParseFlag(arg, next(), &out->serve_threads, std::size_t{0},
                     kMaxThreads)) {
        return false;
      }
    } else if (arg == "--serve-seconds") {
      // Bounded so that the millisecond count cannot overflow.
      if (!ParseFlag(arg, next(), &out->serve_seconds, 0.0, 1e6)) {
        return false;
      }
    } else if (arg == "--serve-workers") {
      if (!ParseFlag(arg, next(), &out->serve_workers, std::size_t{0},
                     kMaxThreads)) {
        return false;
      }
    } else if (arg == "--serve-queue-depth") {
      if (!ParseFlag(arg, next(), &out->serve_queue_depth)) return false;
    } else if (arg == "--slow-us") {
      if (!ParseFlag(arg, next(), &out->slow_us)) return false;
    } else if (arg == "--admin-port") {
      if (!ParseFlag(arg, next(), &out->admin_port, 0, 65535)) return false;
    } else if (arg == "--export-jsonl") {
      const char* v = next();
      if (!v) return false;
      out->export_jsonl = v;
    } else if (arg == "--export-interval-ms") {
      if (!ParseFlag(arg, next(), &out->export_interval_ms)) return false;
    } else if (arg == "--shard-port") {
      if (!ParseFlag(arg, next(), &out->shard_port, 0, 65535)) return false;
    } else if (arg == "--primary") {
      const char* v = next();
      if (!v) return false;
      out->primary = v;
    } else if (arg == "--shards") {
      if (!ParseFlag(arg, next(), &out->shards_total, std::size_t{0},
                     kMaxShards)) {
        return false;
      }
    } else if (arg == "--shard-index") {
      if (!ParseFlag(arg, next(), &out->shard_index)) return false;
    } else if (arg == "--poll-ms") {
      if (!ParseFlag(arg, next(), &out->poll_ms)) return false;
    } else if (arg == "--shard") {
      const char* v = next();
      if (!v) return false;
      out->shard_addrs.push_back(v);
    } else if (arg == "--batch") {
      if (!ParseFlag(arg, next(), &out->classify_batch, std::size_t{1},
                     kMaxRepeats)) {
        return false;
      }
    } else if (arg.rfind("--batch=", 0) == 0) {
      if (!ParseFlag("--batch", arg.c_str() + 8, &out->classify_batch,
                     std::size_t{1}, kMaxRepeats)) {
        return false;
      }
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return false;
      out->trace_out = v;
    } else if (arg == "--trace") {
      out->trace = true;
    } else if (arg == "--fleet-trace-out") {
      const char* v = next();
      if (!v) return false;
      out->fleet_trace_out = v;
    } else if (arg == "--stats-json") {
      const char* v = next();
      if (!v) return false;
      out->stats_json = v;
    } else if (arg == "--human") {
      out->human = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option '" << arg << "'\n";
      return false;
    } else {
      out->positional.push_back(arg);
    }
  }
  return true;
}

/// Flushes the trace / stats files requested via --trace-out /
/// --stats-json. Returns 0, or 1 when a file could not be written.
int WriteObservabilityOutputs(const CliOptions& cli) {
  int rc = 0;
  if (!cli.trace_out.empty()) {
    if (Status s = Tracer::WriteChromeTrace(cli.trace_out); !s.ok()) {
      std::cerr << s << "\n";
      rc = 1;
    } else {
      std::cerr << "wrote trace to " << cli.trace_out << "\n";
    }
  }
  if (!cli.stats_json.empty()) {
    std::ofstream out(cli.stats_json, std::ios::trunc);
    out << StatsRegistry::Global().ToJson() << "\n";
    if (!out) {
      std::cerr << "failed writing stats file " << cli.stats_json << "\n";
      rc = 1;
    } else {
      std::cerr << "wrote stats to " << cli.stats_json << "\n";
    }
  }
  return rc;
}

int CmdGenerate(const std::vector<std::string>& args) {
  if (args.size() != 2) return Usage();
  SchemaCorpus corpus;
  if (args[0] == "dw") {
    corpus = MakeDwCorpus();
  } else if (args[0] == "ss") {
    corpus = MakeSsCorpus();
  } else if (args[0] == "both") {
    corpus = MakeDwSsCorpus();
  } else if (args[0] == "ddh") {
    corpus = MakeDdhCorpus();
  } else {
    std::cerr << "unknown corpus '" << args[0] << "'\n";
    return 2;
  }
  if (Status s = SaveCorpusFile(corpus, args[1]); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  std::cout << "wrote " << corpus.size() << " schemas to " << args[1] << "\n";
  return 0;
}

Result<SchemaCorpus> LoadOrFail(const std::string& path) {
  auto corpus = LoadCorpusFile(path);
  if (!corpus.ok()) std::cerr << corpus.status() << "\n";
  return corpus;
}

int CmdStats(const std::vector<std::string>& args) {
  if (args.size() != 1) return Usage();
  const auto corpus = LoadOrFail(args[0]);
  if (!corpus.ok()) return 1;
  Tokenizer tok;
  const CorpusStats s = corpus->ComputeStats(tok);
  TablePrinter table({"Statistic", "Value"});
  table.AddRow({"Number of schemas", std::to_string(s.num_schemas)});
  table.AddRow({"Max terms per schema",
                std::to_string(s.max_terms_per_schema)});
  table.AddRow({"Avg terms per schema",
                FormatDouble(s.avg_terms_per_schema, 1)});
  table.AddRow({"Number of labels", std::to_string(s.num_labels)});
  table.AddRow({"Max labels per schema",
                std::to_string(s.max_labels_per_schema)});
  table.AddRow({"Avg labels per schema",
                FormatDouble(s.avg_labels_per_schema, 2)});
  table.AddRow({"Max schemas per label",
                std::to_string(s.max_schemas_per_label)});
  table.AddRow({"Avg schemas per label",
                FormatDouble(s.avg_schemas_per_label, 2)});
  table.Print(std::cout);
  return 0;
}

int CmdCluster(const CliOptions& cli) {
  if (cli.positional.size() != 1) return Usage();
  auto corpus = LoadOrFail(cli.positional[0]);
  if (!corpus.ok()) return 1;
  SystemOptions options = cli.system;
  options.build_classifier = false;
  auto sys = IntegrationSystem::Build(std::move(*corpus), options);
  if (!sys.ok()) {
    std::cerr << sys.status() << "\n";
    return 1;
  }
  const IntegrationSystem& s = **sys;
  std::size_t singletons = 0;
  for (std::uint32_t r = 0; r < s.domains().num_domains(); ++r) {
    if (s.domains().IsSingletonDomain(r)) {
      ++singletons;
      continue;
    }
    std::cout << s.DescribeDomain(r) << "\n";
  }
  std::cout << singletons << " schemas left unclustered.\n";
  if (cli.eval) {
    const ClusteringEvaluation eval =
        EvaluateClustering(s.domains(), s.corpus());
    std::cout << "\nprecision " << FormatDouble(eval.avg_precision, 3)
              << "  recall " << FormatDouble(eval.avg_recall, 3)
              << "  unclustered " << FormatDouble(eval.frac_unclustered, 3)
              << "  non-homogeneous "
              << FormatDouble(eval.frac_non_homogeneous, 3)
              << "  fragmentation " << FormatDouble(eval.fragmentation, 2)
              << "\n";
  }
  return WriteObservabilityOutputs(cli);
}

int PrintRanking(const IntegrationSystem& sys, const std::string& query) {
  auto suggestions = sys.SuggestDomains(query, 5);
  if (!suggestions.ok()) {
    std::cerr << suggestions.status() << "\n";
    return 1;
  }
  std::cout << "query: \"" << query << "\"\n";
  for (std::size_t k = 0; k < suggestions->size(); ++k) {
    const DomainSuggestion& d = (*suggestions)[k];
    std::cout << k + 1 << ". domain " << d.domain << " (score "
              << FormatDouble(d.log_posterior, 2) << ")";
    std::size_t shown = 0;
    for (const std::string& a : d.mediated_attributes) {
      std::cout << (shown == 0 ? " :" : "") << " [" << a << "]";
      if (++shown >= 8) {
        std::cout << " ...";
        break;
      }
    }
    std::cout << "\n";
  }
  return 0;
}

int CmdClassify(const CliOptions& cli) {
  if (cli.positional.size() < 2) return Usage();
  auto corpus = LoadOrFail(cli.positional[0]);
  if (!corpus.ok()) return 1;
  auto sys = IntegrationSystem::Build(std::move(*corpus), cli.system);
  if (!sys.ok()) {
    std::cerr << sys.status() << "\n";
    return 1;
  }
  std::vector<std::string> keywords(cli.positional.begin() + 1,
                                    cli.positional.end());
  const std::string query = Join(keywords, " ");
  if (cli.classify_batch > 1) {
    // --batch N: score the query N times through ONE batch sweep and N
    // times through the single path, verify the rankings are identical
    // (they are bitwise-equal by construction), and report both timings.
    using Clock = std::chrono::steady_clock;
    const std::vector<std::string> replicated(cli.classify_batch, query);

    const Clock::time_point b0 = Clock::now();
    auto batched = (*sys)->ClassifyKeywordQueryBatch(replicated);
    const double batch_us =
        std::chrono::duration<double, std::micro>(Clock::now() - b0).count();
    if (!batched.ok()) {
      std::cerr << batched.status() << "\n";
      return 1;
    }

    const Clock::time_point s0 = Clock::now();
    Result<std::vector<DomainScore>> single = std::vector<DomainScore>{};
    for (std::size_t i = 0; i < cli.classify_batch; ++i) {
      single = (*sys)->ClassifyKeywordQuery(query);
      if (!single.ok()) {
        std::cerr << single.status() << "\n";
        return 1;
      }
    }
    const double single_us =
        std::chrono::duration<double, std::micro>(Clock::now() - s0).count();

    for (const std::vector<DomainScore>& ranking : *batched) {
      if (ranking.size() != single->size()) {
        std::cerr << "batch/single ranking size mismatch\n";
        return 1;
      }
      for (std::size_t k = 0; k < ranking.size(); ++k) {
        if (ranking[k].domain != (*single)[k].domain ||
            ranking[k].log_posterior != (*single)[k].log_posterior) {
          std::cerr << "batch/single ranking DIVERGED at rank " << k
                    << " (this is a bug: the paths are bitwise-equal by "
                       "construction)\n";
          return 1;
        }
      }
    }
    const double n = static_cast<double>(cli.classify_batch);
    std::cout << "batch " << cli.classify_batch << ": "
              << FormatDouble(batch_us / n, 2) << "us/query (one sweep), "
              << "single path: " << FormatDouble(single_us / n, 2)
              << "us/query; rankings identical\n";
  }
  if (int rc = PrintRanking(**sys, query); rc != 0) return rc;
  return WriteObservabilityOutputs(cli);
}

int CmdSnapshot(const CliOptions& cli) {
  if (cli.positional.size() != 2) return Usage();
  auto corpus = LoadOrFail(cli.positional[0]);
  if (!corpus.ok()) return 1;
  auto sys = IntegrationSystem::Build(std::move(*corpus), cli.system);
  if (!sys.ok()) {
    std::cerr << sys.status() << "\n";
    return 1;
  }
  if (Status s = SaveSnapshot(**sys, cli.positional[1]); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  std::cout << "snapshot with " << (*sys)->domains().num_domains()
            << " domains written to " << cli.positional[1] << "\n";
  return 0;
}

int CmdQuery(const CliOptions& cli) {
  if (cli.positional.size() < 2) return Usage();
  auto sys = LoadSnapshot(cli.positional[0], cli.system);
  if (!sys.ok()) {
    std::cerr << sys.status() << "\n";
    return 1;
  }
  std::vector<std::string> keywords(cli.positional.begin() + 1,
                                    cli.positional.end());
  return PrintRanking(**sys, Join(keywords, " "));
}

int CmdDendrogram(const CliOptions& cli) {
  if (cli.positional.size() != 1) return Usage();
  auto corpus = LoadOrFail(cli.positional[0]);
  if (!corpus.ok()) return 1;
  SystemOptions options = cli.system;
  options.build_classifier = false;
  options.build_mediation = false;
  auto sys = IntegrationSystem::Build(std::move(*corpus), options);
  if (!sys.ok()) {
    std::cerr << sys.status() << "\n";
    return 1;
  }
  const auto dendro = Dendrogram::Build((*sys)->corpus().size(),
                                        (*sys)->clustering());
  if (!dendro.ok()) {
    std::cerr << dendro.status() << "\n";
    return 1;
  }
  std::cout << (cli.newick ? dendro->ToNewick(&(*sys)->corpus())
                           : dendro->ToAscii(&(*sys)->corpus()));
  return 0;
}

int CmdBenchQueries(const CliOptions& cli) {
  if (cli.positional.size() != 1) return Usage();
  auto corpus = LoadOrFail(cli.positional[0]);
  if (!corpus.ok()) return 1;
  if (corpus->AllLabels().empty()) {
    std::cerr << "bench-queries needs ground-truth labels in the corpus\n";
    return 1;
  }
  SystemOptions options = cli.system;
  options.build_mediation = false;
  auto sys = IntegrationSystem::Build(std::move(*corpus), options);
  if (!sys.ok()) {
    std::cerr << sys.status() << "\n";
    return 1;
  }
  const IntegrationSystem& s = **sys;
  std::vector<std::vector<std::string>> domain_labels;
  for (std::uint32_t r = 0; r < s.domains().num_domains(); ++r) {
    domain_labels.push_back(DominantLabels(s.domains(), r, s.corpus()));
  }
  auto gen = QueryGenerator::Build(s.corpus(), s.lexicon(), {});
  if (!gen.ok()) {
    std::cerr << gen.status() << "\n";
    return 1;
  }
  QueryFeaturizer featurizer(s.tokenizer(), s.vectorizer());
  Rng rng(61);
  TablePrinter table({"Keywords", "Top-1", "Top-3"});
  for (std::size_t size = 1; size <= 10; ++size) {
    TopKAccumulator acc;
    for (std::size_t q = 0; q < cli.queries_per_size; ++q) {
      const GeneratedQuery query = gen->Generate(size, rng);
      acc.Record(
          s.classifier().Classify(featurizer.FeaturizeTerms(query.keywords)),
          domain_labels, query.target_label);
    }
    table.AddRow({std::to_string(size), FormatDouble(acc.Top1Fraction(), 2),
                  FormatDouble(acc.Top3Fraction(), 2)});
  }
  table.Print(std::cout);
  return 0;
}

int CmdServeBench(const CliOptions& cli) {
  if (cli.positional.size() != 1) return Usage();
  auto corpus = LoadOrFail(cli.positional[0]);
  if (!corpus.ok()) return 1;
  auto sys = IntegrationSystem::Build(std::move(*corpus), cli.system);
  if (!sys.ok()) {
    std::cerr << sys.status() << "\n";
    return 1;
  }
  const std::vector<std::string> queries = BuildQueryPool(**sys, 256, 17);

  ServeOptions serve;
  serve.num_workers = cli.serve_workers;
  serve.queue_depth = cli.serve_queue_depth;
  serve.slow_query_threshold_us = cli.slow_us;
  serve.admin_port = cli.admin_port;
  serve.export_path = cli.export_jsonl;
  serve.export_interval_ms = cli.export_interval_ms;
  PaygoServer server(std::move(*sys), serve);
  if (Status s = server.Start(); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  if (server.admin() != nullptr) {
    // Scripts (tools/ci.sh) parse this line to find the ephemeral port.
    std::cerr << "admin server listening on 127.0.0.1:"
              << server.admin()->port() << "\n";
  }
  if (server.exporter() != nullptr) {
    std::cerr << "exporting metrics to " << cli.export_jsonl << " every "
              << cli.export_interval_ms << "ms\n";
  }
  LoadGenOptions load;
  load.client_threads = cli.serve_threads;
  load.duration_ms =
      static_cast<std::uint64_t>(cli.serve_seconds * 1000);
  const LoadReport report = RunClosedLoopLoad(server, queries, load);
  if (cli.human) {
    std::cout << report.qps << " qps over " << report.total_requests
              << " requests (" << load.client_threads << " clients, "
              << serve.num_workers << " workers)\n"
              << "latency p50 " << report.p50_us << "us  p95 "
              << report.p95_us << "us  p99 " << report.p99_us
              << "us  mean " << report.mean_us << "us\n"
              << "cache hit rate " << report.cache_hit_rate
              << ", rejected " << report.rejected << ", timed out "
              << report.timed_out << "\n\n"
              << server.DebugString();
  } else {
    // One strict-JSON object: the load report plus the slow-query log
    // (slowest first; span breakdowns populated when --trace-out enabled
    // tracing for this run).
    std::cout << "{\"report\": " << report.ToJson()
              << ", \"slow_queries\": " << server.slow_query_log().ToJson()
              << "}\n";
  }
  server.Stop();
  return WriteObservabilityOutputs(cli);
}

std::atomic<bool> g_shutdown{false};

void HandleShutdownSignal(int) { g_shutdown.store(true); }

int CmdShardNode(const CliOptions& cli) {
  const bool replica = !cli.primary.empty();
  if (replica ? !cli.positional.empty() : cli.positional.size() != 1) {
    return Usage();
  }

  ShardNodeOptions opts;
  opts.serve.num_workers = cli.serve_workers;
  opts.serve.queue_depth = cli.serve_queue_depth;
  opts.serve.slow_query_threshold_us = cli.slow_us;
  opts.service.port = static_cast<std::uint16_t>(cli.shard_port);
  opts.admin_port = cli.admin_port;

  std::unique_ptr<IntegrationSystem> system;
  if (replica) {
    auto addr = ParseShardAddress(cli.primary);
    if (!addr.ok()) {
      std::cerr << addr.status() << "\n";
      return 1;
    }
    opts.replica = true;
    opts.replica_sync.primary_host = addr->host;
    opts.replica_sync.primary_port = addr->port;
    opts.replica_sync.poll_interval_ms = cli.poll_ms;
    opts.replica_sync.system = cli.system;
  } else {
    auto corpus = LoadOrFail(cli.positional[0]);
    if (!corpus.ok()) return 1;
    if (cli.shards_total > 1) {
      if (cli.shard_index >= cli.shards_total) {
        std::cerr << "--shard-index must be < --shards\n";
        return 2;
      }
      const HashRing ring(cli.shards_total);
      std::vector<SchemaCorpus> parts = PartitionCorpus(*corpus, ring);
      *corpus = std::move(parts[cli.shard_index]);
      if (corpus->size() == 0) {
        std::cerr << "shard " << cli.shard_index
                  << " owns no schemas of this corpus\n";
        return 1;
      }
    }
    auto sys = IntegrationSystem::Build(std::move(*corpus), cli.system);
    if (!sys.ok()) {
      std::cerr << sys.status() << "\n";
      return 1;
    }
    system = std::move(*sys);
  }

  ShardNode node(std::move(opts));
  if (Status s = node.Start(std::move(system)); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  // Scripts (tools/ci.sh) parse these lines to find the ephemeral ports.
  std::cerr << "shard server listening on 127.0.0.1:" << node.shard_port()
            << "\n";
  if (node.admin_port() != 0) {
    std::cerr << "admin server listening on 127.0.0.1:" << node.admin_port()
              << "\n";
  }

  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGTERM, HandleShutdownSignal);
  while (!g_shutdown.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cerr << "shutting down\n";
  node.Stop();
  return 0;
}

int CmdShardRouter(const CliOptions& cli) {
  const bool persistent = cli.admin_port >= 0;
  if (cli.shard_addrs.empty() || (cli.positional.empty() && !persistent)) {
    return Usage();
  }
  std::vector<ShardAddress> addresses;
  for (const std::string& a : cli.shard_addrs) {
    auto addr = ParseShardAddress(a);
    if (!addr.ok()) {
      std::cerr << addr.status() << "\n";
      return 2;
    }
    addresses.push_back(*addr);
  }
  RouterOptions ropts;
  if (cli.slow_us > 0) ropts.slow_query_threshold_us = cli.slow_us;
  const ShardRouter router(addresses, ropts);

  // Persistent mode: the router doubles as the fleet's trace/health
  // vantage point, serving /fleet_tracez (merged cross-shard timelines),
  // /shardz, and /slowz next to the obs endpoints.
  std::unique_ptr<AdminServer> admin;
  if (persistent) {
    AdminServerOptions aopts;
    aopts.port = cli.admin_port;
    admin = std::make_unique<AdminServer>(aopts);
    RegisterObsEndpoints(*admin);
    const ShardRouter* rtr = &router;
    admin->Handle("/shardz", [rtr](const HttpRequest&) {
      HttpResponse response;
      response.content_type = "application/json";
      response.body = rtr->ShardzJson() + "\n";
      return response;
    });
    admin->Handle("/slowz", [rtr](const HttpRequest&) {
      HttpResponse response;
      response.content_type = "application/json";
      response.body = rtr->SlowLogJson() + "\n";
      return response;
    });
    admin->Handle("/fleet_tracez", [rtr](const HttpRequest& request) {
      auto merged =
          rtr->FleetTraceJson(QueryParamU64(request.query, "trace_id"));
      HttpResponse response;
      if (!merged.ok()) {
        response.status = 500;
        response.body = merged.status().message() + "\n";
        return response;
      }
      response.content_type = "application/json";
      response.body = std::move(*merged);
      return response;
    });
    auto port = admin->Start();
    if (!port.ok()) {
      std::cerr << port.status() << "\n";
      return 1;
    }
    // Scripts (tools/ci.sh) parse this line to find the ephemeral port.
    std::cerr << "admin server listening on 127.0.0.1:" << *port << "\n";
  }

  int rc = 0;
  std::uint64_t trace_id = 0;
  if (!cli.positional.empty()) {
    const std::string query = Join(cli.positional, " ");
    auto scattered = router.Classify(query, 5);
    if (!scattered.ok()) {
      std::cerr << scattered.status() << "\n";
      return 1;
    }
    trace_id = scattered->trace_id;
    std::cout << "query: \"" << query << "\" (" << scattered->shards_ok
              << "/" << scattered->shards_total << " shards answered)\n";
    if (trace_id != 0) std::cout << "trace id: " << trace_id << "\n";
    for (std::size_t k = 0; k < scattered->ranked.size(); ++k) {
      const RoutedDomain& d = scattered->ranked[k];
      std::cout << k + 1 << ". shard " << d.shard << " domain " << d.domain
                << " (score " << FormatDouble(d.log_posterior, 2) << ")";
      std::size_t shown = 0;
      for (const std::string& a : d.mediated_attributes) {
        std::cout << (shown == 0 ? " :" : "") << " [" << a << "]";
        if (++shown >= 8) {
          std::cout << " ...";
          break;
        }
      }
      std::cout << "\n";
    }
    // A merged ranking is the smoke-test contract: no results means the
    // fleet is not actually serving.
    if (scattered->ranked.empty()) rc = 1;
  }

  if (!cli.fleet_trace_out.empty()) {
    auto merged = router.FleetTraceJson(trace_id);
    if (!merged.ok()) {
      std::cerr << merged.status() << "\n";
      rc = 1;
    } else {
      std::ofstream out(cli.fleet_trace_out, std::ios::trunc);
      out << *merged;
      out.flush();
      if (!out) {
        std::cerr << "failed writing fleet trace " << cli.fleet_trace_out
                  << "\n";
        rc = 1;
      } else {
        std::cerr << "wrote fleet trace to " << cli.fleet_trace_out << "\n";
      }
    }
  }

  if (persistent) {
    std::signal(SIGINT, HandleShutdownSignal);
    std::signal(SIGTERM, HandleShutdownSignal);
    while (!g_shutdown.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::cerr << "shutting down\n";
    admin->Stop();
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "--version" || command == "version") {
    std::cout << BuildInfoText();
    return 0;
  }
  CliOptions cli;
  if (!ParseCommon(argc, argv, 2, &cli)) return Usage();
  if (!cli.trace_out.empty() || cli.trace) Tracer::Enable();
  if (command == "generate") return CmdGenerate(cli.positional);
  if (command == "stats") return CmdStats(cli.positional);
  if (command == "cluster") return CmdCluster(cli);
  if (command == "classify") return CmdClassify(cli);
  if (command == "snapshot") return CmdSnapshot(cli);
  if (command == "query") return CmdQuery(cli);
  if (command == "dendrogram") return CmdDendrogram(cli);
  if (command == "bench-queries") return CmdBenchQueries(cli);
  if (command == "serve-bench") return CmdServeBench(cli);
  if (command == "shard-node") return CmdShardNode(cli);
  if (command == "shard-router") return CmdShardRouter(cli);
  std::cerr << "unknown command '" << command << "'\n";
  return Usage();
}
