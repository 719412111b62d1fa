/// \file serve_throughput.cc
/// \brief Closed-loop load benchmark of the PaygoServer serving runtime.
///
/// Builds an integration system over a synthetic corpus, starts the
/// server, and runs three phases:
///
///   1. a closed-loop load phase — N client threads classify keyword
///      queries back-to-back, measuring client-observed latency;
///   2. a saturation probe — a burst of async submissions against a
///      deliberately tiny queue to demonstrate admission-control
///      rejection under overload;
///   3. a mixed phase — the same closed loop while a writer adds schemas
///      concurrently, exercising snapshot swaps under load.
///
/// Output is a single JSON object (schema documented in bench/README.md);
/// pass --human for a readable summary instead. Unless --json-out is
/// empty, the same object — enriched with the bench name, a timestamp,
/// and the configuration — is also written to a machine-readable file
/// (default BENCH_serve.json) for CI trend tracking.
///
/// With --shards the bench switches to the domain-sharded mode instead:
/// the corpus is consistent-hash partitioned, one in-process ShardNode is
/// started per shard, and the multi-endpoint wire-protocol closed loop
/// measures aggregate read QPS per shard count — the scaling curve lands
/// in BENCH_serve.json as "shard_scaling". A replica probe (primary +
/// read replica, full snapshot replication, load served off the replica)
/// rides along.
///
/// Flags: --corpus <dw|ss|both|many> --threads N --seconds S --workers N
///        --queue-depth N --cache-capacity N --delay-us N --batch-max N
///        --shards N[,N...] --json-out FILE --human
///        --check [--p99-budget-us N]
/// A numeric value that is not a plain decimal number, or a thread count
/// over 1024 or a shard count over 64, exits 2 before any work.
///
/// --batch-max sets ServeOptions::classify_batch_max, so the steady phase
/// exercises the coalesced classify sweep (batch_sweeps/batched_requests
/// land in the JSON). --check turns the steady phase into a CI gate: exit
/// 1 if any steady request errored or client-observed p99 exceeds the
/// budget (default 200ms — a regression tripwire, not a latency SLO).

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/integration_system.h"
#include "serve/load_generator.h"
#include "serve/paygo_server.h"
#include "shard/hash_ring.h"
#include "shard/router.h"
#include "shard/shard_node.h"
#include "synth/many_domains.h"
#include "synth/web_generator.h"

namespace {

using namespace paygo;

/// Most shards one --shards point may start (each runs its own threads).
constexpr std::size_t kMaxShards = 64;

struct BenchOptions {
  std::string corpus = "both";
  bool corpus_set = false;
  std::size_t threads = 4;
  double seconds = 2.0;
  std::size_t workers = 4;
  std::size_t queue_depth = 256;
  std::size_t cache_capacity = 1024;
  std::uint64_t delay_us = 0;
  std::size_t batch_max = 1;  // classify_batch_max for the steady server
  std::vector<std::size_t> shards;  // non-empty selects the sharded mode
  std::string json_out = "BENCH_serve.json";  // "" disables the file
  bool human = false;
  bool check = false;
  double p99_budget_us = 200000;  // steady-phase client-observed p99 gate
};

SchemaCorpus MakeCorpus(const std::string& name) {
  if (name == "dw") return MakeDwCorpus();
  if (name == "ss") return MakeSsCorpus();
  if (name == "many") return MakeManyDomainCorpus();
  return MakeDwSsCorpus();
}

Schema MakeExtraSchema(int i) {
  Schema schema;
  schema.source_name = "live-source-" + std::to_string(i);
  schema.attributes = {"departure city", "destination city",
                       "travel date", "fare class",
                       "seat " + std::to_string(i)};
  return schema;
}

/// One point of the scaling curve: partition, start a fleet, probe the
/// router, load every shard over the wire.
struct ShardSweepPoint {
  std::size_t shards = 0;
  std::vector<std::size_t> schemas_per_shard;
  LoadReport load;
  std::size_t router_shards_ok = 0;
  std::size_t router_shards_total = 0;
  std::size_t router_ranked = 0;
};

int RunShardSweep(const BenchOptions& opts) {
  // Sharding pays off on the many-small-domains corpus shape; default to
  // it unless the user asked for a specific corpus.
  const std::string corpus_name = opts.corpus_set ? opts.corpus : "many";
  const SchemaCorpus corpus = MakeCorpus(corpus_name);

  // The query pool comes from one unsharded build over the full corpus,
  // so every shard count replays the identical workload.
  auto full = IntegrationSystem::Build(corpus);
  if (!full.ok()) {
    std::cerr << full.status() << "\n";
    return 1;
  }
  const std::vector<std::string> queries = BuildQueryPool(**full, 256, 17);
  full->reset();

  // A fixed artificial handler delay makes the capacity per shard
  // deterministic (workers / delay), so the curve reflects shard-count
  // scaling rather than the host's core count; enough closed-loop clients
  // to saturate the largest fleet.
  const std::uint64_t delay_us = std::max<std::uint64_t>(opts.delay_us, 1000);
  LoadGenOptions load;
  load.client_threads = std::max<std::size_t>(opts.threads, 4 * opts.workers);
  load.duration_ms = static_cast<std::uint64_t>(opts.seconds * 1000);

  std::vector<ShardSweepPoint> curve;
  for (const std::size_t num_shards : opts.shards) {
    const HashRing ring(num_shards);
    std::vector<SchemaCorpus> parts = PartitionCorpus(corpus, ring);

    ShardSweepPoint point;
    point.shards = num_shards;
    std::vector<std::unique_ptr<ShardNode>> nodes;
    std::vector<ShardAddress> addresses;
    std::vector<WireEndpoint> endpoints;
    for (std::size_t s = 0; s < parts.size(); ++s) {
      point.schemas_per_shard.push_back(parts[s].size());
      ShardNodeOptions node_opts;
      node_opts.serve.num_workers = opts.workers;
      node_opts.serve.queue_depth = opts.queue_depth;
      node_opts.serve.cache_capacity = 0;  // every request does real work
      node_opts.serve.artificial_request_delay_us = delay_us;
      node_opts.service.handler_threads =
          std::max<std::size_t>(opts.workers, 4);
      node_opts.admin_port = -1;
      auto node = std::make_unique<ShardNode>(std::move(node_opts));
      std::unique_ptr<IntegrationSystem> system;
      if (parts[s].size() > 0) {
        auto built = IntegrationSystem::Build(std::move(parts[s]));
        if (!built.ok()) {
          std::cerr << "shard " << s << ": " << built.status() << "\n";
          return 1;
        }
        system = std::move(*built);
      }
      // An empty arc starts a not-ready node; the router degrades around
      // it, which the probe counters record.
      if (Status started = node->Start(std::move(system)); !started.ok()) {
        std::cerr << "shard " << s << ": " << started << "\n";
        return 1;
      }
      addresses.push_back(ShardAddress{"127.0.0.1", node->shard_port()});
      endpoints.push_back(WireEndpoint{"127.0.0.1", node->shard_port(), 1});
      nodes.push_back(std::move(node));
    }

    const ShardRouter router(addresses);
    if (auto scattered = router.Classify(queries[0], 5); scattered.ok()) {
      point.router_shards_ok = scattered->shards_ok;
      point.router_shards_total = scattered->shards_total;
      point.router_ranked = scattered->ranked.size();
    }

    point.load = RunClosedLoopWireLoad(endpoints, queries, load);
    curve.push_back(std::move(point));
    for (auto& node : nodes) node->Stop();
  }

  // Replica probe: primary + read replica over a small corpus; the
  // replica bootstraps via full-snapshot replication, then serves reads.
  ShardNodeOptions primary_opts;
  primary_opts.admin_port = -1;
  ShardNode primary(std::move(primary_opts));
  auto primary_system = IntegrationSystem::Build(MakeDwCorpus());
  if (!primary_system.ok()) {
    std::cerr << primary_system.status() << "\n";
    return 1;
  }
  if (Status s = primary.Start(std::move(*primary_system)); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  ShardNodeOptions replica_opts;
  replica_opts.admin_port = -1;
  replica_opts.replica = true;
  replica_opts.replica_sync.primary_port = primary.shard_port();
  replica_opts.replica_sync.poll_interval_ms = 50;
  ShardNode replica(std::move(replica_opts));
  if (Status s = replica.Start(nullptr); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  const std::uint64_t primary_generation = primary.server().generation();
  bool replica_synced = false;
  for (int i = 0; i < 500; ++i) {
    if (replica.replica() != nullptr &&
        replica.replica()->GetStats().synced_generation >=
            primary_generation) {
      replica_synced = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  LoadReport replica_load;
  std::string replica_stats_json = "{}";
  if (replica_synced) {
    LoadGenOptions replica_load_opts;
    replica_load_opts.client_threads = 4;
    replica_load_opts.duration_ms = 500;
    replica_load = RunClosedLoopWireLoad(
        {WireEndpoint{"127.0.0.1", replica.shard_port(), 1}}, queries,
        replica_load_opts);
    replica_stats_json = replica.replica()->StatsJson();
  }
  replica.Stop();
  primary.Stop();

  std::ostringstream results;
  results << "{\"shard_scaling\": [";
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const ShardSweepPoint& p = curve[i];
    if (i > 0) results << ", ";
    results << "{\"shards\": " << p.shards << ", \"schemas_per_shard\": [";
    for (std::size_t s = 0; s < p.schemas_per_shard.size(); ++s) {
      if (s > 0) results << ", ";
      results << p.schemas_per_shard[s];
    }
    results << "], \"router_probe\": {\"shards_ok\": " << p.router_shards_ok
            << ", \"shards_total\": " << p.router_shards_total
            << ", \"ranked\": " << p.router_ranked
            << "}, \"load\": " << p.load.ToJson() << "}";
  }
  results << "]";
  double qps_at = 0, qps_base = 0;
  for (const ShardSweepPoint& p : curve) {
    if (p.shards == 1) qps_base = p.load.qps;
    if (p.shards == 2) qps_at = p.load.qps;
  }
  if (qps_base > 0 && qps_at > 0) {
    results << ", \"qps_scaling_2x_vs_1x\": " << (qps_at / qps_base);
  }
  results << ", \"replica_probe\": {\"synced\": "
          << (replica_synced ? "true" : "false")
          << ", \"primary_generation\": " << primary_generation
          << ", \"replication\": " << replica_stats_json
          << ", \"load\": " << replica_load.ToJson() << "}}";

  if (!opts.json_out.empty()) {
    const auto ts_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    std::ofstream out(opts.json_out, std::ios::trunc);
    out << "{\"bench\": \"serve_throughput\", \"mode\": \"shard_scaling\", "
        << "\"ts_ms\": " << ts_ms << ", \"config\": {\"corpus\": \""
        << corpus_name << "\", \"threads\": " << load.client_threads
        << ", \"seconds\": " << opts.seconds
        << ", \"workers\": " << opts.workers
        << ", \"delay_us\": " << delay_us << ", \"shard_counts\": [";
    for (std::size_t i = 0; i < opts.shards.size(); ++i) {
      if (i > 0) out << ", ";
      out << opts.shards[i];
    }
    out << "]}, \"results\": " << results.str() << "}\n";
    if (!out) {
      std::cerr << "failed writing " << opts.json_out << "\n";
      return 1;
    }
    std::cerr << "wrote " << opts.json_out << "\n";
  }

  if (opts.human) {
    for (const ShardSweepPoint& p : curve) {
      std::cout << "shards=" << p.shards << ": " << p.load.qps
                << " qps aggregate, p50 " << p.load.p50_us << "us, router "
                << p.router_shards_ok << "/" << p.router_shards_total
                << " shards ok\n";
    }
    if (qps_base > 0 && qps_at > 0) {
      std::cout << "2-shard vs 1-shard aggregate QPS: "
                << (qps_at / qps_base) << "x\n";
    }
    std::cout << "replica: " << (replica_synced ? "synced" : "NOT SYNCED")
              << ", " << replica_load.qps << " qps served off replica\n";
    return 0;
  }
  std::cout << results.str() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--corpus" && next()) {
      opts.corpus = argv[i];
      opts.corpus_set = true;
    } else if (arg == "--shards") {
      opts.shards = bench::FlagList<std::size_t>(arg, next(), 1, kMaxShards);
    } else if (arg == "--threads") {
      opts.threads = bench::FlagValue<std::size_t>(arg, next(), 0,
                                                   bench::kMaxFlagThreads);
    } else if (arg == "--seconds") {
      opts.seconds = bench::FlagValue<double>(arg, next(), 0.0);
    } else if (arg == "--workers") {
      opts.workers = bench::FlagValue<std::size_t>(arg, next(), 0,
                                                   bench::kMaxFlagThreads);
    } else if (arg == "--queue-depth") {
      opts.queue_depth = bench::FlagValue<std::size_t>(arg, next());
    } else if (arg == "--cache-capacity") {
      opts.cache_capacity = bench::FlagValue<std::size_t>(arg, next());
    } else if (arg == "--delay-us") {
      opts.delay_us = bench::FlagValue<std::uint64_t>(arg, next());
    } else if (arg == "--batch-max") {
      opts.batch_max = bench::FlagValue<std::size_t>(arg, next());
    } else if (arg == "--json-out" && next()) {
      opts.json_out = argv[i];
    } else if (arg == "--human") {
      opts.human = true;
    } else if (arg == "--check") {
      opts.check = true;
    } else if (arg == "--p99-budget-us") {
      opts.p99_budget_us = bench::FlagValue<double>(arg, next(), 0.0);
    } else {
      std::cerr << "unknown flag '" << arg << "'\n";
      return 2;
    }
  }

  if (!opts.shards.empty()) return RunShardSweep(opts);

  auto built = IntegrationSystem::Build(MakeCorpus(opts.corpus));
  if (!built.ok()) {
    std::cerr << built.status() << "\n";
    return 1;
  }
  std::vector<std::string> queries = BuildQueryPool(**built, 256, 17);

  // Phase 1: steady-state closed loop.
  ServeOptions serve;
  serve.num_workers = opts.workers;
  serve.queue_depth = opts.queue_depth;
  serve.cache_capacity = opts.cache_capacity;
  serve.artificial_request_delay_us = opts.delay_us;
  serve.classify_batch_max = opts.batch_max;
  PaygoServer server(std::move(*built), serve);
  if (Status s = server.Start(); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  LoadGenOptions load;
  load.client_threads = opts.threads;
  load.duration_ms = static_cast<std::uint64_t>(opts.seconds * 1000);
  const LoadReport steady = RunClosedLoopLoad(server, queries, load);
  // Coalescing counters for the steady phase, sampled before the mixed
  // phase adds more.
  const std::uint64_t steady_sweeps = server.metrics().batch_sweeps.load();
  const std::uint64_t steady_batched =
      server.metrics().batched_requests.load();

  // Phase 2: saturation probe against a tiny queue. Slow the handlers so
  // the burst cannot drain between submissions.
  auto built2 = IntegrationSystem::Build(MakeCorpus(opts.corpus));
  if (!built2.ok()) {
    std::cerr << built2.status() << "\n";
    return 1;
  }
  ServeOptions tiny = serve;
  tiny.num_workers = 1;
  tiny.queue_depth = 2;
  tiny.cache_capacity = 0;  // every request does real work
  tiny.artificial_request_delay_us =
      std::max<std::uint64_t>(opts.delay_us, 2000);
  PaygoServer saturated(std::move(*built2), tiny);
  if (Status s = saturated.Start(); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  const std::uint64_t probe_rejected =
      RunSaturationProbe(saturated, queries[0], 64);
  saturated.Stop();

  // Phase 3: the same closed loop with a concurrent AddSchema writer.
  std::vector<std::future<Status>> writes;
  for (int i = 0; i < 4; ++i) {
    writes.push_back(server.AddSchemaAsync(MakeExtraSchema(i),
                                           {"live-domain"}));
  }
  const LoadReport mixed = RunClosedLoopLoad(server, queries, load);
  for (auto& w : writes) w.get();
  const std::uint64_t generation = server.generation();
  server.Stop();

  std::ostringstream results;
  results << "{\"steady\": " << steady.ToJson()
          << ", \"steady_batch\": {\"batch_max\": " << opts.batch_max
          << ", \"sweeps\": " << steady_sweeps
          << ", \"batched_requests\": " << steady_batched
          << "}, \"mixed_with_writer\": " << mixed.ToJson()
          << ", \"saturation_probe\": {\"burst\": 64, \"rejected\": "
          << probe_rejected << "}, \"final_generation\": " << generation
          << "}";

  if (!opts.json_out.empty()) {
    // Machine-readable record for CI trend tracking (schema in
    // bench/README.md): results wrapped with provenance + configuration.
    const auto ts_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    std::ofstream out(opts.json_out, std::ios::trunc);
    out << "{\"bench\": \"serve_throughput\", \"ts_ms\": " << ts_ms
        << ", \"config\": {\"corpus\": \"" << opts.corpus
        << "\", \"threads\": " << opts.threads
        << ", \"seconds\": " << opts.seconds
        << ", \"workers\": " << opts.workers
        << ", \"queue_depth\": " << opts.queue_depth
        << ", \"cache_capacity\": " << opts.cache_capacity
        << ", \"delay_us\": " << opts.delay_us
        << ", \"batch_max\": " << opts.batch_max
        << "}, \"results\": " << results.str() << "}\n";
    if (!out) {
      std::cerr << "failed writing " << opts.json_out << "\n";
      return 1;
    }
    std::cerr << "wrote " << opts.json_out << "\n";
  }

  if (opts.human) {
    std::cout << "steady:    " << steady.qps << " qps, p50 "
              << steady.p50_us << "us p95 " << steady.p95_us << "us p99 "
              << steady.p99_us << "us, cache hit rate "
              << steady.cache_hit_rate << "\n";
    if (opts.batch_max > 1) {
      std::cout << "batching:  max " << opts.batch_max << ", "
                << steady_sweeps << " sweeps over " << steady_batched
                << " requests\n";
    }
    std::cout << "mixed:     " << mixed.qps << " qps under " << generation
              << " snapshot swaps\n";
    std::cout << "saturation: " << probe_rejected
              << "/64 requests rejected by admission control\n";
  } else {
    std::cout << results.str() << "\n";
  }

  if (opts.check) {
    bool failed = false;
    if (steady.error_requests > 0) {
      std::cerr << "FAIL: " << steady.error_requests
                << " steady-phase requests errored\n";
      failed = true;
    }
    if (static_cast<double>(steady.p99_us) > opts.p99_budget_us) {
      std::cerr << "FAIL: steady-phase p99 " << steady.p99_us
                << "us over budget " << opts.p99_budget_us << "us\n";
      failed = true;
    }
    if (failed) return 1;
  }
  return 0;
}
