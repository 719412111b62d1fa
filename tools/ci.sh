#!/usr/bin/env bash
# Local CI gate: the tier-1 suite, a ThreadSanitizer pass over the
# serving runtime's concurrency tests, and an AddressSanitizer +
# UndefinedBehaviorSanitizer pass over the clustering, mediation and
# classifier suites.
#
#   tools/ci.sh                       # full run (tier-1 + TSan + ASan/UBSan)
#   tools/ci.sh --no-tsan             # skip the TSan lane
#   tools/ci.sh --no-asan             # skip the ASan/UBSan lane
#   tools/ci.sh --no-tsan --no-asan   # tier-1 only
#
# Build trees: ./build (plain), ./build-tsan (PAYGO_SANITIZE=thread) and
# ./build-asan (PAYGO_SANITIZE=address,undefined). All are incremental
# across runs.

set -euo pipefail
cd "$(dirname "$0")/.."

RUN_TSAN=1
RUN_ASAN=1
for arg in "$@"; do
  case "$arg" in
    --no-tsan) RUN_TSAN=0 ;;
    --no-asan) RUN_ASAN=0 ;;
    *) echo "usage: tools/ci.sh [--no-tsan] [--no-asan]" >&2; exit 2 ;;
  esac
done

JOBS=$(nproc 2>/dev/null || echo 2)

echo "==> tier-1: configure + build"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

echo "==> tier-1: ctest"
(cd build && ctest --output-on-failure -j "$JOBS")

echo "==> smoke: paygo_cli cluster --threads (serial vs parallel)"
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
./build/tools/paygo_cli generate ddh "$SMOKE_DIR/corpus.txt" >/dev/null
./build/tools/paygo_cli cluster "$SMOKE_DIR/corpus.txt" --threads 1 > "$SMOKE_DIR/serial.txt"
./build/tools/paygo_cli cluster "$SMOKE_DIR/corpus.txt" --threads 4 > "$SMOKE_DIR/parallel.txt"
if ! diff -q "$SMOKE_DIR/serial.txt" "$SMOKE_DIR/parallel.txt" >/dev/null; then
  echo "FAIL: --threads 4 clustering differs from --threads 1" >&2
  diff "$SMOKE_DIR/serial.txt" "$SMOKE_DIR/parallel.txt" | head -20 >&2
  exit 1
fi
echo "    serial and 4-thread cluster output identical"

echo "==> smoke: paygo_cli cluster --sparse (dense-matrix-free vs dense)"
# The exact-mode sparse build is merge-for-merge bitwise-identical to the
# dense path, so the CLI output must diff clean — clusters, memberships,
# every printed probability digit.
./build/tools/paygo_cli cluster "$SMOKE_DIR/corpus.txt" > "$SMOKE_DIR/dense.txt"
./build/tools/paygo_cli cluster "$SMOKE_DIR/corpus.txt" --sparse > "$SMOKE_DIR/sparse.txt"
if ! diff -q "$SMOKE_DIR/dense.txt" "$SMOKE_DIR/sparse.txt" >/dev/null; then
  echo "FAIL: --sparse clustering differs from the dense build" >&2
  diff "$SMOKE_DIR/dense.txt" "$SMOKE_DIR/sparse.txt" | head -20 >&2
  exit 1
fi
echo "    dense and sparse cluster output identical"

echo "==> smoke: paygo_cli cluster --sparse --threads 4 (parallel graph build)"
# The neighbor graph's chunked build and RunOnGraph's pool must give the
# serial dense output through the CLI too.
./build/tools/paygo_cli cluster "$SMOKE_DIR/corpus.txt" --sparse --threads 4 \
  > "$SMOKE_DIR/sparse4.txt"
if ! diff -q "$SMOKE_DIR/dense.txt" "$SMOKE_DIR/sparse4.txt" >/dev/null; then
  echo "FAIL: --sparse --threads 4 clustering differs from the dense build" >&2
  diff "$SMOKE_DIR/dense.txt" "$SMOKE_DIR/sparse4.txt" | head -20 >&2
  exit 1
fi
echo "    dense serial and sparse 4-thread cluster output identical"

echo "==> smoke: paygo_cli rejects malformed numeric flags (exit 2)"
# Each value must be refused while parsing, before any work or thread
# starts: a sign on a count, trailing garbage, a non-number, an overflow.
for bad in "--threads -1" "--threads abc" "--threads 4x" "--tau abc" \
           "--tau 0.25x" "--threads 5000" \
           "--threads 99999999999999999999999"; do
  rc=0
  # shellcheck disable=SC2086  # $bad is a flag and its value
  ./build/tools/paygo_cli cluster "$SMOKE_DIR/corpus.txt" $bad \
    >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: paygo_cli cluster $bad exited $rc, expected 2" >&2
    exit 1
  fi
done
echo "    every malformed value exits 2"

echo "==> smoke: perf_clustering --sparse-scaling --check (scaled down)"
# The dense-matrix-free scaling lane at CI size: the exact neighbor graph
# plus Hac::RunOnGraph must beat the dense matrix plus Hac::Run by >= 5x
# at the largest dense-feasible n and reproduce the dense merges bitwise
# at 1/2/4 threads (full curve: --max-n=100000 --dense-max=8000; schema
# in bench/README.md).
./build/bench/perf_clustering --sparse-scaling --max-n=4000 --dense-max=2000 \
  --check --json-out="$SMOKE_DIR/BENCH_clustering.json" \
  2> "$SMOKE_DIR/sparse-scaling.log"
echo "    sparse scaling check passed (speedup + bitwise merges)"

echo "==> smoke: serve-bench admin endpoint (/healthz over loopback)"
# A small corpus keeps the system build fast; --admin-port 0 binds an
# ephemeral port that paygo_cli reports on stderr.
./build/tools/paygo_cli generate both "$SMOKE_DIR/admin-corpus.txt" >/dev/null
./build/tools/paygo_cli serve-bench "$SMOKE_DIR/admin-corpus.txt" \
  --serve-seconds 6 --admin-port 0 \
  > "$SMOKE_DIR/serve-bench.json" 2> "$SMOKE_DIR/serve-bench.log" &
SERVE_PID=$!
ADMIN_PORT=""
for _ in $(seq 1 100); do
  ADMIN_PORT=$(sed -n 's/.*admin server listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' \
    "$SMOKE_DIR/serve-bench.log" | head -1)
  [[ -n "$ADMIN_PORT" ]] && break
  sleep 0.1
done
if [[ -z "$ADMIN_PORT" ]]; then
  echo "FAIL: serve-bench never reported its admin port" >&2
  cat "$SMOKE_DIR/serve-bench.log" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
# curl-free HTTP GET via bash's /dev/tcp.
HEALTHZ_STATUS=$(exec 3<>"/dev/tcp/127.0.0.1/$ADMIN_PORT" \
  && printf 'GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n' >&3 \
  && head -1 <&3; exec 3>&- 2>/dev/null || true)
if [[ "$HEALTHZ_STATUS" != *" 200 "* ]]; then
  echo "FAIL: /healthz on port $ADMIN_PORT answered: $HEALTHZ_STATUS" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
wait "$SERVE_PID"
echo "    /healthz on 127.0.0.1:$ADMIN_PORT answered 200"

echo "==> smoke: perf_write_path --smoke --check (O(delta) classifier refresh)"
# --check fails the run unless the delta write path fully recomputed only
# a small per-add number of domain conditionals (counters
# paygo.classifier.domains_refreshed/domains_reused; DESIGN.md section 8).
./build/bench/perf_write_path --smoke --check --json-out "" \
  > "$SMOKE_DIR/write-path.json"
echo "    delta write path within the O(delta) refresh budget"

echo "==> smoke: perf_write_path --shape web --smoke --check (O(delta) arrival row)"
# The many-domain sparse_build shape at 200 pseudo-domains: besides the
# refresh budget, each arrival must read at most n/8 posting-list entries
# (counter paygo.arrival.postings_visited) — no corpus-wide scan — and
# each clone + AddSchema, mediation aside, may make at most n/8 heap
# allocations, so no step copies the per-schema or per-domain rows.
./build/bench/perf_write_path --shape web --smoke --check --json-out "" \
  > "$SMOKE_DIR/write-path-web.json"
echo "    web arrivals within the O(delta) postings and allocation budgets"

echo "==> smoke: perf_classifier --smoke --check (batch sweep >= 2x, p99 budget)"
# The batch-classification regression gate: batch-64 single-thread
# throughput must stay >= 2x batch-1 through the struct-of-arrays sweep,
# and per-query p99 must stay under budget. Writes BENCH_classifier.json
# (schema in bench/README.md).
./build/bench/perf_classifier --smoke --check \
  --json-out "$SMOKE_DIR/BENCH_classifier.json" \
  > "$SMOKE_DIR/classifier.json"
echo "    batch classify sweep within the speedup + p99 budget"

echo "==> smoke: perf_classifier --shape web --check (sparse model size)"
# The many-domain web shape from raw text at 200 pseudo-domains: the
# sparse classifier must stay under 5% of the dense rows' bytes and every
# per-query p99 under budget (full lane: --shape web, 1000 domains).
./build/bench/perf_classifier --shape web --domains 200 --smoke --check \
  --json-out "$SMOKE_DIR/BENCH_classifier_web.json" \
  > "$SMOKE_DIR/classifier-web.json"
echo "    web-shape classifier within the model-size + p99 budget"

echo "==> smoke: serve_throughput --check (coalesced classify, p99 + errors)"
# A short coalesced-serving run: every steady-phase request must succeed
# and client-observed p99 must stay under the (loose) budget.
./build/bench/serve_throughput --seconds 0.5 --batch-max 8 --check \
  --json-out "" > "$SMOKE_DIR/serve-check.json"
echo "    coalesced serving within the p99 budget, zero errors"

echo "==> smoke: perf_obs_overhead --check (idle tracing + wire propagation)"
# Both idle gates (span sites on the HAC workload, null-context branch on
# the untraced wire path) must stay within the 2% budget. Writes
# BENCH_obs.json (schema in bench/README.md).
./build/bench/perf_obs_overhead --n 200 --reps 3 --pings 100 --check \
  --json-out "$SMOKE_DIR/BENCH_obs.json" > "$SMOKE_DIR/obs-overhead.txt"
echo "    tracing idle + propagation overhead within the 2% budget"

echo "==> smoke: domain-sharded fleet (2 shard primaries + replica + router)"
# Three paygo_cli processes on ephemeral ports: two primaries each serving
# their consistent-hash share of the corpus, plus a read replica of shard 0
# that bootstraps via snapshot replication. The router scatter/gathers one
# cross-domain query across the primaries.
./build/tools/paygo_cli generate both "$SMOKE_DIR/fleet-corpus.txt" >/dev/null

port_from_log() {  # <logfile> <label>  ->  port, or ""
  sed -n "s/.*$2 server listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p" \
    "$1" | head -1
}
wait_for_port() {  # <logfile> <label>
  local port=""
  for _ in $(seq 1 100); do
    port=$(port_from_log "$1" "$2")
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  echo "$port"
}
http_head() {  # <port> <path>  ->  first status line
  exec 3<>"/dev/tcp/127.0.0.1/$1" \
    && printf 'GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n' "$2" >&3 \
    && head -1 <&3; exec 3>&- 2>/dev/null || true
}

FLEET_PIDS=""
stop_fleet() { [[ -n "$FLEET_PIDS" ]] && kill $FLEET_PIDS 2>/dev/null || true; }

# --trace arms each node's Tracer so wire-propagated trace contexts tag
# server-side spans (idle cost only until a traced request arrives).
./build/tools/paygo_cli shard-node "$SMOKE_DIR/fleet-corpus.txt" \
  --shards 2 --shard-index 0 --admin-port 0 --trace \
  2> "$SMOKE_DIR/shard0.log" &
FLEET_PIDS="$!"
./build/tools/paygo_cli shard-node "$SMOKE_DIR/fleet-corpus.txt" \
  --shards 2 --shard-index 1 --admin-port 0 --trace \
  2> "$SMOKE_DIR/shard1.log" &
FLEET_PIDS="$FLEET_PIDS $!"

SHARD0_PORT=$(wait_for_port "$SMOKE_DIR/shard0.log" shard)
SHARD1_PORT=$(wait_for_port "$SMOKE_DIR/shard1.log" shard)
if [[ -z "$SHARD0_PORT" || -z "$SHARD1_PORT" ]]; then
  echo "FAIL: a shard primary never reported its wire port" >&2
  cat "$SMOKE_DIR/shard0.log" "$SMOKE_DIR/shard1.log" >&2
  stop_fleet; exit 1
fi

# The replica starts EMPTY and read-only; its /readyz must flip to 200
# only once the first replicated snapshot has installed.
./build/tools/paygo_cli shard-node --primary "127.0.0.1:$SHARD0_PORT" \
  --poll-ms 50 --admin-port 0 --trace 2> "$SMOKE_DIR/replica.log" &
FLEET_PIDS="$FLEET_PIDS $!"
REPLICA_ADMIN=$(wait_for_port "$SMOKE_DIR/replica.log" admin)
REPLICA_PORT=$(wait_for_port "$SMOKE_DIR/replica.log" shard)

for NODE in "shard0:$(port_from_log "$SMOKE_DIR/shard0.log" admin)" \
            "shard1:$(port_from_log "$SMOKE_DIR/shard1.log" admin)" \
            "replica:$REPLICA_ADMIN"; do
  NAME=${NODE%%:*}; PORT=${NODE##*:}
  if [[ -z "$PORT" ]]; then
    echo "FAIL: $NAME never reported its admin port" >&2
    stop_fleet; exit 1
  fi
  READY=""
  for _ in $(seq 1 100); do
    READY=$(http_head "$PORT" /readyz)
    [[ "$READY" == *" 200 "* ]] && break
    sleep 0.1
  done
  if [[ "$READY" != *" 200 "* ]]; then
    echo "FAIL: /readyz on $NAME (port $PORT) answered: $READY" >&2
    stop_fleet; exit 1
  fi
  echo "    /readyz on $NAME (127.0.0.1:$PORT) answered 200"
done

# One cross-domain query through the router; a non-empty merged ranking
# over both shards is the contract (shard-router exits 1 on empty).
if ! ./build/tools/paygo_cli shard-router used car price listing \
    --shard "127.0.0.1:$SHARD0_PORT" --shard "127.0.0.1:$SHARD1_PORT" \
    > "$SMOKE_DIR/router.txt"; then
  echo "FAIL: router scatter/gather returned no merged ranking" >&2
  cat "$SMOKE_DIR/router.txt" >&2
  stop_fleet; exit 1
fi
if ! grep -q "(2/2 shards answered)" "$SMOKE_DIR/router.txt"; then
  echo "FAIL: router did not merge both shards:" >&2
  cat "$SMOKE_DIR/router.txt" >&2
  stop_fleet; exit 1
fi
echo "    router merged a cross-domain ranking over 2/2 shards"

# Traced scatter over the whole fleet (2 primaries + the replica): one
# trace id propagates to every process, and --fleet-trace-out merges the
# per-process events into a single Chrome trace (pid 1 = router, pids
# 2/3/4 = the shards in --shard order, clocks RTT-aligned).
if [[ -z "$REPLICA_PORT" ]]; then
  echo "FAIL: replica never reported its wire port" >&2
  stop_fleet; exit 1
fi
if ! ./build/tools/paygo_cli shard-router used car price listing \
    --shard "127.0.0.1:$SHARD0_PORT" --shard "127.0.0.1:$SHARD1_PORT" \
    --shard "127.0.0.1:$REPLICA_PORT" \
    --trace --fleet-trace-out "$SMOKE_DIR/fleet-trace.json" \
    > "$SMOKE_DIR/router-traced.txt" 2> "$SMOKE_DIR/router-traced.log"; then
  echo "FAIL: traced router scatter failed" >&2
  cat "$SMOKE_DIR/router-traced.txt" "$SMOKE_DIR/router-traced.log" >&2
  stop_fleet; exit 1
fi
if ! grep -q "(3/3 shards answered)" "$SMOKE_DIR/router-traced.txt" \
    || ! grep -q "^trace id: [1-9]" "$SMOKE_DIR/router-traced.txt"; then
  echo "FAIL: traced scatter did not cover the fleet under a trace id:" >&2
  cat "$SMOKE_DIR/router-traced.txt" >&2
  stop_fleet; exit 1
fi
# Every process contributed: client-side spans on pid 1, server-side
# request spans under each shard's synthetic pid.
for SPAN in '"name": "router.scatter", "ph": "X", "pid": 1' \
            '"name": "serve.request", "ph": "X", "pid": 2' \
            '"name": "serve.request", "ph": "X", "pid": 3' \
            '"name": "serve.request", "ph": "X", "pid": 4'; do
  if ! grep -qF "$SPAN" "$SMOKE_DIR/fleet-trace.json"; then
    echo "FAIL: merged fleet trace is missing [$SPAN]" >&2
    head -40 "$SMOKE_DIR/fleet-trace.json" >&2
    stop_fleet; exit 1
  fi
done
echo "    merged fleet trace spans router + 2 primaries + replica"

# Persistent router: serve /fleet_tracez as the fleet's trace vantage
# point; the merged timeline must carry spans from both primaries.
http_get_body() {  # <port> <path>  ->  response body
  exec 3<>"/dev/tcp/127.0.0.1/$1" \
    && printf 'GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n' "$2" >&3 \
    && sed '1,/^\r$/d' <&3; exec 3>&- 2>/dev/null || true
}
./build/tools/paygo_cli shard-router used car price listing \
  --shard "127.0.0.1:$SHARD0_PORT" --shard "127.0.0.1:$SHARD1_PORT" \
  --trace --admin-port 0 \
  > "$SMOKE_DIR/router-persistent.txt" 2> "$SMOKE_DIR/router-persistent.log" &
ROUTER_PID=$!
FLEET_PIDS="$FLEET_PIDS $ROUTER_PID"
ROUTER_ADMIN=$(wait_for_port "$SMOKE_DIR/router-persistent.log" admin)
if [[ -z "$ROUTER_ADMIN" ]]; then
  echo "FAIL: persistent router never reported its admin port" >&2
  cat "$SMOKE_DIR/router-persistent.log" >&2
  stop_fleet; exit 1
fi
FLEET_TRACE_OK=0
for _ in $(seq 1 100); do
  http_get_body "$ROUTER_ADMIN" /fleet_tracez > "$SMOKE_DIR/fleet-tracez.json"
  if grep -qF '"name": "serve.request", "ph": "X", "pid": 2' \
        "$SMOKE_DIR/fleet-tracez.json" \
      && grep -qF '"name": "serve.request", "ph": "X", "pid": 3' \
        "$SMOKE_DIR/fleet-tracez.json"; then
    FLEET_TRACE_OK=1
    break
  fi
  sleep 0.1
done
if [[ "$FLEET_TRACE_OK" != 1 ]]; then
  echo "FAIL: /fleet_tracez never showed spans from both primaries" >&2
  head -40 "$SMOKE_DIR/fleet-tracez.json" >&2
  stop_fleet; exit 1
fi
echo "    /fleet_tracez on 127.0.0.1:$ROUTER_ADMIN merged both primaries"

# Clean shutdown: SIGTERM each node and require exit code 0.
FLEET_RC=0
kill -TERM $FLEET_PIDS
for PID in $FLEET_PIDS; do
  wait "$PID" || FLEET_RC=$?
done
if [[ "$FLEET_RC" != 0 ]]; then
  echo "FAIL: a fleet member did not shut down cleanly (rc=$FLEET_RC)" >&2
  exit 1
fi
echo "    fleet shut down cleanly"

if [[ "$RUN_TSAN" == 1 ]]; then
  echo "==> tsan: configure + build serve + admin + trace + parallel tests (PAYGO_SANITIZE=thread)"
  cmake -B build-tsan -S . -DPAYGO_SANITIZE=thread >/dev/null
  cmake --build build-tsan --target serve_test serve_concurrency_test trace_test \
    clone_aliasing_test admin_server_test thread_pool_test \
    parallel_determinism_test shard_replication_test fleet_trace_test \
    zero_alloc_test batch_classify_test bitset_kernel_test \
    sparse_hac_test neighbor_graph_test similarity_index_test \
    hac_row_nn_differential_test arrival_sharing_test -j "$JOBS"

  echo "==> tsan: trace_test"
  ./build-tsan/tests/trace_test
  echo "==> tsan: serve_test"
  ./build-tsan/tests/serve_test
  echo "==> tsan: serve_concurrency_test (tracing enabled)"
  ./build-tsan/tests/serve_concurrency_test
  echo "==> tsan: clone_aliasing_test (readers on retained snapshot vs writer)"
  ./build-tsan/tests/clone_aliasing_test
  echo "==> tsan: admin_server_test (concurrent scrapes vs rebuilds)"
  ./build-tsan/tests/admin_server_test
  echo "==> tsan: shard_replication_test (replication + degraded scatter)"
  ./build-tsan/tests/shard_replication_test
  echo "==> tsan: fleet_trace_test (wire-propagated contexts + trace merge)"
  ./build-tsan/tests/fleet_trace_test
  echo "==> tsan: bitset_kernel_test (vectorized vs scalar differential)"
  ./build-tsan/tests/bitset_kernel_test
  echo "==> tsan: batch_classify_test (batch vs single, concurrent callers)"
  ./build-tsan/tests/batch_classify_test
  echo "==> tsan: zero_alloc_test (steady-state classify allocates nothing)"
  ./build-tsan/tests/zero_alloc_test
  echo "==> tsan: arrival_sharing_test (sibling clones append to one block)"
  ./build-tsan/tests/arrival_sharing_test
  echo "==> tsan: thread_pool_test + parallel_determinism_test + sparse suites + similarity_index_test + hac_row_nn_differential_test (ctest -j)"
  # Instrumented LCS scans are slow; the determinism harness and the
  # sparse-vs-dense fuzz honor PAYGO_DETERMINISM_SMALL and shrink their
  # corpora / round counts under TSan. sparse_hac_test and
  # neighbor_graph_test exercise the multi-threaded NeighborGraph build
  # and the tau-components clustered one after another on one pool
  # under the race detector;
  # similarity_index_test runs the per-chunk q-gram scratch of the parallel
  # index build and concurrent-safe Match; hac_row_nn_differential_test runs
  # the dense engine's chunked seeding and merge sweeps at 2 and 4 threads.
  (cd build-tsan && PAYGO_DETERMINISM_SMALL=1 \
    ctest --output-on-failure -j "$JOBS" \
      -R '^(thread_pool_test|parallel_determinism_test|sparse_hac_test|neighbor_graph_test|similarity_index_test|hac_row_nn_differential_test)$')
fi

if [[ "$RUN_ASAN" == 1 ]]; then
  ASAN_TESTS=(hac_test sparse_hac_test parallel_determinism_test
    hac_row_nn_differential_test feedback_test mediator_test pmed_schema_test
    naive_bayes_test approx_classifier_test
    sparse_classifier_differential_test batch_classify_test
    linkage_test clone_aliasing_test delta_differential_test
    model_io_roundtrip_test neighbor_graph_test system_refinement_test
    trace_test arrival_row_test incremental_test arrival_sharing_test
    mediation_delta_test)
  echo "==> asan+ubsan: configure + build clustering, snapshot, mediation and classifier tests (PAYGO_SANITIZE=address,undefined)"
  cmake -B build-asan -S . -DPAYGO_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan --target "${ASAN_TESTS[@]}" -j "$JOBS"

  echo "==> asan+ubsan: ${ASAN_TESTS[*]} (ctest -j)"
  # Any out-of-bounds access, use-after-free, leak or undefined behaviour
  # aborts the test (-fno-sanitize-recover=undefined). The determinism
  # harness and the fuzzers shrink under PAYGO_DETERMINISM_SMALL.
  ASAN_REGEX="^($(IFS='|'; echo "${ASAN_TESTS[*]}"))\$"
  (cd build-asan && PAYGO_DETERMINISM_SMALL=1 \
    ctest --output-on-failure -j "$JOBS" -R "$ASAN_REGEX")
fi

echo "==> ci: all green"
