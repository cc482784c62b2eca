#!/usr/bin/env bash
# Refresh the checked-in benchmark snapshots.
# Run from the repository root: ./scripts/bench_snapshot.sh
#
# Two snapshots, both plain timing loops with their own JSON writers
# (the vendored criterion has no machine-readable output):
#   BENCH_classify.json — prefiltered-vs-naive Table 1 classification
#     throughput (crates/bench/benches/classify.rs).
#   BENCH_cluster.json  — interned/triangular-vs-naive §6 clustering
#     end-to-end (matrix build + k-sweep; crates/bench/benches/cluster.rs).
#   BENCH_serve.json    — reactor-shard serve throughput over real
#     loopback sockets under the barrage load harness
#     (crates/bench/benches/serve.rs).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== bench snapshot: classify (prefiltered vs naive) =="
cargo bench -p honeylab-bench --bench classify -- --json "$PWD/BENCH_classify.json"

echo "== bench snapshot: wrote BENCH_classify.json =="
cat BENCH_classify.json

echo "== bench snapshot: cluster (interned vs naive) =="
cargo bench -p honeylab-bench --bench cluster -- --json "$PWD/BENCH_cluster.json"

echo "== bench snapshot: wrote BENCH_cluster.json =="
cat BENCH_cluster.json

echo "== bench snapshot: serve (reactor shards, barrage load) =="
cargo bench -p honeylab-bench --bench serve -- --json "$PWD/BENCH_serve.json"

echo "== bench snapshot: wrote BENCH_serve.json =="
cat BENCH_serve.json
