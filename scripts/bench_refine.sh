#!/usr/bin/env bash
# Benchmark the Vⁿᵣ refinement pipeline with the std-timer harness
# (examples/bench_refine.rs) and write BENCH_refine.json, plus a
# METRICS_refine.json report of the hot-path counters (buckets probed,
# fingerprint collisions, fan-out imbalance). `xtask bench-ratchet`
# reads BENCH_refine.json line by line.
#
# Extra args are forwarded to cargo (e.g.
# `scripts/bench_refine.sh --features parallel`).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=BENCH_refine.json
METRICS_OUT=METRICS_refine.json

cargo run --release -p recdb-suite --example bench_refine "$@" -- \
    --metrics-out "$METRICS_OUT" > "$OUT"
echo "wrote $OUT (std-timer harness) and $METRICS_OUT"
