#!/usr/bin/env bash
# Builds the benchmark and the server under test (release), then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload mix_keepalive --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
manifest=servebench/Cargo.toml
cargo build --release --quiet --manifest-path "$manifest" --bins 1>&2
exec cargo run --release --quiet --manifest-path "$manifest" --bin servebench -- "$@"
