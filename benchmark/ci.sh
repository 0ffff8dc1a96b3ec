#!/usr/bin/env bash
# Benchmark self-check, under a minute after the build:
#   * unit + contract + smoke tests (every declared metric printed with its
#     unit and none undeclared, no failed operation, same seed -> identical
#     exact metrics, seed 2 runs and changes the sampled slice, profile
#     mirror, BENCHMARK.json == catalog);
#   * one toy-size result set of all four workloads, checked against itself.
# Run from anywhere; builds offline into the benchmark's own target dir.
set -euo pipefail
cd "$(dirname "$0")"

cargo test --release --offline

out="${CARGO_TARGET_DIR:-target}/ci-smoke"
mkdir -p "$out"
cargo run --release --offline --quiet -- run --workload all --smoke --seconds 0 --out "$out/smoke.json"
cargo run --release --offline --quiet -- check "$out/smoke.json" "$out/smoke.json"
