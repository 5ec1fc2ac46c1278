#!/usr/bin/env bash
# Build the benchmark (release, offline) and hand it the arguments.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh all --seed <n>            # every workload, result record
#   benchmark/run.sh compare <a.json> <b.json> # verdicts against BENCHMARK.json
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
# Cargo's progress goes to stderr; stdout carries only the results.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml
exec "$target/release/fbp-benchmark" "$@"
