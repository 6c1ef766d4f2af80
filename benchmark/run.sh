#!/usr/bin/env bash
# Build the benchmark from source and run it from the root of the checkout.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run (the driver's call)
#   benchmark/run.sh                every workload, end to end then traced
#   benchmark/run.sh --quick        the same on ~100 KB of data, in seconds
#   benchmark/run.sh --agree 5      two sets of 5 runs must agree within the bounds
#   benchmark/run.sh --check        validate BENCHMARK.json against the contract
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/partix-benchmark" "$@"
