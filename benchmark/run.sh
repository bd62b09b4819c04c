#!/usr/bin/env bash
# Build the benchmark (offline, release, defaults) and hand it every argument.
#
#   benchmark/run.sh [--seed N]            every workload, three interleaved rounds, pooled
#   benchmark/run.sh --trace               one traced run per workload: the per-layer ledger
#   benchmark/run.sh --quick               every workload once on the tiny scenario (smoke)
#   benchmark/run.sh --self-test           a corrupted reference must fail the run
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run; the result is the last line, as JSON
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/faultline-benchmark" "$@"
