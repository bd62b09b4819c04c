#!/usr/bin/env bash
# Measure the same commit twice and a second seed once; fail if any pair
# of medians differs by more than its metric's bound in BENCHMARK.json,
# or if any answer check fails.
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" --repeat "$@"
