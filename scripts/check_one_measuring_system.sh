#!/usr/bin/env bash
# Tripwire for "one measuring system".
#
# The repository measures itself once: the benchmark (`bash
# benchmark/run.sh`, declared by BENCHMARK.json) times six workloads end
# to end and layer by layer, and two tests pin what is exact —
# tests/cost_contract.rs (allocations, bytes allocated and bytes written
# or sent, per layer of each workload shape) and tests/capacity.rs (the
# simulated-clock breaking point). A second system — the replay bins of
# faultline-bench, the wall-paced capacity binary, the wall-clock
# baselines gated by check_bench_regression.sh, and the Criterion
# micro-benches with their vendored stand-in — was retired; this script
# fails if CI, a script, the README, ARCHITECTURE.md, DESIGN.md or
# EXPERIMENTS.md names any of it again. Patterns match in any case.
#
# Usage: scripts/check_one_measuring_system.sh   (run from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

self=scripts/check_one_measuring_system.sh
files=(.github/workflows/ci.yml README.md ARCHITECTURE.md DESIGN.md EXPERIMENTS.md)
while IFS= read -r f; do
    [ "$f" = "$self" ] || files+=("$f")
done < <(find scripts -type f | sort)

retired=(
    # the replay bins
    '\bpipeline_report\b'
    '\bstream_replay\b'
    '\bchaos_replay\b'
    '\brecovery_replay\b'
    '\bcluster_replay\b'
    # the per-exhibit bins, now `--bin tables`
    '--bin (table[1-7]|figure1)\b'
    'bin/(table[1-7]|figure1)\.rs'
    # the wall-paced capacity binary
    '--bin faultline-loadgen\b'
    # the gate and its baselines
    'check_bench_regression\.sh'
    'BENCH_[A-Za-z_*]*\.baseline\.json'
    # the Criterion micro-benches and the vendored stand-in they ran on
    'cargo bench'
    'criterion'
    'benches/(codec|isolation|matching|pipeline)\.rs'
)
fail=0
for pattern in "${retired[@]}"; do
    if hits=$(grep -n -i -E -e "$pattern" "${files[@]}" 2>/dev/null) && [ -n "$hits" ]; then
        echo "TRIPWIRE: a retired measuring harness is named again ($pattern):" >&2
        echo "$hits" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "one-measuring-system check FAILED — time with benchmark/run.sh, count with tests/cost_contract.rs" >&2
    exit 1
fi
echo "one-measuring-system check passed: no retired replay bin, bench, gate or baseline is named ✓"
