#!/usr/bin/env bash
# Duplication tripwire for the "one kernel, two drivers" refactor.
#
# The per-link state machines (dedup, both-ends merge, reconstruction,
# sanitization, flap tracking, segment close) live in
# crates/core/src/kernel.rs and NOWHERE else. Before the refactor,
# analysis.rs and streaming.rs each carried a copy of this logic and the
# two were kept in sync only by the differential harness; this script
# fails CI the moment a duplicate implementation (or one of the retired
# compatibility shims) creeps back in.
#
# Usage: scripts/check_kernel_single_source.sh   (run from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

KERNEL=crates/core/src/kernel.rs
fail=0

# Rust sources outside the kernel module.
non_kernel_sources() {
    find crates src -name '*.rs' ! -path "$KERNEL" -print
}

# 1. Retired duplicate symbols must not resurface anywhere. Each of
#    these was a second implementation (or bridge) of kernel semantics:
#    - StreamOutput::of_batch   batch→stream output bridge, deleted when
#                               batch started producing StreamOutput itself
#    - *_par                    per-stage parallel twins, replaced by the
#                               single lane fan-out in Kernel::apply_grouped
#    - Lane::sanitize_isis etc. streaming.rs's private copy of the lane
#                               machinery, moved wholesale into LinkLane
retired=(
    'fn of_batch'
    'fn isis_link_transitions_par'
    'fn dedup_syslog_par'
    'fn reconstruct_par'
    'fn match_failures_par'
    'fn sanitize_isis'
)
for sym in "${retired[@]}"; do
    if hits=$(non_kernel_sources | xargs grep -n -F "$sym" 2>/dev/null) && [ -n "$hits" ]; then
        echo "TRIPWIRE: retired symbol '$sym' resurfaced outside $KERNEL:" >&2
        echo "$hits" >&2
        fail=1
    fi
done

# 2. The kernel machines must be defined exactly once, in the kernel.
machines=(
    'struct LinkLane'
    'struct DedupState'
    'struct MergeState'
    'struct ReconLane'
    'fn overlaps_offline'
)
for sym in "${machines[@]}"; do
    if ! grep -q -F "$sym" "$KERNEL"; then
        echo "TRIPWIRE: '$sym' missing from $KERNEL (was it moved? update this script and ARCHITECTURE.md together)" >&2
        fail=1
    fi
    if hits=$(non_kernel_sources | xargs grep -n -F "$sym" 2>/dev/null) && [ -n "$hits" ]; then
        echo "TRIPWIRE: '$sym' redefined outside $KERNEL:" >&2
        echo "$hits" >&2
        fail=1
    fi
done

# 3. Matching has one rule. A closed segment holds one link, so the
#    kernel matches it with `match_link`, never the multi-link
#    `match_failures`; and the greedy-nearest choice (the unused
#    candidate of lowest score, ties to the lowest index) is written
#    once, in `matching::nearest`, which every matcher calls. A second
#    hand-written loop shows as a second lowest-score update.
MATCHING=crates/core/src/matching.rs
if hits=$(grep -n 'match_failures' "$KERNEL") && [ -n "$hits" ]; then
    echo "TRIPWIRE: $KERNEL calls match_failures; a segment is one link, match it with match_link:" >&2
    echo "$hits" >&2
    fail=1
fi
lowest=$(grep -n -E 'best = Some\(|\bmin_by(_key)?\(' "$MATCHING" || true)
if [ "$(printf '%s' "$lowest" | grep -c .)" -ne 1 ] \
    || ! sed -n '/^fn nearest</,/^}/p' "$MATCHING" | grep -q 'best = Some('; then
    echo "TRIPWIRE: $MATCHING must hold exactly one lowest-score comparison, the one in fn nearest:" >&2
    echo "${lowest:-(none)}" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "kernel single-source check FAILED — pipeline semantics must live only in $KERNEL" >&2
    exit 1
fi
echo "kernel single-source check passed: state machines exist only in $KERNEL, one matching rule in $MATCHING ✓"
