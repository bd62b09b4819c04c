#!/usr/bin/env bash
# Tripwire for "the answer is assembled once".
#
# Every table is read from one StreamOutput, and its order — messages and
# transitions by (time, link), failures by (link, start), match pairs as
# positions in the sanitized lists — is decided in one place:
# `StreamOutput::assemble` in crates/core/src/kernel.rs. `Kernel::collect`
# calls it on one engine's answer log; `cluster::merge_outputs` sums the
# outputs' counters, concatenates their records in index order into one
# answer log and calls the same function. On lists that are each sorted,
# a stable sort of their concatenation is exactly a k-way merge with ties
# to the lowest index, so the merge needs no ordering code of its own.
# This script fails when, in non-test code (comment lines skipped):
#   1. cluster.rs calls a sort or defines `fn merge_sorted` or
#      `fn order_failures` (a second copy of the ordering rules);
#   2. crates/core/src holds anything but exactly one `fn assemble`, in
#      kernel.rs;
#   3. `merge_outputs` in cluster.rs does not call `assemble(`.
#
# Usage: scripts/check_answer_assembled_once.sh   (run from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

CORE=crates/core/src
fail=0

# Print FILE:LINE: TEXT for every non-test, non-comment line of a file. A
# `#[cfg(test)]` item is skipped from its attribute through the brace or
# semicolon that closes it, as scripts/check_core_budget.sh counts.
non_test() {
    awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
        skip {
            if (depth == 0 && $0 ~ /^[[:space:]]*(#\[|\/\/)/) next
            line = $0
            gsub(/\\./, "", line)
            gsub(/"[^"]*"/, "", line)
            sub(/\/\/.*$/, "", line)
            o = gsub(/[{([]/, "", line)
            c = gsub(/[})\]]/, "", line)
            depth += o - c
            if (o > 0) opened = 1
            if (depth <= 0 && (opened || line ~ /;[[:space:]]*$/)) skip = 0
            next
        }
        /^[[:space:]]*\/\// { next }
        { print FILENAME ":" FNR ": " $0 }
    ' "$1"
}

while IFS= read -r hit; do
    [ -n "$hit" ] || continue
    echo "TRIPWIRE: ordering code in the cluster merge: $hit" >&2
    fail=1
done < <(non_test "$CORE/cluster.rs" |
    grep -E '\.sort[a-z_]*\(|fn merge_sorted\b|fn order_failures\b' || true)

assemble=$(for f in "$CORE"/*.rs; do non_test "$f"; done | grep -E '\bfn assemble\b' || true)
count=$(printf '%s' "$assemble" | grep -c . || true)
if [ "$count" -ne 1 ] || [[ "$assemble" != "$CORE/kernel.rs:"* ]]; then
    echo "TRIPWIRE: expected exactly one 'fn assemble', in $CORE/kernel.rs; found $count:" >&2
    [ -z "$assemble" ] || echo "$assemble" >&2
    fail=1
fi

# The body of merge_outputs: its signature through the next column-0 brace.
body=$(non_test "$CORE/cluster.rs" | awk '
    / pub fn merge_outputs\(/ { inside = 1 }
    inside && !done { print; if ($0 ~ /: }$/) done = 1 }
')
if [ -z "$body" ]; then
    echo "TRIPWIRE: 'pub fn merge_outputs(' missing from $CORE/cluster.rs (was it moved? update this script and ARCHITECTURE.md together)" >&2
    fail=1
elif ! grep -q 'assemble(' <<<"$body"; then
    echo "TRIPWIRE: merge_outputs does not call assemble(" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "answer assembled-once check FAILED — the answer's order is decided only in StreamOutput::assemble" >&2
    exit 1
fi
echo "answer assembled-once check passed: one StreamOutput::assemble, called by collect and merge_outputs ✓"
