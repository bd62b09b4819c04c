#!/usr/bin/env bash
# Line ratchet on crates/core: the non-test code may shrink, never grow
# past the committed budget.
#
# The count is, summed over crates/core/src/*.rs, every line that is not
# part of a `#[cfg(test)]` item. An item is skipped from its
# `#[cfg(test)]` attribute (at any indentation) through the brace or
# semicolon that closes it: a test module, a test-only helper module in
# the middle of a file, a test-only method or statement. Brackets inside
# string and char literals and after `//` do not count towards the depth.
# It fails when the count exceeds the number in scripts/core_budget.txt.
# A change that lowers the count lowers the budget with it; one that
# raises it says why and names what pays it back.
#
# Usage: scripts/check_core_budget.sh          check against the budget
#        scripts/check_core_budget.sh --count  print the count only
set -euo pipefail
cd "$(dirname "$0")/.."

count=0
for f in crates/core/src/*.rs; do
    n=$(awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
        skip {
            # Attributes and comments between the cfg and its item.
            if (depth == 0 && $0 ~ /^[[:space:]]*(#\[|\/\/)/) next
            line = $0
            gsub(/\\./, "", line)
            gsub(/"[^"]*"/, "", line)
            gsub(/'\''[^'\'']'\''/, "", line)
            sub(/\/\/.*$/, "", line)
            o = gsub(/[{([]/, "", line)
            c = gsub(/[})\]]/, "", line)
            depth += o - c
            if (o > 0) opened = 1
            if (depth <= 0 && (opened || line ~ /;[[:space:]]*$/)) skip = 0
            next
        }
        { n++ }
        END { print n + 0 }' "$f")
    count=$((count + n))
done

if [ "${1:-}" = "--count" ]; then
    echo "$count"
    exit 0
fi

budget=$(tr -d '[:space:]' < scripts/core_budget.txt)
if [ "$count" -gt "$budget" ]; then
    echo "core budget check FAILED: crates/core has $count non-test lines, over the budget of $budget in scripts/core_budget.txt" >&2
    exit 1
fi
echo "core budget check passed: $count non-test lines in crates/core (budget $budget) ✓"
