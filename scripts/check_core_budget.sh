#!/usr/bin/env bash
# Line ratchet on crates/core: the non-test code may shrink, never grow
# past the committed budget.
#
# The count is, summed over crates/core/src/*.rs, the lines before each
# file's first column-0 `#[cfg(test)]` (a file without one counts whole).
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
    n=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
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
