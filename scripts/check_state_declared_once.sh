#!/usr/bin/env bash
# Tripwire for "engine state is declared once".
#
# A checkpoint, a delta and a lane migration hold the engine's own state
# types — kernel::LinkLane (with its MergeState and DedupState) and
# kernel::Tallies — encoded by their own rows! entries. There is no
# snapshot image beside them, so a new lane field or counter is one
# declaration and one row entry, not six or eight copies kept in step.
# This script fails when:
#   1. a `struct …Snapshot` (a mirror of live state) appears in
#      crates/core/src (comment lines are skipped);
#   2. the rows! entry of StreamCheckpoint or StreamDelta in
#      streaming.rs names one of the eleven carried counters instead of
#      the `tallies` group, or does not name `tallies`.
#
# Usage: scripts/check_state_declared_once.sh   (run from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

CORE=crates/core/src
fail=0

while IFS= read -r hit; do
    [ -n "$hit" ] || continue
    echo "TRIPWIRE: snapshot mirror of live state: $hit" >&2
    fail=1
done < <(grep -nE '^[^/]*\bstruct [A-Za-z0-9_]*Snapshot\b' "$CORE"/*.rs || true)

counters=(
    resolve_stats is_stats ip_stats events_syslog events_isis batches
    late_events open_items open_items_hwm quarantined_syslog quarantined_isis
)
for ty in StreamCheckpoint StreamDelta; do
    # The field list of `$ty { … }` inside the file's rows! invocation.
    entry=$(perl -0777 -ne '
        my ($block) = /\brows!\s*\{(.*?)\n\}/s or exit;
        print $1 if $block =~ /\b'"$ty"'\s*\{([^}]*)\}/s;
    ' "$CORE/streaming.rs")
    if [ -z "$entry" ]; then
        echo "TRIPWIRE: no rows! entry for $ty in $CORE/streaming.rs" >&2
        fail=1
        continue
    fi
    fields=" $(echo "$entry" | tr ',\n' '  ' | tr -s ' ') "
    for c in "${counters[@]}"; do
        if [[ "$fields" == *" $c "* ]]; then
            echo "TRIPWIRE: $ty's rows! entry names the counter '$c'; list the tallies group" >&2
            fail=1
        fi
    done
    if [[ "$fields" != *" tallies "* ]]; then
        echo "TRIPWIRE: $ty's rows! entry does not name the tallies group" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "state declared once: no snapshot mirrors; checkpoint and delta rows carry the tallies group"
