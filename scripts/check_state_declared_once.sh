#!/usr/bin/env bash
# Tripwire for "engine state is declared once".
#
# A checkpoint and a delta hold the engine's own state
# types — kernel::LinkLane (with its MergeState and DedupState) and
# kernel::Tallies — encoded by their own rows! entries. There is no
# snapshot image beside them, so a new lane field or counter is one
# declaration and one row entry, not six or eight copies kept in step.
# A snapshot also stores nothing a restore can derive: Kernel::rebuild
# derives it again, so no stored copy can disagree with the state it
# describes.
# This script fails when:
#   1. a `struct …Snapshot` (a mirror of live state) appears in
#      crates/core/src (comment lines are skipped);
#   2. the rows! entry of StreamCheckpoint or StreamDelta in
#      streaming.rs names one of the ten carried counters instead of
#      the `tallies` group, or does not name `tallies`;
#   3. the stored part (before the `;`) of the rows! entry of LinkLane,
#      MergeState, ReconLane or Tallies in kernel.rs names a derived
#      value: down_count, seg_max_end, link_id, resolvable or open_items.
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
    resolve_stats is_route ip_route events_syslog events_isis batches
    late_events open_items_hwm quarantined_syslog quarantined_isis
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

derived=(down_count seg_max_end link_id resolvable open_items)
for ty in LinkLane MergeState ReconLane Tallies; do
    # The stored fields of `$ty { … }` in kernel.rs's rows! invocation.
    entry=$(perl -0777 -ne '
        my ($block) = /\brows!\s*\{(.*?)\n\}/s or exit;
        print $1 if $block =~ /\b'"$ty"'\s*\{([^};]*)/s;
    ' "$CORE/kernel.rs")
    if [ -z "$entry" ]; then
        echo "TRIPWIRE: no rows! entry for $ty in $CORE/kernel.rs" >&2
        fail=1
        continue
    fi
    fields=" $(echo "$entry" | tr ',\n' '  ' | tr -s ' ') "
    for d in "${derived[@]}"; do
        if [[ "$fields" == *" $d "* ]]; then
            echo "TRIPWIRE: $ty's rows! entry stores the derived value '$d'; list it after the ';' or derive it where it is read" >&2
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "state declared once: no snapshot mirrors; checkpoint and delta rows carry the tallies group; no derived value is stored"
