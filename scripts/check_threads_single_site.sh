#!/usr/bin/env bash
# Tripwire for "lane work is serial".
#
# Every lane is applied in place on the calling thread: a lane's share
# of a micro-batch is too little work to hand to a thread, and fanning
# lanes out once cost the streaming path more than it saved. Threads in
# crates/core are started in two places only:
#   - cluster.rs opens the scope that in-process shards run in (the
#     transport spawns each worker on the scope it is handed);
#   - recovery.rs spawns the snapshot writer.
# This script fails the moment `thread::scope` or `thread::spawn`
# appears in any other file of crates/core/src (comment lines are
# skipped, test modules are not).
#
# Usage: scripts/check_threads_single_site.sh   (run from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

CORE=crates/core/src
allowed=(cluster.rs recovery.rs)
fail=0

for f in "$CORE"/*.rs; do
    file=$(basename "$f")
    case " ${allowed[*]} " in
        *" $file "*) continue ;;
    esac
    while IFS= read -r hit; do
        [ -n "$hit" ] || continue
        echo "TRIPWIRE: $CORE/$file:$hit" >&2
        fail=1
    done < <(awk '
        /^[[:space:]]*\/\// { next }
        /thread::(scope|spawn)/ { printf "%d: %s\n", FNR, $0 }
    ' "$f")
done

if [ "$fail" -ne 0 ]; then
    echo "threads single-site check FAILED — lanes apply on the calling thread; only cluster.rs (in-process shards) and recovery.rs (the snapshot writer) start threads" >&2
    exit 1
fi
echo "threads single-site check passed: threads start only in cluster.rs and recovery.rs ✓"
