#!/usr/bin/env bash
# Tripwire for "lane work is serial" and "the parser's threads are its own".
#
# Every lane is applied in place on the calling thread: a lane's share
# of a micro-batch is too little work to hand to a thread, and fanning
# lanes out once cost the streaming path more than it saved. Threads in
# crates/core are started in two places only:
#   - cluster.rs opens the scope that in-process shards run in (the
#     transport spawns each worker on the scope it is handed);
#   - recovery.rs spawns the snapshot writer.
# In crates/syslog, only collector.rs starts threads: `parse_chunked`
# classifies an archive's chunks on scoped threads.
# This script fails the moment `thread::scope` or `thread::spawn`
# appears in any other file of crates/core/src or crates/syslog/src
# (comment lines are skipped, test modules are not).
#
# Usage: scripts/check_threads_single_site.sh   (run from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# check DIR ALLOWED-FILE...
check() {
    local dir=$1
    shift
    local allowed=("$@")
    for f in "$dir"/*.rs; do
        file=$(basename "$f")
        case " ${allowed[*]} " in
            *" $file "*) continue ;;
        esac
        while IFS= read -r hit; do
            [ -n "$hit" ] || continue
            echo "TRIPWIRE: $dir/$file:$hit" >&2
            fail=1
        done < <(awk '
            /^[[:space:]]*\/\// { next }
            /thread::(scope|spawn)/ { printf "%d: %s\n", FNR, $0 }
        ' "$f")
    done
}

check crates/core/src cluster.rs recovery.rs
check crates/syslog/src collector.rs

if [ "$fail" -ne 0 ]; then
    echo "threads single-site check FAILED — lanes apply on the calling thread; only cluster.rs (in-process shards) and recovery.rs (the snapshot writer) start threads in crates/core, and only collector.rs (the chunked parse) in crates/syslog" >&2
    exit 1
fi
echo "threads single-site check passed: threads start only in core's cluster.rs and recovery.rs and syslog's collector.rs ✓"
