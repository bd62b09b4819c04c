#!/usr/bin/env bash
# Duplication tripwire for the "one cluster runner" refactor.
#
# A cluster run is `run_cluster` configured by `ClusterConfig`: where the
# workers live (`workers`) and whether they are durable (`durability`)
# are values, not functions. Before the refactor crates/core/src/cluster.rs
# carried six public entry points over three hand-written dispatch loops
# and three result types, kept in step only by the test tiers; this
# script fails CI the moment a second runner, a second dispatch loop or
# one of the retired types creeps back in. The cluster keeps one shape
# for a whole run: live resharding (growing N -> N+1 mid-stream and
# migrating lanes between workers) was retired, and its surface is on
# the retired list too.
#
# Usage: scripts/check_cluster_single_runner.sh   (run from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

CORE=crates/core/src
CLUSTER=$CORE/cluster.rs
fail=0

# 1. The only public cluster-run functions. `run_cluster_subprocess` is
#    `run_cluster` with `workers` overridden, kept because benchmark/
#    compiles against it; `run_overloaded_cluster` sheds upstream and
#    then calls `run_cluster`.
allowed='run_cluster run_cluster_subprocess run_overloaded_cluster'
while IFS= read -r hit; do
    [ -n "$hit" ] || continue
    name=$(sed -E 's/.*pub fn (run_[a-z_]*cluster[a-z_]*).*/\1/' <<<"$hit")
    case " $allowed " in
        *" $name "*) ;;
        *)
            echo "TRIPWIRE: a second public cluster runner appeared: $hit" >&2
            fail=1
            ;;
    esac
done < <(grep -rn -E 'pub fn run_[a-z_]*cluster[a-z_]*' "$CORE" || true)

# 2. Each transport is started in exactly one place (`with_workers`).
for start in 'InProcessTransport::start' 'SubprocessTransport::start'; do
    count=$(grep -c -F "$start(" "$CLUSTER" || true)
    if [ "$count" -ne 1 ]; then
        echo "TRIPWIRE: '$start' appears $count times in $CLUSTER (expected exactly 1, in with_workers)" >&2
        fail=1
    fi
done

# 3. Retired drivers, partitioner twins, result types and the live
#    resharding surface must not resurface anywhere.
retired=(
    'fn drive_durable'
    'fn drive_reshard'
    'fn drive_stream_feed'
    'fn partition_batches'
    'struct DurableClusterRun'
    'struct ReshardRun'
    'reshard_at'
    'fn grow_and_migrate'
    'struct ReshardReport'
    'struct LaneMigration'
    'fn export_lanes'
    'fn import_lanes'
    'LaneMigrate'
    'ExportLanes'
    'fn grow('
    'fn counters_mut'
)
for sym in "${retired[@]}"; do
    if hits=$(grep -rn -F "$sym" crates src tests examples 2>/dev/null) && [ -n "$hits" ]; then
        echo "TRIPWIRE: retired symbol '$sym' resurfaced:" >&2
        echo "$hits" >&2
        fail=1
    fi
done

# 4. Nothing in the repository's own code calls the kept spelling; new
#    code sets `ClusterConfig::workers`. (Its definition and the crate-root
#    re-export are not calls.)
if hits=$(grep -rn -E 'run_cluster_subprocess\s*\(' crates src tests examples 2>/dev/null \
        | grep -v -E 'pub fn run_cluster_subprocess\s*\(') && [ -n "$hits" ]; then
    echo "TRIPWIRE: run_cluster_subprocess is called inside the repository (set ClusterConfig::workers instead):" >&2
    echo "$hits" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "cluster single-runner check FAILED — a cluster run is run_cluster + ClusterConfig, nothing else" >&2
    exit 1
fi
echo "cluster single-runner check passed: one runner, one dispatcher, each transport started once ✓"
