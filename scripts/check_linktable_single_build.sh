#!/usr/bin/env bash
# Tripwire for "one link table per run".
#
# The naming layer (the mined `LinkTable` plus its topology join) is
# built by `Naming::mine` and shared behind one `Arc`: `run_cluster` mines
# once and hands the same table to every in-process worker, and the
# kernel, the streaming driver and the durability layer only ever take a
# table they are given. A cluster pass once mined the archive three times
# (once in `run_cluster`, once more in each shard's `Kernel::new`); this
# script fails CI the moment a build creeps back in anywhere else.
#
# Checks, over non-test code in crates/core/src (comment lines and the
# `#[cfg(test)]` module at the end of a file are skipped):
#   1. kernel.rs, streaming.rs and recovery.rs never call
#      `linktable::from_scenario`, and nothing outside linktable.rs does.
#   2. `Naming::mine(` is called only from the public constructors that
#      mine for themselves, `run_cluster`, `serve_stdio` and
#      `from_scenario`, and at most once in each.
#   3. The config archive is mined (`mine_topology(`) and a `LinkTable`
#      built (`LinkTable::new(`) only inside linktable.rs.
#
# Usage: scripts/check_linktable_single_build.sh   (run from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

CORE=crates/core/src
fail=0

# Print `file<TAB>line<TAB>enclosing fn<TAB>text` for every non-test,
# non-comment line of the core sources that contains the fixed string $1.
hits() {
    local needle=$1
    for f in "$CORE"/*.rs; do
        awk -v needle="$needle" -v file="$(basename "$f")" '
            /^#\[cfg\(test\)\]/ { skip = 1; next }
            skip && /^}/ { skip = 0; next }
            skip { next }
            /^[[:space:]]*\/\// { next }
            match($0, /(^|[^a-z_])fn [a-z_0-9]+/) {
                fn_name = substr($0, RSTART, RLENGTH)
                sub(/.*fn /, "", fn_name)
            }
            index($0, needle) { printf "%s\t%d\t%s\t%s\n", file, FNR, fn_name, $0 }
        ' "$f"
    done
}

# 1. No table built from the scenario inside the kernel or its drivers.
while IFS=$'\t' read -r file line fn text; do
    [ -n "$file" ] || continue
    if [ "$file" != linktable.rs ]; then
        echo "TRIPWIRE: $CORE/$file:$line ($fn) calls from_scenario — take the run's shared naming layer instead:" >&2
        echo "    $text" >&2
        fail=1
    fi
done < <(hits 'from_scenario(')

# 2. Mining call sites: only these, at most once each.
allowed=(
    analysis.rs:run
    streaming.rs:new
    streaming.rs:try_new
    streaming.rs:restore
    recovery.rs:create
    recovery.rs:recover
    cluster.rs:run_cluster
    transport.rs:serve_stdio
    linktable.rs:from_scenario
)
declare -A seen=()
while IFS=$'\t' read -r file line fn text; do
    [ -n "$file" ] || continue
    site="$file:$fn"
    case " ${allowed[*]} " in
        *" $site "*) ;;
        *)
            echo "TRIPWIRE: $CORE/$file:$line mines the link table in '$fn', which is not a mining call site:" >&2
            echo "    $text" >&2
            fail=1
            continue
            ;;
    esac
    if [ -n "${seen[$site]:-}" ]; then
        echo "TRIPWIRE: $site mines the link table twice (lines ${seen[$site]} and $line)" >&2
        fail=1
    fi
    seen[$site]=$line
done < <(hits 'Naming::mine(')
for site in cluster.rs:run_cluster transport.rs:serve_stdio; do
    if [ -z "${seen[$site]:-}" ]; then
        echo "TRIPWIRE: $site no longer mines its run's table with Naming::mine" >&2
        fail=1
    fi
done

# 3. The archive is mined and a table assembled only in linktable.rs.
for needle in 'mine_topology(' 'LinkTable::new('; do
    while IFS=$'\t' read -r file line fn text; do
        [ -n "$file" ] || continue
        if [ "$file" != linktable.rs ]; then
            echo "TRIPWIRE: $CORE/$file:$line ($fn) builds a link table outside linktable.rs:" >&2
            echo "    $text" >&2
            fail=1
        fi
    done < <(hits "$needle")
done

if [ "$fail" -ne 0 ]; then
    echo "link-table single-build check FAILED — a run mines its naming layer once and shares it" >&2
    exit 1
fi
echo "link-table single-build check passed: one mining call per run, the kernel and its drivers take the shared table ✓"
