#!/usr/bin/env bash
# Tripwire for "the spec is written a second time, not borrowed".
#
# tests/support/spec.rs is the kernel's oracle: the paper's stitching,
# both-ends merge and matching rules, written again from the paper with
# its own naming maps and none of the kernel's machinery. An oracle that
# calls the code it checks proves nothing, so the spec reads its inputs
# from the substrate crates (faultline_sim, faultline_syslog,
# faultline_isis, faultline_topology) and may name from faultline_core
# only the types of the answer's rows. This script fails on any other
# faultline_core path in the file (grouped imports checked item by item),
# on the crate named without a path (an alias), and on the root facade's
# re-export (`faultline::core`). Comment lines are skipped.
#
# Usage: scripts/check_spec_independent.sh   (run from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

spec=tests/support/spec.rs
# The answer's row types: what the spec may share with the kernel.
allowed=" Failure LinkIx LinkTransition ResolvedMessage AmbiguousPeriod "

[ -f "$spec" ] || { echo "spec independence check FAILED — $spec is missing" >&2; exit 1; }

fail=0
while IFS=: read -r line text; do
    case "$text" in
        *faultline::core*)
            echo "TRIPWIRE: $spec:$line: faultline::core: $text" >&2
            fail=1
            continue
            ;;
    esac
    while IFS= read -r path; do
        [ -n "$path" ] || continue
        items=${path#faultline_core}
        if [ -z "$items" ]; then
            echo "TRIPWIRE: $spec:$line: faultline_core without a path: $text" >&2
            fail=1
            continue
        fi
        # `a::b::{X, y::Z}` checks X and Z; `a::b::X` checks X.
        case "$items" in
            *"{"*) items=${items#*\{}; items=${items%\}} ;;
        esac
        IFS=',' read -ra parts <<<"$items"
        for part in "${parts[@]}"; do
            name=$(echo "$part" | tr -d ' ' | sed 's/.*:://')
            case "$allowed" in
                *" $name "*) ;;
                *)
                    echo "TRIPWIRE: $spec:$line: faultline_core::…$name is not an output row type" >&2
                    fail=1
                    ;;
            esac
        done
    done < <(grep -oE 'faultline_core(::\{[^}]*\}|(::[A-Za-z_][A-Za-z0-9_]*)+(::\{[^}]*\})?)?' <<<"$text" || true)
done < <(awk '/^[[:space:]]*\/\// { next } /faultline_core|faultline::core/ { printf "%d:%s\n", FNR, $0 }' "$spec")

if [ "$fail" -ne 0 ]; then
    echo "spec independence check FAILED — the spec may take only the answer's row types (${allowed# }) from faultline_core" >&2
    exit 1
fi
echo "spec independence check passed: $spec names nothing of faultline_core but its row types ✓"
