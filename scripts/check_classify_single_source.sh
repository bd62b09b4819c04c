#!/usr/bin/env bash
# Single-source tripwire for the naming rules (§3.4).
#
# Which link an event belongs to — syslog by (host, interface), IS
# reachability by system-ID pair, IP reachability by /31 subnet — is
# decided in exactly one place: `kernel::classify` in
# crates/core/src/kernel.rs. The batch pass, the streaming engine, a
# cluster's dispatcher and `partition_events` all call it. Before that,
# the cluster carried a read-only mirror of the kernel's rules
# (`cluster::link_of_event`) and transitions.rs a third copy, kept in
# step only by the differential tests. This script fails CI when
# non-test code in crates/core/src calls one of the link table's three
# lookups anywhere but inside `classify`, or when `link_of_event`
# reappears.
#
# linktable.rs itself is out of scope: it defines the lookups (and
# `by_interface`, the public convenience over `by_interface_sym`).
# Test code and comment lines are skipped.
#
# Usage: scripts/check_classify_single_source.sh   (run from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

KERNEL=crates/core/src/kernel.rs
LOOKUPS='by_interface_sym\(|by_sysid_pair\(|by_subnet\('
fail=0

if ! grep -q '^pub(crate) fn classify(' "$KERNEL"; then
    echo "TRIPWIRE: 'pub(crate) fn classify(' missing from $KERNEL (was it moved? update this script and ARCHITECTURE.md together)" >&2
    fail=1
fi

for f in crates/core/src/*.rs; do
    [ "$f" = crates/core/src/linktable.rs ] && continue
    # Non-test lines, numbered, comment lines dropped; in the kernel the
    # body of `classify` (up to its closing column-0 brace) is dropped too.
    hits=$(awk -v kernel="$([ "$f" = "$KERNEL" ] && echo 1 || echo 0)" '
        /^#\[cfg\(test\)\]/ { exit }
        kernel && /^pub\(crate\) fn classify\(/ { inside = 1 }
        inside { if ($0 ~ /^}/) inside = 0; next }
        /^[[:space:]]*\/\// { next }
        { print FILENAME ":" FNR ": " $0 }
    ' "$f" | grep -E "$LOOKUPS" || true)
    if [ -n "$hits" ]; then
        echo "TRIPWIRE: a link-table lookup outside kernel::classify:" >&2
        echo "$hits" >&2
        fail=1
    fi
done

if hits=$(grep -rn 'link_of_event' crates src --include='*.rs') && [ -n "$hits" ]; then
    echo "TRIPWIRE: 'link_of_event' — a second copy of the naming rules — reappeared:" >&2
    echo "$hits" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "classify single-source check FAILED — events resolve to links only in kernel::classify" >&2
    exit 1
fi
echo "classify single-source check passed: events resolve to links only in kernel::classify ✓"
