#!/usr/bin/env bash
# Single-path tripwire for the JSON write side.
#
# The vendored serde's `Serialize` has one method,
# `fn serialize<S: Serializer + ?Sized>(&self, s: &mut S)`: a type writes
# itself into an event sink and builds nothing. There are two sinks — the
# text writer in vendor/serde_json and `ValueBuilder` in vendor/serde —
# and a `Value` renders by replaying itself into the first, so the
# journal's parse → re-render checksum compares bytes from one renderer.
# The day a type grows a tree-returning method again, a hand-written
# impl quietly builds a `Value` to serialize itself, or serde_json gains
# a second printer, every record pays for a heap tree again and the two
# renderings can drift. This script fails CI when any of that happens.
#
# What the sink must print is owned by tests
# (vendor/serde_json/tests/writer.rs, vendor/serde/tests/derive_shapes.rs,
# tests/json_write_path.rs); this only guards the structure.
#
# Usage: scripts/check_serialize_single_path.sh   (run from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# 1. No tree-returning serialize method, on any trait or type, anywhere.
if hits=$(grep -rn -F 'fn serialize_value' --include='*.rs' \
        --exclude-dir=target --exclude-dir=.git . 2>/dev/null) && [ -n "$hits" ]; then
    echo "TRIPWIRE: 'fn serialize_value' is back — Serialize writes into a sink and has no tree-returning form:" >&2
    echo "$hits" >&2
    fail=1
fi

# 2. No hand-written `impl Serialize` in the program builds a tree: print
#    every `Value::` between an `impl ... Serialize for` line and the
#    closing brace in column 0 that ends it.
if hits=$(find crates src -name '*.rs' -print0 | xargs -0 awk '
        /^impl.*Serialize for/ { inside = 1 }
        inside && /Value::/    { print FILENAME ":" FNR ": " $0 }
        /^}/                   { inside = 0 }
    ') && [ -n "$hits" ]; then
    echo "TRIPWIRE: a hand-written Serialize impl constructs a Value — emit sink events instead:" >&2
    echo "$hits" >&2
    fail=1
fi

# 3. One renderer: the recursive tree printer and its number formatter
#    stay deleted (the reference copy lives in tests/writer.rs only).
for tok in 'fn write_value' 'fn number_into'; do
    if hits=$(grep -rn -F "$tok" vendor/serde_json/src 2>/dev/null) && [ -n "$hits" ]; then
        echo "TRIPWIRE: '$tok' in vendor/serde_json/src — a second JSON renderer beside the sink:" >&2
        echo "$hits" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "serialize single-path check FAILED — Serialize has one method, over a sink, and serde_json has one renderer" >&2
    exit 1
fi
echo "serialize single-path check passed: one Serialize method, no tree built to write JSON, one renderer ✓"
