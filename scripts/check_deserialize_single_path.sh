#!/usr/bin/env bash
# Single-path tripwire for the JSON read side.
#
# The vendored serde's `Deserialize` has one method,
# `fn deserialize<D: Deserializer + ?Sized>(d: &mut D)`: a type pulls
# itself out of an event source and nothing is built on the way. There
# are two sources — the text reader in vendor/serde_json, which is the
# only walk over the JSON grammar, and `ValueReader` in vendor/serde —
# and a `Value` builds itself from the same events as any other type.
# The day a type grows a tree-taking method again, a hand-written impl
# quietly reads through a `Value`, or serde_json gains a second parser,
# every `Flushed` answer, snapshot and journal line pays for a heap tree
# again and the two grammars can drift. This script fails CI when any
# of that happens.
#
# What the source must accept is owned by tests
# (vendor/serde_json/tests/roundtrip.rs, vendor/serde/tests/derive_shapes.rs,
# tests/json_read_path.rs, tests/json_read_alloc.rs); this only guards
# the structure.
#
# Usage: scripts/check_deserialize_single_path.sh   (run from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# 1. No tree-taking deserialize method, on any trait or type, anywhere.
if hits=$(grep -rn -F 'fn deserialize_value' --include='*.rs' \
        --exclude-dir=target --exclude-dir=.git . 2>/dev/null) && [ -n "$hits" ]; then
    echo "TRIPWIRE: 'fn deserialize_value' is back — Deserialize pulls from a source and has no tree-taking form:" >&2
    echo "$hits" >&2
    fail=1
fi

# 2. No hand-written `impl Deserialize` in the program reads through a
#    tree: print every `Value::` between an `impl ... Deserialize for`
#    line and the closing brace in column 0 that ends it.
if hits=$(find crates src -name '*.rs' -print0 | xargs -0 awk '
        /^impl.*Deserialize for/ { inside = 1 }
        inside && /Value::/      { print FILENAME ":" FNR ": " $0 }
        /^}/                     { inside = 0 }
    ') && [ -n "$hits" ]; then
    echo "TRIPWIRE: a hand-written Deserialize impl names a Value — pull source events instead:" >&2
    echo "$hits" >&2
    fail=1
fi

# 3. One grammar walk: the recursive tree parser stays deleted.
for tok in 'fn parse_value' 'fn parse_object' 'fn parse_array'; do
    if hits=$(grep -rn -F "$tok" vendor/serde_json/src 2>/dev/null) && [ -n "$hits" ]; then
        echo "TRIPWIRE: '$tok' in vendor/serde_json/src — a second JSON parser beside the source:" >&2
        echo "$hits" >&2
        fail=1
    fi
done

# 4. Exactly one method on the trait.
methods=$(awk '
        /^pub trait Deserialize:/ { inside = 1; next }
        inside && /^}/            { inside = 0 }
        inside && /^    fn /      { n++ }
        END                       { print n + 0 }
    ' vendor/serde/src/lib.rs)
if [ "$methods" -ne 1 ]; then
    echo "TRIPWIRE: 'pub trait Deserialize' in vendor/serde/src/lib.rs declares $methods methods, not 1" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "deserialize single-path check FAILED — Deserialize has one method, over a source, and serde_json has one grammar walk" >&2
    exit 1
fi
echo "deserialize single-path check passed: one Deserialize method, no tree built to read JSON, one grammar walk ✓"
