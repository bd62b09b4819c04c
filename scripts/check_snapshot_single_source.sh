#!/usr/bin/env bash
# Single-source tripwire for the durable snapshot format.
#
# Every byte that reaches a checkpoint, delta, or journal file — file
# magics, format versions, the snapshot chain block, the one snapshot
# encoder and loader, atomic write-temp-then-rename — is produced and
# parsed in crates/core/src/recovery.rs and NOWHERE else (the envelope
# header and its hash around them belong to crates/core/src/envelope.rs,
# guarded by check_envelope_single_source.sh). The moment a second
# writer (or a hand-rolled chain-block parser) appears in another
# module, two format definitions can drift apart and a checkpoint
# written by one path becomes unreadable by the other. This script fails
# CI when any format-owning token shows up in crate sources outside
# recovery.rs, or when serde_json shows up in recovery.rs's non-test
# code (the payload rows themselves belong to crates/core/src/codec.rs).
#
# Top-level tests/ are deliberately out of scope: the fault-injection
# harnesses mangle snapshot headers on purpose, and reading the format
# is not the same as owning it.
#
# Usage: scripts/check_snapshot_single_source.sh   (run from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

RECOVERY=crates/core/src/recovery.rs
fail=0

# Crate sources outside the recovery module (top-level tests/ excluded
# on purpose — see header).
non_recovery_sources() {
    find crates src -name '*.rs' ! -path "$RECOVERY" -print
}

# Format-owning tokens: the three file magics, the chain block's parent
# hash, the one snapshot encoder, writer, loader and header peek.
tokens=(
    '*b"FLCK"'
    '*b"FLDT"'
    '*b"FLJR"'
    'parent_fnv'
    'fn encode_snapshot'
    'fn write_snapshot_file'
    'fn load_snapshot'
    'fn peek_header'
)
for tok in "${tokens[@]}"; do
    if ! grep -q -F "$tok" "$RECOVERY"; then
        echo "TRIPWIRE: '$tok' missing from $RECOVERY (was it moved? update this script and ARCHITECTURE.md together)" >&2
        fail=1
    fi
    if hits=$(non_recovery_sources | xargs grep -n -F "$tok" 2>/dev/null) && [ -n "$hits" ]; then
        echo "TRIPWIRE: snapshot-format token '$tok' leaked outside $RECOVERY:" >&2
        echo "$hits" >&2
        fail=1
    fi
done

# One way out: a snapshot write is retried in exactly one place (the
# backoff sleep marks the retry loop; a second one is a second write
# path with its own idea of counters, fault hooks and pruning).
retry_loops=$(sed '/^#\[cfg(test)\]/,$d' "$RECOVERY" | grep -c 'thread::sleep' || true)
if [ "$retry_loops" -ne 1 ]; then
    echo "TRIPWIRE: $RECOVERY has $retry_loops snapshot retry loops (backoff sleeps) outside its tests; there must be exactly one, in SnapshotSink::write" >&2
    fail=1
fi

# No JSON on disk: snapshot payloads are codec rows and journal records
# codec rows, so serde_json has no business in recovery.rs outside its
# tests (which render outputs and snapshots as JSON to compare them).
if hits=$(sed '/^#\[cfg(test)\]/,$d' "$RECOVERY" | grep -n 'serde_json') && [ -n "$hits" ]; then
    echo "TRIPWIRE: serde_json in non-test $RECOVERY — a durable file is being written or read as JSON:" >&2
    echo "$hits" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "snapshot single-source check FAILED — the durable format must live only in $RECOVERY" >&2
    exit 1
fi
echo "snapshot single-source check passed: the durable format lives only in $RECOVERY ✓"
