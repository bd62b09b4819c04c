#!/usr/bin/env bash
# Single-source tripwire for the integrity envelope.
#
# Magic + version + length + FNV-1a + kind byte — the header every shard
# frame, journal record and snapshot file wears — is hashed, assembled
# and parsed in crates/core/src/envelope.rs and NOWHERE else; each user
# only names its own magic, version, length cap and kinds in a
# `Format`. The journal stores events as codec rows, so serde_json has
# no business on its write or replay path. This script fails CI when:
#
#   1. `fnv1a64(` appears in crate sources outside envelope.rs;
#   2. a header is assembled or parsed outside envelope.rs: a version
#      serialized to bytes, a magic laid into a buffer, or a fixed-size
#      header array destructured;
#   3. one of the three users stops going through the envelope;
#   4. serde_json appears in the journal section of recovery.rs
#      (JournalWriter and replay).
#
# Top-level tests/ and benchmark/ are out of scope on purpose: they
# forge and damage envelopes, which is not the same as owning them.
#
# Usage: scripts/check_envelope_single_source.sh   (run from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

ENVELOPE=crates/core/src/envelope.rs
RECOVERY=crates/core/src/recovery.rs
TRANSPORT=crates/core/src/transport.rs
fail=0

non_envelope_sources() {
    find crates src -name '*.rs' ! -path "$ENVELOPE" -print
}

# Code before a file's unit tests.
shipping() {
    sed '/^#\[cfg(test)\]/,$d' "$1"
}

# 1 + 2. The hash and the header, owned by envelope.rs alone.
patterns=(
    'fnv1a64\('
    '[Vv]ersion\.to_(le|be)_bytes'
    'extend_from_slice\(&[A-Za-z_.]*(MAGIC|magic)'
    '\[u8; *[A-Z_]*HEADER_LEN\]'
)
for pat in "${patterns[@]}"; do
    if ! grep -q -E "$pat" "$ENVELOPE"; then
        echo "TRIPWIRE: /$pat/ missing from $ENVELOPE (was it moved? update this script and ARCHITECTURE.md together)" >&2
        fail=1
    fi
    if hits=$(non_envelope_sources | xargs grep -n -E "$pat" 2>/dev/null) && [ -n "$hits" ]; then
        echo "TRIPWIRE: envelope header work /$pat/ outside $ENVELOPE:" >&2
        echo "$hits" >&2
        fail=1
    fi
done

# 3. Every user reads and seals through its Format.
check_calls() {
    local file=$1
    shift
    local code
    # Whitespace dropped: rustfmt may break a call chain across lines.
    code=$(shipping "$file" | tr -d ' \n')
    for call in "$@"; do
        if ! grep -q -F "$call" <<<"$code"; then
            echo "TRIPWIRE: $file no longer calls '$call' — does it build or parse its own header?" >&2
            fail=1
        fi
    done
}
check_calls "$TRANSPORT" 'WIRE.open(' 'WIRE.seal(' 'WIRE.read('
check_calls "$RECOVERY" 'JOURNAL.open(' 'JOURNAL.seal(' 'JOURNAL.read(' \
    'format.open(' 'format.seal(' 'format.read(' 'format().read_header('

# 4. No JSON on the journal path: the section between the journal and
#    chain-walk banners of recovery.rs.
journal=$(sed -n '/^\/\/ Write-ahead journal$/,/^\/\/ Chain walk$/p' "$RECOVERY")
if [ -z "$journal" ]; then
    echo "TRIPWIRE: journal section banners not found in $RECOVERY (update this script)" >&2
    fail=1
elif hits=$(grep -n 'serde_json' <<<"$journal") && [ -n "$hits" ]; then
    echo "TRIPWIRE: serde_json on the journal path in $RECOVERY:" >&2
    echo "$hits" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "envelope single-source check FAILED — the integrity header must live only in $ENVELOPE" >&2
    exit 1
fi
echo "envelope single-source check passed: one header reader/writer in $ENVELOPE, three users, no JSON in the journal ✓"
