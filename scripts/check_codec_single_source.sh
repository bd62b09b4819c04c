#!/usr/bin/env bash
# Single-source tripwire for the binary event codec.
#
# The byte layout of a StreamEvent and of a lane row — the tag
# constants, the run, row-run and single-event encoders and decoders —
# is defined in crates/core/src/codec.rs and NOWHERE else (a lane row's
# fields are listed in kernel.rs's `rows!` block, like every snapshot
# row; the codec owns what those rows are made of). The shard wire
# carries every ShardMsg::Rows batch as one codec row run, every
# ShardMsg::Events batch as one codec run, every ShardMsg::Flushed answer
# as one codec payload and every other message as JSON; the day a second
# encoder appears in another module, or transport.rs starts handing row
# or event batches or answers to serde_json again, two layouts of the
# same value can drift apart. This script fails CI when either happens.
#
# Top-level tests/ and benchmark/ are out of scope on purpose: they read
# and forge frames, which is not the same as owning the layout.
#
# Usage: scripts/check_codec_single_source.sh   (run from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

CODEC=crates/core/src/codec.rs
TRANSPORT=crates/core/src/transport.rs
fail=0

# Crate sources outside the codec module.
non_codec_sources() {
    find crates src -name '*.rs' ! -path "$CODEC" -print
}

# 1. Layout-owning tokens: the event tag constants and the encode /
#    decode entry points (as fixed strings, 'fn encode_event' covers
#    'fn encode_events' too).
tokens=(
    'TAG_SYSLOG'
    'TAG_ISIS'
    'fn encode_event'
    'fn decode_event'
    'fn encode_row'
    'fn decode_row'
)
for tok in "${tokens[@]}"; do
    if ! grep -q -F "$tok" "$CODEC"; then
        echo "TRIPWIRE: '$tok' missing from $CODEC (was it moved? update this script and ARCHITECTURE.md together)" >&2
        fail=1
    fi
    if hits=$(non_codec_sources | xargs grep -n -F "$tok" 2>/dev/null) && [ -n "$hits" ]; then
        echo "TRIPWIRE: event-codec token '$tok' leaked outside $CODEC:" >&2
        echo "$hits" >&2
        fail=1
    fi
done

# 2. transport.rs must route ShardMsg::Rows, ShardMsg::Events and
#    ShardMsg::Flushed through the codec, not through serde_json: the
#    row run's, the run's and the flushed answer's codec entry points
#    are all called from its non-test code. That is the one structural
#    fact a test cannot see; the behaviour (rows, events or an answer
#    sent as JSON are Malformed, a row frame is byte-for-byte one codec
#    row run) is owned by tests/frame_codec.rs.
shipping=$(sed '/^#\[cfg(test)\]/,$d' "$TRANSPORT")
for call in 'codec::encode_rows(' 'codec::decode_rows(' \
    'codec::encode_events(' 'codec::decode_events(' \
    'codec::encode_flushed(' 'codec::decode_flushed('; do
    if ! grep -q -F "$call" <<<"$shipping"; then
        echo "TRIPWIRE: $TRANSPORT no longer calls '$call' — is it handing ShardMsg::Rows, ShardMsg::Events or ShardMsg::Flushed to serde_json?" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "codec single-source check FAILED — the event and row layouts must live only in $CODEC, and neither rows, events nor flushed answers may cross the wire as JSON" >&2
    exit 1
fi
echo "codec single-source check passed: the event and row layouts live only in $CODEC, and the wire carries rows, events and flushed answers only as codec payloads ✓"
