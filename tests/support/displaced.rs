//! An out-of-order stream: the collector's feed with a few events
//! arriving late.

use faultline_core::StreamEvent;

/// `events` with eight events, spread evenly over the stream, each moved
/// 40 places later — so each arrives after events stamped later than
/// itself, and one engine judges all eight late. On `tiny(7)` the eight
/// include one that no event of its own link-hashed substream overtakes
/// at three shards: a cluster that judged lateness per shard kept it.
pub fn displaced(events: &[StreamEvent]) -> Vec<StreamEvent> {
    let mut out = events.to_vec();
    let stride = out.len() / 9;
    for j in 1..=8 {
        let from = j * stride + 15;
        let moved = out.remove(from);
        out.insert(from + 40, moved);
    }
    out
}
