//! How many lane rows each cluster shard is sent, worked out here from
//! the public link table rather than asked of the dispatcher.
//!
//! `run_cluster` classifies every event once and sends a shard only the
//! rows its lanes apply: an IS-IS adjacency syslog message that resolves
//! by `(host, interface)`, an IS-reachability transition whose router
//! pair names exactly one link, and an IP-reachability transition whose
//! /31 names a link. Everything else — physical-media and line-protocol
//! messages, unresolved names, multi-link pairs, and events stamped
//! before the stream's watermark — stays at the dispatcher. The shard of
//! a row is the shard of its link. Shard kill points and the per-shard
//! counters are in rows, so the tests derive them here.

#![allow(dead_code)]

use faultline_core::cluster::shard_of_link;
use faultline_core::kernel::{LaneEvent, LaneRow};
use faultline_core::linktable::LinkTable;
use faultline_core::StreamEvent;
use faultline_isis::listener::{ReachabilityKind, TransitionDirection, TransitionSubject};
use faultline_syslog::message::LinkEventKind;

/// The lane row `event` yields, if it yields one.
pub fn row(table: &LinkTable, event: &StreamEvent) -> Option<LaneRow> {
    match event {
        StreamEvent::Syslog(m) => match m.event.kind {
            LinkEventKind::IsisAdjacency { .. } => {
                let link = table.by_interface(&m.event.host, &m.event.interface)?;
                let direction = if m.event.up {
                    TransitionDirection::Up
                } else {
                    TransitionDirection::Down
                };
                let event = LaneEvent {
                    at: m.event.at,
                    direction,
                    reach: None,
                };
                Some(LaneRow { link, event })
            }
            LinkEventKind::Link | LinkEventKind::LineProtocol => None,
        },
        StreamEvent::Isis(t) => {
            let link = match (t.kind, &t.subject) {
                (ReachabilityKind::IsReach, TransitionSubject::Adjacency { neighbor }) => {
                    match table.by_sysid_pair(t.source, *neighbor) {
                        [link] => *link,
                        _ => return None,
                    }
                }
                (ReachabilityKind::IpReach, TransitionSubject::Prefix { .. }) => {
                    t.subject.as_subnet().and_then(|s| table.by_subnet(s))?
                }
                _ => return None,
            };
            let event = LaneEvent {
                at: t.at,
                direction: t.direction,
                reach: Some((t.kind, t.source)),
            };
            Some(LaneRow { link, event })
        }
    }
}

/// Lane rows each of `shards` shards is sent over `events` (no
/// quarantine horizon; late events dropped against the running
/// watermark).
pub fn rows_per_shard(table: &LinkTable, events: &[StreamEvent], shards: u32) -> Vec<u64> {
    let mut rows = vec![0u64; shards as usize];
    let mut watermark = None;
    for event in events {
        if watermark.is_some_and(|w| event.at() < w) {
            continue;
        }
        watermark = Some(event.at());
        if let Some(row) = row(table, event) {
            rows[shard_of_link(table, row.link, shards) as usize] += 1;
        }
    }
    rows
}
