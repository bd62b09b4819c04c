//! What a reader must allocate for one stream event.

use faultline_core::StreamEvent;
use faultline_syslog::message::LinkEventKind;

/// The event's own strings — each a shared `Arc<str>` that a clone
/// shares and a reader must make: a syslog message's host and interface,
/// plus the neighbor of an adjacency change. An IS-IS transition has none.
pub fn strings(event: &StreamEvent) -> u64 {
    match event {
        StreamEvent::Syslog(m) => match m.event.kind {
            LinkEventKind::IsisAdjacency { .. } => 3,
            LinkEventKind::Link | LinkEventKind::LineProtocol => 2,
        },
        StreamEvent::Isis(_) => 0,
    }
}
