//! Structured link-state syslog messages and their Cisco text grammars.
//!
//! The paper's dataset (Table 1) consists of messages about the link, the
//! link protocol, and the IS-IS adjacency. The reproduction renders each
//! structured [`LinkEvent`] to the exact text a Cisco router would send,
//! inside RFC 3164 framing:
//!
//! ```text
//! <PRI>SEQ: HOSTNAME: TIMESTAMP: %FACILITY-SEVERITY-MNEMONIC: text
//! ```
//!
//! Two adjacency grammars exist because CENIC mixes IOS and IOS XR:
//!
//! * IOS:    `%CLNS-5-ADJCHANGE: ISIS: Adjacency to sac-agg-01 (GigabitEthernet0/2) Up, new adjacency`
//! * IOS XR: `%ROUTING-ISIS-4-ADJCHANGE: Adjacency to sac-agg-01 (TenGigE0/1/0/3) (L2) Up, New adjacency`

use crate::caltime;
use faultline_topology::interface::InterfaceName;
use faultline_topology::router::RouterOs;
use faultline_topology::time::Timestamp;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Reasons a router gives in an ADJCHANGE message. The paper uses the
/// reason text to tell a fresh failure from an adjacency *reset* (§4.3:
/// "a reset adjacency failure is differentiated from a subsequent link
/// failure by the type of syslog message being sent").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AdjChangeDetail {
    /// Three-way handshake completed.
    NewAdjacency,
    /// No hello within the hold time.
    HoldTimeExpired,
    /// The interface went down.
    InterfaceDown,
    /// The neighbor restarted the handshake (adjacency reset).
    AdjacencyReset,
    /// Reason text we do not model; preserved verbatim.
    Other,
}

impl AdjChangeDetail {
    fn text(&self, os: RouterOs) -> &'static str {
        match (self, os) {
            (AdjChangeDetail::NewAdjacency, RouterOs::Ios) => "new adjacency",
            (AdjChangeDetail::NewAdjacency, RouterOs::IosXr) => "New adjacency",
            (AdjChangeDetail::HoldTimeExpired, RouterOs::Ios) => "hold time expired",
            (AdjChangeDetail::HoldTimeExpired, RouterOs::IosXr) => "Hold time expired",
            (AdjChangeDetail::InterfaceDown, RouterOs::Ios) => "interface down",
            (AdjChangeDetail::InterfaceDown, RouterOs::IosXr) => "Interface state down",
            (AdjChangeDetail::AdjacencyReset, RouterOs::Ios) => "adjacency reset",
            (AdjChangeDetail::AdjacencyReset, RouterOs::IosXr) => "Adjacency reset",
            (AdjChangeDetail::Other, _) => "unknown",
        }
    }

    /// Recover the detail from its rendered text (case-insensitive on the
    /// first letter, since IOS and IOS XR capitalize differently).
    /// Allocation-free: this runs once per ADJCHANGE message on the parse
    /// hot path.
    pub fn from_text(text: &str) -> AdjChangeDetail {
        if text.eq_ignore_ascii_case("new adjacency") {
            AdjChangeDetail::NewAdjacency
        } else if text.eq_ignore_ascii_case("hold time expired") {
            AdjChangeDetail::HoldTimeExpired
        } else if text.eq_ignore_ascii_case("interface down")
            || text.eq_ignore_ascii_case("interface state down")
        {
            AdjChangeDetail::InterfaceDown
        } else if text.eq_ignore_ascii_case("adjacency reset") {
            AdjChangeDetail::AdjacencyReset
        } else {
            AdjChangeDetail::Other
        }
    }
}

/// The three message families the study is built on (§3.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkEventKind {
    /// IS-IS adjacency change (`%CLNS-5-ADJCHANGE` /
    /// `%ROUTING-ISIS-4-ADJCHANGE`).
    IsisAdjacency {
        /// Hostname of the adjacent router as the local router knows it.
        neighbor: Arc<str>,
        /// Why the adjacency changed.
        detail: AdjChangeDetail,
    },
    /// Physical interface state (`%LINK-3-UPDOWN`).
    Link,
    /// Line protocol state (`%LINEPROTO-5-UPDOWN`).
    LineProtocol,
}

/// A structured link-state event, the unit the analysis pipeline consumes.
///
/// Its strings — `host`, the `interface` and an adjacency's `neighbor` —
/// are shared `Arc<str>`s, so cloning or dropping an event (and the
/// [`SyslogMessage`] around it) is refcount work, never an allocation.
/// Events are copied at every hand-off: the admission queue, the
/// cluster's partition, a scenario's event stream. They serialize, hash,
/// order and encode exactly as `str`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinkEvent {
    /// Router-local timestamp (what appears in the message text).
    pub at: Timestamp,
    /// Reporting router's hostname.
    pub host: Arc<str>,
    /// Local interface the event concerns.
    pub interface: InterfaceName,
    /// Which message family.
    pub kind: LinkEventKind,
    /// New state: `true` = Up.
    pub up: bool,
}

/// A complete syslog message: a [`LinkEvent`] plus wire metadata.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyslogMessage {
    /// Per-router sequence number (`service sequence-numbers`).
    pub seq: u64,
    /// The structured event.
    pub event: LinkEvent,
    /// OS family of the reporting router; selects the grammar.
    pub os: RouterOs,
}

/// RFC 3164 facility used by Cisco by default (local7 = 23).
const FACILITY: u8 = 23;

impl SyslogMessage {
    /// Severity code for this message family (the number embedded in the
    /// mnemonic, e.g. the `5` of `%CLNS-5-ADJCHANGE`).
    pub fn severity(&self) -> u8 {
        match (&self.event.kind, self.os) {
            (LinkEventKind::IsisAdjacency { .. }, RouterOs::Ios) => 5,
            (LinkEventKind::IsisAdjacency { .. }, RouterOs::IosXr) => 4,
            (LinkEventKind::Link, _) => 3,
            (LinkEventKind::LineProtocol, _) => 5,
        }
    }

    /// RFC 3164 PRI value.
    pub fn pri(&self) -> u8 {
        FACILITY * 8 + self.severity()
    }

    /// Render the full line as it would arrive at the collector.
    pub fn render(&self) -> String {
        let ts = caltime::render(self.event.at);
        let body = self.render_body();
        format!(
            "<{}>{}: {}: {}: {}",
            self.pri(),
            self.seq,
            self.event.host,
            ts,
            body
        )
    }

    fn render_body(&self) -> String {
        let iface = &self.event.interface;
        match &self.event.kind {
            LinkEventKind::IsisAdjacency { neighbor, detail } => match self.os {
                RouterOs::Ios => format!(
                    "%CLNS-5-ADJCHANGE: ISIS: Adjacency to {} ({}) {}, {}",
                    neighbor,
                    iface,
                    if self.event.up { "Up" } else { "Down" },
                    detail.text(self.os),
                ),
                RouterOs::IosXr => format!(
                    "%ROUTING-ISIS-4-ADJCHANGE: Adjacency to {} ({}) (L2) {}, {}",
                    neighbor,
                    iface,
                    if self.event.up { "Up" } else { "Down" },
                    detail.text(self.os),
                ),
            },
            LinkEventKind::Link => format!(
                "%LINK-3-UPDOWN: Interface {}, changed state to {}",
                iface,
                if self.event.up { "Up" } else { "Down" },
            ),
            LinkEventKind::LineProtocol => format!(
                "%LINEPROTO-5-UPDOWN: Line protocol on Interface {}, changed state to {}",
                iface,
                if self.event.up { "up" } else { "down" },
            ),
        }
    }
}

impl fmt::Display for SyslogMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: LinkEventKind, up: bool) -> LinkEvent {
        LinkEvent {
            at: Timestamp::from_millis(15_153_123),
            host: "lax-agg-01".into(),
            interface: InterfaceName::ten_gig(3),
            kind,
            up,
        }
    }

    #[test]
    fn ios_adjchange_format() {
        let m = SyslogMessage {
            seq: 287,
            event: event(
                LinkEventKind::IsisAdjacency {
                    neighbor: "sac-agg-01".into(),
                    detail: AdjChangeDetail::HoldTimeExpired,
                },
                false,
            ),
            os: RouterOs::Ios,
        };
        assert_eq!(
            m.render(),
            "<189>287: lax-agg-01: Oct 20 2010 04:12:33.123: %CLNS-5-ADJCHANGE: \
             ISIS: Adjacency to sac-agg-01 (TenGigE0/0/0/3) Down, hold time expired"
        );
    }

    #[test]
    fn iosxr_adjchange_format() {
        let m = SyslogMessage {
            seq: 1,
            event: event(
                LinkEventKind::IsisAdjacency {
                    neighbor: "sac-agg-01".into(),
                    detail: AdjChangeDetail::NewAdjacency,
                },
                true,
            ),
            os: RouterOs::IosXr,
        };
        let text = m.render();
        assert!(text.contains("%ROUTING-ISIS-4-ADJCHANGE:"));
        assert!(text.contains("(L2) Up, New adjacency"));
        assert!(
            text.starts_with("<188>"),
            "XR adjacency severity is 4: {text}"
        );
    }

    #[test]
    fn link_and_lineproto_formats() {
        let m = SyslogMessage {
            seq: 2,
            event: event(LinkEventKind::Link, false),
            os: RouterOs::Ios,
        };
        assert!(m
            .render()
            .ends_with("%LINK-3-UPDOWN: Interface TenGigE0/0/0/3, changed state to Down"));
        let m = SyslogMessage {
            seq: 3,
            event: event(LinkEventKind::LineProtocol, true),
            os: RouterOs::Ios,
        };
        assert!(m.render().ends_with(
            "%LINEPROTO-5-UPDOWN: Line protocol on Interface TenGigE0/0/0/3, changed state to up"
        ));
    }

    #[test]
    fn pri_encodes_facility_and_severity() {
        let m = SyslogMessage {
            seq: 0,
            event: event(LinkEventKind::Link, true),
            os: RouterOs::Ios,
        };
        assert_eq!(m.pri(), 23 * 8 + 3);
    }

    #[test]
    fn detail_text_round_trips() {
        for d in [
            AdjChangeDetail::NewAdjacency,
            AdjChangeDetail::HoldTimeExpired,
            AdjChangeDetail::InterfaceDown,
            AdjChangeDetail::AdjacencyReset,
        ] {
            for os in [RouterOs::Ios, RouterOs::IosXr] {
                assert_eq!(AdjChangeDetail::from_text(d.text(os)), d);
            }
        }
        assert_eq!(
            AdjChangeDetail::from_text("something else"),
            AdjChangeDetail::Other
        );
    }
}
