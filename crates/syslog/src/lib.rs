//! # faultline-syslog
//!
//! Syslog substrate for the *faultline* reproduction of "A Comparison of
//! Syslog and IS-IS for Network Failure Analysis" (IMC 2013).
//!
//! §3.3 of the paper: every CENIC router sends syslog messages over UDP to
//! a central logging server; the study uses the subset describing link,
//! link-protocol, and IS-IS adjacency state. Because delivery is UDP and
//! the syslog process runs at low priority, *"message generation and
//! delivery is far from certain"* — that unreliability is the entire
//! subject of the paper, so this crate models it mechanistically:
//!
//! * [`caltime`] — calendar rendering/parsing of simulation timestamps in
//!   Cisco `datetime msec year` format;
//! * [`message`] — the structured link-state messages and their exact
//!   Cisco text grammars (`%CLNS-5-ADJCHANGE` for IOS,
//!   `%ROUTING-ISIS-4-ADJCHANGE` for IOS XR, `%LINK-3-UPDOWN`,
//!   `%LINEPROTO-5-UPDOWN`), rendered inside RFC 3164 framing;
//! * [`parse`] — the parser that recovers structured events from raw
//!   lines, tolerant of unknown mnemonics;
//! * [`delivery`] — the lossy UDP path: base loss, *flap-amplified* loss
//!   (rate-limited emission during bursts, §4.1), delivery jitter, and
//!   spurious retransmissions (§4.3);
//! * [`collector`] — the central logging server.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod caltime;
pub mod collector;
pub mod delivery;
pub mod message;
pub mod parse;

pub use collector::{Collector, LogRecord};
pub use delivery::{LossyTransport, TransportConfig};
pub use message::{AdjChangeDetail, LinkEvent, LinkEventKind, SyslogMessage};
pub use parse::{
    parse_bytes, LinkEventKindRef, ParseError, ParseOutcome, ParseOutcomeRef, ParseStats,
    SyslogMessageRef,
};
