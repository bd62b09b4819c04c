//! The parser's allocation contract, pinned as a count.
//!
//! The benchmark's ledger reads `syslog.parse.allocs_per_line` = 0.484 on
//! its archive; that number is this contract times the archive's mix (one
//! line in five an event, 2.4 strings per event, plus the event `Vec`
//! doubling). Here it is machine-independent: a counting allocator, and
//!
//! * [`parse_bytes`] allocates nothing, whatever the line turns out to be;
//! * [`parse_archive_stats_bytes`] allocates nothing for a line that is
//!   not an event, and for an event exactly its owned strings — host and
//!   interface, plus the neighbor of an adjacency change — beyond what
//!   growing the event `Vec` costs.
//!
//! Counts are per thread, so the other tests in this binary (libtest runs
//! them side by side) cannot leak into a measurement.

use faultline_syslog::message::{AdjChangeDetail, LinkEvent, LinkEventKind, SyslogMessage};
use faultline_syslog::parse::{
    parse_archive_stats_bytes, parse_bytes, ParseError, ParseOutcomeRef, ParseStats,
};
use faultline_topology::interface::InterfaceName;
use faultline_topology::router::RouterOs;
use faultline_topology::time::Timestamp;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn message(kind: LinkEventKind, os: RouterOs) -> SyslogMessage {
    SyslogMessage {
        seq: 287,
        event: LinkEvent {
            at: Timestamp::from_millis(86_400_123),
            host: "lax-agg-01".into(),
            interface: InterfaceName::ten_gig(3),
            kind,
            up: false,
        },
        os,
    }
}

fn adjacency() -> LinkEventKind {
    LinkEventKind::IsisAdjacency {
        neighbor: "sac-agg-01".into(),
        detail: AdjChangeDetail::HoldTimeExpired,
    }
}

const IRRELEVANT: &str =
    "<189>7: lax-agg-01: Oct 21 2010 01:02:03.004: %SYS-5-CONFIG_I: Configured from console";

/// One line per [`ParseError`], in grammar order.
const MALFORMED: [(&str, ParseError); 8] = [
    ("no angle bracket", ParseError::MissingPri),
    (
        "<abc>1: h: Oct 21 2010 00:00:00.000: %X-1-Y: z",
        ParseError::BadPri,
    ),
    ("<189>notanum: h: t: %X-1-Y: z", ParseError::BadSeq),
    ("<189>1: host-without-sep", ParseError::MissingHost),
    ("<189>1: h: Oct 21 2010 00:00:0", ParseError::MissingBody),
    ("<189>1: h: BADTIME: %X-1-Y: z", ParseError::BadTimestamp),
    (
        "<189>1: h: Oct 21 2010 00:00:00.000: %LINK-3-UPDOWN: Interface Gi0/0, changed",
        ParseError::MalformedBody,
    ),
    (
        "<189>1: h: Oct 21 2010 00:00:00.000: %no mnemonic here",
        ParseError::UnrecognizedBody,
    ),
];

#[test]
fn parse_bytes_never_allocates() {
    let events = [
        message(adjacency(), RouterOs::Ios).render(),
        message(adjacency(), RouterOs::IosXr).render(),
        message(LinkEventKind::Link, RouterOs::Ios).render(),
        message(LinkEventKind::LineProtocol, RouterOs::Ios).render(),
    ];
    for line in &events {
        let (n, outcome) = allocations(|| parse_bytes(line.as_bytes()));
        assert!(matches!(outcome, ParseOutcomeRef::Event(_)), "{line}");
        assert_eq!(n, 0, "{line}");
    }
    let (n, outcome) = allocations(|| parse_bytes(IRRELEVANT.as_bytes()));
    assert_eq!((n, outcome), (0, ParseOutcomeRef::Irrelevant));
    for (line, cause) in MALFORMED {
        let (n, outcome) = allocations(|| parse_bytes(line.as_bytes()));
        assert_eq!(
            (n, outcome),
            (0, ParseOutcomeRef::Malformed(cause)),
            "{line}"
        );
    }
    let (n, outcome) = allocations(|| parse_bytes(b"<189>1: \xff: not utf-8"));
    assert_eq!(
        (n, outcome),
        (0, ParseOutcomeRef::Malformed(ParseError::MissingHost))
    );
}

#[test]
fn lines_that_are_not_events_cost_the_archive_nothing() {
    let lines: Vec<&[u8]> = std::iter::once(IRRELEVANT)
        .chain(MALFORMED.iter().map(|(line, _)| *line))
        .cycle()
        .take(900)
        .map(str::as_bytes)
        .collect();
    let (n, (events, stats)) = allocations(|| parse_archive_stats_bytes(lines.iter().copied()));
    assert_eq!(n, 0);
    assert!(events.is_empty());
    assert_eq!(
        stats,
        ParseStats {
            lines: 900,
            irrelevant: 100,
            malformed: 800,
            missing_pri: 100,
            bad_pri: 100,
            bad_seq: 100,
            missing_host: 100,
            missing_body: 100,
            bad_timestamp: 100,
            malformed_body: 100,
            unrecognized_body: 100,
            ..ParseStats::default()
        }
    );
}

#[test]
fn an_event_costs_the_archive_exactly_its_owned_strings() {
    const EVENTS: usize = 1_000;
    // What growing the result costs on its own: the same number of
    // ready-made messages pushed, one at a time, onto a fresh `Vec`.
    let ready = vec![message(LinkEventKind::Link, RouterOs::Ios); EVENTS];
    let (vec_growth, moved) = allocations(|| {
        let mut out = Vec::new();
        for msg in ready {
            out.push(msg);
        }
        out
    });
    assert_eq!(moved.len(), EVENTS);
    assert!((1..=16).contains(&vec_growth), "{vec_growth}");

    let families = [
        (message(LinkEventKind::Link, RouterOs::Ios), 2),
        (message(LinkEventKind::LineProtocol, RouterOs::Ios), 2),
        (message(adjacency(), RouterOs::Ios), 3),
        (message(adjacency(), RouterOs::IosXr), 3),
    ];
    for (msg, strings) in families {
        // Four irrelevant lines after every event, as in the benchmark's
        // archive: they must not show in the count.
        let event = msg.render();
        let lines: Vec<&[u8]> = (0..EVENTS * 5)
            .map(|i| {
                if i % 5 == 0 {
                    event.as_bytes()
                } else {
                    IRRELEVANT.as_bytes()
                }
            })
            .collect();
        let (n, (events, stats)) = allocations(|| parse_archive_stats_bytes(lines.iter().copied()));
        assert_eq!(events.len(), EVENTS);
        assert_eq!(events[0], msg);
        assert_eq!(
            (stats.events, stats.irrelevant),
            (EVENTS as u64, 4 * EVENTS as u64)
        );
        assert_eq!(n - vec_growth, strings * EVENTS as u64, "{event}");
    }
}
