//! Fuzz corpus for the line parser: mutated *real* lines.
//!
//! `tests/props.rs` already proves totality on arbitrary garbage. The
//! corpus here is nastier in a more realistic way: it starts from
//! genuine rendered Cisco lines — including timestamps straddling the
//! year boundary and the leap day — and applies the corruptions a
//! collector actually sees (truncation, two lines spliced together,
//! characters replaced with separators, control bytes, and non-ASCII).
//! The contract under test:
//!
//! 1. [`classify_line`] never panics — every input maps to a
//!    [`ParseOutcome`];
//! 2. the per-cause accounting in [`ParseStats`] always balances;
//! 3. an *unmutated* rendered line still round-trips exactly.

mod common;

use common::{apply, arb_at_ms, arb_mutation, Mutation};
use faultline_syslog::caltime;
use faultline_syslog::message::{AdjChangeDetail, LinkEvent, LinkEventKind, SyslogMessage};
use faultline_syslog::parse::{
    classify_line, parse_archive_stats, parse_bytes, ParseError, ParseOutcome, ParseStats,
};
use faultline_topology::interface::InterfaceName;
use faultline_topology::router::RouterOs;
use faultline_topology::time::Timestamp;
use proptest::prelude::*;

fn arb_detail() -> impl Strategy<Value = AdjChangeDetail> {
    prop_oneof![
        Just(AdjChangeDetail::NewAdjacency),
        Just(AdjChangeDetail::HoldTimeExpired),
        Just(AdjChangeDetail::InterfaceDown),
        Just(AdjChangeDetail::AdjacencyReset),
    ]
}

fn arb_kind() -> impl Strategy<Value = LinkEventKind> {
    prop_oneof![
        ("[a-z][a-z0-9-]{0,12}", arb_detail()).prop_map(|(n, d)| LinkEventKind::IsisAdjacency {
            neighbor: n.into(),
            detail: d,
        }),
        Just(LinkEventKind::Link),
        Just(LinkEventKind::LineProtocol),
    ]
}

fn arb_message() -> impl Strategy<Value = SyslogMessage> {
    (
        (any::<u64>(), arb_at_ms(), "[a-z][a-z0-9-]{0,12}"),
        (0u32..48, arb_kind(), any::<bool>(), any::<bool>()),
    )
        .prop_map(|((seq, at, host), (iface, kind, up, xr))| SyslogMessage {
            seq,
            event: LinkEvent {
                at: Timestamp::from_millis(at),
                host: host.into(),
                interface: InterfaceName::gig(iface),
                kind,
                up,
            },
            os: if xr { RouterOs::IosXr } else { RouterOs::Ios },
        })
}

/// What an untouched rendered message must classify as: itself, with the
/// OS normalized where the grammar does not carry it.
fn untouched(msg: &SyslogMessage) -> ParseOutcome {
    let mut expect = msg.clone();
    // %LINK/%LINEPROTO don't encode the OS; normalize.
    if !matches!(expect.event.kind, LinkEventKind::IsisAdjacency { .. }) {
        expect.os = RouterOs::Ios;
    }
    ParseOutcome::Event(expect)
}

/// The eight well-formed Cisco messages `benchmark/src/inputs.rs` mixes
/// into its archive (re-typed here): mnemonics the study ignores, which
/// is four lines in five of a real archive and of the benchmark's.
const NOISE_BODIES: [&str; 8] = [
    "%SYS-5-CONFIG_I: Configured from console by admin on vty0 (10.0.0.1)",
    "%SEC-6-IPACCESSLOGP: list 101 denied tcp 10.1.2.3(4242) -> 10.3.2.1(22), 1 packet",
    "%SNMP-3-AUTHFAIL: Authentication failure for SNMP req from host 10.9.8.7",
    "%BGP-5-ADJCHANGE: neighbor 10.255.0.2 Up",
    "%ENVMON-4-FAN_LOW_RPM: Fan 2 service recommended",
    "%SYS-6-LOGGINGHOST_STARTSTOP: Logging to host 10.0.0.5 port 514 started - CLI initiated",
    "%PM-4-ERR_DISABLE: bpduguard error detected on Gi0/7, putting Gi0/7 in err-disable state",
    "%NTP-6-PEERREACH: Peer 10.0.0.9 is reachable",
];

/// Severity fields that probe the mnemonic-shape check, with whether a
/// `u8` reads them: a signed digit does, an out-of-range number, an
/// empty field and a non-ASCII digit do not.
const SEVERITY_FIELDS: [(&str, bool); 4] =
    [("+5", true), ("256", false), ("", false), ("٥", false)];

/// An irrelevant line as the benchmark writes them, its severity either
/// as typed or swapped for one of [`SEVERITY_FIELDS`], and what it must
/// classify as when left untouched.
fn arb_noise_line() -> impl Strategy<Value = (String, ParseOutcome)> {
    (
        (any::<u64>(), arb_at_ms(), "[a-z][a-z0-9-]{0,12}"),
        (0..NOISE_BODIES.len(), 0..=SEVERITY_FIELDS.len()),
    )
        .prop_map(|((seq, at, host), (body, severity))| {
            let stamp = caltime::render(Timestamp::from_millis(at));
            let (body, readable) = match SEVERITY_FIELDS.get(severity) {
                None => (NOISE_BODIES[body].to_string(), true),
                Some(&(field, readable)) => {
                    let mut parts = NOISE_BODIES[body].splitn(3, '-');
                    let (facility, rest) = (parts.next().unwrap(), parts.nth(1).unwrap());
                    (format!("{facility}-{field}-{rest}"), readable)
                }
            };
            let expect = if readable {
                ParseOutcome::Irrelevant
            } else {
                ParseOutcome::Malformed(ParseError::UnrecognizedBody)
            };
            (format!("<189>{seq}: {host}: {stamp}: {body}"), expect)
        })
}

proptest! {
    /// Totality and classification: every mutated real line maps to an
    /// outcome, and untouched lines still parse to the original message
    /// (an untouched irrelevant line to `Irrelevant`, or to
    /// `UnrecognizedBody` where its severity field is not a `u8`).
    #[test]
    fn mutated_real_lines_are_always_classified(
        msg in arb_message(),
        other in arb_message(),
        mutation in arb_mutation(),
        noise in arb_noise_line(),
    ) {
        for (line, clean) in [(msg.render(), untouched(&msg)), noise] {
            let mutated = apply(&line, &other.render(), &mutation);
            let outcome = classify_line(&mutated);
            if matches!(mutation, Mutation::Identity) {
                prop_assert_eq!(outcome, clean, "clean line {:?}", mutated);
            } else {
                // Any outcome is acceptable for a mutated line; reaching
                // here at all is the property (no panic), and stats must
                // note it consistently.
                let mut stats = ParseStats::default();
                stats.note(&outcome);
                prop_assert!(stats.is_balanced(), "{:?} -> {:?}", mutated, outcome);
            }
        }
    }

    /// Archive-level accounting balances over a whole mutated corpus:
    /// events + irrelevant + malformed == lines, and the per-cause
    /// breakdown sums to the malformed total.
    #[test]
    fn mutated_archive_stats_balance(
        specs in proptest::collection::vec((arb_message(), arb_mutation()), 1..40),
        spliced in arb_message(),
    ) {
        let donor = spliced.render();
        let lines: Vec<String> = specs
            .iter()
            .map(|(m, mu)| apply(&m.render(), &donor, mu))
            .collect();
        let (events, stats) = parse_archive_stats(lines.iter().map(String::as_str));
        prop_assert!(stats.is_balanced(), "{:?}", stats);
        prop_assert_eq!(stats.lines, lines.len() as u64);
        prop_assert_eq!(stats.events, events.len() as u64);
    }

    /// Truncation sweep: every prefix of a real line (char-boundary cuts
    /// included, since lines can carry multi-byte hostnames) classifies
    /// without panicking, and the full line is an event.
    #[test]
    fn every_prefix_classifies(msg in arb_message()) {
        let line = msg.render();
        let chars: Vec<char> = line.chars().collect();
        for n in 0..=chars.len() {
            let prefix: String = chars[..n].iter().collect();
            let outcome = classify_line(&prefix);
            if n == chars.len() {
                prop_assert!(matches!(outcome, ParseOutcome::Event(_)));
            }
        }
    }

    /// Differential property: over the whole mutated corpus (the same
    /// corruptions the string-path fuzz arm sees, on studied and on
    /// irrelevant lines), the zero-copy byte parser agrees with
    /// [`classify_line`] exactly once its borrowed output is converted to
    /// the owning form, and the accounting reads the same from either.
    #[test]
    fn parse_bytes_matches_classify_line(
        msg in arb_message(),
        other in arb_message(),
        mutation in arb_mutation(),
        noise in arb_noise_line(),
    ) {
        for line in [msg.render(), noise.0] {
            let mutated = apply(&line, &other.render(), &mutation);
            let borrowed = parse_bytes(mutated.as_bytes());
            let owned = classify_line(&mutated);
            prop_assert_eq!(borrowed.to_owned(), owned.clone(), "line: {:?}", mutated);
            let (mut by_ref, mut by_value) = (ParseStats::default(), ParseStats::default());
            by_ref.note_ref(&borrowed);
            by_value.note(&owned);
            prop_assert_eq!(by_ref, by_value, "line: {:?}", mutated);
        }
    }

    /// Totality over raw bytes: arbitrary byte strings — including
    /// invalid UTF-8, which the `&str` parser can never even see —
    /// classify without panicking, and the outcome feeds the accounting
    /// consistently.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let outcome = parse_bytes(&bytes).to_owned();
        let mut stats = ParseStats::default();
        stats.note(&outcome);
        prop_assert!(stats.is_balanced(), "{:?} -> {:?}", bytes, outcome);
    }

    /// Byte-level truncation sweep: every *byte* prefix of a real line,
    /// studied or irrelevant — including cuts through the middle of a
    /// multi-byte character, which the char-level sweep above cannot
    /// produce — classifies without panicking, and agrees with the string
    /// parser whenever the prefix happens to be valid UTF-8.
    #[test]
    fn every_byte_prefix_classifies(msg in arb_message(), noise in arb_noise_line()) {
        for line in [msg.render(), noise.0] {
            let bytes = line.as_bytes();
            for n in 0..=bytes.len() {
                let outcome = parse_bytes(&bytes[..n]).to_owned();
                if let Ok(prefix) = std::str::from_utf8(&bytes[..n]) {
                    prop_assert_eq!(outcome, classify_line(prefix), "prefix: {:?}", prefix);
                }
            }
        }
    }
}

/// One hostile line must not stall the collector: the year is a `u32`
/// off the wire and the calendar conversion used to walk to it a month at
/// a time (5.6 s at 201100000, minutes at `u32::MAX`, then an overflow).
/// Closed-form arithmetic makes every year cost the same; the best of a
/// few tries keeps a descheduled test thread from failing the bound.
#[test]
fn hostile_years_classify_in_constant_time() {
    for year in [2011u32, 20_110, 2_011_000, 201_100_000, u32::MAX] {
        let line = format!("<189>1: h: Oct 20 {year} 00:00:00.000: %SYS-5-CONFIG_I: x");
        let (outcome, best) = (0..5)
            .map(|_| {
                let start = std::time::Instant::now();
                (classify_line(&line), start.elapsed())
            })
            .min_by_key(|&(_, took)| took)
            .unwrap();
        assert!(
            best < std::time::Duration::from_millis(1),
            "{year}: {best:?}"
        );
        // 201100000 is the last of these whose millisecond count fits.
        let want = if year == u32::MAX {
            ParseOutcome::Malformed(ParseError::BadTimestamp)
        } else {
            ParseOutcome::Irrelevant
        };
        assert_eq!(outcome, want, "{year}");
        assert_eq!(parse_bytes(line.as_bytes()).to_owned(), want, "{year}");
    }
    // The render side walked the same months: this never returned.
    assert_eq!(
        caltime::render(Timestamp::from_millis(u64::MAX)),
        "Jan 20 584556060 14:25:51.615"
    );
}
