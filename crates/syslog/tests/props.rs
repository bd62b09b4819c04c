//! Property-based tests for the syslog substrate.

mod common;

use common::{apply, arb_at_ms, arb_mutation, DAY_MS};
use faultline_syslog::caltime::{self, CalTime};
use faultline_syslog::delivery::{LossyTransport, TransportConfig};
use faultline_syslog::message::{AdjChangeDetail, LinkEvent, LinkEventKind, SyslogMessage};
use faultline_syslog::parse::{parse_line, Parsed};
use faultline_topology::interface::InterfaceName;
use faultline_topology::router::RouterOs;
use faultline_topology::time::Timestamp;
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = LinkEventKind> {
    prop_oneof![
        ("[a-z][a-z0-9-]{0,20}", arb_detail()).prop_map(|(n, d)| {
            LinkEventKind::IsisAdjacency {
                neighbor: n.into(),
                detail: d,
            }
        }),
        Just(LinkEventKind::Link),
        Just(LinkEventKind::LineProtocol),
    ]
}

fn arb_detail() -> impl Strategy<Value = AdjChangeDetail> {
    prop_oneof![
        Just(AdjChangeDetail::NewAdjacency),
        Just(AdjChangeDetail::HoldTimeExpired),
        Just(AdjChangeDetail::InterfaceDown),
        Just(AdjChangeDetail::AdjacencyReset),
    ]
}

fn arb_iface() -> impl Strategy<Value = InterfaceName> {
    prop_oneof![
        (0u32..64).prop_map(InterfaceName::ten_gig),
        (0u32..64).prop_map(InterfaceName::gig),
    ]
}

proptest! {
    /// Calendar rendering round-trips for any instant within ~3 years of
    /// the epoch.
    #[test]
    fn caltime_round_trip(ms in 0u64..(1_000 * 86_400_000)) {
        let t = Timestamp::from_millis(ms);
        prop_assert_eq!(caltime::parse(&caltime::render(t)), Some(t));
    }

    /// Calendar conversion is strictly monotone.
    #[test]
    fn caltime_monotone(a in 0u64..(900 * 86_400_000), d in 1u64..86_400_000) {
        let ta = caltime::render(Timestamp::from_millis(a));
        let tb = caltime::render(Timestamp::from_millis(a + d));
        prop_assert_ne!(ta, tb);
    }

    /// Every renderable message parses back to itself, for both OS
    /// grammars and all message families.
    #[test]
    fn message_render_parse_round_trip(
        seq in any::<u64>(),
        at in 0u64..(500 * 86_400_000),
        host in "[a-z][a-z0-9-]{0,20}",
        iface in arb_iface(),
        kind in arb_kind(),
        up in any::<bool>(),
        xr in any::<bool>(),
    ) {
        let msg = SyslogMessage {
            seq,
            event: LinkEvent {
                at: Timestamp::from_millis(at),
                host: host.into(),
                interface: iface,
                kind,
                up,
            },
            os: if xr { RouterOs::IosXr } else { RouterOs::Ios },
        };
        let line = msg.render();
        match parse_line(&line) {
            Parsed::Event(back) => {
                // %LINK/%LINEPROTO don't encode the OS; normalize it.
                let mut expect = msg.clone();
                if !matches!(expect.event.kind, LinkEventKind::IsisAdjacency { .. }) {
                    expect.os = RouterOs::Ios;
                }
                prop_assert_eq!(back, expect, "line: {}", line);
            }
            other => prop_assert!(false, "line {} -> {:?}", line, other),
        }
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_total_on_garbage(line in ".{0,200}") {
        let _ = parse_line(&line);
    }

    /// The parser never panics on mutated valid lines either.
    #[test]
    fn parser_total_on_mutations(
        at in 0u64..(400 * 86_400_000),
        cut in 0usize..100,
    ) {
        let msg = SyslogMessage {
            seq: 1,
            event: LinkEvent {
                at: Timestamp::from_millis(at),
                host: "r1".into(),
                interface: InterfaceName::gig(0),
                kind: LinkEventKind::Link,
                up: true,
            },
            os: RouterOs::Ios,
        };
        let line = msg.render();
        let cut = cut.min(line.len());
        let _ = parse_line(&line[..cut]);
        let _ = parse_line(&line[cut..]);
    }

    /// Transport conservation: offered = delivered + all drop counters;
    /// and a lossless transport is the identity.
    #[test]
    fn transport_conserves_messages(seed in any::<u64>(), n in 1u64..300) {
        let mut t = LossyTransport::new(TransportConfig { seed, ..TransportConfig::default() });
        for i in 0..n {
            let m = SyslogMessage {
                seq: i,
                event: LinkEvent {
                    at: Timestamp::from_millis(i * 7_000),
                    host: "r1".into(),
                    interface: InterfaceName::gig(0),
                    kind: LinkEventKind::IsisAdjacency {
                        neighbor: "r2".into(),
                        detail: AdjChangeDetail::HoldTimeExpired,
                    },
                    up: i % 2 == 1,
                },
                os: RouterOs::Ios,
            };
            t.send(m);
        }
        let s = t.stats();
        prop_assert_eq!(
            s.offered,
            s.delivered + s.dropped_random + s.dropped_overload_pair + s.dropped_overload_msg
        );
    }
}

/// Arbitrary transport knobs (kept in ranges where every mechanism can
/// fire) and an arbitrary offered stream with unique sequence numbers.
fn arb_transport_cfg() -> impl Strategy<Value = TransportConfig> {
    (
        0.0f64..0.5,
        0.0f64..1.0,
        0.0f64..0.5,
        0.0f64..1.0,
        2usize..6,
        any::<u64>(),
    )
        .prop_map(
            |(base_loss, flap_pair_loss, flap_msg_loss, spurious_prob, flap_threshold, seed)| {
                TransportConfig {
                    base_loss,
                    flap_pair_loss,
                    flap_msg_loss,
                    spurious_prob,
                    flap_threshold,
                    seed,
                    ..TransportConfig::default()
                }
            },
        )
}

fn arb_offered(n: usize) -> impl Strategy<Value = Vec<SyslogMessage>> {
    proptest::collection::vec((0u64..86_400_000, 0u32..4, arb_kind(), any::<bool>()), 1..n)
        .prop_map(|specs| {
            let mut v: Vec<SyslogMessage> = specs
                .into_iter()
                .enumerate()
                .map(|(i, (at, iface, kind, up))| SyslogMessage {
                    seq: i as u64,
                    event: LinkEvent {
                        at: Timestamp::from_millis(at),
                        host: "r1".into(),
                        interface: InterfaceName::gig(iface),
                        kind,
                        up,
                    },
                    os: RouterOs::Ios,
                })
                .collect();
            v.sort_by_key(|m| m.event.at);
            v
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Delivered ⊆ sent: every primary delivery is one of the offered
    /// messages, unmodified, and no message is delivered twice as a
    /// primary copy. Spurious copies are flagged, carry an out-of-band
    /// sequence number, and restate the state of a message that *was*
    /// delivered.
    #[test]
    fn delivered_is_a_subset_of_sent(cfg in arb_transport_cfg(), offered in arb_offered(200)) {
        let mut t = LossyTransport::new(cfg);
        let mut primary_seqs = std::collections::HashSet::new();
        for m in &offered {
            for d in t.send(m.clone()) {
                if d.spurious {
                    prop_assert_eq!(d.message.seq, m.seq + 1_000_000);
                    prop_assert_eq!(d.message.event.up, m.event.up);
                    prop_assert!(d.message.event.at > m.event.at);
                } else {
                    prop_assert_eq!(&d.message, m, "primary copy must be unmodified");
                    prop_assert!(d.arrived_at >= m.event.at, "jitter only delays");
                    prop_assert!(primary_seqs.insert(d.message.seq), "duplicate primary");
                }
            }
        }
        let sent: std::collections::HashSet<u64> = offered.iter().map(|m| m.seq).collect();
        prop_assert!(primary_seqs.is_subset(&sent));
        prop_assert_eq!(primary_seqs.len() as u64, t.stats().delivered);
    }

    /// Duplication is bounded: one send yields at most two deliveries —
    /// at most one primary and at most one spurious copy — so the
    /// collector sees at most one duplicate per offered message.
    #[test]
    fn at_most_one_spurious_copy_per_message(
        cfg in arb_transport_cfg(),
        offered in arb_offered(200),
    ) {
        let mut t = LossyTransport::new(cfg);
        let mut spurious_total = 0u64;
        for m in &offered {
            let ds = t.send(m.clone());
            prop_assert!(ds.len() <= 2, "send produced {} deliveries", ds.len());
            let spurious = ds.iter().filter(|d| d.spurious).count();
            prop_assert!(spurious <= 1);
            if spurious == 1 {
                // A spurious copy only ever accompanies a primary one.
                prop_assert_eq!(ds.len(), 2);
                prop_assert!(!ds[0].spurious);
            }
            spurious_total += spurious as u64;
        }
        prop_assert_eq!(spurious_total, t.stats().spurious);
        prop_assert!(t.stats().spurious <= t.stats().delivered);
    }

    /// Deterministic replay: the same configuration (seed included) and
    /// the same offered stream reproduce the exact same deliveries and
    /// counters.
    #[test]
    fn replay_is_deterministic_for_fixed_seed(
        cfg in arb_transport_cfg(),
        offered in arb_offered(150),
    ) {
        let replay = |cfg: &TransportConfig| {
            let mut t = LossyTransport::new(cfg.clone());
            let out: Vec<_> = offered.iter().flat_map(|m| t.send(m.clone())).collect();
            (out, t.stats())
        };
        let (a, sa) = replay(&cfg);
        let (b, sb) = replay(&cfg);
        prop_assert_eq!(a, b);
        prop_assert_eq!(sa, sb);
    }
}

/// `caltime` as it stood before the byte walk, kept verbatim as the
/// reference the one-pass reader and the closed-form calendar arithmetic
/// are held to: the `&str` field splitter built on `split_whitespace`,
/// `split_once` and `str::parse`, and the converters that walk from the
/// epoch a month at a time. Cost grows with the year, so it is only ever
/// handed stamps a few centuries out.
mod reference {
    use super::CalTime;
    use faultline_topology::time::Timestamp;

    const MONTHS: [&str; 12] = [
        "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
    ];

    fn days_in_month(year: u32, month0: usize) -> u64 {
        const D: [u64; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];
        if month0 == 1 && is_leap(year) {
            29
        } else {
            D[month0]
        }
    }

    fn is_leap(year: u32) -> bool {
        (year.is_multiple_of(4) && !year.is_multiple_of(100)) || year.is_multiple_of(400)
    }

    const EPOCH_YEAR: u32 = 2010;
    const EPOCH_MONTH0: usize = 9; // October
    const EPOCH_DAY: u64 = 20;

    pub fn to_calendar(ts: Timestamp) -> CalTime {
        let mut days = ts.as_millis() / 86_400_000;
        let rem_ms = ts.as_millis() % 86_400_000;
        let mut year = EPOCH_YEAR;
        let mut month0 = EPOCH_MONTH0;
        let mut day = EPOCH_DAY; // 1-based
        while days > 0 {
            let dim = days_in_month(year, month0);
            let left_in_month = dim - day;
            if days <= left_in_month {
                day += days;
                days = 0;
            } else {
                days -= left_in_month + 1;
                day = 1;
                month0 += 1;
                if month0 == 12 {
                    month0 = 0;
                    year += 1;
                }
            }
        }
        CalTime {
            year,
            month: month0 as u8 + 1,
            day: day as u8,
            hour: (rem_ms / 3_600_000) as u8,
            minute: (rem_ms / 60_000 % 60) as u8,
            second: (rem_ms / 1_000 % 60) as u8,
            millis: (rem_ms % 1_000) as u16,
        }
    }

    pub fn from_calendar(c: &CalTime) -> Option<Timestamp> {
        let mut days: i64 = 0;
        let (mut y, mut m0, mut d) = (EPOCH_YEAR, EPOCH_MONTH0, EPOCH_DAY);
        let target = (c.year, c.month as usize - 1, c.day as u64);
        if (c.year, c.month as usize - 1, c.day as u64) < (y, m0, d) {
            return None;
        }
        while (y, m0, d) < target {
            if (y, m0) < (target.0, target.1) {
                days += (days_in_month(y, m0) - d + 1) as i64;
                d = 1;
                m0 += 1;
                if m0 == 12 {
                    m0 = 0;
                    y += 1;
                }
            } else {
                days += (target.2 - d) as i64;
                d = target.2;
            }
        }
        let ms = days as u64 * 86_400_000
            + c.hour as u64 * 3_600_000
            + c.minute as u64 * 60_000
            + c.second as u64 * 1_000
            + c.millis as u64;
        Some(Timestamp::from_millis(ms))
    }

    pub fn parse(text: &str) -> Option<Timestamp> {
        let mut parts = text.split_whitespace();
        let mon = parts.next()?;
        let day: u8 = parts.next()?.parse().ok()?;
        let year: u32 = parts.next()?.parse().ok()?;
        let hms = parts.next()?;
        if parts.next().is_some() {
            return None;
        }
        let month = MONTHS.iter().position(|m| *m == mon)? as u8 + 1;
        let (h, rest) = hms.split_once(':')?;
        let (m, rest) = rest.split_once(':')?;
        let (s, ms) = rest.split_once('.')?;
        if ms.len() != 3 {
            return None;
        }
        let c = CalTime {
            year,
            month,
            day,
            hour: h.parse().ok()?,
            minute: m.parse().ok()?,
            second: s.parse().ok()?,
            millis: ms.parse().ok()?,
        };
        if c.hour > 23 || c.minute > 59 || c.second > 59 || c.day == 0 {
            return None;
        }
        if c.month as usize > 12 || c.day as u64 > days_in_month(c.year, c.month as usize - 1) {
            return None;
        }
        from_calendar(&c)
    }
}

/// The reader against its reference on text, and on the same bytes.
fn assert_reads_like_reference(text: &str) -> Result<(), TestCaseError> {
    let want = reference::parse(text);
    prop_assert_eq!(caltime::parse(text), want, "stamp: {:?}", text);
    prop_assert_eq!(
        caltime::parse_bytes(text.as_bytes()),
        want,
        "stamp: {:?}",
        text
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Family (a): on every stamp the renderer writes, the calendar forms
    /// and the readers agree with the reference, and the text round-trips.
    #[test]
    fn caltime_matches_reference_on_rendered_stamps(ms in arb_at_ms()) {
        let t = Timestamp::from_millis(ms);
        let c = caltime::to_calendar(t);
        prop_assert_eq!(c, reference::to_calendar(t));
        prop_assert_eq!(caltime::from_calendar(&c), Some(t));
        prop_assert_eq!(reference::from_calendar(&c), Some(t));
        let text = caltime::render(t);
        prop_assert_eq!(reference::parse(&text), Some(t), "stamp: {}", text);
        assert_reads_like_reference(&text)?;
    }

    /// Family (b): the same stamps under the line fuzzer's corruptions —
    /// truncated, one character swapped for a separator, control byte or
    /// non-ASCII, two stamps spliced — read exactly as the reference reads
    /// them, accepted or not.
    #[test]
    fn caltime_matches_reference_on_mutated_stamps(
        ms in arb_at_ms(),
        other in arb_at_ms(),
        mutation in arb_mutation(),
    ) {
        let text = caltime::render(Timestamp::from_millis(ms));
        let donor = caltime::render(Timestamp::from_millis(other));
        assert_reads_like_reference(&apply(&text, &donor, &mutation))?;
    }

    /// Family (b), below the `char`: any one byte of a stamp overwritten
    /// with any value, which is mostly not UTF-8 any more. The reference
    /// only takes `&str`, so undecodable bytes must read as `None`.
    #[test]
    fn caltime_bytes_match_reference_under_byte_corruption(
        ms in arb_at_ms(),
        at in 0usize..64,
        byte in any::<u8>(),
    ) {
        let mut bytes = caltime::render(Timestamp::from_millis(ms)).into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        let want = std::str::from_utf8(&bytes).ok().and_then(reference::parse);
        prop_assert_eq!(caltime::parse_bytes(&bytes), want, "stamp: {:?}", bytes);
    }
}

/// Family (c): the corners of the acceptance set the module docs spell
/// out, each with the value it must have (or `None`), and each read the
/// same by the reference.
#[test]
fn caltime_quirks_read_like_reference() {
    let at = |days: u64, ms: u64| Some(Timestamp::from_millis(days * DAY_MS + ms));
    let nov5 = at(16, (4 * 3_600 + 12 * 60 + 33) * 1_000 + 12);
    let cases = [
        // Signs, leading zeros, a run of blanks, `+12` as three bytes of millis.
        ("Nov  +5 02010 04:12:33.+12", nov5),
        ("Nov 5 2010 +4:+12:+33.012", nov5),
        ("Nov 005 2010 0004:012:00033.012", nov5),
        // Any `White_Space` separates, and may lead or trail.
        ("Nov\t5\t2010\t04:12:33.012", nov5),
        ("Nov\u{2003}5\u{2003}2010\u{2003}04:12:33.012", nov5),
        ("Nov\u{a0}5\u{85}2010\u{3000}04:12:33.012", nov5),
        (" \t Nov 5 2010 04:12:33.012 \u{2003}\n", nov5),
        // ... but is not optional, and nothing else separates.
        ("Nov5 2010 04:12:33.012", None),
        ("Nov 5 201004:12:33.012", None),
        ("Nov\u{200b}5 2010 04:12:33.012", None),
        ("Nov\x005 2010 04:12:33.012", None),
        // Four fields, no more, no fewer.
        ("Nov 5 2010 04:12:33.012 x", None),
        ("Nov 5 2010", None),
        ("", None),
        ("   ", None),
        // Month names are case-sensitive and three letters.
        ("oct 20 2010 00:00:00.000", None),
        ("OCT 20 2010 00:00:00.000", None),
        ("Octo 20 2010 00:00:00.000", None),
        ("Oc 20 2010 00:00:00.000", None),
        // Millis are exactly three bytes, whatever they spell.
        ("Oct 20 2010 00:00:00.12", None),
        ("Oct 20 2010 00:00:00.0123", None),
        ("Oct 20 2010 00:00:00.1é", None),
        ("Oct 20 2010 00:00:00.-12", None),
        ("Oct 20 2010 00:00:00.1 2", None),
        ("Oct 20 2010 00:00:00.+12", at(0, 12)),
        // A bare sign, a minus, a non-ASCII digit: not numbers.
        ("Oct + 2010 00:00:00.000", None),
        ("Oct -20 2010 00:00:00.000", None),
        ("Oct ２０ 2010 00:00:00.000", None),
        // Field ranges; digit count alone never overflows a field.
        ("Oct 20 2010 24:00:00.000", None),
        ("Oct 20 2010 00:60:00.000", None),
        ("Oct 20 2010 00:00:60.000", None),
        ("Oct 20 2010 256:00:00.000", None),
        ("Oct 0 2010 00:00:00.000", None),
        ("Oct 32 2010 00:00:00.000", None),
        ("Oct 20 4294967296 00:00:00.000", None),
        ("Oct 20 99999999999999999999 00:00:00.000", None),
        ("Oct 20 00000000000000000000002010 00:00:00.000", at(0, 0)),
        // The calendar: epoch edge, leap days, century rule.
        ("Oct 19 2010 23:59:59.999", None),
        ("Feb 29 2011 00:00:00.000", None),
        ("Feb 29 2012 00:00:00.000", at(497, 0)),
        ("Feb 29 2100 00:00:00.000", None),
        ("Feb 29 2400 00:00:00.000", at(142_211, 0)),
    ];
    for (text, want) in cases {
        assert_eq!(caltime::parse(text), want, "{text:?}");
        assert_eq!(caltime::parse_bytes(text.as_bytes()), want, "{text:?}");
        assert_eq!(reference::parse(text), want, "reference on {text:?}");
    }
}

/// The separator table is `char::is_whitespace`, character for character:
/// every scalar value below U+3100 (all the blocks that hold one), plus
/// whatever else the standard library calls whitespace, as the one
/// separator between month and day.
#[test]
fn caltime_separators_are_exactly_unicode_whitespace() {
    let candidates = (0..=char::MAX as u32)
        .filter_map(char::from_u32)
        .filter(|c| (*c as u32) < 0x3100 || c.is_whitespace());
    let mut separators = 0;
    for c in candidates {
        let text = format!("Oct{c}20 2010 00:00:00.000");
        let want = reference::parse(&text);
        assert_eq!(want.is_some(), c.is_whitespace(), "U+{:04X}", c as u32);
        assert_eq!(caltime::parse(&text), want, "U+{:04X}", c as u32);
        separators += want.is_some() as u32;
    }
    assert_eq!(separators, 25, "Unicode White_Space has 25 members");
}

/// Family (d): the closed forms against the month walk on every calendar
/// day from the epoch to 2500-01-01, both directions — 489 years of leap
/// rules, century exceptions and the 2400 exception to those. The walk
/// costs a step per month since 2010, so an unoptimized build stops at
/// 2110-01-01 (one century rule; 2400 is in the quirk table) and the
/// release run CI makes goes the whole way.
#[test]
fn caltime_closed_forms_match_the_month_walk_day_by_day() {
    let (last_year, days) = if cfg!(debug_assertions) {
        (2110, 36_232)
    } else {
        (2500, 178_677)
    };
    for day in 0..=days {
        let t = Timestamp::from_millis(day * DAY_MS + day % DAY_MS);
        let want = reference::to_calendar(t);
        assert_eq!(caltime::to_calendar(t), want, "day {day}");
        assert_eq!(reference::from_calendar(&want), Some(t), "day {day}");
        assert_eq!(caltime::from_calendar(&want), Some(t), "day {day}");
        if day == days {
            assert_eq!((want.year, want.month, want.day), (last_year, 1, 1));
        }
    }
}
