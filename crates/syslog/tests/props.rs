//! Property-based tests for the syslog substrate.

use faultline_syslog::caltime;
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
                neighbor: n,
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
                host,
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
