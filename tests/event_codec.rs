//! Property tests for the binary event codec (`faultline_core::codec`),
//! the layout every `ShardMsg::Events` frame carries.
//!
//! The contract:
//!
//! 1. any [`StreamEvent`] — every message family, adjacency reason and
//!    transition subject; empty, non-ASCII and 300-byte strings;
//!    `u64::MAX` sequence numbers and timestamps — round-trips to `==`,
//!    one at a time and as a run;
//! 2. decoding is total: every truncation of a run is an error, and a
//!    bit flip anywhere is an error or a *different* value (which the
//!    frame hash around the run would have rejected) — never a panic,
//!    never the original value by accident;
//! 3. a count the input cannot back is refused before anything is
//!    reserved.

use faultline_core::codec::{decode_event, decode_events, encode_event, encode_events};
use faultline_core::{scenario_event_stream, CodecError, StreamEvent};
use faultline_isis::listener::{
    ReachabilityKind, Transition, TransitionDirection, TransitionSubject,
};
use faultline_sim::chaos::frame_flip_seeded;
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_syslog::message::{AdjChangeDetail, LinkEvent, LinkEventKind, SyslogMessage};
use faultline_topology::interface::InterfaceName;
use faultline_topology::osi::SystemId;
use faultline_topology::router::RouterOs;
use faultline_topology::time::Timestamp;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        0u64..40_000_000_000,
        any::<u64>()
    ]
}

fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "[a-z]{3}-[a-z]{3}-[0-9]{2}",
        "[A-Za-z]{2,15}[0-9/]{1,8}",
        "[à-ÿ]{1,8}-ルータ-[0-9]{1,3}",
        Just("x".repeat(300)),
    ]
}

fn arb_system_id() -> impl Strategy<Value = SystemId> {
    any::<u64>().prop_map(|v| {
        let b = v.to_le_bytes();
        SystemId([b[0], b[1], b[2], b[3], b[4], b[5]])
    })
}

fn arb_syslog() -> impl Strategy<Value = StreamEvent> {
    let kind = prop_oneof![
        Just(LinkEventKind::Link),
        Just(LinkEventKind::LineProtocol),
        (arb_text(), 0u8..5).prop_map(|(neighbor, d)| LinkEventKind::IsisAdjacency {
            neighbor: neighbor.into(),
            detail: match d {
                0 => AdjChangeDetail::NewAdjacency,
                1 => AdjChangeDetail::HoldTimeExpired,
                2 => AdjChangeDetail::InterfaceDown,
                3 => AdjChangeDetail::AdjacencyReset,
                _ => AdjChangeDetail::Other,
            },
        }),
    ];
    (
        arb_u64(),
        arb_u64(),
        arb_text(),
        arb_text(),
        kind,
        any::<u8>(),
    )
        .prop_map(|(seq, at, host, interface, kind, bits)| {
            StreamEvent::Syslog(SyslogMessage {
                seq,
                event: LinkEvent {
                    at: Timestamp::from_millis(at),
                    host: host.into(),
                    interface: InterfaceName(interface.into()),
                    kind,
                    up: bits & 1 == 1,
                },
                os: if bits & 2 == 2 {
                    RouterOs::IosXr
                } else {
                    RouterOs::Ios
                },
            })
        })
}

fn arb_isis() -> impl Strategy<Value = StreamEvent> {
    let subject = prop_oneof![
        arb_system_id().prop_map(|neighbor| TransitionSubject::Adjacency { neighbor }),
        (any::<u32>(), any::<u8>()).prop_map(|(addr, prefix_len)| TransitionSubject::Prefix {
            prefix: Ipv4Addr::from(addr),
            prefix_len,
        }),
    ];
    (arb_u64(), arb_system_id(), subject, any::<u8>()).prop_map(|(at, source, subject, bits)| {
        StreamEvent::Isis(Transition {
            at: Timestamp::from_millis(at),
            source,
            kind: if bits & 1 == 1 {
                ReachabilityKind::IpReach
            } else {
                ReachabilityKind::IsReach
            },
            subject,
            direction: if bits & 2 == 2 {
                TransitionDirection::Up
            } else {
                TransitionDirection::Down
            },
        })
    })
}

fn arb_event() -> impl Strategy<Value = StreamEvent> {
    prop_oneof![arb_syslog(), arb_isis()]
}

fn encoded(events: &[StreamEvent]) -> Vec<u8> {
    let mut run = Vec::new();
    encode_events(events, &mut run);
    run
}

fn decoded(run: &[u8]) -> Result<Vec<StreamEvent>, CodecError> {
    let mut out = Vec::new();
    decode_events(run, &mut out).map(|()| out)
}

proptest! {
    #[test]
    fn arbitrary_events_round_trip(events in collection::vec(arb_event(), 0..24)) {
        prop_assert_eq!(decoded(&encoded(&events)).expect("an intact run decodes"), events.clone());
        for event in &events {
            let mut one = Vec::new();
            encode_event(event, &mut one);
            let (back, used) = decode_event(&one).expect("an intact event decodes");
            prop_assert_eq!(&back, event);
            prop_assert_eq!(used, one.len());
        }
    }

    #[test]
    fn every_truncation_of_a_run_is_an_error(events in collection::vec(arb_event(), 1..6)) {
        let run = encoded(&events);
        for cut in 0..run.len() {
            prop_assert!(decoded(&run[..cut]).is_err(), "cut at {cut} of {} decoded", run.len());
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..256)) {
        let _ = decoded(&bytes);
        let _ = decode_event(&bytes);
    }
}

#[test]
fn the_extremes_round_trip() {
    let long = "é".repeat(150);
    assert_eq!(long.len(), 300);
    let events = vec![
        StreamEvent::Syslog(SyslogMessage {
            seq: u64::MAX,
            event: LinkEvent {
                at: Timestamp::from_millis(u64::MAX),
                host: "".into(),
                interface: InterfaceName(long.as_str().into()),
                kind: LinkEventKind::IsisAdjacency {
                    neighbor: "ルータ".into(),
                    detail: AdjChangeDetail::Other,
                },
                up: true,
            },
            os: RouterOs::IosXr,
        }),
        StreamEvent::Isis(Transition {
            at: Timestamp::from_millis(u64::MAX),
            source: SystemId([0xFF; 6]),
            kind: ReachabilityKind::IpReach,
            subject: TransitionSubject::Prefix {
                prefix: Ipv4Addr::BROADCAST,
                prefix_len: u8::MAX,
            },
            direction: TransitionDirection::Down,
        }),
    ];
    assert_eq!(decoded(&encoded(&events)).unwrap(), events);
    assert_eq!(decoded(&encoded(&[])).unwrap(), Vec::new());
}

#[test]
fn a_thousand_seeded_bit_flips_never_panic_and_never_pass_for_the_original() {
    let data = run(&ScenarioParams::tiny(42));
    let events = scenario_event_stream(&data);
    let events = &events[..events.len().min(256)];
    let run = encoded(events);
    for seed in 0..1_000u64 {
        let (byte, bit) = frame_flip_seeded(seed, run.len()).unwrap();
        let mut flipped = run.clone();
        flipped[byte] ^= 1 << bit;
        if let Ok(back) = decoded(&flipped) {
            assert_ne!(
                back, events,
                "seed {seed}: flipping bit {bit} of byte {byte} changed nothing"
            );
        }
    }
}

#[test]
fn a_count_the_input_cannot_back_is_refused_before_reserving() {
    // LEB128 of 2^32, then ten bytes: room for one event at most.
    let mut lying = vec![0x80, 0x80, 0x80, 0x80, 0x10];
    lying.extend_from_slice(&[0x01; 10]);
    let mut out = Vec::new();
    assert_eq!(
        decode_events(&lying, &mut out),
        Err(CodecError::CountExceedsInput {
            claimed: 1 << 32,
            max: 1
        })
    );
    assert_eq!(
        out.capacity(),
        0,
        "nothing may be reserved for a refused run"
    );

    // The same lie inside a string length: 2^32 bytes of hostname.
    let lying = [
        1, 0x01, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x10, b'a', b'b', b'c',
    ];
    assert!(matches!(
        decode_events(&lying, &mut out),
        Err(CodecError::Truncated {
            offset: 9,
            needed: 4_294_967_296,
            available: 3
        })
    ));
}
