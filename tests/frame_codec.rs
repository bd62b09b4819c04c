//! Chaos corpus for the shard-transport frame codec.
//!
//! The wire between a dispatcher and its workers carries every message
//! of the cluster protocol as a length-prefixed, FNV-hashed frame
//! (`faultline_core::transport`, wire version 7: an explicit payload-kind
//! byte, lane-row batches as binary `faultline_core::codec` row runs,
//! event batches as codec runs, flushed answers as codec rows,
//! everything else as JSON). The contract under test mirrors the syslog
//! parser's fuzz corpus (`crates/syslog/tests/fuzz_parse.rs`):
//!
//! 1. real protocol messages — including the lane rows of a real stream
//!    and the flushed answer of a whole [`StreamAnalysis`] run —
//!    round-trip byte-exactly;
//! 2. every truncation of a real frame, every seeded bit flip (every bit
//!    flip of a row frame), and arbitrary garbage bytes decode to a
//!    *typed* [`FrameError`], never a panic and never a silently wrong
//!    message; a row count the payload could not hold is refused before
//!    anything is reserved;
//! 3. frames are self-delimiting: two frames written back to back read
//!    back as exactly those two messages;
//! 4. the kind byte is law: a frame of an earlier wire version, an
//!    unknown kind, and a payload that is not what its kind byte says
//!    are each a typed error — nothing is sniffed, and neither rows,
//!    events nor flushed answers ever travel as JSON;
//! 5. a header that lies about its length costs what actually arrived.

use faultline_core::transport::{
    read_frame, write_frame, ScenarioSpec, ShardMsg, WorkerOutput, WorkerSpec, FRAME_HEADER_LEN,
    MAX_FRAME_PAYLOAD,
};
use faultline_core::{scenario_event_stream, AnalysisConfig, FrameError, StreamAnalysis};
use faultline_isis::listener::ReachabilityKind;
use faultline_sim::chaos::{frame_cut_seeded, frame_flip_seeded};
use faultline_sim::scenario::{run, ScenarioParams};
use proptest::prelude::*;

#[path = "support/lane_rows.rs"]
mod lane_rows;

/// A corpus of genuine protocol messages, including the lane rows of a
/// real stream and the flushed answer of the whole stream (the largest
/// payload the wire carries).
fn corpus() -> Vec<ShardMsg> {
    let data = run(&ScenarioParams::tiny(42));
    let events = scenario_event_stream(&data);
    let mut whole = StreamAnalysis::new(&data, AnalysisConfig::default());
    whole.ingest_batch(&events);
    let flushed = whole.flush();
    let table = faultline_core::linktable::from_scenario(&data);
    let rows: Vec<_> = events[..128]
        .iter()
        .filter_map(|e| lane_rows::row(&table, e))
        .collect();
    assert!(
        [
            None,
            Some(ReachabilityKind::IsReach),
            Some(ReachabilityKind::IpReach)
        ]
        .iter()
        .all(|&kind| rows.iter().any(|r| r.event.reach.map(|(k, _)| k) == kind)),
        "corpus rows carry every lane event kind"
    );
    assert!(
        !flushed.output.messages.is_empty() && !flushed.output.matching.matched.is_empty(),
        "corpus answer carries messages and matches"
    );

    vec![
        ShardMsg::Hello(Box::new(WorkerSpec::new(
            AnalysisConfig::default(),
            ScenarioSpec::Params(Box::new(ScenarioParams::tiny(3))),
        ))),
        ShardMsg::Ready(Default::default()),
        ShardMsg::Rows(rows),
        ShardMsg::Rows(Vec::new()),
        ShardMsg::Events(events[..64].to_vec()),
        ShardMsg::Events(Vec::new()),
        ShardMsg::Flushed(Box::new(WorkerOutput {
            output: flushed.output,
            report: flushed.report,
        })),
        ShardMsg::Flush,
        ShardMsg::Fatal {
            detail: "shard 3: journal directory vanished".to_string(),
        },
    ]
}

fn encode(msg: &ShardMsg) -> Vec<u8> {
    let mut buf = Vec::new();
    let n = write_frame(&mut buf, msg).expect("corpus messages encode");
    assert_eq!(
        n as usize,
        buf.len(),
        "write_frame reports the bytes written"
    );
    buf
}

/// The frame hash, re-derived here so the tests below can forge frames
/// that are damaged in exactly one respect.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A well-formed frame of wire version `version` around an arbitrary
/// kind and payload.
fn forge_version(version: u16, kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut hashed = vec![kind];
    hashed.extend_from_slice(payload);
    let mut frame = Vec::from(faultline_core::FRAME_MAGIC);
    frame.extend_from_slice(&version.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a64(&hashed).to_le_bytes());
    frame.extend_from_slice(&hashed);
    frame
}

/// A well-formed frame of this build's wire version.
fn forge(kind: u8, payload: &[u8]) -> Vec<u8> {
    forge_version(faultline_core::WIRE_VERSION, kind, payload)
}

const KIND_MESSAGE: u8 = 1;
const KIND_EVENTS: u8 = 2;
const KIND_FLUSHED: u8 = 3;
const KIND_ROWS: u8 = 4;

/// The corpus's batch of real lane rows.
fn rows_frame(msgs: &[ShardMsg]) -> &ShardMsg {
    msgs.iter()
        .find(|m| matches!(m, ShardMsg::Rows(rows) if !rows.is_empty()))
        .expect("the corpus carries a row batch")
}

/// The corpus's batch of real events.
fn events_frame(msgs: &[ShardMsg]) -> &ShardMsg {
    msgs.iter()
        .find(|m| matches!(m, ShardMsg::Events(events) if !events.is_empty()))
        .expect("the corpus carries an event batch")
}

/// The corpus's one `Flushed` answer.
fn flushed(msgs: &[ShardMsg]) -> &ShardMsg {
    msgs.iter()
        .find(|m| matches!(m, ShardMsg::Flushed(_)))
        .expect("the corpus carries a flushed answer")
}

#[test]
fn corpus_round_trips_byte_exactly() {
    for msg in corpus() {
        let buf = encode(&msg);
        let (back, read) = read_frame(&mut buf.as_slice()).expect("intact frame decodes");
        assert_eq!(
            read as usize,
            buf.len(),
            "read_frame consumes the whole frame"
        );
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&msg).unwrap(),
            "round-trip is exact for {}",
            msg.kind()
        );
    }
}

#[test]
fn frames_are_self_delimiting() {
    let msgs = corpus();
    let mut stream = Vec::new();
    for msg in &msgs {
        write_frame(&mut stream, msg).unwrap();
    }
    let mut reader = stream.as_slice();
    for msg in &msgs {
        let (back, _) = read_frame(&mut reader).expect("each frame in the stream decodes");
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(msg).unwrap()
        );
    }
    assert!(
        matches!(read_frame(&mut reader), Err(FrameError::Closed)),
        "a cleanly exhausted stream reads as closed, not torn"
    );
}

#[test]
fn every_truncation_is_a_typed_error() {
    for msg in corpus() {
        let buf = encode(&msg);
        for cut in 0..buf.len() {
            match read_frame(&mut &buf[..cut]) {
                Err(FrameError::Closed) => assert_eq!(cut, 0, "only the empty prefix is closed"),
                Err(
                    FrameError::Torn { .. }
                    | FrameError::HashMismatch { .. }
                    | FrameError::Malformed { .. },
                ) => {}
                Err(other) => panic!("cut at {cut}: unexpected error class {other}"),
                Ok(_) => panic!("cut at {cut}: truncated frame decoded"),
            }
        }
    }
}

#[test]
fn seeded_torn_writes_and_bit_flips_never_pass() {
    for (i, msg) in corpus().into_iter().enumerate() {
        let buf = encode(&msg);
        for seed in 0..64u64 {
            let seed = seed ^ ((i as u64) << 32);
            // A torn write: the pipe died mid-frame.
            let cut = frame_cut_seeded(seed, buf.len()).unwrap();
            assert!(
                read_frame(&mut &buf[..cut]).is_err(),
                "seed {seed}: torn frame at {cut} must not decode"
            );
            // In-flight corruption: one bit flips somewhere in the frame.
            let (byte, bit) = frame_flip_seeded(seed, buf.len()).unwrap();
            let mut flipped = buf.clone();
            flipped[byte] ^= 1 << bit;
            match read_frame(&mut flipped.as_slice()) {
                Err(_) => {}
                // A flip inside the length field can shrink the frame to
                // a shorter, still-hash-checked prefix — which can only
                // decode by finding a hash collision.
                Ok(_) => panic!("seed {seed}: flipped bit {bit} of byte {byte} slipped through"),
            }
        }
    }
}

#[test]
fn header_field_damage_maps_to_its_own_error() {
    let buf = encode(&ShardMsg::Flush);

    let mut bad_magic = buf.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        read_frame(&mut bad_magic.as_slice()),
        Err(FrameError::BadMagic { .. })
    ));

    let mut bad_version = buf.clone();
    bad_version[4] = 0xEE;
    assert!(matches!(
        read_frame(&mut bad_version.as_slice()),
        Err(FrameError::UnsupportedVersion { found: 0x00EE, .. })
    ));

    let mut bad_len = buf.clone();
    bad_len[9] = 0xFF;
    assert!(matches!(
        read_frame(&mut bad_len.as_slice()),
        Err(FrameError::TooLarge { .. })
    ));

    let mut bad_kind = buf.clone();
    bad_kind[FRAME_HEADER_LEN - 1] = 0x7F;
    assert!(matches!(
        read_frame(&mut bad_kind.as_slice()),
        Err(FrameError::UnknownKind { found: 0x7F })
    ));

    let mut bad_payload = buf.clone();
    let last = bad_payload.len() - 1;
    bad_payload[last] ^= 0x01;
    assert!(matches!(
        read_frame(&mut bad_payload.as_slice()),
        Err(FrameError::HashMismatch { .. })
    ));
}

#[test]
fn a_version_1_frame_is_unsupported_not_sniffed() {
    // What the previous build wrote: 18-byte header, no kind byte, the
    // hash over a JSON payload — including for event batches.
    let payload = br#"{"Events":[]}"#;
    let mut v1 = Vec::from(faultline_core::FRAME_MAGIC);
    v1.extend_from_slice(&1u16.to_le_bytes());
    v1.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    v1.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    v1.extend_from_slice(payload);
    assert!(matches!(
        read_frame(&mut v1.as_slice()),
        Err(FrameError::UnsupportedVersion {
            found: 1,
            expected: 8
        })
    ));
}

#[test]
fn a_version_2_frame_is_unsupported_not_misread() {
    // What the previous build wrote for an answer: today's header with
    // version 2, a `Flushed` as JSON under the message kind.
    let json = serde_json::to_string(flushed(&corpus())).unwrap();
    let v2 = forge_version(2, KIND_MESSAGE, json.as_bytes());
    assert!(matches!(
        read_frame(&mut v2.as_slice()),
        Err(FrameError::UnsupportedVersion {
            found: 2,
            expected: 8
        })
    ));
}

#[test]
fn a_version_4_frame_is_unsupported_not_misread() {
    // Version 4 migrated each lane with values a restore derives; its
    // other JSON messages are still in today's vocabulary, so a `Hello`
    // under that header is refused by its version alone.
    let msgs = corpus();
    let hello = msgs
        .iter()
        .find(|m| matches!(m, ShardMsg::Hello(_)))
        .expect("the corpus carries a hello");
    let json = serde_json::to_string(hello).unwrap();
    let v4 = forge_version(4, KIND_MESSAGE, json.as_bytes());
    assert!(matches!(
        read_frame(&mut v4.as_slice()),
        Err(FrameError::UnsupportedVersion {
            found: 4,
            expected: 8
        })
    ));
}

#[test]
fn a_version_5_frame_is_unsupported_not_misread() {
    // Version 5 spoke lane migration for live resharding and counted the
    // imported lanes in every `Ready`; that `Ready`, byte for byte, is
    // refused by its version, and today's reader would not take its
    // payload for a `Ready` either.
    let payload = br#"{"Ready":{"resumed_at_seq":0,"recovery":null,"lanes_imported":0}}"#;
    assert!(matches!(
        read_frame(&mut forge(KIND_MESSAGE, payload).as_slice()),
        Err(FrameError::Malformed { .. })
    ));
    let v5 = forge_version(5, KIND_MESSAGE, payload);
    assert!(matches!(
        read_frame(&mut v5.as_slice()),
        Err(FrameError::UnsupportedVersion {
            found: 5,
            expected: 8
        })
    ));
}

#[test]
fn a_version_6_frame_is_unsupported_not_misread() {
    // Version 6 announced a recovered worker's resume position twice, as
    // the `Ready`'s own `resumed_at_seq` beside the recovery report's;
    // that `Ready`, byte for byte, is refused by its version, and under
    // today's version its payload is malformed, never a `Ready` with a
    // position read from the wrong field.
    let payload = br#"{"Ready":{"resumed_at_seq":0,"recovery":null}}"#;
    assert!(matches!(
        read_frame(&mut forge(KIND_MESSAGE, payload).as_slice()),
        Err(FrameError::Malformed { .. })
    ));
    let (today, _) = read_frame(&mut forge(KIND_MESSAGE, br#"{"Ready":null}"#).as_slice())
        .expect("today's fresh worker announces itself with no report");
    assert!(matches!(today, ShardMsg::Ready(None)));
    let v6 = forge_version(6, KIND_MESSAGE, payload);
    assert!(matches!(
        read_frame(&mut v6.as_slice()),
        Err(FrameError::UnsupportedVersion {
            found: 6,
            expected: 8
        })
    ));
}

#[test]
fn a_version_7_frame_is_unsupported_not_misread() {
    // Version 7 sent each worker a configuration carrying four settings
    // that are now constants and the retired `parallelism` knob. That
    // `Hello` is refused by its version. Under today's version its
    // payload would read as today's `Hello`, the retired keys skipped, so
    // the version alone keeps it from being taken for this build's.
    let msgs = corpus();
    let hello = msgs
        .iter()
        .find(|m| matches!(m, ShardMsg::Hello(_)))
        .expect("the corpus carries a hello");
    let today = serde_json::to_string(hello).unwrap();
    let mut old: serde_json::Value = serde_json::from_str(&today).unwrap();
    let config = old["Hello"]["config"].as_object_mut().unwrap();
    for (key, ms) in [
        ("dedup_window", 10_000),
        ("flap_pad", 30_000),
        ("ticket_slack", 10_800_000),
        ("short_fp_threshold", 10_000),
    ] {
        config.insert(key.into(), serde_json::json!(ms));
    }
    let parallelism = serde_json::json!({"threads": 0, "chunk_size": 16});
    config.insert("parallelism".into(), parallelism);
    let payload = serde_json::to_string(&old).unwrap();
    let (read, _) = read_frame(&mut forge(KIND_MESSAGE, payload.as_bytes()).as_slice())
        .expect("today's reader skips the retired keys");
    assert_eq!(serde_json::to_string(&read).unwrap(), today);
    let v7 = forge_version(7, KIND_MESSAGE, payload.as_bytes());
    assert!(matches!(
        read_frame(&mut v7.as_slice()),
        Err(FrameError::UnsupportedVersion {
            found: 7,
            expected: 8
        })
    ));
}

#[test]
fn a_version_3_frame_is_unsupported_not_misread() {
    // What the previous build fed its workers: today's header with
    // version 3 around an event run, which is still a well-formed run.
    let msgs = corpus();
    let batch = encode(events_frame(&msgs));
    let v3 = forge_version(3, KIND_EVENTS, &batch[FRAME_HEADER_LEN..]);
    assert!(matches!(
        read_frame(&mut v3.as_slice()),
        Err(FrameError::UnsupportedVersion {
            found: 3,
            expected: 8
        })
    ));
}

#[test]
fn every_bit_flip_of_a_row_frame_is_a_typed_error() {
    let msgs = corpus();
    let buf = encode(rows_frame(&msgs));
    for byte in 0..buf.len() {
        for bit in 0..8 {
            let mut flipped = buf.clone();
            flipped[byte] ^= 1 << bit;
            if let Ok((msg, _)) = read_frame(&mut flipped.as_slice()) {
                panic!(
                    "flipping bit {bit} of byte {byte} decoded as {}",
                    msg.kind()
                );
            }
        }
    }
}

/// A row run's rows, without the count in front of them.
fn run_rows(run: &[u8]) -> &[u8] {
    &run[run.iter().position(|b| b & 0x80 == 0).unwrap() + 1..]
}

/// A row run with its declared count replaced by `count`.
fn with_count(run: &[u8], mut count: u64) -> Vec<u8> {
    let rows = run_rows(run);
    let mut out = Vec::new();
    while count >= 0x80 {
        out.push(count as u8 | 0x80);
        count >>= 7;
    }
    out.push(count as u8);
    out.extend_from_slice(rows);
    out
}

#[test]
fn a_row_count_the_payload_cannot_hold_is_refused_before_any_reserve() {
    let msgs = corpus();
    let ShardMsg::Rows(rows) = rows_frame(&msgs) else {
        unreachable!()
    };
    let frame = encode(rows_frame(&msgs));
    let run = &frame[FRAME_HEADER_LEN..];
    // The forger is sound: the honest count rebuilds the frame.
    assert_eq!(forge(KIND_ROWS, &with_count(run, rows.len() as u64)), frame);
    // The shortest row is 4 bytes (link, kind, time, direction), so the
    // rows' bytes hold at most a quarter of their length in rows. One
    // more is refused before anything is reserved; so is a count no
    // allocation could back.
    let most = run_rows(run).len() / 4;
    for claimed in [most as u64 + 1, 1 << 40, u64::MAX] {
        let forged = forge(KIND_ROWS, &with_count(run, claimed));
        match read_frame(&mut forged.as_slice()) {
            Err(FrameError::Malformed { detail }) => assert!(
                detail.contains(&format!(
                    "count claims {claimed} items but the bytes left can hold at most {most}"
                )),
                "claimed {claimed}: {detail}"
            ),
            Err(other) => panic!("claimed {claimed}: expected malformed, got {other}"),
            Ok((msg, _)) => panic!("claimed {claimed}: decoded as {}", msg.kind()),
        }
    }
}

#[test]
fn a_payload_must_be_what_its_kind_byte_says() {
    let msgs = corpus();
    let batch = encode(events_frame(&msgs));
    let run = &batch[FRAME_HEADER_LEN..];
    let json = serde_json::to_string(&ShardMsg::Flush).unwrap();
    let json_events = serde_json::to_string(events_frame(&msgs)).unwrap();
    let row_batch = encode(rows_frame(&msgs));
    let row_run = &row_batch[FRAME_HEADER_LEN..];
    let json_rows = serde_json::to_string(rows_frame(&msgs)).unwrap();
    let answer = encode(flushed(&msgs));
    let rows = &answer[FRAME_HEADER_LEN..];
    let json_answer = serde_json::to_string(flushed(&msgs)).unwrap();

    // The forger itself is sound: honest frames decode.
    assert_eq!(forge(KIND_EVENTS, run), batch);
    assert_eq!(forge(KIND_ROWS, row_run), row_batch);
    assert_eq!(forge(KIND_FLUSHED, rows), answer);
    assert!(matches!(
        read_frame(&mut forge(KIND_MESSAGE, json.as_bytes()).as_slice()),
        Ok((ShardMsg::Flush, _))
    ));

    for (what, frame) in [
        (
            "JSON under the events kind",
            forge(KIND_EVENTS, json.as_bytes()),
        ),
        ("a binary run under the JSON kind", forge(KIND_MESSAGE, run)),
        (
            "events as JSON",
            forge(KIND_MESSAGE, json_events.as_bytes()),
        ),
        (
            "a run with a trailing byte",
            forge(KIND_EVENTS, &[run, &[0]].concat()),
        ),
        ("rows as JSON", forge(KIND_MESSAGE, json_rows.as_bytes())),
        (
            "a row run under the JSON kind",
            forge(KIND_MESSAGE, row_run),
        ),
        (
            "JSON under the rows kind",
            forge(KIND_ROWS, json.as_bytes()),
        ),
        ("an event run under the rows kind", forge(KIND_ROWS, run)),
        (
            "a row run with a trailing byte",
            forge(KIND_ROWS, &[row_run, &[0]].concat()),
        ),
        (
            "a flushed answer as JSON",
            forge(KIND_MESSAGE, json_answer.as_bytes()),
        ),
        (
            "a flushed answer's rows under the JSON kind",
            forge(KIND_MESSAGE, rows),
        ),
        (
            "JSON under the flushed kind",
            forge(KIND_FLUSHED, json_answer.as_bytes()),
        ),
        (
            "a flushed answer with a trailing byte",
            forge(KIND_FLUSHED, &[rows, &[0]].concat()),
        ),
        // Nesting past `serde_json::MAX_DEPTH`, in a field this build
        // would skip: it used to overflow the reader's stack and abort.
        (
            "a nesting bomb",
            forge(
                KIND_MESSAGE,
                format!(
                    "{{\"Fatal\":{{\"detail\":\"x\",\"from the future\":{}",
                    "[{\"k\":".repeat(500_000)
                )
                .as_bytes(),
            ),
        ),
    ] {
        match read_frame(&mut frame.as_slice()) {
            Err(FrameError::Malformed { .. }) => {}
            Err(other) => panic!("{what}: expected malformed, got {other}"),
            Ok((msg, _)) => panic!("{what}: decoded as {}", msg.kind()),
        }
    }
}

/// A reader that records the largest buffer it was ever asked to fill.
struct Metered<'a> {
    bytes: &'a [u8],
    largest_request: usize,
}

impl std::io::Read for Metered<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.largest_request = self.largest_request.max(buf.len());
        self.bytes.read(buf)
    }
}

#[test]
fn a_lying_length_costs_what_arrived_not_what_it_claims() {
    let mut frame = encode(&ShardMsg::Flush);
    let arrived = frame.len() - FRAME_HEADER_LEN;
    frame[6..10].copy_from_slice(&MAX_FRAME_PAYLOAD.to_le_bytes());
    let mut reader = Metered {
        bytes: &frame,
        largest_request: 0,
    };
    match read_frame(&mut reader) {
        Err(FrameError::Torn { expected, got }) => {
            assert_eq!(expected, MAX_FRAME_PAYLOAD as usize);
            assert_eq!(got, arrived);
        }
        other => panic!(
            "expected a torn frame, got {:?}",
            other.map(|(m, _)| m.kind())
        ),
    }
    assert!(
        reader.largest_request <= 64 * 1024,
        "a {arrived}-byte payload behind a 1 GiB claim made the reader size a {}-byte buffer",
        reader.largest_request
    );
}

proptest! {
    /// Totality over garbage: arbitrary bytes — valid header or not —
    /// decode to a typed error or a message, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = read_frame(&mut bytes.as_slice());
    }

    /// Totality with a plausible preamble: garbage that *starts* like a
    /// real frame (magic + version intact) exercises the length/hash
    /// arms instead of bailing at the magic check.
    #[test]
    fn plausible_preambles_never_panic(tail in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut framed = Vec::from(faultline_core::FRAME_MAGIC);
        framed.extend_from_slice(&faultline_core::WIRE_VERSION.to_le_bytes());
        framed.extend_from_slice(&tail);
        let _ = read_frame(&mut framed.as_slice());
    }
}
