//! Snapshot rows are exact.
//!
//! Checkpoint and delta files store their payload as `codec` rows. Here
//! JSON is the oracle, not the format under test: a `StreamCheckpoint`
//! or `StreamDelta` encoded as rows and decoded again must re-render
//! through `serde_json::to_string` to exactly the original's bytes, and
//! re-encode to exactly the same rows —
//!
//! * across seeds × chaos presets (clean, mild, moderate) × cut points
//!   (0 events, 1 event, mid-stream, end), a checkpoint at the cut and a
//!   delta from half-way to it;
//! * for a delta at every event boundary of a stream prefix, so tails of
//!   zero and one resolved message, lanes born in the window and lanes
//!   continued all occur.
//!
//! Decoding is total: every truncation of a payload is an error and
//! seeded bit flips never panic. With the shared counting allocator
//! (`crates/syslog/tests/support/counting_alloc.rs`), decoding a full
//! checkpoint allocates no more than `clone()` of it plus one `Arc<str>`
//! per distinct host and the dictionary's one table, and a count no
//! input could back allocates nothing on its word.

use faultline_core::codec::{decode_checkpoint, decode_delta, encode_checkpoint, encode_delta};
use faultline_core::{scenario_event_stream, AnalysisConfig, CodecError, StreamAnalysis};
use faultline_sim::chaos::frame_flip_seeded;
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_sim::{ChaosConfig, ScenarioData};

#[path = "../crates/syslog/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn scenario(seed: u64, chaos: ChaosConfig) -> ScenarioData {
    let mut params = ScenarioParams::tiny(seed);
    params.chaos = chaos;
    run(&params)
}

/// Encode a checkpoint, decode it, and hold the result to the original:
/// the same JSON, the same rows. Returns the payload.
fn checkpoint_round_trip(engine: &StreamAnalysis<'_>, what: &str) -> Vec<u8> {
    let ckpt = engine.checkpoint();
    let mut rows = Vec::new();
    encode_checkpoint(&ckpt, &mut rows);
    let back = decode_checkpoint(&rows).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(
        serde_json::to_string(&back).unwrap(),
        serde_json::to_string(&ckpt).unwrap(),
        "{what}"
    );
    let mut again = Vec::new();
    encode_checkpoint(&back, &mut again);
    assert_eq!(again, rows, "{what}: re-encoding is byte-exact");
    rows
}

/// The same for the delta since the engine's last mark; returns the
/// delta's JSON.
fn delta_round_trip(engine: &StreamAnalysis<'_>, what: &str) -> String {
    let delta = engine.checkpoint_delta();
    let mut rows = Vec::new();
    encode_delta(&delta, &mut rows);
    let back = decode_delta(&rows).unwrap_or_else(|e| panic!("{what}: {e}"));
    let json = serde_json::to_string(&delta).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), json, "{what}");
    let mut again = Vec::new();
    encode_delta(&back, &mut again);
    assert_eq!(again, rows, "{what}: re-encoding is byte-exact");
    json
}

#[test]
fn checkpoints_and_deltas_round_trip_across_seeds_chaos_and_cuts() {
    for seed in [3u64, 8] {
        for (name, chaos) in [
            ("clean", ChaosConfig::default()),
            ("mild", ChaosConfig::mild(seed * 31)),
            ("moderate", ChaosConfig::moderate(seed * 31)),
        ] {
            let data = scenario(seed, chaos);
            let events = scenario_event_stream(&data);
            let n = events.len();
            for cut in [0, 1, n / 2, n] {
                let what = format!("seed {seed} {name} cut {cut}/{n}");
                let mut engine = StreamAnalysis::new(&data, AnalysisConfig::default());
                for e in &events[..cut / 2] {
                    engine.ingest(e);
                }
                engine.mark_clean();
                for e in &events[cut / 2..cut] {
                    engine.ingest(e);
                }
                checkpoint_round_trip(&engine, &what);
                delta_round_trip(&engine, &what);
            }
        }
    }
}

#[test]
fn a_delta_at_every_event_boundary_round_trips() {
    let data = run(&ScenarioParams::tiny(9));
    let events = scenario_event_stream(&data);
    let mut engine = StreamAnalysis::new(&data, AnalysisConfig::default());
    let (mut empty_tails, mut one_message_tails) = (0, 0);
    for (i, e) in events.iter().take(300).enumerate() {
        engine.mark_clean();
        engine.ingest(e);
        let json = delta_round_trip(&engine, &format!("delta over event {i}"));
        if json.contains("\"messages_tail\":[]") {
            empty_tails += 1;
        } else {
            one_message_tails += 1;
        }
    }
    assert!(
        empty_tails > 0 && one_message_tails > 0,
        "{empty_tails} empty and {one_message_tails} one-message tails"
    );
}

#[test]
fn every_cut_of_a_payload_is_an_error_and_flips_never_panic() {
    let data = run(&ScenarioParams::tiny(3));
    let events = scenario_event_stream(&data);
    let mut engine = StreamAnalysis::new(&data, AnalysisConfig::default());
    for e in &events[..events.len() / 3] {
        engine.ingest(e);
    }
    engine.mark_clean();
    for e in &events[events.len() / 3..events.len() / 2] {
        engine.ingest(e);
    }
    let full = checkpoint_round_trip(&engine, "mid-stream checkpoint");
    let mut delta = Vec::new();
    encode_delta(&engine.checkpoint_delta(), &mut delta);
    type Decode = fn(&[u8]) -> Result<(), CodecError>;
    let decoders: [(&str, &[u8], Decode); 2] = [
        ("checkpoint", &full, |b| decode_checkpoint(b).map(drop)),
        ("delta", &delta, |b| decode_delta(b).map(drop)),
    ];
    for (what, rows, decode) in decoders {
        assert!(decode(rows).is_ok(), "{what}");
        for cut in 0..rows.len() {
            assert!(decode(&rows[..cut]).is_err(), "{what} cut at {cut}");
        }
        let mut trailing = rows.to_vec();
        trailing.push(0);
        assert_eq!(
            decode(&trailing),
            Err(CodecError::TrailingBytes { extra: 1 }),
            "{what}"
        );
        for seed in 0..1_000u64 {
            let (byte, bit) = frame_flip_seeded(seed, rows.len()).unwrap();
            let mut flipped = rows.to_vec();
            flipped[byte] ^= 1 << bit;
            // Ok (a flip the layout cannot see: the envelope's hash is
            // what catches those on disk) or a typed error — never a
            // panic.
            let _ = decode(&flipped);
        }
    }
}

#[test]
fn decoding_a_full_checkpoint_costs_its_clone_plus_one_per_host() {
    let data = run(&ScenarioParams::tiny(3));
    let mut engine = StreamAnalysis::new(&data, AnalysisConfig::default());
    for e in &scenario_event_stream(&data) {
        engine.ingest(e);
    }
    let ckpt = engine.checkpoint();
    let mut rows = Vec::new();
    encode_checkpoint(&ckpt, &mut rows);
    // The payload opens with the dictionary's entry count (one varint
    // byte below 128).
    let hosts = u64::from(rows[0]);
    assert!(hosts > 1 && hosts < 128, "{hosts} hosts");

    let (cloned, copy) = allocations(|| ckpt.clone());
    let (decoded, back) = allocations(|| decode_checkpoint(&rows));
    let back = back.unwrap();
    assert_eq!(
        serde_json::to_string(&back).unwrap(),
        serde_json::to_string(&copy).unwrap()
    );
    assert!(
        decoded <= cloned + hosts + 1,
        "decoding allocated {decoded}: clone {cloned} + {hosts} hosts + 1 dictionary table"
    );
}

#[test]
fn a_count_no_input_could_back_allocates_nothing_on_its_word() {
    let data = run(&ScenarioParams::tiny(3));
    let mut fresh = Vec::new();
    encode_checkpoint(
        &StreamAnalysis::new(&data, AnalysisConfig::default()).checkpoint(),
        &mut fresh,
    );
    // A fresh engine's payload ends with a zero message count, 22 zero
    // scalars (resolve, IS and IP merge stats; eight counters) and a zero
    // lane count.
    let tail = 1 + 22 + 1;
    assert!(fresh.ends_with(&[0; 24]));
    let bomb = |head: &[u8], over: usize| {
        let mut p = head.to_vec();
        // 2^32 as a varint.
        p.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x10]);
        p.resize(p.len() + over, 0);
        p
    };
    let messages = bomb(&fresh[..fresh.len() - tail], 10);
    let lanes = bomb(&fresh[..fresh.len() - 1], 10);
    // One lane (link 0, no link id, resolvable, no dedup anchor), then
    // its advertisement vector over the bytes a lane needs at least.
    let mut lane = fresh[..fresh.len() - 1].to_vec();
    lane.extend_from_slice(&[1, 0, 0, 1, 0]);
    let vector = bomb(&lane, 48);
    for (what, payload, most) in [
        ("messages", messages, 0),
        ("lanes", lanes, 0),
        ("vector", vector, 1),
    ] {
        let (count, result) = allocations(|| decode_checkpoint(&payload).map(drop));
        assert!(
            matches!(
                result,
                Err(CodecError::CountExceedsInput {
                    claimed: 0x1_0000_0000,
                    ..
                })
            ),
            "{what}: {result:?}"
        );
        assert!(count <= most, "{what}: {count} allocations");
    }
}
