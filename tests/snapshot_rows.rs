//! Snapshot rows are exact.
//!
//! Checkpoint and delta files store their payload as `codec` rows, and a
//! shard's `Flushed` answer crosses the wire as its report's JSON beside
//! its output's rows. Here JSON is the oracle, not the format under
//! test: a `StreamCheckpoint`, `StreamDelta` or `WorkerOutput` encoded
//! as rows and decoded again must re-render through
//! `serde_json::to_string` to exactly the original's bytes, and
//! re-encode to exactly the same rows —
//!
//! * across seeds × chaos presets (clean, mild, moderate) × cut points
//!   (0 events, 1 event, mid-stream, end), a checkpoint at the cut and a
//!   delta from half-way to it;
//! * for a delta at every event boundary of a stream prefix, so tails of
//!   zero and one resolved message, lanes born in the window and lanes
//!   continued all occur;
//! * across seeds × chaos presets × 1, 2 and 3 shards, every shard's
//!   flushed answer to its substream.
//!
//! Decoding is total: every truncation of a payload is an error and
//! seeded bit flips never panic. With the shared counting allocator
//! (`crates/syslog/tests/support/counting_alloc.rs`), decoding a full
//! checkpoint or a flushed answer allocates no more than `clone()` of it
//! plus one `Arc<str>` per distinct host and the dictionary's one table,
//! and a count no input could back allocates nothing on its word.

use faultline_core::codec::{
    decode_checkpoint, decode_delta, decode_flushed, encode_checkpoint, encode_delta,
    encode_flushed,
};
use faultline_core::{
    partition_events, scenario_event_stream, AnalysisConfig, CodecError, PipelineReport,
    StreamAnalysis, WorkerOutput,
};
use faultline_sim::chaos::frame_flip_seeded;
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_sim::{ChaosConfig, ScenarioData};
use std::collections::HashSet;

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

/// Each shard's flushed answer when `data`'s stream is split over
/// `shards` workers, as a worker builds it.
fn shard_answers(data: &ScenarioData, shards: u32) -> Vec<WorkerOutput> {
    let table = faultline_core::linktable::from_scenario(data);
    partition_events(&table, &scenario_event_stream(data), shards)
        .into_iter()
        .map(|events| {
            let mut engine = StreamAnalysis::new(data, AnalysisConfig::default());
            engine.ingest_batch(&events);
            let flushed = engine.flush();
            WorkerOutput {
                output: flushed.output,
                report: flushed.report,
            }
        })
        .collect()
}

/// Encode a flushed answer, decode it, and hold the result to the
/// original: the same JSON, the same rows. Returns the payload.
fn flushed_round_trip(answer: &WorkerOutput, what: &str) -> Vec<u8> {
    let mut rows = Vec::new();
    encode_flushed(answer, &mut rows).unwrap();
    let back = decode_flushed(&rows).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(
        serde_json::to_string(&back).unwrap(),
        serde_json::to_string(answer).unwrap(),
        "{what}"
    );
    let mut again = Vec::new();
    encode_flushed(&back, &mut again).unwrap();
    assert_eq!(again, rows, "{what}: re-encoding is byte-exact");
    rows
}

/// The chaos presets every sweep runs, seeded from the scenario's seed.
fn presets(seed: u64) -> [(&'static str, ChaosConfig); 3] {
    [
        ("clean", ChaosConfig::default()),
        ("mild", ChaosConfig::mild(seed * 31)),
        ("moderate", ChaosConfig::moderate(seed * 31)),
    ]
}

#[test]
fn checkpoints_and_deltas_round_trip_across_seeds_chaos_and_cuts() {
    for seed in [3u64, 8] {
        for (name, chaos) in presets(seed) {
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
fn flushed_answers_round_trip_across_seeds_chaos_and_shards() {
    let mut with_messages = 0;
    for seed in [3u64, 8] {
        for (name, chaos) in presets(seed) {
            let data = scenario(seed, chaos);
            for shards in 1..=3 {
                for (shard, answer) in shard_answers(&data, shards).iter().enumerate() {
                    let what = format!("seed {seed} {name} shard {shard} of {shards}");
                    flushed_round_trip(answer, &what);
                    with_messages += usize::from(!answer.output.messages.is_empty());
                }
            }
        }
    }
    assert!(with_messages > 12, "{with_messages} answers carry messages");
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
        if json.contains("\"log\":{\"messages\":[]") {
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
    let answer = flushed_round_trip(&shard_answers(&data, 2)[0], "shard 0 of 2");
    type Decode = fn(&[u8]) -> Result<(), CodecError>;
    let decoders: [(&str, &[u8], Decode); 3] = [
        ("checkpoint", &full, |b| decode_checkpoint(b).map(drop)),
        ("delta", &delta, |b| decode_delta(b).map(drop)),
        ("flushed", &answer, |b| decode_flushed(b).map(drop)),
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

/// Hold a decode's allocations to the value's `clone()` plus one
/// `Arc<str>` per distinct host and the dictionary's one table.
fn assert_decode_costs_clone_plus_hosts(what: &str, cloned: u64, decoded: u64, hosts: u64) {
    assert!(
        decoded <= cloned + hosts + 1,
        "{what}: decoding allocated {decoded}: clone {cloned} + {hosts} hosts + 1 dictionary table"
    );
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
    assert_decode_costs_clone_plus_hosts("checkpoint", cloned, decoded, hosts);
}

#[test]
fn decoding_a_flushed_answer_costs_its_clone_plus_one_per_host() {
    let data = run(&ScenarioParams::tiny(3));
    for (shard, answer) in shard_answers(&data, 2).iter().enumerate() {
        let mut rows = Vec::new();
        encode_flushed(answer, &mut rows).unwrap();
        let hosts: HashSet<&str> = answer.output.messages.iter().map(|m| &*m.host).collect();
        let hosts = hosts.len() as u64;
        assert!(hosts > 1, "shard {shard}: {hosts} hosts");

        let (cloned, copy) = allocations(|| answer.clone());
        let (decoded, back) = allocations(|| decode_flushed(&rows));
        let back = back.unwrap();
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&copy).unwrap()
        );
        assert_decode_costs_clone_plus_hosts(&format!("shard {shard}"), cloned, decoded, hosts);
    }
}

/// `head`, then a count of 2^32, then `over` zero bytes.
fn bomb(head: &[u8], over: usize) -> Vec<u8> {
    let mut p = head.to_vec();
    // 2^32 as a varint.
    p.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x10]);
    p.resize(p.len() + over, 0);
    p
}

/// Decode `payload` under the counting allocator: it must be refused for
/// its 2^32 count, having allocated at most `most` times.
fn assert_bomb_refused<T: std::fmt::Debug>(
    what: &str,
    most: u64,
    decode: impl FnOnce() -> Result<T, CodecError>,
) {
    let (count, result) = allocations(decode);
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

#[test]
fn a_count_no_input_could_back_allocates_nothing_on_its_word() {
    let data = run(&ScenarioParams::tiny(3));
    let mut fresh = Vec::new();
    encode_checkpoint(
        &StreamAnalysis::new(&data, AnalysisConfig::default()).checkpoint(),
        &mut fresh,
    );
    // A fresh engine's payload ends with a zero message count, 17 zero
    // scalars (resolve stats, IS and IP route stats; seven counters) and
    // a zero lane count.
    let tail = 1 + 17 + 1;
    assert!(fresh.ends_with(&[0; 19]));
    let messages = bomb(&fresh[..fresh.len() - tail], 10);
    let lanes = bomb(&fresh[..fresh.len() - 1], 10);
    // One lane (link 0, no dedup anchor), then its advertisement vector
    // over the bytes a lane needs at least.
    let mut lane = fresh[..fresh.len() - 1].to_vec();
    lane.extend_from_slice(&[1, 0, 0]);
    let vector = bomb(&lane, 48);
    for (what, payload, most) in [
        ("messages", messages, 0),
        ("lanes", lanes, 0),
        ("vector", vector, 1),
    ] {
        assert_bomb_refused(what, most, || decode_checkpoint(&payload).map(drop));
    }

    // An empty stream's answer: the report, then an output payload of 40
    // zero bytes — the empty dictionary, `messages` at the next byte, and
    // `matching` (its two pair counts) and `syslog_ingested` last.
    let empty = WorkerOutput {
        output: StreamAnalysis::new(&data, AnalysisConfig::default())
            .flush()
            .output,
        report: PipelineReport::default(),
    };
    let mut answer = Vec::new();
    encode_flushed(&empty, &mut answer).unwrap();
    assert!(answer.ends_with(&[0; 40]));
    let messages = bomb(&answer[..answer.len() - 39], 10);
    let matched = bomb(&answer[..answer.len() - 3], 10);
    for (what, payload) in [("answer messages", messages), ("answer matched", matched)] {
        assert_bomb_refused(what, 1, || decode_flushed(&payload).map(drop));
    }
}
