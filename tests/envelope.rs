//! One damage corpus for the durable users of the envelope.
//!
//! The shard frame, one journal record and a snapshot file share one
//! header (`faultline_core::envelope`: magic, version, length, FNV-1a,
//! kind). `tests/frame_codec.rs` sweeps truncations and bit flips over
//! frames; this file runs the same sweep over the two on-disk users,
//! through the public recovery entry point:
//!
//! 1. a three-record journal segment: every truncation point replays
//!    exactly the intact prefix and counts one torn tail; every
//!    single-bit flip replays exactly the records before the damaged one
//!    (or, in a version field, is `UnsupportedVersion`) — never a panic,
//!    never a wrong event;
//! 2. a full and a delta snapshot: every truncation and every bit flip
//!    of the header (envelope + chain block), seeded ones over the whole
//!    file, and seeded truncations of the codec row payload re-sealed
//!    under an honest envelope (so the row decoder, not the hash, must
//!    refuse them) are each a rejected checkpoint, and the run still
//!    resumes byte-identical from what survives;
//! 3. a file of an earlier format version — JSON text for all three
//!    kinds (version 1), a JSON snapshot payload behind today's
//!    envelope and chain block (version 2), a codec row whose lanes held
//!    their own finalized records (version 3), a checkpoint row whose
//!    configuration held the four settings that are now constants
//!    (version 5) — is rejected through the `UnsupportedVersion` rung,
//!    never misread.

use faultline_core::codec;
use faultline_core::recovery::{
    DurabilityPolicy, DurableStream, CHECKPOINT_VERSION, DELTA_VERSION,
};
use faultline_core::{
    scenario_event_stream, Analysis, AnalysisConfig, RecoveryError, StreamAnalysis, StreamEvent,
};
use faultline_sim::chaos::{frame_cut_seeded, frame_flip_seeded};
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_sim::ScenarioData;
use std::fs;
use std::path::{Path, PathBuf};

/// The envelope header, restated: magic(4) version(2) length(4) fnv(8)
/// kind(1).
const HEADER_LEN: usize = 19;

/// A snapshot payload's chain block: `seq`, `parent_seq`, `parent_fnv`.
const CHAIN_LEN: usize = 24;

/// The version field's bytes within a header.
const VERSION_AT: std::ops::Range<usize> = 4..6;

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("faultline-envelope-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    /// Replace the directory's contents with `files` (relative path,
    /// bytes).
    fn reset(&self, files: &[(PathBuf, Vec<u8>)]) {
        let _ = fs::remove_dir_all(&self.0);
        fs::create_dir_all(self.0.join("journal")).unwrap();
        for (name, bytes) in files {
            fs::write(self.0.join(name), bytes).unwrap();
        }
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Every file under `dir` (one level of subdirectory), relative paths.
fn snapshot_of(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    for sub in [PathBuf::new(), PathBuf::from("journal")] {
        for entry in fs::read_dir(dir.join(&sub)).unwrap().flatten() {
            if entry.path().is_file() {
                files.push((sub.join(entry.file_name()), fs::read(entry.path()).unwrap()));
            }
        }
    }
    files.sort();
    files
}

fn output_json(stream: StreamAnalysis<'_>) -> String {
    serde_json::to_string(&stream.flush().output).unwrap()
}

fn prefix_json(data: &ScenarioData, events: &[StreamEvent]) -> String {
    let mut stream = StreamAnalysis::new(data, AnalysisConfig::default());
    for e in events {
        stream.ingest(e);
    }
    output_json(stream)
}

/// Where each record of a journal segment ends, from its length fields.
fn record_ends(segment: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut at = 0;
    while at + HEADER_LEN <= segment.len() {
        let len = u32::from_le_bytes(segment[at + 6..at + 10].try_into().unwrap());
        at += HEADER_LEN + len as usize;
        ends.push(at);
    }
    ends
}

const JOURNAL_ONLY: DurabilityPolicy = DurabilityPolicy {
    checkpoint_interval: 0,
    segment_max_records: 1_000,
    retain_checkpoints: 2,
    full_every_n_checkpoints: 7,
    fsync_every_n_records: 0,
    retry: faultline_core::RetryPolicy {
        max_attempts: 1,
        backoff_base_ms: 0,
    },
};

#[test]
fn every_cut_and_flip_of_a_journal_segment_replays_exactly_the_intact_prefix() {
    let data = run(&ScenarioParams::tiny(21));
    let events = scenario_event_stream(&data);
    let tmp = TempDir::new("journal");
    {
        let mut durable =
            DurableStream::create(tmp.path(), &data, AnalysisConfig::default(), JOURNAL_ONLY)
                .unwrap();
        for e in &events[..3] {
            durable.ingest(e).unwrap();
        }
    }
    let name = PathBuf::from("journal/seg-000000000001.jl");
    let segment = fs::read(tmp.path().join(&name)).unwrap();
    let ends = record_ends(&segment);
    assert_eq!((ends.len(), ends[2]), (3, segment.len()));
    let prefixes: Vec<String> = (0..=3).map(|k| prefix_json(&data, &events[..k])).collect();

    let recover = |bytes: Vec<u8>| {
        tmp.reset(&[(name.clone(), bytes)]);
        DurableStream::recover(tmp.path(), &data, AnalysisConfig::default(), JOURNAL_ONLY).map(
            |(durable, report)| {
                let output = serde_json::to_string(&durable.finish().output).unwrap();
                (report, output)
            },
        )
    };

    for cut in 0..=segment.len() {
        let intact = ends.iter().filter(|&&end| end <= cut).count();
        let torn = u64::from(cut != 0 && !ends.contains(&cut));
        let (report, output) = recover(segment[..cut].to_vec())
            .unwrap_or_else(|e| panic!("cut at {cut}: a torn tail must recover: {e}"));
        assert_eq!(
            (report.events_replayed, report.journal_truncated_records),
            (intact as u64, torn),
            "cut at {cut}"
        );
        assert_eq!(output, prefixes[intact], "cut at {cut}");
    }

    for byte in 0..segment.len() {
        // The record the flipped byte belongs to, and where it starts.
        let record = ends.iter().filter(|&&end| end <= byte).count();
        let start = if record == 0 { 0 } else { ends[record - 1] };
        for bit in 0..8 {
            let mut flipped = segment.clone();
            flipped[byte] ^= 1 << bit;
            match recover(flipped) {
                Err(RecoveryError::UnsupportedVersion { expected: 2, .. })
                    if VERSION_AT.contains(&(byte - start)) => {}
                Ok((report, output)) if !VERSION_AT.contains(&(byte - start)) => {
                    assert_eq!(
                        (report.events_replayed, report.journal_truncated_records),
                        (record as u64, 1),
                        "bit {bit} of byte {byte}"
                    );
                    assert_eq!(output, prefixes[record], "bit {bit} of byte {byte}");
                }
                Err(e) => panic!("bit {bit} of byte {byte}: {e}"),
                Ok((report, _)) => panic!("bit {bit} of byte {byte}: recovered {report:?}"),
            }
        }
    }
}

/// A durable run with one full base and one delta chained to it, then a
/// journal tail; recovery from any damage to either snapshot must land
/// on what survives and finish byte-identical to batch.
#[test]
fn every_cut_and_flip_of_a_snapshot_header_is_a_rejected_checkpoint() {
    let data = run(&ScenarioParams::tiny(22));
    let config = AnalysisConfig::default();
    let events = scenario_event_stream(&data);
    let reference = serde_json::to_string(&Analysis::run(&data, config.clone()).output).unwrap();
    let (full_at, delta_at, kill_at) = (40, 80, 120);
    assert!(events.len() > kill_at);
    let tmp = TempDir::new("snapshots");
    {
        let mut durable =
            DurableStream::create(tmp.path(), &data, config.clone(), JOURNAL_ONLY).unwrap();
        for (i, e) in events[..kill_at].iter().enumerate() {
            durable.ingest(e).unwrap();
            if i + 1 == full_at || i + 1 == delta_at {
                durable.checkpoint_now().unwrap();
            }
        }
    }
    let pristine = snapshot_of(tmp.path());
    let full = PathBuf::from(format!("ckpt-{full_at:012}.ckpt"));
    let delta = PathBuf::from(format!("delta-{delta_at:012}.dckpt"));
    let names: Vec<_> = pristine.iter().map(|(n, _)| n.clone()).collect();
    assert!(names.contains(&full) && names.contains(&delta), "{names:?}");

    for (victim, rejected) in [(&full, 2), (&delta, 1)] {
        let bytes = &pristine.iter().find(|(n, _)| n == victim).unwrap().1;
        let header = HEADER_LEN + CHAIN_LEN;
        let mut damaged: Vec<(String, Vec<u8>)> = Vec::new();
        for cut in 0..header {
            damaged.push((format!("cut at {cut}"), bytes[..cut].to_vec()));
        }
        for byte in 0..header {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                damaged.push((format!("bit {bit} of byte {byte}"), flipped));
            }
        }
        let rows = &bytes[header..];
        for seed in 0..32u64 {
            let cut = frame_cut_seeded(seed, bytes.len()).unwrap();
            damaged.push((format!("seeded cut at {cut}"), bytes[..cut].to_vec()));
            let (byte, bit) = frame_flip_seeded(seed, bytes.len()).unwrap();
            let mut flipped = bytes.clone();
            flipped[byte] ^= 1 << bit;
            damaged.push((format!("seeded bit {bit} of byte {byte}"), flipped));
            let cut = frame_cut_seeded(seed, rows.len()).unwrap();
            let resealed = [&bytes[HEADER_LEN..header], &rows[..cut]].concat();
            let magic = bytes[..4].try_into().unwrap();
            let version = u16::from_le_bytes([bytes[4], bytes[5]]);
            damaged.push((
                format!("row payload cut at {cut}, resealed"),
                envelope(magic, version, bytes[18], &resealed),
            ));
        }
        for (what, bytes) in damaged {
            let files: Vec<_> = pristine
                .iter()
                .map(|(n, b)| {
                    (
                        n.clone(),
                        if n == victim {
                            bytes.clone()
                        } else {
                            b.clone()
                        },
                    )
                })
                .collect();
            tmp.reset(&files);
            let (mut durable, report) =
                DurableStream::recover(tmp.path(), &data, config.clone(), JOURNAL_ONLY)
                    .unwrap_or_else(|e| panic!("{}: {what}: {e}", victim.display()));
            assert_eq!(
                report.checkpoints_rejected,
                rejected,
                "{}: {what}: {:?}",
                victim.display(),
                report.rejected
            );
            assert_eq!(report.resumed_at_seq, kill_at as u64);
            if what.ends_with("resealed") {
                assert!(
                    report
                        .rejected
                        .iter()
                        .any(|r| r.contains("undecodable payload")),
                    "{}: {what}: {:?}",
                    victim.display(),
                    report.rejected
                );
            }
            for e in &events[kill_at..] {
                durable.ingest(e).unwrap();
            }
            assert_eq!(
                serde_json::to_string(&durable.finish().output).unwrap(),
                reference,
                "{}: {what}",
                victim.display()
            );
        }
    }
}

/// FNV-1a 64, restated for the forged and re-sealed files.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The envelope, restated: magic, version (u16 LE), payload length
/// (u32 LE), FNV-1a 64 of kind + payload (u64 LE), kind, payload.
fn envelope(magic: [u8; 4], version: u16, kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut hashed = vec![kind];
    hashed.extend_from_slice(payload);
    let mut out = magic.to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&hashed).to_le_bytes());
    out.extend_from_slice(&hashed);
    out
}

/// What the previous build wrote for a snapshot: a JSON header line, the
/// JSON payload, a newline.
fn version_1_snapshot(magic: &str, seq: u64, chain: &str, payload: &str) -> Vec<u8> {
    format!(
        "{{\"magic\":\"{magic}\",\"version\":1,\"seq\":{seq},{chain}\"payload_len\":{},\"payload_fnv\":\"{:016x}\"}}\n{payload}\n",
        payload.len(),
        fnv1a64(payload.as_bytes())
    )
    .into_bytes()
}

/// What version 2 wrote for a snapshot: today's envelope and chain block
/// (`seq`, `parent_seq`, `parent_fnv`), then the JSON payload.
fn version_2_snapshot(magic: [u8; 4], chain: [u64; 3], payload: &str) -> Vec<u8> {
    let chain = chain.map(u64::to_le_bytes).concat();
    envelope(magic, 2, 1, &[&chain[..], payload.as_bytes()].concat())
}

/// What version 3 or 4 wrote for a snapshot: today's envelope and chain
/// block around a codec row (given as hex) of that version's layout.
/// Version 3's lanes held their own finalized records; version 4's
/// stored values a restore derives (a merge's down count, a lane's link
/// id, multi-link status and segment end, the open-item count, and the
/// merge halves of the merge stats).
fn codec_snapshot(version: u16, magic: [u8; 4], chain: [u64; 3], row: &str) -> Vec<u8> {
    let chain = chain.map(u64::to_le_bytes).concat();
    let row: Vec<u8> = (0..row.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&row[i..i + 2], 16).unwrap())
        .collect();
    envelope(magic, version, 1, &[&chain[..], &row[..]].concat())
}

/// The zeroed resolve stats (4), IS and IP merge stats (5 + 5) and the
/// eight counters every version-3 and version-4 snapshot row carried.
const OLD_ZEROED_STATS: &str = "00000000000000000000000000000000000000000000";

/// The default configuration's row as checkpoint versions 3 to 5
/// encoded it.
const OLD_CONFIG: &str = concat!(
    "904e904e",             // match and dedup windows, 10 s each
    "c0cf24b0ea01",         // flap gap 600 s, flap pad 30 s
    "80b8992980979305904e", // long threshold 24 h, ticket slack 3 h, short FP 10 s
    "00",                   // strategy: previous state
    "0010",                 // threads 0 (auto), chunk size 16
    "00",                   // no quarantine horizon
);

/// A fresh engine's checkpoint row as versions 3 and 4 encoded it: the
/// log is one message count in version 3, twelve empty vectors in 4.
fn fresh_checkpoint_row(log: &str) -> String {
    [
        "00", // no hosts
        "00", // seq 0
        OLD_CONFIG,
        "00", // no watermark
        log,
        OLD_ZEROED_STATS,
        "00", // no lanes
    ]
    .concat()
}

/// `dir`'s one snapshot is refused for its version, `found`, where this
/// build reads version `reads` of that kind.
fn assert_rejected_as_version(found: u32, reads: u16, dir: &Path, data: &ScenarioData) {
    let (durable, report) =
        DurableStream::recover(dir, data, AnalysisConfig::default(), JOURNAL_ONLY).unwrap();
    assert_eq!(report.checkpoints_rejected, 1, "{:?}", report.rejected);
    assert!(
        report.rejected[0].contains(&format!(
            "format version {found} is not supported (this build reads {reads})"
        )),
        "{}",
        report.rejected[0]
    );
    assert!(report.started_fresh);
    assert_eq!(durable.events_ingested(), 0, "nothing was misread");
}

/// A fresh engine's checkpoint, as JSON — the payload versions 1 and 2
/// wrote.
fn empty_checkpoint_json(data: &ScenarioData) -> String {
    let ckpt = StreamAnalysis::new(data, AnalysisConfig::default()).checkpoint();
    serde_json::to_string(&ckpt).unwrap()
}

/// A delta over the first ten events of a fresh engine, as JSON.
fn ten_event_delta_json(data: &ScenarioData) -> String {
    let events = scenario_event_stream(data);
    let mut live = StreamAnalysis::new(data, AnalysisConfig::default());
    live.mark_clean();
    for e in &events[..10] {
        live.ingest(e);
    }
    serde_json::to_string(&live.checkpoint_delta()).unwrap()
}

#[test]
fn a_version_1_checkpoint_is_unsupported() {
    let data = run(&ScenarioParams::tiny(23));
    let tmp = TempDir::new("v1-ckpt");
    let payload = empty_checkpoint_json(&data);
    tmp.reset(&[(
        PathBuf::from("ckpt-000000000000.ckpt"),
        version_1_snapshot("faultline-checkpoint", 0, "", &payload),
    )]);
    assert_rejected_as_version(1, CHECKPOINT_VERSION, tmp.path(), &data);
}

#[test]
fn a_version_1_delta_is_unsupported() {
    let data = run(&ScenarioParams::tiny(24));
    let tmp = TempDir::new("v1-delta");
    let payload = ten_event_delta_json(&data);
    let chain = "\"parent_seq\":0,\"parent_fnv\":\"0000000000000000\",";
    tmp.reset(&[(
        PathBuf::from("delta-000000000010.dckpt"),
        version_1_snapshot("faultline-delta", 10, chain, &payload),
    )]);
    assert_rejected_as_version(1, DELTA_VERSION, tmp.path(), &data);
}

#[test]
fn a_version_2_checkpoint_is_unsupported() {
    let data = run(&ScenarioParams::tiny(23));
    let tmp = TempDir::new("v2-ckpt");
    let payload = empty_checkpoint_json(&data);
    tmp.reset(&[(
        PathBuf::from("ckpt-000000000000.ckpt"),
        version_2_snapshot(*b"FLCK", [0, 0, 0], &payload),
    )]);
    assert_rejected_as_version(2, CHECKPOINT_VERSION, tmp.path(), &data);
}

#[test]
fn a_version_2_delta_is_unsupported() {
    let data = run(&ScenarioParams::tiny(24));
    let tmp = TempDir::new("v2-delta");
    let payload = ten_event_delta_json(&data);
    tmp.reset(&[(
        PathBuf::from("delta-000000000010.dckpt"),
        version_2_snapshot(*b"FLDT", [10, 0, 0], &payload),
    )]);
    assert_rejected_as_version(2, DELTA_VERSION, tmp.path(), &data);
}

#[test]
fn a_version_3_checkpoint_is_unsupported() {
    let data = run(&ScenarioParams::tiny(23));
    let tmp = TempDir::new("v3-ckpt");
    let row = fresh_checkpoint_row("00");
    tmp.reset(&[(
        PathBuf::from("ckpt-000000000000.ckpt"),
        codec_snapshot(3, *b"FLCK", [0, 0, 0], &row),
    )]);
    assert_rejected_as_version(3, CHECKPOINT_VERSION, tmp.path(), &data);
}

#[test]
fn a_version_4_checkpoint_is_unsupported() {
    let data = run(&ScenarioParams::tiny(23));
    let tmp = TempDir::new("v4-ckpt");
    let row = fresh_checkpoint_row(&"00".repeat(12));
    tmp.reset(&[(
        PathBuf::from("ckpt-000000000000.ckpt"),
        codec_snapshot(4, *b"FLCK", [0, 0, 0], &row),
    )]);
    assert_rejected_as_version(4, CHECKPOINT_VERSION, tmp.path(), &data);
}

#[test]
fn a_version_5_checkpoint_is_unsupported() {
    // Version 5 was today's layout but for the configuration, which also
    // held four values that are now constants and the `parallelism` knob.
    let data = run(&ScenarioParams::tiny(23));
    let tmp = TempDir::new("v5-ckpt");
    let mut payload = Vec::new();
    codec::encode_checkpoint(
        &StreamAnalysis::new(&data, AnalysisConfig::default()).checkpoint(),
        &mut payload,
    );
    let today: String = payload.iter().map(|b| format!("{b:02x}")).collect();
    let head = concat!(
        "00",       // no hosts
        "00",       // seq 0
        "904e",     // match window 10 s
        "c0cf24",   // flap gap 600 s
        "80b89929", // long threshold 24 h
        "00",       // strategy: previous state
        "00",       // no quarantine horizon
    );
    let rest = today
        .strip_prefix(head)
        .expect("today's fresh checkpoint row");
    let row = ["0000", OLD_CONFIG, rest].concat();
    tmp.reset(&[(
        PathBuf::from("ckpt-000000000000.ckpt"),
        codec_snapshot(5, *b"FLCK", [0, 0, 0], &row),
    )]);
    assert_rejected_as_version(5, CHECKPOINT_VERSION, tmp.path(), &data);
}

#[test]
fn a_version_3_delta_is_unsupported() {
    let data = run(&ScenarioParams::tiny(24));
    let tmp = TempDir::new("v3-delta");
    // A fresh engine's empty delta as version 3 encoded it.
    let row = [
        "00", // no hosts
        "00", // seq 0
        "00", // parent seq 0
        "00", // no watermark
        "00", // messages base length 0
        "00", // no messages in the tail
        OLD_ZEROED_STATS,
        "00", // no lanes
    ]
    .concat();
    tmp.reset(&[(
        PathBuf::from("delta-000000000010.dckpt"),
        codec_snapshot(3, *b"FLDT", [10, 0, 0], &row),
    )]);
    assert_rejected_as_version(3, DELTA_VERSION, tmp.path(), &data);
}

#[test]
fn a_version_4_delta_is_unsupported() {
    let data = run(&ScenarioParams::tiny(24));
    let tmp = TempDir::new("v4-delta");
    // A fresh engine's empty delta as version 4 encoded it.
    let row = [
        "00",             // no hosts
        "00",             // seq 0
        "00",             // parent seq 0
        "00",             // no watermark
        &"00".repeat(12), // an empty log tail
        OLD_ZEROED_STATS,
        "00", // no lanes
    ]
    .concat();
    tmp.reset(&[(
        PathBuf::from("delta-000000000010.dckpt"),
        codec_snapshot(4, *b"FLDT", [10, 0, 0], &row),
    )]);
    assert_rejected_as_version(4, DELTA_VERSION, tmp.path(), &data);
}

#[test]
fn a_version_1_journal_is_unsupported() {
    let data = run(&ScenarioParams::tiny(9));
    let tmp = TempDir::new("v1-journal");
    // The first record the previous build journaled for this scenario.
    let record = "{\"seq\":1,\"fnv\":\"c29e8b8327f946d2\",\"event\":{\"Syslog\":{\"seq\":1,\"event\":{\"at\":43510756,\"host\":\"sdg-agg-01\",\"interface\":\"TenGigE0/0/0/0\",\"kind\":\"Link\",\"up\":false},\"os\":\"Ios\"}}}\n";
    tmp.reset(&[(
        PathBuf::from("journal/seg-000000000001.jl"),
        record.as_bytes().to_vec(),
    )]);
    match DurableStream::recover(tmp.path(), &data, AnalysisConfig::default(), JOURNAL_ONLY) {
        Err(RecoveryError::UnsupportedVersion {
            found: 1,
            expected: 2,
        }) => {}
        Err(e) => panic!("expected UnsupportedVersion, got {e}"),
        Ok((_, report)) => panic!("a version-1 journal was read: {report:?}"),
    }
}
