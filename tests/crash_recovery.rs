//! Differential crash-recovery harness for the durable streaming engine.
//!
//! The contract under test (see `faultline-core::recovery`): kill a
//! durable streaming run at *any* event boundary, recover from whatever
//! the checkpoint directory holds, feed the rest of the stream, and the
//! flushed `StreamOutput` is **byte-identical** (as JSON) to a run that
//! never stopped. Corruption — a flipped byte in the newest checkpoint, a
//! torn checkpoint write, a journal segment cut mid-record — degrades to
//! the previous valid snapshot (or a typed error when nothing is
//! recoverable), never a panic.
//!
//! Structure:
//! - an exhaustive kill-at-every-boundary sweep (k = 1) over a stream
//!   prefix, recovering after every single event;
//! - a seeds × chaos-presets × thread-counts × kill-points sweep over
//!   full streams, compared against the batch pipeline;
//! - repeated crash/recover cycles: each restart compacts into the
//!   chain's next snapshot, and the chain never outgrows its bound;
//! - the corruption ladder: corrupt newest → fall back; torn newest +
//!   stray temp file → fall back; a hostile payload under an honest
//!   envelope → fall back; torn journal tail → replay good prefix;
//!   mid-journal damage → typed `CorruptJournal`;
//! - chaos-injected transient checkpoint-write failures: retries absorb
//!   them on the writer thread, an exhausted budget surfaces
//!   `RetriesExhausted`;
//! - the on-disk format pin: the snapshot envelopes, a journal record
//!   and the default cadence's file-name sequence, byte for byte.

use faultline_core::recovery::{DurabilityPolicy, DurableStream, RetryPolicy};
use faultline_core::{
    scenario_event_stream, Analysis, AnalysisConfig, RecoveryError, StreamAnalysis, StreamEvent,
};
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_sim::{crash_points_seeded, ChainFault, ChaosConfig, DurabilityChaos};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Self-cleaning scratch directory (no tempfile crate in this offline
/// workspace).
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("faultline-crash-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn chaotic(seed: u64, chaos: ChaosConfig) -> ScenarioParams {
    let mut params = ScenarioParams::tiny(seed);
    params.chaos = chaos;
    params
}

fn stream_json_over(
    data: &faultline_sim::ScenarioData,
    config: &AnalysisConfig,
    events: &[StreamEvent],
) -> String {
    let mut stream = StreamAnalysis::new(data, config.clone());
    for e in events {
        stream.ingest(e);
    }
    serde_json::to_string(&stream.flush().output).unwrap()
}

fn batch_json(data: &faultline_sim::ScenarioData, config: &AnalysisConfig) -> String {
    let batch = Analysis::run(data, config.clone());
    serde_json::to_string(&batch.output).unwrap()
}

/// Kill and recover at EVERY event boundary (k = 1): one chain of
/// `recover → ingest one event → drop` per event, so every boundary in
/// the prefix is a real crash point, then a final recover + flush. The
/// result must be byte-identical to an uninterrupted stream over the
/// same prefix.
#[test]
fn kill_at_every_event_boundary_recovers_byte_identical() {
    let data = run(&ScenarioParams::tiny(3));
    let config = AnalysisConfig::default();
    let events = scenario_event_stream(&data);
    let n = events.len().min(240);
    let reference = stream_json_over(&data, &config, &events[..n]);

    let tmp = TempDir::new("every-boundary");
    let policy = DurabilityPolicy {
        checkpoint_interval: 7,
        segment_max_records: 16,
        retain_checkpoints: 2,
        ..DurabilityPolicy::default()
    };
    for (i, event) in events[..n].iter().enumerate() {
        let (mut durable, report) =
            DurableStream::recover(tmp.path(), &data, config.clone(), policy)
                .unwrap_or_else(|e| panic!("recover before event {i}: {e}"));
        assert_eq!(
            report.resumed_at_seq, i as u64,
            "recovery must land exactly at the crash boundary"
        );
        assert_eq!(report.checkpoints_rejected, 0);
        durable.ingest(event).unwrap();
        drop(durable); // the crash: no finish(), no final checkpoint
    }
    let (durable, report) = DurableStream::recover(tmp.path(), &data, config, policy).unwrap();
    assert_eq!(report.resumed_at_seq, n as u64);
    let result = durable.finish();
    assert_eq!(reference, serde_json::to_string(&result.output).unwrap());
    let d = result.report.durability.expect("durability counters");
    assert_eq!(d.restores, 1, "counters describe the final process");
}

/// Seeds × chaos presets × seeded kill points, on full streams, against
/// the batch pipeline. (The `threads` in the name is historical: that
/// axis went when lane work became serial.)
#[test]
fn crash_sweep_seeds_chaos_threads_matches_batch() {
    for seed in [3u64, 5] {
        for (name, chaos) in [
            ("none", ChaosConfig::default()),
            ("mild", ChaosConfig::mild(seed * 31)),
            ("severe", ChaosConfig::severe(seed * 31)),
        ] {
            let data = run(&chaotic(seed, chaos));
            let config = AnalysisConfig::default();
            let reference = batch_json(&data, &config);
            let events = scenario_event_stream(&data);
            let policy = DurabilityPolicy {
                checkpoint_interval: 97,
                segment_max_records: 64,
                ..DurabilityPolicy::default()
            };
            for kill_at in crash_points_seeded(seed, events.len() as u64, 3) {
                let kill_at = kill_at as usize;
                let tmp = TempDir::new(&format!("sweep-{seed}-{name}-{kill_at}"));
                {
                    let mut durable =
                        DurableStream::create(tmp.path(), &data, config.clone(), policy).unwrap();
                    for e in &events[..kill_at] {
                        durable.ingest(e).unwrap();
                    }
                }
                let (mut durable, report) =
                    DurableStream::recover(tmp.path(), &data, config.clone(), policy).unwrap();
                assert_eq!(
                    report.resumed_at_seq, kill_at as u64,
                    "seed {seed} chaos {name} kill {kill_at}"
                );
                for e in &events[kill_at..] {
                    durable.ingest(e).unwrap();
                }
                let recovered = serde_json::to_string(&durable.finish().output).unwrap();
                assert_eq!(
                    reference, recovered,
                    "seed {seed} chaos {name} kill {kill_at}"
                );
            }
        }
    }
}

fn newest_checkpoint(dir: &Path) -> PathBuf {
    let mut ckpts: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .collect();
    ckpts.sort();
    ckpts.pop().expect("at least one checkpoint on disk")
}

/// Run a durable stream to `kill_at`, crash, and hand back the state
/// directory for sabotage.
fn run_to_kill(
    tmp: &TempDir,
    data: &faultline_sim::ScenarioData,
    config: &AnalysisConfig,
    policy: DurabilityPolicy,
    events: &[StreamEvent],
    kill_at: usize,
) {
    let mut durable = DurableStream::create(tmp.path(), data, config.clone(), policy).unwrap();
    for e in &events[..kill_at] {
        durable.ingest(e).unwrap();
    }
}

/// Snapshot compaction: a successful recovery folds the replayed journal
/// prefix into the chain's next snapshot at the resume point, so a
/// SECOND crash at the same boundary recovers straight from the
/// compacted dir — snapshot only, zero replay. Run as a cycle of
/// crash → recover → re-crash → re-feed a seeded stretch: the compaction
/// is a delta on the restored tip while the chain has room before its
/// next base and a full base once it has not, so repeated restarts never
/// grow the chain past the cadence's bound, and the finished output is
/// still byte-identical to batch.
#[test]
fn second_recovery_from_compacted_dir_is_byte_identical() {
    const CYCLES: usize = 8;
    let data = run(&ScenarioParams::tiny(11));
    let config = AnalysisConfig::default();
    let events = scenario_event_stream(&data);
    let reference = batch_json(&data, &config);
    let policy = DurabilityPolicy {
        checkpoint_interval: 60,
        segment_max_records: 32,
        full_every_n_checkpoints: 3,
        ..DurabilityPolicy::default()
    };
    let bound = policy.full_every_n_checkpoints;
    // Kill points off the cadence: the resumed run's next cadence
    // snapshot is `checkpoint_interval` after its compaction, so every
    // stretch ending off that grid leaves a journal tail to compact.
    let mut kills = Vec::new();
    let mut at = 0;
    for p in crash_points_seeded(23, events.len() as u64, 4 * CYCLES) {
        if kills.len() < CYCLES && (p - at) % policy.checkpoint_interval != 0 {
            kills.push(p as usize);
            at = p;
        }
    }
    assert_eq!(
        kills.len(),
        CYCLES,
        "the stream must hold {CYCLES} stretches"
    );
    let tmp = TempDir::new("compaction");
    let snapshot = |prefix: &str, seq: usize, ext: &str| {
        tmp.path()
            .join(format!("{prefix}-{seq:012}.{ext}"))
            .is_file()
    };
    run_to_kill(&tmp, &data, &config, policy, &events, kills[0]);

    let (mut deltas_seen, mut bound_seen) = (false, false);
    for (cycle, &kill_at) in kills.iter().enumerate() {
        // The recovery replays the journal tail and compacts it away.
        let (durable, first) =
            DurableStream::recover(tmp.path(), &data, config.clone(), policy).unwrap();
        assert!(first.events_replayed > 0, "kill point must leave a tail");
        assert!(first.compacted, "replayed prefix must be folded away");
        assert_eq!(first.resumed_at_seq, kill_at as u64, "cycle {cycle}");
        assert!(first.chain_length < bound, "cycle {cycle}: {first:?}");
        let delta = first.checkpoint_seq.is_some() && first.chain_length + 1 < bound;
        assert_eq!(snapshot("delta", kill_at, "dckpt"), delta, "cycle {cycle}");
        assert_eq!(snapshot("ckpt", kill_at, "ckpt"), !delta, "cycle {cycle}");
        deltas_seen |= delta;
        bound_seen |= first.checkpoint_seq.is_some() && !delta;
        drop(durable); // crash again immediately, before any new event

        // Second recovery: the compaction snapshot IS the resume point.
        let (mut durable, second) =
            DurableStream::recover(tmp.path(), &data, config.clone(), policy).unwrap();
        assert_eq!(second.checkpoint_seq, Some(kill_at as u64));
        assert_eq!(second.events_replayed, 0, "nothing left to re-replay");
        assert!(!second.compacted, "nothing replayed, nothing to compact");
        assert_eq!(second.resumed_at_seq, kill_at as u64);
        assert_eq!(second.checkpoints_rejected, 0, "{:?}", second.rejected);
        let chained = if delta { first.chain_length + 1 } else { 0 };
        assert_eq!(second.chain_length, chained, "cycle {cycle}");

        // Re-feed the next stretch, then crash; the last cycle finishes.
        let Some(&next) = kills.get(cycle + 1) else {
            for e in &events[kill_at..] {
                durable.ingest(e).unwrap();
            }
            assert_eq!(
                reference,
                serde_json::to_string(&durable.finish().output).unwrap()
            );
            break;
        };
        for e in &events[kill_at..next] {
            durable.ingest(e).unwrap();
        }
    }
    assert!(deltas_seen, "some restart must compact into a delta");
    assert!(bound_seen, "some restart must reach the chain's bound");
}

#[test]
fn corrupted_newest_checkpoint_falls_back_to_previous() {
    let data = run(&ScenarioParams::tiny(5));
    let config = AnalysisConfig::default();
    let events = scenario_event_stream(&data);
    let reference = stream_json_over(&data, &config, &events);
    let policy = DurabilityPolicy {
        checkpoint_interval: 50,
        segment_max_records: 32,
        retain_checkpoints: 3,
        // Full-only snapshots: this test's contract is the single-file
        // fallback (corrupt ONE base, reject ONE ladder entry). Chain
        // behaviour has its own tests below.
        full_every_n_checkpoints: 0,
        ..DurabilityPolicy::default()
    };
    let kill_at = events.len().min(180);
    let tmp = TempDir::new("corrupt-newest");
    run_to_kill(&tmp, &data, &config, policy, &events, kill_at);

    // Flip one byte in the middle of the newest checkpoint's payload.
    let victim = newest_checkpoint(tmp.path());
    let mut bytes = fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] = bytes[mid].wrapping_add(1);
    fs::write(&victim, &bytes).unwrap();

    let (mut durable, report) = DurableStream::recover(tmp.path(), &data, config, policy).unwrap();
    assert_eq!(report.checkpoints_rejected, 1, "{:?}", report.rejected);
    assert!(
        report.rejected[0].contains("hash mismatch")
            || report.rejected[0].contains("undecodable payload"),
        "rejection names the cause: {}",
        report.rejected[0]
    );
    let fallback_seq = report.checkpoint_seq.expect("older checkpoint restored");
    assert!(fallback_seq < kill_at as u64);
    assert_eq!(
        report.resumed_at_seq, kill_at as u64,
        "journal replay covers the gap the corrupt checkpoint left"
    );
    for e in &events[kill_at..] {
        durable.ingest(e).unwrap();
    }
    assert_eq!(
        reference,
        serde_json::to_string(&durable.finish().output).unwrap()
    );
}

fn varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A full checkpoint's payload up to its message count, restated from
/// the codec's snapshot layout: the host dictionary, `seq`, the default
/// `AnalysisConfig` (seven times in ms, previous-state strategy, threads
/// 0, chunk 16, no quarantine horizon) and no watermark.
fn checkpoint_head(hosts: &[&str], seq: u64) -> Vec<u8> {
    let mut p = Vec::new();
    varint(&mut p, hosts.len() as u64);
    for host in hosts {
        varint(&mut p, host.len() as u64);
        p.extend_from_slice(host.as_bytes());
    }
    varint(&mut p, seq);
    for ms in [
        10_000, 10_000, 600_000, 30_000, 86_400_000, 10_800_000, 10_000,
    ] {
        varint(&mut p, ms);
    }
    p.extend_from_slice(&[0, 0, 16, 0]);
    p.push(0);
    p
}

/// The same payload through its scalars: an empty answer log (its twelve
/// vectors, each a zero count), zeroed resolve stats, IS and IP route
/// stats and the seven counters — what precedes the lane count.
fn checkpoint_head_to_lanes(seq: u64) -> Vec<u8> {
    let mut p = checkpoint_head(&[], seq);
    p.extend_from_slice(&[0; 12]);
    p.extend_from_slice(&[0; 4 + 3 + 3 + 7]);
    p
}

/// Hash-valid snapshot payloads that lie in bytes no decoded value can
/// express, each under an honest envelope: a count no input could back
/// (messages and lanes, 2^32 items over 10 bytes; a vector inside a lane,
/// 2^32 items over the bytes one lane needs), a host index past the
/// dictionary, a bad enum byte, one trailing byte, and event counts whose
/// sum overflows. (What a decoded value can express, such as an event
/// count one past the sequence number, is the in-crate inert-field
/// sweep's, `cluster::sweep`.) Each is one
/// more rejected rung of the ladder — a count is refused before anything
/// is reserved on its word — and the run resumes byte-identical to batch
/// from the rung below.
#[test]
fn hostile_snapshot_payloads_are_rejected_checkpoints_not_an_abort() {
    let data = run(&ScenarioParams::tiny(5));
    let config = AnalysisConfig::default();
    let events = scenario_event_stream(&data);
    let reference = batch_json(&data, &config);
    let policy = sweep_policy();
    let kill_at = events.len().min(180);
    let seq: u64 = 150;
    let bomb = |mut head: Vec<u8>, over: usize| {
        varint(&mut head, 1 << 32);
        head.resize(head.len() + over, 0);
        head
    };
    // One lane — link 0, no dedup anchor — and then its IS merge's
    // advertisement vector; the lane count passes only if the bytes left
    // could hold one lane's shortest row (30).
    let mut lane = checkpoint_head_to_lanes(seq);
    lane.extend_from_slice(&[1, 0, 0]);
    // One message at 1 ms on link 0: the given direction byte, IS-IS
    // adjacency, host 0, no detail.
    let message = |hosts: &[&str], direction: u8| {
        let mut p = checkpoint_head(hosts, seq);
        p.extend_from_slice(&[1, 1, 0, direction, 0, 0, 0]);
        p
    };
    // A well-formed, empty checkpoint whose syslog and IS-IS event
    // counts are the given pair.
    let counted = |syslog: u64, isis: u64| {
        let mut p = checkpoint_head(&[], seq);
        p.extend_from_slice(&[0; 12 + 4 + 3 + 3]);
        varint(&mut p, syslog);
        varint(&mut p, isis);
        p.extend_from_slice(&[0; 5 + 1]);
        p
    };
    type Forge = Box<dyn FnOnce(&mut Vec<u8>)>;
    const OVERCOUNTED: &str = "more events counted than consumed";
    let replace = |row: Vec<u8>| -> Forge { Box::new(move |rows| *rows = row) };
    // (what the rejection says, how the rows after the chain block are
    // forged)
    let cases: Vec<(&str, Forge)> = vec![
        (
            "count claims 4294967296 items",
            replace(bomb(checkpoint_head(&[], seq), 10)),
        ),
        (
            "count claims 4294967296 items",
            replace(bomb(checkpoint_head_to_lanes(seq), 10)),
        ),
        ("count claims 4294967296 items", replace(bomb(lane, 30))),
        ("is past the 0-entry dictionary", replace(message(&[], 0))),
        (
            "invalid transition direction byte 0x07",
            replace(message(&["a"], 7)),
        ),
        (
            "1 trailing bytes after the last row",
            Box::new(|rows| rows.push(0)),
        ),
        (OVERCOUNTED, replace(counted(u64::MAX, 1))),
    ];
    for (i, (cause, forge)) in cases.into_iter().enumerate() {
        let tmp = TempDir::new(&format!("hostile-payload-{i}"));
        run_to_kill(&tmp, &data, &config, policy, &events, kill_at);
        let newest = newest_checkpoint(tmp.path());
        assert_eq!(chain_block(&newest)[0], seq, "case {i}");
        reseal(&newest, |payload| {
            let mut rows = payload.split_off(CHAIN_LEN);
            forge(&mut rows);
            payload.extend(rows);
        });

        let (mut durable, report) =
            DurableStream::recover(tmp.path(), &data, config.clone(), policy).unwrap();
        assert_eq!(
            report.checkpoints_rejected, 1,
            "case {i}: {:?}",
            report.rejected
        );
        let stage = match cause {
            OVERCOUNTED => "failed validation",
            _ => "undecodable payload",
        };
        assert!(
            report.rejected[0].contains(stage) && report.rejected[0].contains(cause),
            "case {i}: {}",
            report.rejected[0]
        );
        assert!(report.checkpoint_seq.is_some_and(|s| s < seq), "case {i}");
        assert_eq!(report.resumed_at_seq, kill_at as u64, "case {i}");
        for e in &events[kill_at..] {
            durable.ingest(e).unwrap();
        }
        assert_eq!(
            reference,
            serde_json::to_string(&durable.finish().output).unwrap(),
            "case {i}"
        );
    }
}

/// Full checkpoints every 50 events, journal segments of 32 records:
/// a kill at 180 leaves the newest checkpoint at 150 and older rungs
/// below it.
fn sweep_policy() -> DurabilityPolicy {
    DurabilityPolicy {
        checkpoint_interval: 50,
        segment_max_records: 32,
        retain_checkpoints: 3,
        full_every_n_checkpoints: 0,
        ..DurabilityPolicy::default()
    }
}

#[test]
fn torn_checkpoint_and_stray_tmp_fall_back_cleanly() {
    let data = run(&ScenarioParams::tiny(6));
    let config = AnalysisConfig::default();
    let events = scenario_event_stream(&data);
    let reference = stream_json_over(&data, &config, &events);
    let policy = DurabilityPolicy {
        checkpoint_interval: 40,
        segment_max_records: 32,
        retain_checkpoints: 3,
        // Full-only: see corrupted_newest_checkpoint above.
        full_every_n_checkpoints: 0,
        ..DurabilityPolicy::default()
    };
    let kill_at = events.len().min(150);
    let tmp = TempDir::new("torn-newest");
    run_to_kill(&tmp, &data, &config, policy, &events, kill_at);

    // Tear the newest checkpoint mid-payload and leave a half-written
    // temp file behind, as a crash inside the checkpoint writer would.
    let victim = newest_checkpoint(tmp.path());
    let bytes = fs::read(&victim).unwrap();
    fs::write(&victim, &bytes[..bytes.len() * 2 / 3]).unwrap();
    fs::write(tmp.path().join("ckpt-999999999999.ckpt.tmp"), b"{\"half\":").unwrap();

    let (mut durable, report) = DurableStream::recover(tmp.path(), &data, config, policy).unwrap();
    assert_eq!(report.checkpoints_rejected, 1, "{:?}", report.rejected);
    assert!(report.checkpoint_seq.is_some());
    assert_eq!(report.resumed_at_seq, kill_at as u64);
    assert!(
        !tmp.path().join("ckpt-999999999999.ckpt.tmp").exists(),
        "stray temp files are swept during recovery"
    );
    for e in &events[kill_at..] {
        durable.ingest(e).unwrap();
    }
    assert_eq!(
        reference,
        serde_json::to_string(&durable.finish().output).unwrap()
    );
}

#[test]
fn torn_journal_tail_recovers_good_prefix_and_resumes() {
    let data = run(&ScenarioParams::tiny(7));
    let config = AnalysisConfig::default();
    let events = scenario_event_stream(&data);
    let reference = stream_json_over(&data, &config, &events);
    let policy = DurabilityPolicy {
        checkpoint_interval: 0, // journal is the only durable state
        segment_max_records: 1_000_000,
        ..DurabilityPolicy::default()
    };
    let kill_at = events.len().min(120);
    let tmp = TempDir::new("torn-journal");
    run_to_kill(&tmp, &data, &config, policy, &events, kill_at);

    // Cut the single segment inside a record: drop that record's tail
    // and leave its head behind.
    let journal = tmp.path().join("journal");
    let seg = fs::read_dir(&journal)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .next()
        .expect("one journal segment");
    let bytes = fs::read(&seg).unwrap();
    let ends = record_ends(&bytes);
    assert_eq!((ends.len(), ends.last()), (kill_at, Some(&bytes.len())));
    let cut = bytes.len() - bytes.len() / 10;
    assert!(!ends.contains(&cut), "the cut must land inside a record");
    fs::write(&seg, &bytes[..cut]).unwrap();
    let whole_records = ends.iter().filter(|&&end| end <= cut).count();
    assert!(whole_records < kill_at, "the cut must tear real records");

    let (mut durable, report) =
        DurableStream::recover(tmp.path(), &data, config.clone(), policy).unwrap();
    assert!(report.started_fresh);
    assert_eq!(
        report.resumed_at_seq, whole_records as u64,
        "every intact record replays, the torn one is discarded"
    );
    assert_eq!(
        report.journal_truncated_records, 1,
        "one torn tail, counted once"
    );
    // Re-feed everything the tear lost, then the rest of the stream.
    for e in &events[whole_records..] {
        durable.ingest(e).unwrap();
    }
    let result = durable.finish();
    assert_eq!(reference, serde_json::to_string(&result.output).unwrap());
    // And the repaired-by-continuation journal recovers again cleanly.
    let (durable2, report2) = DurableStream::recover(tmp.path(), &data, config, policy).unwrap();
    assert_eq!(report2.resumed_at_seq, events.len() as u64);
    assert_eq!(
        reference,
        serde_json::to_string(&durable2.finish().output).unwrap()
    );
}

#[test]
fn mid_journal_damage_is_a_typed_error_not_a_panic() {
    let data = run(&ScenarioParams::tiny(8));
    let config = AnalysisConfig::default();
    let events = scenario_event_stream(&data);
    let policy = DurabilityPolicy {
        checkpoint_interval: 0,
        segment_max_records: 20, // force several segments
        ..DurabilityPolicy::default()
    };
    let kill_at = events.len().min(100);
    let tmp = TempDir::new("mid-journal");
    run_to_kill(&tmp, &data, &config, policy, &events, kill_at);

    // Damage record 2 in the FIRST segment (one payload byte); the later
    // segments cannot bridge the hole, so the journal is unrecoverable
    // and must say so.
    let first_seg = tmp.path().join("journal").join("seg-000000000001.jl");
    let mut bytes = fs::read(&first_seg).unwrap();
    let ends = record_ends(&bytes);
    assert!(ends.len() >= 3);
    bytes[ends[0] + HEADER_LEN + 1] ^= 0x20;
    fs::write(&first_seg, &bytes).unwrap();

    let err = match DurableStream::recover(tmp.path(), &data, config, policy) {
        Ok(_) => panic!("mid-journal damage must not recover silently"),
        Err(e) => e,
    };
    assert!(
        matches!(err, RecoveryError::CorruptJournal { seq: 2, .. }),
        "got: {err}"
    );
}

#[test]
fn chaos_injected_checkpoint_faults_are_retried_and_counted() {
    let data = run(&ScenarioParams::tiny(9));
    let config = AnalysisConfig::default();
    let events = scenario_event_stream(&data);
    let reference = stream_json_over(&data, &config, &events);
    let tmp = TempDir::new("flaky-disk");
    let policy = DurabilityPolicy {
        checkpoint_interval: 25,
        segment_max_records: 64,
        retry: RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 0, // keep the test fast; cadence is covered above
        },
        ..DurabilityPolicy::default()
    };
    let mut durable = DurableStream::create(tmp.path(), &data, config.clone(), policy).unwrap();
    let plan = Mutex::new(DurabilityChaos::flaky(13).plan());
    durable.set_fault_hook(Some(Arc::new(move |seq, attempt| {
        plan.lock().unwrap().should_fail(seq, attempt)
    })));
    for e in &events {
        durable.ingest(e).unwrap();
    }
    let result = durable.finish();
    assert_eq!(reference, serde_json::to_string(&result.output).unwrap());
    let d = result.report.durability.expect("durability counters");
    assert!(
        d.checkpoint_retries > 0,
        "the flaky preset must actually exercise the retry path"
    );
    assert!(d.checkpoints_written > 0);
    assert_eq!(
        d.snapshot_sync_fallbacks, 0,
        "the writer thread absorbed every streak: the hook did not move the run off the production path"
    );

    // With a budget of one attempt, the same flakiness is fatal — but
    // typed, and the state on disk stays recoverable. The writer thread
    // meets the failure first; the error surfaces from the inline write
    // the cadence falls back to, an event or more later.
    let tmp2 = TempDir::new("flaky-exhausted");
    let policy2 = DurabilityPolicy {
        checkpoint_interval: 1,
        retry: RetryPolicy {
            max_attempts: 1,
            backoff_base_ms: 0,
        },
        ..policy
    };
    let mut durable2 = DurableStream::create(tmp2.path(), &data, config.clone(), policy2).unwrap();
    durable2.set_fault_hook(Some(Arc::new(|_, _| true)));
    let err = (|| -> Result<(), RecoveryError> {
        for e in &events {
            durable2.ingest(e)?;
        }
        Ok(())
    })()
    .unwrap_err();
    assert!(
        matches!(err, RecoveryError::RetriesExhausted { attempts: 1, .. }),
        "got: {err}"
    );
    let journaled = durable2.events_ingested();
    assert!(durable2.counters().snapshot_sync_fallbacks > 0);
    drop(durable2);
    let (_durable3, report) = DurableStream::recover(tmp2.path(), &data, config, policy2).unwrap();
    assert!(report.started_fresh, "journal alone still rebuilds");
    assert_eq!(report.events_replayed, journaled);
}

// ---------------------------------------------------------------------
// Delta-chain durability (base + incremental snapshots)
// ---------------------------------------------------------------------

/// Snapshot files with the given extension, sorted ascending by name
/// (and therefore by sequence — names embed zero-padded sequences).
fn snapshot_files(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    files.sort();
    files
}

/// `[seq, parent_seq, parent_fnv]`: a snapshot file's chain block.
fn chain_block(path: &Path) -> [u64; 3] {
    let bytes = fs::read(path).unwrap();
    let block = &bytes[HEADER_LEN..HEADER_LEN + CHAIN_LEN];
    std::array::from_fn(|i| u64::from_le_bytes(block[8 * i..8 * i + 8].try_into().unwrap()))
}

/// Rewrite a snapshot file's payload (chain block + rows) in place and
/// re-seal its envelope, so the file is internally consistent again.
fn reseal(path: &Path, mutate: impl FnOnce(&mut Vec<u8>)) {
    let bytes = fs::read(path).unwrap();
    let mut payload = bytes[HEADER_LEN..].to_vec();
    mutate(&mut payload);
    let magic: [u8; 4] = bytes[..4].try_into().unwrap();
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    fs::write(path, envelope(magic, version, bytes[18], &payload)).unwrap();
}

/// A policy that writes short delta chains: a full base every 3rd
/// snapshot, 3 bases retained.
fn chain_policy() -> DurabilityPolicy {
    DurabilityPolicy {
        checkpoint_interval: 15,
        segment_max_records: 32,
        retain_checkpoints: 3,
        full_every_n_checkpoints: 3,
        ..DurabilityPolicy::default()
    }
}

/// Kill-and-recover sweep with delta chains ENABLED: seeded kill points
/// over full streams, off-thread snapshots on. Recovery must restore
/// through delta chains (not just bases) at least once across the
/// sweep, and every resumed run must finish byte-identical to batch.
#[test]
fn delta_chain_kill_sweep_recovers_byte_identical() {
    let mut max_chain_seen = 0u64;
    let mut deltas_seen = false;
    for seed in [3u64, 9] {
        let data = run(&ScenarioParams::tiny(seed));
        let config = AnalysisConfig::default();
        let reference = batch_json(&data, &config);
        let events = scenario_event_stream(&data);
        let policy = chain_policy();
        for kill_at in crash_points_seeded(seed * 7, events.len() as u64, 3) {
            let kill_at = kill_at as usize;
            let tmp = TempDir::new(&format!("delta-sweep-{seed}-{kill_at}"));
            run_to_kill(&tmp, &data, &config, policy, &events, kill_at);
            deltas_seen |= !snapshot_files(tmp.path(), "dckpt").is_empty();

            let (mut durable, report) =
                DurableStream::recover(tmp.path(), &data, config.clone(), policy).unwrap();
            assert_eq!(
                report.resumed_at_seq, kill_at as u64,
                "seed {seed} kill {kill_at}"
            );
            assert_eq!(report.checkpoints_rejected, 0, "{:?}", report.rejected);
            max_chain_seen = max_chain_seen.max(report.chain_length);
            for e in &events[kill_at..] {
                durable.ingest(e).unwrap();
            }
            let result = durable.finish();
            assert_eq!(
                reference,
                serde_json::to_string(&result.output).unwrap(),
                "seed {seed} kill {kill_at}"
            );
        }
    }
    assert!(deltas_seen, "the sweep must actually write delta files");
    assert!(
        max_chain_seen >= 1,
        "at least one recovery must walk a real delta chain"
    );
}

/// Prepare a sabotage scenario: run with `chain_policy` to a kill point
/// chosen so the newest snapshot on disk is a DELTA with at least one
/// retained base below it. Returns (data, config, reference, events,
/// kill_at).
fn chain_fixture(
    seed: u64,
) -> (
    faultline_sim::ScenarioData,
    AnalysisConfig,
    String,
    Vec<StreamEvent>,
) {
    let data = run(&ScenarioParams::tiny(seed));
    let config = AnalysisConfig::default();
    let events = scenario_event_stream(&data);
    let reference = stream_json_over(&data, &config, &events);
    (data, config, reference, events)
}

/// Every [`ChainFault`] — torn delta, missing base, reordered chain,
/// corrupt parent hash — degrades recovery to an older intact link or
/// base, with the damage counted in `checkpoints_rejected`, and the
/// resumed run still finishes byte-identical. Never a panic, never a
/// wrong answer.
#[test]
fn chain_faults_degrade_to_intact_links_byte_identical() {
    let (data, config, reference, events) = chain_fixture(5);
    let policy = chain_policy();
    // Land between snapshot boundaries so the newest snapshot is the
    // 12th (a delta under fulls-every-3rd: F D D F D D F D D F D D).
    let kill_at = (policy.checkpoint_interval as usize * 12 + 5).min(events.len());
    for fault in ChainFault::ALL {
        let tmp = TempDir::new(&format!("chain-fault-{fault:?}"));
        run_to_kill(&tmp, &data, &config, policy, &events, kill_at);
        let deltas = snapshot_files(tmp.path(), "dckpt");
        let bases = snapshot_files(tmp.path(), "ckpt");
        assert!(deltas.len() >= 2, "{fault:?}: fixture needs two deltas");
        assert!(bases.len() >= 2, "{fault:?}: fixture needs two bases");
        assert!(
            deltas.last() > bases.last(),
            "{fault:?}: the newest snapshot must be a delta"
        );

        match fault {
            ChainFault::TornDelta => {
                // Tear the newest delta mid-payload.
                let victim = deltas.last().unwrap();
                let bytes = fs::read(victim).unwrap();
                fs::write(victim, &bytes[..bytes.len() * 2 / 3]).unwrap();
            }
            ChainFault::MissingBase => {
                // Delete the newest base, orphaning every delta above it.
                fs::remove_file(bases.last().unwrap()).unwrap();
            }
            ChainFault::ReorderedChain => {
                // Swap the two newest delta files' contents wholesale:
                // every chain pointer now disagrees with the file it
                // lands on.
                let a = &deltas[deltas.len() - 2];
                let b = &deltas[deltas.len() - 1];
                let (ab, bb) = (fs::read(a).unwrap(), fs::read(b).unwrap());
                fs::write(a, bb).unwrap();
                fs::write(b, ab).unwrap();
            }
            ChainFault::CorruptParentHash => {
                // The newest delta lies about its parent hash, under an
                // honest envelope; both row payloads stay intact.
                reseal(deltas.last().unwrap(), |payload| {
                    payload[16..24].copy_from_slice(&0xdead_beef_dead_beef_u64.to_le_bytes());
                });
            }
        }

        let (durable, report) = DurableStream::recover(tmp.path(), &data, config.clone(), policy)
            .unwrap_or_else(|e| panic!("{fault:?} must degrade, not abort: {e}"));
        assert!(
            report.checkpoints_rejected >= 1,
            "{fault:?}: the damage must be detected: {:?}",
            report.rejected
        );
        assert_eq!(
            report.resumed_at_seq, kill_at as u64,
            "{fault:?}: journal replay covers whatever the fault cost"
        );
        drop(durable);

        // The first recovery compacted onto the tip the ladder fell back
        // to (a delta while that chain had room): a second crash restores
        // that snapshot with zero replay and no rejection.
        let (mut durable, again) =
            DurableStream::recover(tmp.path(), &data, config.clone(), policy).unwrap();
        assert_eq!(again.events_replayed, 0, "{fault:?}");
        assert_eq!(again.resumed_at_seq, kill_at as u64, "{fault:?}");
        assert_eq!(
            again.checkpoints_rejected, 0,
            "{fault:?}: {:?}",
            again.rejected
        );
        for e in &events[kill_at..] {
            durable.ingest(e).unwrap();
        }
        assert_eq!(
            reference,
            serde_json::to_string(&durable.finish().output).unwrap(),
            "{fault:?}"
        );
    }
}

/// Forward compatibility: a delta stamped with a FUTURE format version
/// sitting in an otherwise valid chain is skipped — recovery falls back
/// to an older link or base and replays the journal — rather than
/// aborting the whole recovery.
#[test]
fn future_version_delta_is_skipped_not_fatal() {
    let (data, config, reference, events) = chain_fixture(7);
    let policy = chain_policy();
    let kill_at = (policy.checkpoint_interval as usize * 12 + 5).min(events.len());
    let tmp = TempDir::new("future-delta");
    run_to_kill(&tmp, &data, &config, policy, &events, kill_at);
    let deltas = snapshot_files(tmp.path(), "dckpt");
    let victim = deltas.last().expect("fixture writes deltas");
    let mut bytes = fs::read(victim).unwrap();
    bytes[4..6].copy_from_slice(&99u16.to_le_bytes());
    fs::write(victim, bytes).unwrap();

    let (mut durable, report) = DurableStream::recover(tmp.path(), &data, config, policy)
        .expect("a future-version delta must not abort recovery");
    assert!(report.checkpoints_rejected >= 1);
    assert!(
        report.rejected.iter().any(|r| r.contains("version")),
        "the rejection names the version mismatch: {:?}",
        report.rejected
    );
    assert_eq!(report.resumed_at_seq, kill_at as u64);
    for e in &events[kill_at..] {
        durable.ingest(e).unwrap();
    }
    assert_eq!(
        reference,
        serde_json::to_string(&durable.finish().output).unwrap()
    );
}

/// Chain-aware pruning regression: with chains on, retention keeps the
/// newest N *chains*, so more files than `retain_checkpoints` survive —
/// and every delta still on disk can walk to a base that is also on
/// disk. Naive newest-N-files pruning would orphan deltas.
#[test]
fn pruning_never_orphans_a_retained_delta() {
    let (data, config, _reference, events) = chain_fixture(11);
    let policy = DurabilityPolicy {
        retain_checkpoints: 2,
        ..chain_policy()
    };
    let tmp = TempDir::new("chain-prune");
    let mut durable = DurableStream::create(tmp.path(), &data, config.clone(), policy).unwrap();
    for e in &events {
        durable.ingest(e).unwrap();
    }
    let result = durable.finish();
    drop(result);

    let deltas = snapshot_files(tmp.path(), "dckpt");
    let bases = snapshot_files(tmp.path(), "ckpt");
    assert!(!deltas.is_empty(), "retention must keep chained deltas");
    assert!(
        deltas.len() + bases.len() > policy.retain_checkpoints,
        "chains keep more files than a naive newest-N prune would"
    );
    assert!(
        bases.len() <= policy.retain_checkpoints,
        "retention still bounds the number of bases"
    );
    // Every retained delta's transitive parent chain ends at an on-disk
    // base: follow parent_seq pointers through the delta set.
    let delta_by_seq: std::collections::BTreeMap<u64, &PathBuf> =
        deltas.iter().map(|p| (chain_block(p)[0], p)).collect();
    let base_seqs: std::collections::BTreeSet<u64> =
        bases.iter().map(|p| chain_block(p)[0]).collect();
    for path in &deltas {
        let mut cur = chain_block(path)[1];
        let mut hops = 0;
        while !base_seqs.contains(&cur) {
            let parent = delta_by_seq
                .get(&cur)
                .unwrap_or_else(|| panic!("{} orphaned: no snapshot at seq {cur}", path.display()));
            cur = chain_block(parent)[1];
            hops += 1;
            assert!(hops <= deltas.len(), "parent walk must terminate");
        }
    }
    // And the pruned directory still recovers cleanly at end-of-stream.
    let (_durable, report) = DurableStream::recover(tmp.path(), &data, config, policy).unwrap();
    assert_eq!(report.resumed_at_seq, events.len() as u64);
    assert_eq!(report.checkpoints_rejected, 0, "{:?}", report.rejected);
}

// ---------------------------------------------------------------------
// Format pin
// ---------------------------------------------------------------------

/// FNV-1a 64, restated here so the pin does not lean on the code it pins.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The envelope every durable file wears, restated: magic, version
/// (u16 LE), payload length (u32 LE), FNV-1a 64 of kind + payload
/// (u64 LE), kind, payload.
const HEADER_LEN: usize = 19;

/// A snapshot payload's chain block: `seq`, `parent_seq`, `parent_fnv`.
const CHAIN_LEN: usize = 24;

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

/// Where each record of a journal segment ends, read from the length
/// fields alone.
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

/// The on-disk format, byte for byte: the snapshot envelopes (magic,
/// version, hash, chain block), one journal record, and the file-name
/// sequence the default cadence writes. A refactor of the writer must
/// leave this test alone; a format change re-blesses it on purpose.
#[test]
fn on_disk_format_is_pinned() {
    let data = run(&ScenarioParams::tiny(9));
    let events = scenario_event_stream(&data);
    // The default cadence, at an interval this scenario reaches 20
    // times, with retention wide enough that nothing is pruned.
    let policy = DurabilityPolicy {
        checkpoint_interval: 10,
        retain_checkpoints: 64,
        ..DurabilityPolicy::default()
    };
    assert!(events.len() >= 205);
    let tmp = TempDir::new("format-pin");
    let mut durable =
        DurableStream::create(tmp.path(), &data, AnalysisConfig::default(), policy).unwrap();
    for e in &events[..205] {
        durable.ingest(e).unwrap();
    }
    drop(durable.finish());

    // File names: six deltas per full base, zero-padded sequences.
    let mut names: Vec<String> = fs::read_dir(tmp.path())
        .unwrap()
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n != "journal")
        .collect();
    names.sort_by_key(|n| {
        n.trim_start_matches(|c: char| !c.is_ascii_digit())
            .to_string()
    });
    let expected: Vec<String> = (1..=20u64)
        .map(|i| match (i - 1) % 7 {
            0 => format!("ckpt-{:012}.ckpt", i * 10),
            _ => format!("delta-{:012}.dckpt", i * 10),
        })
        .collect();
    assert_eq!(names, expected);

    // A full base: envelope "FLCK" version 5, kind 1 (chain block + codec
    // payload), its chain block naming no parent, then the host
    // dictionary and the checkpoint row.
    let base = fs::read(tmp.path().join(&names[7])).unwrap();
    let base_payload = &base[HEADER_LEN + CHAIN_LEN..];
    let chain = [80u64, 0, 0].map(u64::to_le_bytes).concat();
    assert_eq!(
        base,
        envelope(*b"FLCK", 5, 1, &[&chain[..], base_payload].concat())
    );
    assert_eq!(&base[..6], b"FLCK\x05\x00");
    let (hosts, row) = dictionary(base_payload);
    assert_eq!(
        hosts,
        [
            "sdg-agg-01",
            "sac-agg-01",
            "cust000-gw1",
            "cust001-gw2",
            "oak-agg-01",
            "fre-agg-01",
            "tus-agg-01",
            "cust007-gw1",
            "lax-agg-01",
            "cust003-gw1",
        ],
        "each host once, in the order the messages first name them"
    );
    assert_eq!(
        hex(&row[..32]),
        [
            "50",                   // seq 80
            "904e904e",             // match and dedup windows, 10 s each
            "c0cf24b0ea01",         // flap gap 600 s, flap pad 30 s
            "80b8992980979305904e", // long threshold 24 h, ticket slack 3 h, short FP 10 s
            "00",                   // strategy: previous state
            "0010",                 // threads 0 (auto), chunk size 16
            "00",                   // no quarantine horizon
            "01b69d919b02",         // watermark: some, 593776310 ms
            "20",                   // the answer log: 32 resolved messages
        ]
        .concat()
    );
    let base_fnv = u64::from_le_bytes(base[10..18].try_into().unwrap());
    // The rest of the row, every byte of it, by its hash: reordering a
    // snapshot struct's fields (or changing any field's layout) moves it.
    assert_eq!(
        (base.len(), base_fnv),
        (1194, 0x5d57_c539_ac98_ffbf),
        "the base's size and envelope hash"
    );

    // The delta chained to it: "FLDT" version 5, parent pointer and the
    // parent's envelope hash in its chain block, its own dictionary.
    let delta = fs::read(tmp.path().join(&names[8])).unwrap();
    let delta_payload = &delta[HEADER_LEN + CHAIN_LEN..];
    let chain = [90u64, 80, base_fnv].map(u64::to_le_bytes).concat();
    assert_eq!(
        delta,
        envelope(*b"FLDT", 5, 1, &[&chain[..], delta_payload].concat())
    );
    let (hosts, row) = dictionary(delta_payload);
    assert_eq!(hosts, ["lax-agg-01", "cust007-gw1"]);
    assert_eq!(
        hex(&row[..9]),
        [
            "5a",           // seq 90
            "50",           // parent seq 80
            "01b5c6919b02", // watermark: some, 593781557 ms
            "04",           // the log's tail: 4 more resolved messages
        ]
        .concat()
    );
    assert_eq!(
        (
            delta.len(),
            u64::from_le_bytes(delta[10..18].try_into().unwrap())
        ),
        (236, 0x7030_e70c_f63b_fb5d),
        "the delta's size and envelope hash"
    );

    // The first journal record: envelope "FLJR" version 2, kind 1, around
    // seq 1 (varint) and the event's codec row — rebuilt from the event
    // and as a literal.
    let journal = fs::read(tmp.path().join("journal/seg-000000000001.jl")).unwrap();
    let first = &journal[..record_ends(&journal)[0]];
    let mut row = vec![1u8];
    faultline_core::codec::encode_event(&events[0], &mut row);
    assert_eq!(first, envelope(*b"FLJR", 2, 1, &row));
    assert_eq!(
        hex(first),
        [
            "464c4a52",                       // magic "FLJR"
            "0200",                           // version 2
            "24000000",                       // payload: 36 bytes
            "680c406f438497b7",               // FNV-1a 64 of kind + payload
            "01",                             // kind: one record
            "01",                             // seq 1
            "01",                             // syslog event
            "01e4d7df14",                     // router seq 1, at 43510756 ms
            "0a7364672d6167672d3031",         // host "sdg-agg-01"
            "0e54656e47696745302f302f302f30", // interface "TenGigE0/0/0/0"
            "010000",                         // %LINK-3-UPDOWN, down, IOS
        ]
        .concat()
    );
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A snapshot payload's host dictionary, restated — `count:varint`, then
/// each host as `len:varint utf8` (all lengths here fit one byte) — and
/// the row after it.
fn dictionary(payload: &[u8]) -> (Vec<String>, &[u8]) {
    let (&count, mut rest) = payload.split_first().unwrap();
    let mut hosts = Vec::new();
    for _ in 0..count {
        let (&len, tail) = rest.split_first().unwrap();
        let (host, tail) = tail.split_at(usize::from(len));
        hosts.push(String::from_utf8(host.to_vec()).unwrap());
        rest = tail;
    }
    (hosts, rest)
}
