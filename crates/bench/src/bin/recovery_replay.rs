//! Crash-recovery benchmark: run the paper-scale scenario through
//! [`faultline_core::DurableStream`], measure checkpoint size and write
//! latency along an uninterrupted run, then kill the run at several
//! points and measure how long recovery (checkpoint load, journal replay
//! and the compaction checkpoint) takes — proving every resumed run
//! byte-identical to the batch pipeline. Datapoints land in
//! `results/BENCH_recovery.json`.
//!
//! ```sh
//! cargo run --release --bin recovery_replay
//! ```
//!
//! Three experiment arms share one simulated dataset:
//!
//! 1. **Checkpoint cost curve** — an uninterrupted durable run that
//!    checkpoints manually every `CKPT_EVERY` events, recording each
//!    snapshot file's size and wall-clock write latency;
//! 2. **Recovery-time curve** — independent runs killed (dropped
//!    without flush) at 10/30/50/70/90% of the stream under the
//!    automatic checkpoint cadence, then recovered; each datapoint
//!    records which checkpoint the supervisor landed on, how many
//!    journal records it replayed, and the end-to-end recovery time
//!    (`RecoveryReport::recover_micros`, which includes the compaction
//!    checkpoint written after a replay; baselines recorded before it
//!    did left that write out);
//! 3. **Fsync cost curve** — uninterrupted runs with checkpoints off
//!    and the journal's group-commit cadence
//!    (`DurabilityPolicy::fsync_every_n_records`) swept from never to
//!    every 64 records, isolating what journal durability costs per
//!    ingested event;
//! 4. **Delta-vs-full cost curve** — the same killed-at-90% run under
//!    (a) a full-only snapshot policy and (b) the default base+delta
//!    chain policy, both on the writer thread, recording snapshot
//!    bytes, ingest-stall time, and recovery time for each.
//!    The headline `delta_size_ratio` (average full bytes / average
//!    delta bytes) is asserted ≥ 5 and gated against the committed
//!    baseline in CI.

use std::path::{Path, PathBuf};

use faultline_bench::{analyze_with, paper_event_workload, write_bench_json};
use faultline_core::{AnalysisConfig, DurabilityPolicy, DurableStream, StreamEvent};
use faultline_sim::scenario::ScenarioData;
use serde_json::json;

/// Manual checkpoint cadence for the cost-curve arm.
const CKPT_EVERY: u64 = 25_000;
/// Automatic cadence for the kill/recover arm.
const AUTO_INTERVAL: u64 = 25_000;
/// Stream fractions at which the kill/recover arm drops the run.
const KILL_FRACTIONS: [f64; 5] = [0.10, 0.30, 0.50, 0.70, 0.90];
/// Group-commit cadences for the fsync-cost arm (`0` = never fsync,
/// the default policy).
const FSYNC_CADENCES: [u64; 4] = [0, 1024, 256, 64];
/// Cadence for the delta-vs-full arm. Tighter than `AUTO_INTERVAL` on
/// purpose: delta snapshots earn their keep when checkpoints are
/// frequent relative to stream growth — the regime the chain policy
/// exists for — while a full snapshot always re-serializes the whole
/// accumulated state regardless of cadence.
const DELTA_CURVE_INTERVAL: u64 = 5_000;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "faultline-bench-recovery-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn main() {
    let (data, events) = paper_event_workload();

    let batch = analyze_with(&data, AnalysisConfig::default());
    let batch_json = serde_json::to_string(&batch.output).expect("serialize batch output");

    let policy = DurabilityPolicy {
        checkpoint_interval: AUTO_INTERVAL,
        ..DurabilityPolicy::default()
    };

    let checkpoints = checkpoint_cost_curve(&data, &events, &batch_json);
    let recovery_curve: Vec<serde_json::Value> = KILL_FRACTIONS
        .iter()
        .map(|&f| kill_and_recover(&data, &events, &batch_json, policy, f))
        .collect();
    println!("all recovered replays byte-identical to batch ✓");
    let fsync_curve = fsync_cost_curve(&data, &events, &batch_json);
    let delta_curve = delta_vs_full_cost_curve(&data, &events, &batch_json);
    let headline = headline_from(&delta_curve, events.len());

    let doc = json!({
        "bench": "recovery_replay",
        "scenario": "paper_389d",
        "seed": 42,
        "events": (events.len()),
        "policy": (serde_json::to_value(&policy).expect("policy json")),
        "checkpoint_every": (CKPT_EVERY),
        "headline": (headline),
        "checkpoints": (checkpoints),
        "recovery_curve": (recovery_curve),
        "fsync_cost_curve": (fsync_curve),
        "delta_vs_full_cost_curve": (delta_curve),
    });
    write_bench_json("results/BENCH_recovery.json", &doc);
}

/// The gated summary: how much smaller a delta snapshot is than a full
/// one under the chain policy, and what snapshotting stalls ingest by,
/// per event, under each policy.
fn headline_from(delta_curve: &[serde_json::Value], events: usize) -> serde_json::Value {
    let point = |name: &str| -> &serde_json::Value {
        delta_curve
            .iter()
            .find(|p| p["policy"].as_str() == Some(name))
            .unwrap_or_else(|| panic!("missing {name} datapoint"))
    };
    let delta = point("delta_chain");
    let full = point("full_only");
    let avg_full = delta["avg_full_bytes"].as_f64().expect("avg_full_bytes");
    let avg_delta = delta["avg_delta_bytes"].as_f64().expect("avg_delta_bytes");
    let ratio = avg_full / avg_delta.max(1.0);
    assert!(
        ratio >= 5.0,
        "delta snapshots must be at least 5x smaller than fulls at paper \
         scale (got {ratio:.2}: full {avg_full:.0} B vs delta {avg_delta:.0} B)"
    );
    let stall = |p: &serde_json::Value| {
        p["ingest_stall_micros"].as_u64().expect("stall") as f64 / events as f64
    };
    println!(
        "headline: delta {avg_delta:.0} B vs full {avg_full:.0} B ({ratio:.1}x smaller), \
         ingest stall {:.3} µs/event (full-only policy: {:.3})",
        stall(delta),
        stall(full),
    );
    json!({
        "delta_size_ratio": (ratio),
        "avg_full_bytes": (avg_full),
        "avg_delta_bytes": (avg_delta),
        "delta_ingest_stall_micros_per_event": (stall(delta)),
        "full_only_ingest_stall_micros_per_event": (stall(full)),
    })
}

/// Arm 1: uninterrupted durable run with manual checkpoints, recording
/// each snapshot's size and write latency plus the run's durability
/// counters.
fn checkpoint_cost_curve(
    data: &ScenarioData,
    events: &[StreamEvent],
    batch_json: &str,
) -> Vec<serde_json::Value> {
    let dir = scratch_dir("cost");
    let manual = DurabilityPolicy {
        checkpoint_interval: 0, // checkpoint only when we say so
        ..DurabilityPolicy::default()
    };
    let mut stream =
        DurableStream::create(&dir, data, AnalysisConfig::default(), manual).expect("create");

    let mut points: Vec<serde_json::Value> = Vec::new();
    for event in events {
        stream.ingest(event).expect("journaled ingest");
        let seq = stream.events_ingested();
        if seq.is_multiple_of(CKPT_EVERY) {
            let t0 = std::time::Instant::now();
            stream.checkpoint_now().expect("manual checkpoint");
            let micros = t0.elapsed().as_micros() as u64;
            let bytes = stream.counters().checkpoint_bytes_last;
            println!("checkpoint @ {seq}: {bytes} bytes in {micros} µs");
            points.push(json!({
                "seq": (seq),
                "bytes": (bytes),
                "write_micros": (micros),
            }));
        }
    }
    let counters = stream.counters();
    let result = stream.finish();
    let replay_json = serde_json::to_string(&result.output).expect("serialize stream output");
    assert_eq!(
        batch_json, replay_json,
        "uninterrupted durable run diverged from the batch pipeline"
    );
    println!(
        "uninterrupted: {} checkpoints, {} journal records across {} segments ({} bytes)",
        counters.checkpoints_written,
        counters.journal_records,
        counters.journal_segments,
        counters.journal_bytes,
    );
    cleanup(&dir);
    points
}

/// Arm 2: feed `fraction` of the stream under the automatic cadence,
/// drop the run on the floor, recover, finish the stream, and prove the
/// result byte-identical to batch.
fn kill_and_recover(
    data: &ScenarioData,
    events: &[StreamEvent],
    batch_json: &str,
    policy: DurabilityPolicy,
    fraction: f64,
) -> serde_json::Value {
    let kill_at = ((events.len() as f64 * fraction) as usize).max(1);
    let dir = scratch_dir(&format!("kill-{}", (fraction * 100.0) as u32));

    let mut stream =
        DurableStream::create(&dir, data, AnalysisConfig::default(), policy).expect("create");
    for event in &events[..kill_at] {
        stream.ingest(event).expect("journaled ingest");
    }
    drop(stream); // the "kill": no flush, no final checkpoint

    let (mut stream, report) =
        DurableStream::recover(&dir, data, AnalysisConfig::default(), policy).expect("recover");
    assert_eq!(
        report.resumed_at_seq, kill_at as u64,
        "recovery must resume exactly where the run was killed"
    );
    for event in &events[kill_at..] {
        stream.ingest(event).expect("journaled ingest");
    }
    let result = stream.finish();
    let replay_json = serde_json::to_string(&result.output).expect("serialize stream output");
    assert_eq!(
        batch_json, replay_json,
        "run killed at {kill_at} diverged from the batch pipeline after recovery"
    );
    println!(
        "kill @ {kill_at} ({:.0}%): checkpoint seq {:?}, {} replayed, recovered in {} µs",
        fraction * 100.0,
        report.checkpoint_seq,
        report.events_replayed,
        report.recover_micros,
    );
    cleanup(&dir);
    json!({
        "kill_at": (kill_at),
        "checkpoint_seq": (serde_json::to_value(&report.checkpoint_seq).expect("seq json")),
        "events_replayed": (report.events_replayed),
        "journal_truncated_records": (report.journal_truncated_records),
        "recover_micros": (report.recover_micros),
    })
}

/// Arm 3: uninterrupted durable runs with checkpoints off, sweeping the
/// journal's group-commit cadence. With both runs journaling the same
/// bytes, the ingest-time difference against cadence 0 is exactly the
/// price of the fsync policy.
fn fsync_cost_curve(
    data: &ScenarioData,
    events: &[StreamEvent],
    batch_json: &str,
) -> Vec<serde_json::Value> {
    let mut baseline_micros = 0u64;
    let mut points: Vec<serde_json::Value> = Vec::new();
    for cadence in FSYNC_CADENCES {
        let dir = scratch_dir(&format!("fsync-{cadence}"));
        let policy = DurabilityPolicy {
            checkpoint_interval: 0,
            fsync_every_n_records: cadence,
            ..DurabilityPolicy::default()
        };
        let mut stream =
            DurableStream::create(&dir, data, AnalysisConfig::default(), policy).expect("create");
        let t0 = std::time::Instant::now();
        for event in events {
            stream.ingest(event).expect("journaled ingest");
        }
        let ingest_micros = t0.elapsed().as_micros() as u64;
        let result = stream.finish();
        let counters = result.report.durability.expect("durability counters");
        let replay_json = serde_json::to_string(&result.output).expect("serialize stream output");
        assert_eq!(
            batch_json, replay_json,
            "fsync cadence {cadence} changed the analysis output"
        );
        if cadence == 0 {
            baseline_micros = ingest_micros;
        }
        let slowdown = ingest_micros as f64 / baseline_micros.max(1) as f64;
        println!(
            "fsync every {cadence}: {} fsyncs, ingest {:.1} ms ({:.2}x vs no-fsync)",
            counters.journal_fsyncs,
            ingest_micros as f64 / 1e3,
            slowdown,
        );
        cleanup(&dir);
        points.push(json!({
            "fsync_every_n_records": (cadence),
            "journal_fsyncs": (counters.journal_fsyncs),
            "ingest_micros": (ingest_micros),
            "events_per_sec": (events.len() as f64 / (ingest_micros.max(1) as f64 / 1e6)),
            "slowdown_vs_no_fsync": (slowdown),
        }));
    }
    points
}

/// Arm 4: one kill-at-90% run per snapshot policy — every snapshot a
/// full base vs the default base+delta chain, both written by the
/// writer thread — recording what each policy pays while ingesting
/// (snapshot bytes, ingest-stall time) and at recovery (chain walked,
/// recovery wall time). Both runs must still finish byte-identical to
/// batch.
fn delta_vs_full_cost_curve(
    data: &ScenarioData,
    events: &[StreamEvent],
    batch_json: &str,
) -> Vec<serde_json::Value> {
    let kill_at = (events.len() * 9 / 10).max(1);
    let variants = [
        (
            "full_only",
            DurabilityPolicy {
                checkpoint_interval: DELTA_CURVE_INTERVAL,
                full_every_n_checkpoints: 0,
                ..DurabilityPolicy::default()
            },
        ),
        (
            "delta_chain",
            DurabilityPolicy {
                checkpoint_interval: DELTA_CURVE_INTERVAL,
                ..DurabilityPolicy::default()
            },
        ),
    ];
    let mut points: Vec<serde_json::Value> = Vec::new();
    for (name, policy) in variants {
        let dir = scratch_dir(&format!("curve-{name}"));
        let mut stream =
            DurableStream::create(&dir, data, AnalysisConfig::default(), policy).expect("create");
        let t0 = std::time::Instant::now();
        for event in &events[..kill_at] {
            stream.ingest(event).expect("journaled ingest");
        }
        let ingest_micros = t0.elapsed().as_micros() as u64;
        // Counters as observed at the kill (offloaded writes still in
        // flight — at most the queue depth — are not yet folded in).
        let c = stream.counters();
        drop(stream); // the "kill"

        let t1 = std::time::Instant::now();
        let (mut stream, report) =
            DurableStream::recover(&dir, data, AnalysisConfig::default(), policy).expect("recover");
        let recover_micros = t1.elapsed().as_micros() as u64;
        assert_eq!(report.resumed_at_seq, kill_at as u64);
        for event in &events[kill_at..] {
            stream.ingest(event).expect("journaled ingest");
        }
        let result = stream.finish();
        let replay_json = serde_json::to_string(&result.output).expect("serialize stream output");
        assert_eq!(
            batch_json, replay_json,
            "{name} policy diverged from the batch pipeline after recovery"
        );
        let fulls = c.checkpoints_written - c.deltas_written;
        let avg_full = c.full_bytes_total as f64 / fulls.max(1) as f64;
        let avg_delta = c.delta_bytes_total as f64 / c.deltas_written.max(1) as f64;
        println!(
            "{name}: {} snapshots ({} deltas), avg full {avg_full:.0} B, avg delta \
             {avg_delta:.0} B, stall {:.1} ms, chain {} at recovery in {:.1} ms",
            c.checkpoints_written,
            c.deltas_written,
            c.ingest_stall_micros as f64 / 1e3,
            report.chain_length,
            recover_micros as f64 / 1e3,
        );
        cleanup(&dir);
        points.push(json!({
            "policy": (name),
            "kill_at": (kill_at),
            "checkpoints_written": (c.checkpoints_written),
            "deltas_written": (c.deltas_written),
            "avg_full_bytes": (avg_full),
            "avg_delta_bytes": (avg_delta),
            "checkpoint_micros_max": (c.checkpoint_write_micros_max),
            "ingest_micros": (ingest_micros),
            "ingest_stall_micros": (c.ingest_stall_micros),
            "snapshot_thread_stalls": (c.snapshot_thread_stalls),
            "snapshot_sync_fallbacks": (c.snapshot_sync_fallbacks),
            "chain_length_at_recovery": (report.chain_length),
            "events_replayed": (report.events_replayed),
            "recover_micros": (recover_micros),
        }));
    }
    points
}

fn cleanup(dir: &Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        eprintln!("could not clean {}: {e}", dir.display());
    }
}
