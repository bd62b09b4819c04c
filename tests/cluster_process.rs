//! Multi-process cluster harness: the same differential contracts the
//! in-process cluster carries (`tests/cluster_equivalence.rs`,
//! `tests/cluster_recovery.rs`), now with every worker a genuine
//! `faultline-shard-worker` subprocess speaking hashed frames over
//! stdio. Nothing about the contract softens across the process
//! boundary:
//!
//! 1. the merged subprocess-cluster output is byte-identical to the
//!    single-process batch answer across shard counts, seeds, and chaos
//!    presets;
//! 2. a deterministic worker abort and a real `SIGKILL` of a worker
//!    process both recover through the shard's own durable state, and
//!    the merged answer is still byte-identical;
//! 3. a dead worker on a *non-durable* cluster is a typed error, not a
//!    silent partial answer.

use faultline_core::cluster::{
    run_cluster, ClusterConfig, ClusterDurability, SubprocessOptions, Workers,
};
use faultline_core::linktable::from_scenario;
use faultline_core::recovery::DurabilityPolicy;
use faultline_core::transport::{ScenarioSpec, ShardTransport, SubprocessTransport, WorkerSpec};
use faultline_core::{scenario_event_stream, Analysis, AnalysisConfig, StreamAnalysis};
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_sim::{shard_kill_seeded, ChaosConfig, ShardKill};
use std::fs;
use std::path::{Path, PathBuf};

#[path = "support/displaced.rs"]
mod displaced;
#[path = "support/lane_rows.rs"]
mod lane_rows;

/// The worker binary under test — built by cargo alongside this harness.
fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_faultline-shard-worker"))
}

/// Self-cleaning scratch directory (no tempfile crate in this offline
/// workspace).
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("faultline-subproc-{}-{name}", std::process::id()));
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

fn tight_policy() -> DurabilityPolicy {
    DurabilityPolicy {
        checkpoint_interval: 7,
        segment_max_records: 16,
        retain_checkpoints: 2,
        ..DurabilityPolicy::default()
    }
}

/// Each worker materializes its own copy of the scenario from the same
/// seeded parameters the dispatcher used — nothing is shared but the
/// spec.
fn workers_for(params: &ScenarioParams) -> Workers {
    Workers::Subprocess(SubprocessOptions {
        worker_bin: worker_bin(),
        scenario: ScenarioSpec::Params(Box::new(params.clone())),
    })
}

fn durability(root: &Path, kills: &[ShardKill], hard_kills: &[ShardKill]) -> ClusterDurability {
    ClusterDurability {
        root: root.to_path_buf(),
        policy: tight_policy(),
        kills: kills.to_vec(),
        hard_kills: hard_kills.to_vec(),
    }
}

/// The pinned subprocess grid: shard counts × seeds × chaos presets,
/// every merged answer byte-identical to batch, with real frames on a
/// real wire (the transport ledger must show bytes moving).
#[test]
fn subprocess_grid_is_byte_identical_to_batch() {
    let config = AnalysisConfig::default();
    for seed in [11u64, 42] {
        for preset in ["clean", "mild"] {
            let mut params = ScenarioParams::tiny(seed);
            params.chaos = match preset {
                "mild" => ChaosConfig::mild(seed * 31),
                _ => ChaosConfig::default(),
            };
            let data = run(&params);
            let events = scenario_event_stream(&data);
            let expected = {
                let batch = Analysis::run(&data, config.clone());
                serde_json::to_string(&batch.output).unwrap()
            };
            for shards in [1u32, 2, 4, 7] {
                let cfg = ClusterConfig {
                    analysis: config.clone(),
                    chunk: 256,
                    workers: workers_for(&params),
                    ..ClusterConfig::new(shards)
                };
                let result = run_cluster(&data, &events, &cfg).expect("subprocess cluster run");
                assert_eq!(
                    expected,
                    serde_json::to_string(&result.output).unwrap(),
                    "subprocess cluster diverged from batch: seed {seed}, preset {preset}, {shards} shards"
                );
                let t = result.report.transport.expect("transport ledger present");
                assert_eq!(t.workers_spawned, u64::from(shards));
                assert_eq!(t.workers_killed, 0);
                assert!(t.frames_sent > 0 && t.frames_received > 0);
                assert!(
                    t.bytes_sent > 0 && t.bytes_received > 0,
                    "subprocess frames really serialize: {t:?}"
                );
            }
        }
    }
}

/// Lateness is the dispatcher's call across the process boundary too:
/// on a stream with eight displaced events, three subprocess workers
/// drop exactly what one engine drops, and the answers are
/// byte-identical.
#[test]
fn subprocess_cluster_judges_late_events_once() {
    let params = ScenarioParams::tiny(7);
    let data = run(&params);
    let events = displaced::displaced(&scenario_event_stream(&data));
    let mut engine = StreamAnalysis::new(&data, AnalysisConfig::default());
    engine.ingest_batch(&events);
    let single = engine.flush();
    let cfg = ClusterConfig {
        workers: workers_for(&params),
        ..ClusterConfig::new(3)
    };
    let result = run_cluster(&data, &events, &cfg).expect("subprocess cluster run");
    assert_eq!(
        result.report.streaming.as_ref().unwrap().late_events,
        single.report.streaming.as_ref().unwrap().late_events,
    );
    assert!(
        serde_json::to_string(&single.output).unwrap()
            == serde_json::to_string(&result.output).unwrap(),
        "the subprocess cluster's answer differs from one engine's"
    );
}

/// A deterministic worker abort (the subprocess applies exactly
/// `after_events` of its lane rows, then exits without flushing): the
/// supervisor respawns the process, recovery resumes at exactly the
/// kill boundary — journal-before-ingest holds across the process
/// boundary — and the merged answer is byte-identical to batch.
#[test]
fn aborted_subprocess_worker_recovers_byte_identical() {
    let params = ScenarioParams::tiny(42);
    let data = run(&params);
    let events = scenario_event_stream(&data);
    let expected = {
        let batch = Analysis::run(&data, AnalysisConfig::default());
        serde_json::to_string(&batch.output).unwrap()
    };
    let cfg = ClusterConfig {
        workers: workers_for(&params),
        ..ClusterConfig::new(4)
    };
    let table = from_scenario(&data);
    let shard_events = lane_rows::rows_per_shard(&table, &events, cfg.shards);
    let kill = shard_kill_seeded(42, &shard_events).expect("a killable shard");

    let tmp = TempDir::new("abort");
    let cfg = ClusterConfig {
        durability: Some(durability(tmp.path(), &[kill], &[])),
        ..cfg
    };
    let run_result = run_cluster(&data, &events, &cfg).expect("durable subprocess cluster");

    assert_eq!(
        expected,
        serde_json::to_string(&run_result.output).unwrap(),
        "post-recovery merged output diverged from batch"
    );
    assert_eq!(run_result.recoveries.len(), 1);
    assert_eq!(run_result.recoveries[0].shard, kill.shard);
    assert_eq!(
        run_result.recoveries[0].report.resumed_at_seq, kill.after_events,
        "journal-before-ingest: a worker abort loses nothing, even across a process boundary"
    );
    for (shard, &restores) in run_result.shard_restores.iter().enumerate() {
        let expected_restores = u64::from(shard as u32 == kill.shard);
        assert_eq!(restores, expected_restores, "shard {shard} restores");
    }
    let t = run_result.report.transport.expect("ledger");
    assert_eq!(t.worker_restarts, 1, "exactly the dead worker respawned");
}

/// A real `SIGKILL` of a worker process mid-run: the process gets no
/// chance to flush buffers or say goodbye, so recovery resumes at
/// whatever its shard directory durably holds (at most the kill
/// boundary) — and the merged answer is still byte-identical to batch.
#[test]
fn sigkilled_subprocess_worker_recovers_byte_identical() {
    let params = ScenarioParams::tiny(11);
    let data = run(&params);
    let events = scenario_event_stream(&data);
    let expected = {
        let batch = Analysis::run(&data, AnalysisConfig::default());
        serde_json::to_string(&batch.output).unwrap()
    };
    let cfg = ClusterConfig {
        chunk: 32,
        workers: workers_for(&params),
        ..ClusterConfig::new(3)
    };
    let table = from_scenario(&data);
    let shard_events = lane_rows::rows_per_shard(&table, &events, cfg.shards);
    let victim = (0..shard_events.len())
        .max_by_key(|&i| shard_events[i])
        .unwrap() as u32;
    let hard_kill = ShardKill {
        shard: victim,
        after_events: shard_events[victim as usize] / 2,
    };

    let tmp = TempDir::new("sigkill");
    let cfg = ClusterConfig {
        durability: Some(durability(tmp.path(), &[], &[hard_kill])),
        ..cfg
    };
    let run_result = run_cluster(&data, &events, &cfg)
        .expect("durable subprocess cluster with a SIGKILLed worker");

    assert_eq!(
        expected,
        serde_json::to_string(&run_result.output).unwrap(),
        "post-SIGKILL merged output diverged from batch"
    );
    assert_eq!(run_result.recoveries.len(), 1);
    assert_eq!(run_result.recoveries[0].shard, victim);
    assert!(
        run_result.recoveries[0].report.resumed_at_seq <= hard_kill.after_events,
        "a SIGKILLed worker resumes from its durable state, never past the kill"
    );
    assert_eq!(run_result.shard_restores[victim as usize], 1);
    let t = run_result.report.transport.expect("ledger");
    assert_eq!(t.workers_killed, 1);
    assert_eq!(t.worker_restarts, 1);
}

/// Worker death on a non-durable cluster: the transport reports the
/// loss as a typed worker-gone error (EOF on the pipe), never a hang or
/// a partial answer.
#[test]
fn dead_worker_on_a_nondurable_cluster_is_a_typed_error() {
    let params = ScenarioParams::tiny(7);
    let data = run(&params);
    let specs: Vec<WorkerSpec> = (0..2)
        .map(|shard| {
            WorkerSpec::new(
                shard,
                2,
                AnalysisConfig::default(),
                ScenarioSpec::Params(Box::new(params.clone())),
            )
        })
        .collect();
    let mut transport =
        SubprocessTransport::start(worker_bin(), &specs).expect("spawn subprocess workers");
    // Both workers come up and say Ready.
    for worker in 0..2 {
        let msg = transport.recv(worker).expect("ready frame");
        assert_eq!(msg.kind(), "ready");
    }
    // SIGKILL worker 0; the next receive must be a typed loss.
    transport.kill(0).expect("kill worker 0");
    let err = transport.recv(0).expect_err("a dead worker cannot answer");
    assert!(err.is_worker_loss(), "unexpected error class: {err}");
    assert_eq!(err.worker(), Some(0));
    // The surviving worker is unaffected.
    transport
        .send(1, faultline_core::ShardMsg::Flush)
        .expect("surviving worker still reachable");
    let msg = transport.recv(1).expect("surviving worker flushes");
    assert_eq!(msg.kind(), "flushed");
    drop(data);
}

/// A worker binary that does not exist is a spawn error, not a panic.
#[test]
fn missing_worker_binary_is_a_spawn_error() {
    let params = ScenarioParams::tiny(3);
    let data = run(&params);
    let events = scenario_event_stream(&data);
    let cfg = ClusterConfig {
        workers: Workers::Subprocess(SubprocessOptions {
            worker_bin: PathBuf::from("/nonexistent/faultline-shard-worker"),
            scenario: ScenarioSpec::Params(Box::new(params)),
        }),
        ..ClusterConfig::new(2)
    };
    match run_cluster(&data, &events, &cfg) {
        Ok(_) => panic!("spawning a missing binary must fail"),
        Err(err) => assert!(
            matches!(err, faultline_core::TransportError::Spawn { .. }),
            "unexpected error class: {err}"
        ),
    }
}
