//! Shard-crash recovery harness for the sharded cluster runtime.
//!
//! The contract (see `faultline-core::cluster`): kill one shard of a
//! durable cluster at an arbitrary event boundary, let the supervisor
//! recover it independently through the ordinary `DurableStream::recover`
//! ladder (its own `shard-{i}/` checkpoints + journal), and the final
//! merged report is **byte-identical** to both a healthy cluster run and
//! the single-process batch answer. Healthy shards are never restarted:
//! their durability counters report zero restores and their engines are
//! never rebuilt.

use faultline_core::cluster::{run_cluster, shard_dir, ClusterConfig, ClusterDurability};
use faultline_core::linktable::from_scenario;
use faultline_core::recovery::DurabilityPolicy;
use faultline_core::{scenario_event_stream, Analysis, AnalysisConfig};
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_sim::{crash_points_seeded, shard_kill_seeded, ChaosConfig, ShardKill};
use std::fs;
use std::path::{Path, PathBuf};

#[path = "support/lane_rows.rs"]
mod lane_rows;

/// Self-cleaning scratch directory (no tempfile crate in this offline
/// workspace).
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("faultline-cluster-{}-{name}", std::process::id()));
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

/// `cfg` made durable under `root`, with these in-worker aborts.
fn durable_cfg(cfg: &ClusterConfig, root: &Path, kills: &[ShardKill]) -> ClusterConfig {
    ClusterConfig {
        durability: Some(ClusterDurability {
            root: root.to_path_buf(),
            policy: tight_policy(),
            kills: kills.to_vec(),
            hard_kills: Vec::new(),
        }),
        ..cfg.clone()
    }
}

/// Kill one seeded shard at several seeded event boundaries; after
/// supervisor recovery the merged output is byte-identical to batch, the
/// recovery ledger names exactly the killed shard, and every healthy
/// shard reports zero restores.
#[test]
fn killed_shard_recovers_byte_identical() {
    let data = run(&ScenarioParams::tiny(42));
    let events = scenario_event_stream(&data);
    let expected = {
        let batch = Analysis::run(&data, AnalysisConfig::default());
        serde_json::to_string(&batch.output).unwrap()
    };
    let cfg = ClusterConfig::new(4);
    let table = from_scenario(&data);
    let shard_events = lane_rows::rows_per_shard(&table, &events, cfg.shards);
    for kill_seed in [1u64, 17, 99] {
        let kill = shard_kill_seeded(kill_seed, &shard_events)
            .expect("tiny scenario shards always hold >1 events");
        let tmp = TempDir::new(&format!("kill-{kill_seed}"));
        let durable = run_cluster(&data, &events, &durable_cfg(&cfg, tmp.path(), &[kill]))
            .expect("durable cluster run");
        assert_eq!(
            expected,
            serde_json::to_string(&durable.output).unwrap(),
            "merged output diverged after killing shard {} at {}",
            kill.shard,
            kill.after_events
        );
        assert_eq!(durable.recoveries.len(), 1, "exactly one recovery");
        assert_eq!(durable.recoveries[0].shard, kill.shard);
        assert_eq!(
            durable.recoveries[0].report.resumed_at_seq, kill.after_events,
            "journal-before-ingest: an in-process kill loses nothing"
        );
        for (i, &restores) in durable.shard_restores.iter().enumerate() {
            if i as u32 == kill.shard {
                assert_eq!(restores, 1, "killed shard restores exactly once");
            } else {
                assert_eq!(restores, 0, "healthy shard {i} must never restart");
            }
        }
        assert_eq!(durable.report.cluster.as_ref().unwrap().recovery_events, 1);
    }
}

/// The same contract across arbitrary kill boundaries on one shard
/// (sampled via `crash_points_seeded`, the same generator the
/// single-process crash harness uses), under a chaos-mangled archive.
#[test]
fn arbitrary_kill_boundaries_under_chaos_stay_byte_identical() {
    let mut params = ScenarioParams::tiny(7);
    params.chaos = ChaosConfig::mild(7 * 31);
    let data = run(&params);
    let events = scenario_event_stream(&data);
    let expected = {
        let batch = Analysis::run(&data, AnalysisConfig::default());
        serde_json::to_string(&batch.output).unwrap()
    };
    let cfg = ClusterConfig::new(3);
    let table = from_scenario(&data);
    let shard_events = lane_rows::rows_per_shard(&table, &events, cfg.shards);
    // Kill the busiest shard — the worst case for replay volume.
    let victim = (0..cfg.shards)
        .max_by_key(|&i| shard_events[i as usize])
        .unwrap();
    for point in crash_points_seeded(1234, shard_events[victim as usize], 4) {
        let tmp = TempDir::new(&format!("boundary-{point}"));
        let kill = ShardKill {
            shard: victim,
            after_events: point,
        };
        let durable = run_cluster(&data, &events, &durable_cfg(&cfg, tmp.path(), &[kill]))
            .expect("durable cluster run");
        assert_eq!(
            expected,
            serde_json::to_string(&durable.output).unwrap(),
            "kill at boundary {point} diverged"
        );
        assert_eq!(durable.recoveries.len(), 1);
        assert!(
            durable
                .shard_restores
                .iter()
                .enumerate()
                .all(|(i, &r)| (i as u32 == victim) == (r == 1)),
            "only the victim restores: {:?}",
            durable.shard_restores
        );
    }
}

/// Two shards killed in the same run: the supervisor recovers each from
/// its own directory; the merged answer still matches batch.
#[test]
fn two_simultaneous_shard_deaths_recover_independently() {
    let data = run(&ScenarioParams::tiny(11));
    let events = scenario_event_stream(&data);
    let expected = {
        let batch = Analysis::run(&data, AnalysisConfig::default());
        serde_json::to_string(&batch.output).unwrap()
    };
    let cfg = ClusterConfig::new(4);
    let table = from_scenario(&data);
    let shard_events = lane_rows::rows_per_shard(&table, &events, cfg.shards);
    let mut victims: Vec<u32> = (0..cfg.shards).collect();
    victims.sort_by_key(|&i| std::cmp::Reverse(shard_events[i as usize]));
    let kills: Vec<ShardKill> = victims[..2]
        .iter()
        .map(|&shard| ShardKill {
            shard,
            after_events: shard_events[shard as usize] / 2,
        })
        .collect();
    let tmp = TempDir::new("double-kill");
    let durable = run_cluster(&data, &events, &durable_cfg(&cfg, tmp.path(), &kills))
        .expect("durable cluster run");
    assert_eq!(expected, serde_json::to_string(&durable.output).unwrap());
    assert_eq!(durable.recoveries.len(), 2);
    let restored: u64 = durable.shard_restores.iter().sum();
    assert_eq!(restored, 2, "exactly the two victims restore");
}

/// Durable-cluster mode with delta chains: the killed shard's newest
/// snapshot is arranged to be a *delta*, so its supervisor recovery must
/// walk a real base+delta chain — and the merged answer is still
/// byte-identical to batch, with the merged durability counters showing
/// both the deltas written and the chain walked.
#[test]
fn killed_shard_recovers_through_delta_chain() {
    let data = run(&ScenarioParams::tiny(23));
    let events = scenario_event_stream(&data);
    let expected = {
        let batch = Analysis::run(&data, AnalysisConfig::default());
        serde_json::to_string(&batch.output).unwrap()
    };
    let cfg = ClusterConfig::new(3);
    let table = from_scenario(&data);
    let shard_events = lane_rows::rows_per_shard(&table, &events, cfg.shards);
    let victim = (0..cfg.shards)
        .max_by_key(|&i| shard_events[i as usize])
        .unwrap();
    // tight_policy inherits the delta defaults: fulls every 8th
    // snapshot. Land the kill just past a snapshot index k whose
    // (k - 1) % 8 != 0, so the newest snapshot at the kill is a delta.
    let interval = tight_policy().checkpoint_interval;
    let mut k = (shard_events[victim as usize] / interval)
        .saturating_sub(1)
        .max(2);
    if (k - 1).is_multiple_of(8) {
        k -= 1;
    }
    let kill = ShardKill {
        shard: victim,
        after_events: k * interval + interval / 2,
    };
    assert!(
        kill.after_events < shard_events[victim as usize],
        "fixture: busiest shard must be long enough ({} events)",
        shard_events[victim as usize]
    );
    let tmp = TempDir::new("delta-chain-kill");
    let durable = run_cluster(&data, &events, &durable_cfg(&cfg, tmp.path(), &[kill]))
        .expect("durable cluster run");
    assert_eq!(
        expected,
        serde_json::to_string(&durable.output).unwrap(),
        "merged output diverged recovering shard {victim} through a delta chain"
    );
    assert_eq!(durable.recoveries.len(), 1);
    assert!(
        durable.recoveries[0].report.chain_length >= 1,
        "the victim's recovery must walk at least one delta: {:?}",
        durable.recoveries[0].report
    );
    let d = durable
        .report
        .durability
        .expect("durable cluster reports durability");
    assert!(d.deltas_written > 0, "shards must write delta snapshots");
    assert!(
        d.chain_length_at_recovery >= 1,
        "the merged counters carry the recovered chain length"
    );
}

/// A healthy durable cluster (no kills) matches both the in-memory
/// cluster and batch, leaves every `shard-{i}/` directory populated, and
/// reports zero recoveries.
#[test]
fn healthy_durable_cluster_matches_in_memory_cluster() {
    let data = run(&ScenarioParams::tiny(42));
    let events = scenario_event_stream(&data);
    let cfg = ClusterConfig::new(3);
    let in_memory = run_cluster(&data, &events, &cfg).unwrap();
    let tmp = TempDir::new("healthy");
    let durable = run_cluster(&data, &events, &durable_cfg(&cfg, tmp.path(), &[]))
        .expect("durable cluster run");
    assert_eq!(
        serde_json::to_string(&in_memory.output).unwrap(),
        serde_json::to_string(&durable.output).unwrap(),
    );
    assert!(durable.recoveries.is_empty());
    assert!(durable.shard_restores.iter().all(|&r| r == 0));
    for i in 0..cfg.shards {
        assert!(
            shard_dir(tmp.path(), i).is_dir(),
            "shard {i} directory missing"
        );
    }
    let d = durable
        .report
        .durability
        .expect("durable cluster reports durability");
    assert_eq!(d.restores, 0);
    assert!(d.journal_records > 0, "shards journal their rows");
}

/// The dispatcher killing an in-process worker outright (channel
/// teardown — the in-process stand-in for SIGKILL), at the edges and the
/// middle of the victim's rows: the kill lands on its exact row
/// boundary, the supervisor recovers that worker only, and the merged
/// answer is byte-identical to batch.
#[test]
fn in_process_hard_kill_lands_on_its_boundary_and_recovers_byte_identical() {
    let data = run(&ScenarioParams::tiny(11));
    let events = scenario_event_stream(&data);
    let expected = {
        let batch = Analysis::run(&data, AnalysisConfig::default());
        serde_json::to_string(&batch.output).unwrap()
    };
    let base = ClusterConfig {
        chunk: 32,
        ..ClusterConfig::new(3)
    };
    let table = from_scenario(&data);
    let shard_events = lane_rows::rows_per_shard(&table, &events, base.shards);
    let victim = (0..base.shards)
        .max_by_key(|&i| shard_events[i as usize])
        .unwrap();
    let len = shard_events[victim as usize];
    for after_events in [0, 1, len / 2, len] {
        let tmp = TempDir::new(&format!("hard-kill-{after_events}"));
        let mut cfg = durable_cfg(&base, tmp.path(), &[]);
        cfg.durability.as_mut().unwrap().hard_kills = vec![ShardKill {
            shard: victim,
            after_events,
        }];
        let durable = run_cluster(&data, &events, &cfg).expect("durable cluster run");
        assert_eq!(
            expected,
            serde_json::to_string(&durable.output).unwrap(),
            "hard kill of shard {victim} after {after_events}/{len} events diverged"
        );
        assert_eq!(durable.recoveries.len(), 1, "exactly one recovery");
        assert_eq!(durable.recoveries[0].shard, victim);
        assert!(
            durable.recoveries[0].report.resumed_at_seq <= after_events,
            "a killed worker never resumes past its kill boundary {after_events}: {:?}",
            durable.recoveries[0].report
        );
        for (i, &restores) in durable.shard_restores.iter().enumerate() {
            assert_eq!(
                restores,
                u64::from(i as u32 == victim),
                "shard {i} restores (kill after {after_events})"
            );
        }
        let t = durable.report.transport.expect("transport ledger");
        assert_eq!(t.workers_killed, 1);
        assert_eq!(t.worker_restarts, 1);
        assert_eq!(
            durable.report.cluster.as_ref().unwrap().events_per_shard,
            shard_events,
            "rows withheld from the dead worker still count toward its shard"
        );
    }
}

/// An invalid analysis configuration is refused before any worker is
/// spawned or any `shard-{i}/` directory created — the same typed error
/// the non-durable run gives.
#[test]
fn invalid_config_on_a_durable_cluster_is_refused_before_any_worker_starts() {
    let data = run(&ScenarioParams::tiny(42));
    let events = scenario_event_stream(&data);
    let base = ClusterConfig {
        analysis: AnalysisConfig {
            match_window: faultline_topology::time::Duration::ZERO,
            ..AnalysisConfig::default()
        },
        ..ClusterConfig::new(3)
    };
    let tmp = TempDir::new("invalid-config");
    match run_cluster(&data, &events, &durable_cfg(&base, tmp.path(), &[])) {
        Err(faultline_core::TransportError::Analysis(_)) => {}
        Err(other) => panic!("expected an analysis error, got {other}"),
        Ok(_) => panic!("a zero match window must be refused"),
    }
    assert_eq!(
        fs::read_dir(tmp.path()).unwrap().count(),
        0,
        "no shard directory may exist after a refused run"
    );
}
