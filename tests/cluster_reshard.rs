//! Live-reshard harness: grow a running cluster N → N+1 mid-stream and
//! prove the two properties that make jump-hash resharding safe to do
//! live:
//!
//! 1. **Minimal movement** — exactly the links `shard_of_link`
//!    reassigns migrate, every one of them lands on the new shard, and
//!    the ledger matches an independent recomputation link by link;
//! 2. **Byte-identity** — the merged output after the mid-stream grow
//!    equals a from-scratch (N+1)-shard run *and* the single-process
//!    batch answer, for splits at the stream's ends and middle alike.

use faultline_core::cluster::{
    run_cluster, shard_of_link, ClusterConfig, SubprocessOptions, Workers,
};
use faultline_core::linktable::{from_scenario, LinkIx};
use faultline_core::transport::ScenarioSpec;
use faultline_core::{scenario_event_stream, Analysis, AnalysisConfig};
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_sim::ChaosConfig;
use std::path::PathBuf;

/// The links jump-hash reassigns when a cluster grows from `n` to
/// `n + 1` shards — recomputed here independently of the runtime's own
/// migration planning.
fn predicted_moves(data: &faultline_sim::ScenarioData, n: u32) -> Vec<LinkIx> {
    let table = from_scenario(data);
    table
        .iter()
        .filter(|&ix| shard_of_link(&table, ix, n) != shard_of_link(&table, ix, n + 1))
        .collect()
}

/// The pinned grid: shard counts × split points covering "reshard
/// before anything", "reshard mid-stream", "reshard at the last event",
/// and "reshard after everything". Every cell is byte-identical to both
/// references and moves exactly the predicted links.
#[test]
fn reshard_grid_is_byte_identical_and_moves_exactly_the_predicted_links() {
    let config = AnalysisConfig::default();
    let mut params = ScenarioParams::tiny(42);
    params.chaos = ChaosConfig::mild(42 * 31);
    let data = run(&params);
    let events = scenario_event_stream(&data);
    let batch = {
        let analysis = Analysis::run(&data, config.clone());
        serde_json::to_string(&analysis.output).unwrap()
    };
    for n in [1u32, 2, 3, 6] {
        let predicted = predicted_moves(&data, n);
        let scratch = {
            let cfg = ClusterConfig {
                analysis: config.clone(),
                chunk: 128,
                ..ClusterConfig::new(n + 1)
            };
            let result = run_cluster(&data, &events, &cfg).expect("from-scratch N+1 run");
            serde_json::to_string(&result.output).unwrap()
        };
        assert_eq!(batch, scratch, "the N+1 reference itself must match batch");
        for split in [
            0,
            events.len() / 3,
            events.len() / 2,
            events.len() - 1,
            events.len(),
        ] {
            let cfg = ClusterConfig {
                analysis: config.clone(),
                chunk: 128,
                reshard_at: Some(split),
                ..ClusterConfig::new(n)
            };
            let grown = run_cluster(&data, &events, &cfg).expect("reshard run");
            let reshard = grown.reshard.as_ref().expect("a resharded run reports it");
            assert_eq!(
                batch,
                serde_json::to_string(&grown.output).unwrap(),
                "reshard {n} -> {} at split {split} diverged",
                n + 1
            );
            assert_eq!(reshard.from_shards, n);
            assert_eq!(reshard.to_shards, n + 1);
            assert_eq!(reshard.split_at, split);
            let mut moved = reshard.moved_links.clone();
            moved.sort();
            let mut expected_moves = predicted.clone();
            expected_moves.sort();
            assert_eq!(
                moved,
                expected_moves,
                "reshard {n} -> {} moved links != jump-hash prediction",
                n + 1
            );
            let table = from_scenario(&data);
            for &link in &reshard.moved_links {
                assert_eq!(
                    shard_of_link(&table, link, n + 1),
                    n,
                    "every moved link lands on the new shard"
                );
            }
            // Only links whose lanes had opened ship state; the rest
            // start fresh on the new worker.
            assert!(reshard.lanes_moved <= reshard.moved_links.len() as u64);
            let t = grown.report.transport.expect("transport ledger");
            assert_eq!(t.lanes_migrated, reshard.lanes_moved);
            assert_eq!(t.workers_spawned, u64::from(n) + 1, "N at start + 1 grown");
            if split == 0 {
                assert_eq!(
                    reshard.lanes_moved, 0,
                    "nothing has happened yet, so no lane holds state"
                );
            }
        }
    }
}

/// The same contract across process boundaries: one subprocess reshard
/// where the migrated lanes genuinely travel as hashed frames between
/// three OS processes, byte-identical to batch and matching the
/// jump-hash prediction.
#[test]
fn subprocess_reshard_is_byte_identical() {
    let params = ScenarioParams::tiny(11);
    let data = run(&params);
    let events = scenario_event_stream(&data);
    let batch = {
        let analysis = Analysis::run(&data, AnalysisConfig::default());
        serde_json::to_string(&analysis.output).unwrap()
    };
    let n = 2u32;
    let split = events.len() / 2;
    let cfg = ClusterConfig {
        chunk: 256,
        workers: Workers::Subprocess(SubprocessOptions {
            worker_bin: PathBuf::from(env!("CARGO_BIN_EXE_faultline-shard-worker")),
            scenario: ScenarioSpec::Params(Box::new(params)),
        }),
        reshard_at: Some(split),
        ..ClusterConfig::new(n)
    };
    let grown = run_cluster(&data, &events, &cfg).expect("reshard");
    let reshard = grown.reshard.as_ref().expect("a resharded run reports it");
    assert_eq!(
        batch,
        serde_json::to_string(&grown.output).unwrap(),
        "subprocess reshard diverged from batch"
    );
    let mut moved = reshard.moved_links.clone();
    moved.sort();
    let mut predicted = predicted_moves(&data, n);
    predicted.sort();
    assert_eq!(moved, predicted);
    let t = grown.report.transport.expect("transport ledger");
    assert_eq!(t.lanes_migrated, reshard.lanes_moved);
    assert!(
        t.bytes_sent > 0,
        "migrated lanes really crossed the wire: {t:?}"
    );
}
