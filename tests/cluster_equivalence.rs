//! Differential harness for the sharded cluster runtime: the aggregated
//! N-shard answer must be **byte-identical** to the single-process
//! answer — the load-bearing deliverable of the cluster layer.
//!
//! The dispatcher classifies every event once and each shard applies
//! its links' lane rows; the deterministic aggregator merges the
//! dispatcher's and the shards' outputs. For every tested
//! shard count × seed × chaos preset, `serde_json::to_string` of the
//! merged [`StreamOutput`] must equal the batch [`Analysis::run`] JSON
//! exactly — not approximately, not up to reordering. The harness also
//! pins the merged headline counters against the checked-in golden
//! tables, so a cluster-side drift cannot hide behind a simultaneous
//! (and wrong) "re-bless both sides" change.

use faultline_core::cluster::{merge_outputs, partition_events, run_cluster, ClusterConfig};
use faultline_core::linktable::from_scenario;
use faultline_core::{scenario_event_stream, Analysis, AnalysisConfig, StreamAnalysis};
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_sim::{ChaosConfig, ScenarioData};
use serde_json::Value;
use std::path::PathBuf;

#[path = "support/displaced.rs"]
mod displaced;
#[path = "support/lane_rows.rs"]
mod lane_rows;

const SHARD_COUNTS: [u32; 6] = [1, 2, 3, 4, 7, 16];

fn batch_json(data: &ScenarioData, config: &AnalysisConfig) -> String {
    let analysis = Analysis::run(data, config.clone());
    serde_json::to_string(&analysis.output).unwrap()
}

fn cluster_json(data: &ScenarioData, config: &AnalysisConfig, shards: u32, chunk: usize) -> String {
    let events = scenario_event_stream(data);
    let cfg = ClusterConfig {
        analysis: config.clone(),
        chunk,
        ..ClusterConfig::new(shards)
    };
    let result = run_cluster(data, &events, &cfg).expect("valid cluster run");
    serde_json::to_string(&result.output).unwrap()
}

/// The pinned grid: every shard count × several seeds × the chaos
/// presets (clean, mild, moderate). One contract, no exceptions: the
/// merged output serializes byte-identical to batch.
#[test]
fn shard_grid_is_byte_identical_to_batch() {
    let config = AnalysisConfig::default();
    for seed in [11u64, 42, 77] {
        for preset in ["clean", "mild", "moderate"] {
            let mut params = ScenarioParams::tiny(seed);
            params.chaos = match preset {
                "mild" => ChaosConfig::mild(seed * 31),
                "moderate" => ChaosConfig::moderate(seed * 31),
                _ => ChaosConfig::default(),
            };
            let data = run(&params);
            let expected = batch_json(&data, &config);
            for shards in SHARD_COUNTS {
                let got = cluster_json(&data, &config, shards, 64);
                assert_eq!(
                    expected, got,
                    "cluster diverged from batch: seed {seed}, preset {preset}, {shards} shards"
                );
            }
        }
    }
}

/// A wide topology — ten times the paper's links over one day, many
/// shallow lanes — gives the partitioner a real keyspace to spread: the
/// merged answer at 2 and 7 shards is still byte-identical to batch.
#[test]
fn wide_topology_is_byte_identical_to_batch() {
    let config = AnalysisConfig::default();
    let data = run(&ScenarioParams::sized(42, 10.0, 1.0));
    let expected = batch_json(&data, &config);
    for shards in [2u32, 7] {
        assert_eq!(
            expected,
            cluster_json(&data, &config, shards, 256),
            "wide topology: cluster at {shards} shards diverged from batch"
        );
    }
}

/// Quarantine horizons interact with the cluster exactly as with one
/// process: the admission decision is per-item and rides with the event
/// to whichever shard receives it.
#[test]
fn quarantined_cluster_stays_byte_identical() {
    for seed in [13u64, 59] {
        let mut params = ScenarioParams::tiny(seed);
        params.chaos = ChaosConfig::mild(seed * 17);
        let data = run(&params);
        let events = scenario_event_stream(&data);
        let config = AnalysisConfig {
            quarantine_horizon: Some(events[events.len() / 2].at()),
            ..AnalysisConfig::default()
        };
        let batch = Analysis::run(&data, config.clone());
        assert!(
            batch.report.robustness.total_quarantined() > 0,
            "seed {seed}: horizon must actually divert events"
        );
        let expected = serde_json::to_string(&batch.output).unwrap();
        for shards in [1u32, 3, 7] {
            assert_eq!(
                expected,
                cluster_json(&data, &config, shards, 16),
                "quarantine×cluster: seed {seed}, {shards} shards"
            );
        }
    }
}

/// The shard worker's micro-batch size is pure mechanics: any chunking
/// of any shard's rows produces the same bytes.
#[test]
fn shard_chunk_size_is_invisible() {
    let data = run(&ScenarioParams::tiny(42));
    let config = AnalysisConfig::default();
    let expected = batch_json(&data, &config);
    for chunk in [1usize, 7, 1024, usize::MAX] {
        assert_eq!(
            expected,
            cluster_json(&data, &config, 4, chunk),
            "chunk {chunk}"
        );
    }
}

/// The merged report's accounting is exact: per-shard row counts are
/// the rows each shard's links yield (derived independently from the
/// link table), headline counters equal the single-process ones, and
/// the skew/min/max fields describe the actual partition.
#[test]
fn shard_counters_describe_the_actual_partition() {
    let data = run(&ScenarioParams::tiny(42));
    let events = scenario_event_stream(&data);
    let batch = Analysis::run(&data, AnalysisConfig::default());
    let table = from_scenario(&data);
    for shards in SHARD_COUNTS {
        let result = run_cluster(&data, &events, &ClusterConfig::new(shards)).unwrap();
        assert_eq!(
            result.output.counters, batch.report.counters,
            "{shards} shards"
        );
        assert_eq!(
            result.report.counters, batch.report.counters,
            "{shards} shards"
        );
        let c = result
            .report
            .cluster
            .as_ref()
            .expect("cluster section present");
        assert_eq!(c.shards, shards);
        assert_eq!(
            c.events_per_shard,
            lane_rows::rows_per_shard(&table, &events, shards),
            "rows unaccounted for at {shards} shards"
        );
        let streaming = result.report.streaming.as_ref().expect("streaming section");
        assert_eq!(
            streaming.events_ingested,
            events.len() as u64,
            "the dispatcher offers every event once at {shards} shards"
        );
        assert_eq!(
            c.max_shard_events,
            *c.events_per_shard.iter().max().unwrap()
        );
        assert_eq!(
            c.min_shard_events,
            *c.events_per_shard.iter().min().unwrap()
        );
        assert_eq!(
            c.recovery_events, 0,
            "healthy run must record no recoveries"
        );
        assert_eq!(result.shard_reports.len(), shards as usize);
        // Each shard saw a nonempty slice of work only if it was routed
        // events; the streaming section must agree with the partition.
        for (i, r) in result.shard_reports.iter().enumerate() {
            let s = r
                .streaming
                .as_ref()
                .expect("shards run the streaming driver");
            assert_eq!(s.events_ingested, c.events_per_shard[i], "shard {i}");
        }
    }
}

/// Lateness is judged once, against the one stream's watermark: on a
/// stream with eight events displaced 40 places later, every shard
/// count drops exactly the events one engine drops, and the merged
/// answer is byte-identical to that engine's.
#[test]
fn late_events_are_judged_once_for_the_whole_stream() {
    let data = run(&ScenarioParams::tiny(7));
    let events = displaced::displaced(&scenario_event_stream(&data));
    let mut engine = StreamAnalysis::new(&data, AnalysisConfig::default());
    engine.ingest_batch(&events);
    let single = engine.flush();
    let late = single.report.streaming.as_ref().unwrap().late_events;
    assert_eq!(late, 8, "the fixture displaces eight events");
    let expected = serde_json::to_string(&single.output).unwrap();
    for shards in [1u32, 2, 3, 7] {
        let result = run_cluster(&data, &events, &ClusterConfig::new(shards)).unwrap();
        let streaming = result.report.streaming.as_ref().unwrap();
        assert_eq!(streaming.late_events, late, "{shards} shards");
        assert!(
            expected == serde_json::to_string(&result.output).unwrap(),
            "{shards} shards: the cluster's answer differs from one engine's"
        );
    }
}

/// The merged counters also agree with the checked-in golden tables —
/// pinned bytes on disk, not a value computed in this process — so the
/// cluster cannot drift in lockstep with a broken batch pipeline without
/// failing CI.
#[test]
fn cluster_counters_match_golden_tables_without_reblessing() {
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (name, seed) in [("tiny_seed42_tables", 42u64), ("tiny_seed7_tables", 7u64)] {
        let blessed: Value = serde_json::from_str(
            &std::fs::read_to_string(golden_dir.join(format!("{name}.json")))
                .expect("golden present"),
        )
        .expect("golden is valid JSON");
        let data = run(&ScenarioParams::tiny(seed));
        let events = scenario_event_stream(&data);
        for shards in [1u32, 4, 16] {
            let result = run_cluster(&data, &events, &ClusterConfig::new(shards)).unwrap();
            assert_eq!(
                blessed["counters"],
                serde_json::to_value(&result.report.counters).unwrap(),
                "cluster counters drifted from golden `{name}` at {shards} shards"
            );
        }
    }
}

/// Invalid inputs are rejected up front, before any shard thread spawns:
/// the cluster refuses exactly what the single-process drivers refuse.
#[test]
fn cluster_validates_like_the_single_process_drivers() {
    let data = run(&ScenarioParams::tiny(42));
    let events = scenario_event_stream(&data);
    let cfg = ClusterConfig {
        analysis: AnalysisConfig {
            match_window: faultline_topology::time::Duration::ZERO,
            ..AnalysisConfig::default()
        },
        chunk: 64,
        ..ClusterConfig::new(4)
    };
    assert!(run_cluster(&data, &events, &cfg).is_err());
    // Zero shards is clamped, not rejected — a degenerate cluster is the
    // single process.
    let degenerate = run_cluster(&data, &events, &ClusterConfig::new(0)).unwrap();
    assert_eq!(degenerate.report.cluster.unwrap().shards, 1);
}

/// `merge_outputs`'s second contract: the outputs of the
/// `partition_events` substreams of one in-order stream, each run
/// through its own `StreamAnalysis`, merge to the batch answer.
#[test]
fn partitioned_substreams_merge_to_batch() {
    let config = AnalysisConfig::default();
    for seed in [11u64, 42, 77] {
        for preset in ["clean", "mild", "moderate"] {
            let mut params = ScenarioParams::tiny(seed);
            params.chaos = match preset {
                "mild" => ChaosConfig::mild(seed * 31),
                "moderate" => ChaosConfig::moderate(seed * 31),
                _ => ChaosConfig::default(),
            };
            let data = run(&params);
            let expected = batch_json(&data, &config);
            let table = from_scenario(&data);
            let events = scenario_event_stream(&data);
            for shards in [1u32, 2, 3, 7] {
                let outputs = partition_events(&table, &events, shards)
                    .iter()
                    .map(|part| {
                        let mut engine = StreamAnalysis::new(&data, config.clone());
                        for event in part {
                            engine.ingest(event);
                        }
                        engine.flush().output
                    })
                    .collect();
                assert_eq!(
                    expected,
                    serde_json::to_string(&merge_outputs(outputs)).unwrap(),
                    "substreams diverged from batch: seed {seed}, preset {preset}, {shards} shards"
                );
            }
        }
    }
}

/// Assembly is idempotent: merging one finished answer alone gives
/// back its bytes.
#[test]
fn merging_one_output_returns_it_unchanged() {
    let config = AnalysisConfig::default();
    for seed in [7u64, 42] {
        let mut params = ScenarioParams::tiny(seed);
        params.chaos = ChaosConfig::moderate(seed * 31);
        let output = Analysis::run(&run(&params), config.clone()).output;
        let expected = serde_json::to_string(&output).unwrap();
        assert_eq!(
            expected,
            serde_json::to_string(&merge_outputs(vec![output])).unwrap(),
            "seed {seed}"
        );
    }
}
