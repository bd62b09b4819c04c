//! Cluster-replay benchmark: run the paper-scale workload through the
//! sharded cluster runtime (`faultline_core::cluster`) at several shard
//! counts and over both transports, verify every merged answer
//! byte-identical to the batch pipeline, and record throughput and
//! merge cost per shard count as `results/BENCH_cluster.json`.
//!
//! ```sh
//! cargo run --release -p faultline-bench --bin cluster_replay
//! cargo run --release -p faultline-bench --bin cluster_replay -- --transport inproc
//! cargo run --release -p faultline-bench --bin cluster_replay -- --transport subprocess
//! ```
//!
//! Three tiers:
//! - **paper scale** — the canonical 389-day CENIC-scale scenario every
//!   other benchmark uses (same seed, same archive), swept over both
//!   the in-process transport (the headline the CI gate watches) and
//!   `faultline-shard-worker` subprocesses (recorded ungated — it pays
//!   real serialization and pipe costs by design);
//! - **10× links** — `ScenarioParams::sized` with 10× the topology over
//!   a proportionally shorter period, the shape the ROADMAP's
//!   multi-collector north star actually cares about: many more links,
//!   so the partitioner has real spreading to do;
//! - **mega smoke** — ~10k links over a two-day window, a
//!   keyspace-stress smoke (never headline-gated) proving the
//!   partitioner and merge stay well-behaved two orders of magnitude
//!   above the paper's topology.
//!
//! Each run's JSON carries the full `PipelineReport` plus the `cluster`
//! section (per-shard event counts, skew, merge cost) and, for cluster
//! runs, the `transport` frame/byte ledger, so the document doubles as
//! a monitor for partition balance: a skew drifting far above 1.0 means
//! the consistent hash stopped spreading the hot links.

use faultline_bench::{
    analyze_with, config_with_threads, labeled_report_json, paper_event_workload, paper_params,
    write_bench_json,
};
use faultline_core::cluster::{
    run_cluster, ClusterConfig, ClusterResult, SubprocessOptions, Workers,
};
use faultline_core::transport::{locate_worker_bin, ScenarioSpec};
use faultline_core::{scenario_event_stream, PipelineReport, StreamEvent};
use faultline_sim::scenario::{run, ScenarioData, ScenarioParams};
use serde_json::json;

const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

fn main() {
    let transport = transport_filter();
    let run_inproc = transport != "subprocess";
    let run_subprocess = transport != "inproc";
    let (data, events) = paper_event_workload();

    let batch = analyze_with(&data, config_with_threads(0));
    let batch_json = serde_json::to_string(&batch.output).expect("serialize batch output");
    println!("batch reference: {:.3} ms", batch.report.total_millis());

    let mut runs: Vec<serde_json::Value> = Vec::new();
    runs.push(labeled_report_json("batch_reference", &batch.report));
    let mut best_eps = 0.0f64;
    let mut best_subprocess_eps = 0.0f64;

    if run_inproc {
        for shards in SHARD_COUNTS {
            let (_, report_json, eps) =
                cluster_run("paper", &data, &events, shards, Some(&batch_json));
            best_eps = best_eps.max(eps);
            runs.push(report_json);
        }
        println!("all paper-scale merges byte-identical to batch ✓");
    }

    if run_subprocess {
        match locate_worker_bin() {
            Some(worker_bin) => {
                let workers = Workers::Subprocess(SubprocessOptions {
                    worker_bin,
                    scenario: ScenarioSpec::Params(Box::new(paper_params())),
                });
                for shards in [2u32, 4, 8] {
                    let label = format!("paper_subprocess_shards_{shards}");
                    let cfg = ClusterConfig {
                        chunk: 4096,
                        workers: workers.clone(),
                        ..ClusterConfig::new(shards)
                    };
                    let result =
                        run_cluster(&data, &events, &cfg).expect("valid subprocess cluster run");
                    let merged =
                        serde_json::to_string(&result.output).expect("serialize merged output");
                    assert_eq!(
                        batch_json, merged,
                        "subprocess cluster at {shards} shards diverged from batch"
                    );
                    let eps = events_per_sec(&result);
                    best_subprocess_eps = best_subprocess_eps.max(eps);
                    println!("== {label} ==");
                    println!("{}", result.report);
                    runs.push(cluster_report_json(&label, &result.report));
                }
                println!("all subprocess merges byte-identical to batch ✓");
            }
            None => {
                eprintln!(
                    "faultline-shard-worker binary not found (set FAULTLINE_SHARD_WORKER or \
                     `cargo build --release -p faultline`); skipping the subprocess tier"
                );
            }
        }
    }

    // The 10× tier: ten times the links over a tenth of the period, so
    // the stream stays comparable in volume while the partitioner works
    // on a 10× keyspace. The byte-identity check here compares against
    // the 1-shard cluster (running batch at this tier too would double
    // the bench's wall time for no extra signal — shards=1 exercises the
    // identical merge path).
    eprintln!("simulating 10x-links tier ...");
    let sized = run(&ScenarioParams::sized(42, 10.0, 38.9));
    let sized_events = scenario_event_stream(&sized);
    println!(
        "10x tier: {} links, {} events",
        sized.topology.links().len(),
        sized_events.len()
    );
    let reference = run_cluster(&sized, &sized_events, &ClusterConfig::new(1))
        .expect("valid 10x reference run");
    let reference_json = serde_json::to_string(&reference.output).expect("serialize 10x reference");
    runs.push(cluster_report_json("sized10x_shards_1", &reference.report));
    for shards in [2u32, 4, 8] {
        let (_, report_json, _) = cluster_run(
            "sized10x",
            &sized,
            &sized_events,
            shards,
            Some(&reference_json),
        );
        runs.push(report_json);
    }
    println!("all 10x-tier merges byte-identical across shard counts ✓");

    // The mega smoke: ~10k links (two orders of magnitude above the
    // paper's 299) over a two-day window. A keyspace-stress smoke, not
    // a throughput number — it never feeds the headline.
    eprintln!("simulating mega-smoke tier (~10k links) ...");
    let mega = run(&ScenarioParams::sized(42, 33.4, 2.0));
    let mega_events = scenario_event_stream(&mega);
    println!(
        "mega tier: {} links, {} events",
        mega.topology.links().len(),
        mega_events.len()
    );
    let mega_reference =
        run_cluster(&mega, &mega_events, &ClusterConfig::new(1)).expect("valid mega reference run");
    let mega_reference_json =
        serde_json::to_string(&mega_reference.output).expect("serialize mega reference");
    runs.push(cluster_report_json("mega_shards_1", &mega_reference.report));
    let (_, mega_json, _) = cluster_run("mega", &mega, &mega_events, 8, Some(&mega_reference_json));
    runs.push(mega_json);
    println!("mega-smoke merge byte-identical across shard counts ✓");

    let doc = json!({
        "bench": "cluster_replay",
        "scenario": "paper_389d + sized10x_38.9d + mega_2d",
        "seed": 42,
        "transport_filter": transport,
        "events": (events.len()),
        "events_10x": (sized_events.len()),
        "mega": {
            "links": (mega.topology.links().len()),
            "events": (mega_events.len()),
        },
        "shard_counts": (serde_json::to_value(&SHARD_COUNTS.to_vec()).expect("shard counts")),
        "runs": runs,
        "headline": {
            // Best merged-cluster ingest rate at paper scale across the
            // in-process shard sweep — the number the regression gate
            // compares. The subprocess figure is recorded ungated: it
            // pays real serialization + pipe costs by design.
            "ingest_events_per_sec": best_eps,
            "subprocess_ingest_events_per_sec": best_subprocess_eps,
        },
    });
    write_bench_json("results/BENCH_cluster.json", &doc);
}

/// `--transport {inproc,subprocess,both}` (default `both`).
fn transport_filter() -> String {
    let args: Vec<String> = std::env::args().collect();
    let mut filter = "both".to_string();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--transport" => {
                filter = args
                    .get(i + 1)
                    .unwrap_or_else(|| panic!("--transport needs a value"))
                    .clone();
                i += 2;
            }
            other => {
                panic!("unknown argument {other} (expected --transport {{inproc,subprocess}})")
            }
        }
    }
    match filter.as_str() {
        "inproc" | "subprocess" | "both" => filter,
        other => panic!("unknown transport {other} (expected inproc, subprocess, or both)"),
    }
}

fn events_per_sec(result: &ClusterResult) -> f64 {
    result
        .report
        .streaming
        .as_ref()
        .map(|s| s.events_per_sec)
        .unwrap_or(0.0)
}

/// One measured in-process cluster run: returns its label, JSON record,
/// and events-per-second; asserts byte-identity against `expected` when
/// given.
fn cluster_run(
    tier: &str,
    data: &ScenarioData,
    events: &[StreamEvent],
    shards: u32,
    expected: Option<&str>,
) -> (String, serde_json::Value, f64) {
    let cfg = ClusterConfig {
        chunk: 4096,
        ..ClusterConfig::new(shards)
    };
    let result = run_cluster(data, events, &cfg).expect("valid cluster run");
    if let Some(expected) = expected {
        let merged = serde_json::to_string(&result.output).expect("serialize merged output");
        assert_eq!(
            expected, &merged,
            "{tier} cluster at {shards} shards diverged from the reference"
        );
    }
    let label = format!("{tier}_shards_{shards}");
    let eps = events_per_sec(&result);
    println!("== {label} ==");
    println!("{}", result.report);
    (
        label.clone(),
        cluster_report_json(&label, &result.report),
        eps,
    )
}

/// A labelled report record with the cluster and transport sections
/// attached.
fn cluster_report_json(label: &str, report: &PipelineReport) -> serde_json::Value {
    let mut v = labeled_report_json(label, report);
    v["streaming"] = serde_json::to_value(&report.streaming).expect("streaming counters");
    v["cluster"] = serde_json::to_value(&report.cluster).expect("cluster counters");
    v["transport"] = serde_json::to_value(&report.transport).expect("transport counters");
    v
}
