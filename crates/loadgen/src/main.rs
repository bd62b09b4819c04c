//! `faultline-loadgen` — find the breaking point.
//!
//! Ramps offered load against every deployment shape the repo ships —
//! single stream, sharded cluster ×{2,4,8}, durable on/off — until an
//! SLO breaks, and writes the standing capacity record to
//! `results/BENCH_capacity.json`. The simulated-clock arm's headline
//! (`deterministic_breaking_point_offered_per_tick`) is
//! machine-independent and CI-gated against the committed baseline by
//! `scripts/check_bench_regression.sh`.
//!
//! Usage:
//!
//! ```text
//! faultline-loadgen                  # full measured run (paper scale)
//! faultline-loadgen --deterministic  # simulated clock only (CI)
//! ```

use faultline_bench::{paper_event_workload, paper_params, write_bench_json};
use faultline_core::admission::{run_overloaded, AdmissionConfig, SimSchedule};
use faultline_core::transport::{locate_worker_bin, ScenarioSpec};
use faultline_core::{
    run_cluster, AnalysisConfig, ClusterConfig, DurabilityPolicy, DurableStream, StreamAnalysis,
    StreamEvent, SubprocessOptions, Workers,
};
use faultline_loadgen::{
    calibrated_ramp, deterministic_capacity, jv, measure_drift, paced_ramp, percentile,
    report_json, verdict_json, PaceMode, RampVerdict, SloConfig,
};
use faultline_sim::scenario::{run, ScenarioData, ScenarioParams};
use std::path::PathBuf;
use std::time::Instant;

/// Simulated-clock arm parameters — changing any of these invalidates
/// the committed baseline on purpose.
const DET_QUEUE: usize = 64;
const DET_DRAIN_PER_TICK: usize = 8;
const DET_SEED: u64 = 7;

/// Measured-arm parameters.
const QUEUE_CAPACITY: usize = 8_192;
const SEED: u64 = 42;
const CALIBRATION_FRACTIONS: [f64; 7] = [0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5];

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("faultline-loadgen-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The deterministic arm plus its 2× sustained-overload verification:
/// bounded memory, exact conservation, measured degraded-output drift.
fn deterministic_arm() -> (RampVerdict, serde_json::Value) {
    eprintln!("deterministic arm (simulated clock, tiny scenario):");
    let data = run(&ScenarioParams::tiny(42));
    let events = faultline_core::scenario_event_stream(&data);
    let slo = SloConfig::default();
    let verdict = deterministic_capacity(
        &data,
        &events,
        DET_QUEUE,
        DET_DRAIN_PER_TICK,
        DET_SEED,
        &slo,
    )
    .expect("deterministic ramp");

    // 2× sustained overload in shed mode: the acceptance contract.
    let schedule = SimSchedule::new(2 * DET_DRAIN_PER_TICK, DET_DRAIN_PER_TICK);
    let admission = AdmissionConfig::shedding(DET_QUEUE, DET_SEED);
    let (result, counters) = run_overloaded(
        &data,
        AnalysisConfig::default(),
        &admission,
        schedule,
        &events,
    )
    .expect("2x overload run");
    assert!(
        counters.conserved(),
        "2x overload must conserve: {counters:?}"
    );
    assert!(
        counters.queue_high_water <= DET_QUEUE as u64,
        "queue must stay bounded"
    );
    assert!(counters.shed > 0, "2x overload must shed");
    assert!(
        result.report.overload.is_some(),
        "report must carry the overload ledger"
    );

    // Degraded-mode drift vs the unshedded answer, measured.
    let mut clean_engine =
        StreamAnalysis::try_new(&data, AnalysisConfig::default()).expect("clean engine");
    for chunk in events.chunks(1_024) {
        clean_engine.ingest_batch(chunk);
    }
    let clean = clean_engine.flush();
    let drift = measure_drift(&result.output, &clean.output);
    eprintln!(
        "  2x overload: shed {:.3} of offered, drift syslog {:.3}/isis {:.3}",
        counters.shed_fraction(),
        drift.syslog_failure_count,
        drift.isis_failure_count
    );

    let overload_2x = serde_json::json!({
        "overload_factor": (schedule.overload_factor()),
        "queue_capacity": DET_QUEUE,
        "conserved": (counters.conserved()),
        "counters": (jv(&counters)),
        "drift_vs_unshedded": (jv(&drift)),
        "report": (report_json(&result.report)),
    });
    (verdict, overload_2x)
}

/// Unthrottled single-stream service rate plus batch-latency
/// percentiles — the calibration run.
fn measure_single(data: &ScenarioData, events: &[StreamEvent]) -> (f64, f64, f64) {
    let mut engine =
        StreamAnalysis::try_new(data, AnalysisConfig::default()).expect("single engine");
    let mut latencies = Vec::new();
    let t0 = Instant::now();
    for chunk in events.chunks(1_024) {
        let t = Instant::now();
        engine.ingest_batch(chunk);
        latencies.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let _ = engine.flush();
    let wall = t0.elapsed().as_secs_f64();
    let rate = events.len() as f64 / wall.max(1e-9);
    let p50 = percentile(&mut latencies.clone(), 50.0);
    let p99 = percentile(&mut latencies, 99.0);
    eprintln!(
        "single-stream service rate: {rate:.0} events/s (batch p50 {p50:.0} µs, p99 {p99:.0} µs)"
    );
    (rate, p50, p99)
}

/// Unthrottled cluster service rate at `shards`.
fn measure_cluster(data: &ScenarioData, events: &[StreamEvent], shards: u32) -> f64 {
    let t0 = Instant::now();
    let result = run_cluster(data, events, &ClusterConfig::new(shards)).expect("cluster run");
    let wall = t0.elapsed().as_secs_f64();
    drop(result);
    let rate = events.len() as f64 / wall.max(1e-9);
    eprintln!("cluster x{shards} service rate: {rate:.0} events/s");
    rate
}

/// Unthrottled subprocess-cluster service rate at `shards`: every
/// worker a `faultline-shard-worker` process, every event crossing a
/// real pipe as a hashed frame — the deployment shape where transport
/// cost is part of the capacity answer. Returns `None` when the worker
/// binary is not alongside this one (set `FAULTLINE_SHARD_WORKER`).
fn measure_cluster_subprocess(
    data: &ScenarioData,
    events: &[StreamEvent],
    shards: u32,
) -> Option<f64> {
    let worker_bin = locate_worker_bin()?;
    let cfg = ClusterConfig {
        workers: Workers::Subprocess(SubprocessOptions {
            worker_bin,
            scenario: ScenarioSpec::Params(Box::new(paper_params())),
        }),
        ..ClusterConfig::new(shards)
    };
    let t0 = Instant::now();
    let result = run_cluster(data, events, &cfg).expect("subprocess cluster run");
    let wall = t0.elapsed().as_secs_f64();
    drop(result);
    let rate = events.len() as f64 / wall.max(1e-9);
    eprintln!("subprocess cluster x{shards} service rate: {rate:.0} events/s");
    Some(rate)
}

/// Unthrottled durable single-stream service rate; returns the rate and
/// the finished report (whose durability section carries the
/// snapshot-stall rate the capacity JSON must surface).
fn measure_durable(data: &ScenarioData, events: &[StreamEvent]) -> (f64, serde_json::Value) {
    let dir = scratch_dir("durable");
    let mut stream = DurableStream::create(
        &dir,
        data,
        AnalysisConfig::default(),
        DurabilityPolicy::default(),
    )
    .expect("durable stream");
    let t0 = Instant::now();
    for event in events {
        stream.ingest(event).expect("durable ingest");
    }
    let result = stream.finish();
    let wall = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    let rate = events.len() as f64 / wall.max(1e-9);
    let report = report_json(&result.report);
    // Satellite contract: the per-second snapshot stall rate is
    // surfaced in this run's report JSON.
    assert!(
        report["durability"]
            .as_object()
            .is_some_and(|d| d.contains_key("snapshot_stall_rate_per_sec")),
        "durable report must expose snapshot_stall_rate_per_sec"
    );
    eprintln!("durable service rate: {rate:.0} events/s");
    (rate, report)
}

fn main() {
    let deterministic_only = std::env::args().any(|a| a == "--deterministic");

    let (det_verdict, overload_2x) = deterministic_arm();
    let det_headline = det_verdict
        .breaking_point
        .expect("the service-rate step must pass its own SLO");

    let mut runs = vec![verdict_json("deterministic_sim_clock", &det_verdict)];
    let mut headline = serde_json::json!({
        "deterministic_breaking_point_offered_per_tick": det_headline,
    });

    if !deterministic_only {
        let (data, events) = paper_event_workload();
        let slo = SloConfig::default();

        // Single stream: calibrate, then genuinely wall-paced ramps in
        // both loop modes.
        let (single_rate, p50, p99) = measure_single(&data, &events);
        let rates: Vec<f64> = CALIBRATION_FRACTIONS
            .iter()
            .map(|f| f * single_rate)
            .collect();
        eprintln!("single-stream closed-loop ramp:");
        let closed = paced_ramp(
            &data,
            AnalysisConfig::default(),
            &events,
            &rates,
            PaceMode::ClosedLoop,
            QUEUE_CAPACITY,
            SEED,
            &slo,
        )
        .expect("closed-loop ramp");
        eprintln!("single-stream open-loop ramp:");
        let open = paced_ramp(
            &data,
            AnalysisConfig::default(),
            &events,
            &rates,
            PaceMode::OpenLoop,
            QUEUE_CAPACITY,
            SEED,
            &slo,
        )
        .expect("open-loop ramp");
        let single_bp = match (closed.breaking_point, open.breaking_point) {
            (Some(c), Some(o)) => Some(c.min(o)),
            (c, o) => c.or(o),
        };
        let mut closed_json = verdict_json("single_closed_loop", &closed);
        closed_json["calibration"] = serde_json::json!({
            "service_events_per_sec": single_rate,
            "batch_p50_micros": p50,
            "batch_p99_micros": p99,
        });
        runs.push(closed_json);
        runs.push(verdict_json("single_open_loop", &open));

        // Cluster arms: calibrate each shard count, ramp on the
        // simulated tick at the measured service rate.
        let mut cluster_bp4 = None;
        for shards in [2u32, 4, 8] {
            let rate = measure_cluster(&data, &events, shards);
            eprintln!("cluster x{shards} calibrated ramp:");
            let verdict = calibrated_ramp(
                &events,
                rate,
                &CALIBRATION_FRACTIONS,
                QUEUE_CAPACITY,
                SEED,
                &slo,
            );
            if shards == 4 {
                cluster_bp4 = verdict.breaking_point;
            }
            let mut v = verdict_json(&format!("cluster_x{shards}"), &verdict);
            v["calibration"] = serde_json::json!({ "service_events_per_sec": rate });
            runs.push(v);
        }

        // Subprocess-cluster arm: the same calibrated ramp against the
        // multi-process deployment shape, so the capacity record covers
        // the transport's serialization + pipe overhead too.
        let mut subprocess_bp4 = None;
        match measure_cluster_subprocess(&data, &events, 4) {
            Some(rate) => {
                eprintln!("subprocess cluster x4 calibrated ramp:");
                let verdict = calibrated_ramp(
                    &events,
                    rate,
                    &CALIBRATION_FRACTIONS,
                    QUEUE_CAPACITY,
                    SEED,
                    &slo,
                );
                subprocess_bp4 = verdict.breaking_point;
                let mut v = verdict_json("cluster_subprocess_x4", &verdict);
                v["calibration"] = serde_json::json!({ "service_events_per_sec": rate });
                runs.push(v);
            }
            None => eprintln!(
                "faultline-shard-worker binary not found (set FAULTLINE_SHARD_WORKER or \
                 `cargo build --release -p faultline`); skipping the subprocess-cluster arm"
            ),
        }

        // Durable arm: calibrate with the journal + off-thread snapshot
        // writer engaged; its report carries the stall-rate satellite.
        let (durable_rate, durable_report) = measure_durable(&data, &events);
        eprintln!("durable calibrated ramp:");
        let durable = calibrated_ramp(
            &events,
            durable_rate,
            &CALIBRATION_FRACTIONS,
            QUEUE_CAPACITY,
            SEED,
            &slo,
        );
        let mut v = verdict_json("durable_single", &durable);
        v["calibration"] = serde_json::json!({ "service_events_per_sec": durable_rate });
        v["report"] = durable_report;
        runs.push(v);

        headline["single_stream_breaking_point_events_per_sec"] = jv(&single_bp);
        headline["cluster4_breaking_point_events_per_sec"] = jv(&cluster_bp4);
        headline["subprocess_cluster4_breaking_point_events_per_sec"] = jv(&subprocess_bp4);
        headline["durable_breaking_point_events_per_sec"] = jv(&durable.breaking_point);
    }

    let mode = if deterministic_only {
        "deterministic"
    } else {
        "full"
    };
    let doc = serde_json::json!({
        "bench": "capacity",
        "mode": mode,
        "slo": (jv(&SloConfig::default())),
        "headline": headline,
        "overload_2x": overload_2x,
        "runs": (jv(&runs)),
    });
    write_bench_json("results/BENCH_capacity.json", &doc);
    println!(
        "headline: deterministic breaking point {det_headline} events/tick (service {DET_DRAIN_PER_TICK}/tick)"
    );
}
