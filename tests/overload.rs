//! Overload-robustness contract: the admission controller in front of
//! the streaming kernel must (a) keep memory bounded under sustained
//! overload, (b) account for every offered event exactly
//! (`offered = admitted + shed + quarantined`), (c) shed deterministically
//! and priority-aware — IS-IS and DOWN/UP events outlive chatter — and
//! (d) produce the *same* degraded answer regardless of shard count,
//! because shedding runs upstream of classification and partitioning.
//!
//! The deterministic grid pins the 2× sustained-overload acceptance
//! contract; property tests then randomize seed × queue capacity ×
//! overload factor across one engine and shards {1,4} and require
//! byte-identical output plus an identical overload ledger.

use faultline_core::admission::{
    run_overloaded, run_overloaded_cluster, shed_survivors, AdmissionConfig, EventClass,
    SimSchedule,
};
use faultline_core::cluster::{ClusterConfig, SubprocessOptions, Workers};
use faultline_core::transport::ScenarioSpec;
use faultline_core::{scenario_event_stream, AnalysisConfig, StreamAnalysis, StreamEvent};
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_sim::ScenarioData;
use proptest::prelude::*;

const QUEUE: usize = 64;
const SERVICE_PER_TICK: usize = 8;

fn workload(seed: u64) -> (ScenarioData, Vec<StreamEvent>) {
    let data = run(&ScenarioParams::tiny(seed));
    let events = scenario_event_stream(&data);
    (data, events)
}

fn clean_flush(data: &ScenarioData, events: &[StreamEvent]) -> faultline_core::StreamResult {
    let mut engine = StreamAnalysis::new(data, AnalysisConfig::default());
    for chunk in events.chunks(1_024) {
        engine.ingest_batch(chunk);
    }
    engine.flush()
}

/// Relative drift of a degraded headline against the unshedded one.
fn rel(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        if a == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (a - b).abs() / b
    }
}

/// The acceptance contract: 2× sustained overload in shed mode finishes
/// cleanly with bounded queue occupancy, an exactly conserved ledger,
/// and a populated [`OverloadCounters`] section on the report.
#[test]
fn two_x_sustained_overload_is_bounded_and_conserved() {
    let (data, events) = workload(42);
    let schedule = SimSchedule::new(2 * SERVICE_PER_TICK, SERVICE_PER_TICK);
    let admission = AdmissionConfig::shedding(QUEUE, 7);
    let (result, counters) = run_overloaded(
        &data,
        AnalysisConfig::default(),
        &admission,
        schedule,
        &events,
    )
    .expect("overloaded run finishes");

    assert_eq!(counters.offered, events.len() as u64, "every event offered");
    assert!(counters.conserved(), "exact conservation: {counters:?}");
    assert_eq!(
        counters.offered,
        counters.admitted + counters.shed + counters.quarantined,
        "the identity itself, spelled out"
    );
    assert!(
        counters.queue_high_water <= QUEUE as u64,
        "queue must never exceed its capacity: hwm {}",
        counters.queue_high_water
    );
    assert!(counters.shed > 0, "2x overload must actually shed");
    assert_eq!(
        counters.shed,
        counters.shed_critical + counters.shed_important + counters.shed_chatter,
        "per-class shed counts partition the total"
    );
    let report_counters = result.report.overload.expect("report carries the ledger");
    assert_eq!(report_counters, counters, "report and return value agree");

    // Engine-side satellites populated from the same run.
    let streaming = result.report.streaming.expect("streaming section");
    assert!(
        streaming.arena_events_high_water > 0,
        "arena high water tracked"
    );

    // The report renders the overload line.
    let rendered = result.report.to_string();
    assert!(
        rendered.contains("overload:") && rendered.contains("conserved"),
        "human-readable ledger:\n{rendered}"
    );
}

/// Priority-aware shedding: chatter is evicted before DOWN/UP, and
/// IS-IS (Critical) events are never shed while lower classes remain —
/// on this workload that means zero critical losses even at 2×, so the
/// degraded IS-IS answer is *identical* to the unshedded one.
#[test]
fn shedding_preserves_critical_events_and_isis_answer() {
    let (data, events) = workload(42);
    let schedule = SimSchedule::new(2 * SERVICE_PER_TICK, SERVICE_PER_TICK);
    let admission = AdmissionConfig::shedding(QUEUE, 7);
    let (result, counters) = run_overloaded(
        &data,
        AnalysisConfig::default(),
        &admission,
        schedule,
        &events,
    )
    .expect("overloaded run finishes");

    assert_eq!(
        counters.shed_critical, 0,
        "IS-IS events must outlive chatter: {counters:?}"
    );
    // Priority is about *rates*, not absolute counts (the class mix is
    // whatever the scenario produced): the fraction of each class shed
    // must fall as priority rises.
    let mut offered_by_class = [0u64; 3];
    for event in &events {
        offered_by_class[EventClass::of(event) as usize] += 1;
    }
    let frac = |shed: u64, class: EventClass| {
        let offered = offered_by_class[class as usize];
        if offered == 0 {
            0.0
        } else {
            shed as f64 / offered as f64
        }
    };
    let f_critical = frac(counters.shed_critical, EventClass::Critical);
    let f_important = frac(counters.shed_important, EventClass::Important);
    let f_chatter = frac(counters.shed_chatter, EventClass::Chatter);
    assert!(
        f_chatter >= f_important && f_important >= f_critical,
        "shed fractions must rank chatter >= important >= critical: \
         {f_chatter:.3} / {f_important:.3} / {f_critical:.3} ({counters:?})"
    );

    let clean = clean_flush(&data, &events);
    assert_eq!(
        serde_json::to_string(&result.output.isis_failures).unwrap(),
        serde_json::to_string(&clean.output.isis_failures).unwrap(),
        "with zero critical shed, the IS-IS failure record is unchanged"
    );

    // Degraded-mode drift vs the unshedded answer, measured and banded
    // (the syslog side *does* degrade — chatter carries its evidence).
    let drift_syslog = rel(
        result.output.syslog_failures.len() as f64,
        clean.output.syslog_failures.len() as f64,
    );
    assert!(
        drift_syslog <= 0.95,
        "syslog drift under 2x shed out of band: {drift_syslog:.3}"
    );
}

/// Backpressure mode: nothing is ever shed — the offered stream blocks
/// until the engine catches up, the ledger still balances, and the
/// answer is byte-identical to the unshedded run.
#[test]
fn block_policy_serves_everything_byte_identically() {
    let (data, events) = workload(42);
    let schedule = SimSchedule::new(2 * SERVICE_PER_TICK, SERVICE_PER_TICK);
    let admission = AdmissionConfig {
        queue_capacity: QUEUE,
        ..AdmissionConfig::default()
    };
    let (result, counters) = run_overloaded(
        &data,
        AnalysisConfig::default(),
        &admission,
        schedule,
        &events,
    )
    .expect("blocking run finishes");

    assert_eq!(counters.shed, 0, "backpressure never drops");
    assert!(counters.conserved());
    assert!(
        counters.backpressure_waits > 0,
        "2x overload must actually block"
    );
    assert!(counters.queue_high_water <= QUEUE as u64);

    let clean = clean_flush(&data, &events);
    assert_eq!(
        serde_json::to_string(&result.output).unwrap(),
        serde_json::to_string(&clean.output).unwrap(),
        "blocking admission is invisible in the answer"
    );
}

/// The shed decision depends only on (stream, config, schedule) — not
/// on wall time — so replaying the same overload twice is byte-identical
/// end to end, and a different seed may shed a different (but equally
/// well-formed) set.
#[test]
fn shed_replay_is_deterministic() {
    let (data, events) = workload(17);
    let schedule = SimSchedule::new(3 * SERVICE_PER_TICK, SERVICE_PER_TICK);
    let admission = AdmissionConfig::shedding(QUEUE, 99);
    let (a, ca) = run_overloaded(
        &data,
        AnalysisConfig::default(),
        &admission,
        schedule,
        &events,
    )
    .unwrap();
    let (b, cb) = run_overloaded(
        &data,
        AnalysisConfig::default(),
        &admission,
        schedule,
        &events,
    )
    .unwrap();
    assert_eq!(ca, cb, "ledger replays identically");
    assert_eq!(
        serde_json::to_string(&a.output).unwrap(),
        serde_json::to_string(&b.output).unwrap(),
        "degraded output replays byte-identically"
    );
}

/// Survivors are a plain subsequence of the offered stream, so feeding
/// them to the single-stream engine equals [`run_overloaded`]'s own
/// answer — the shed decision and the analysis are fully decoupled.
#[test]
fn survivors_replayed_standalone_equal_the_overloaded_run() {
    let (data, events) = workload(42);
    let schedule = SimSchedule::new(2 * SERVICE_PER_TICK, SERVICE_PER_TICK);
    let admission = AdmissionConfig::shedding(QUEUE, 7);
    let (survivors, shed_counters) = shed_survivors(&events, &admission, schedule);
    assert_eq!(
        shed_counters.offered - shed_counters.shed,
        survivors.len() as u64,
        "survivor count matches the ledger"
    );
    let standalone = clean_flush(&data, &survivors);
    let (overloaded, _) = run_overloaded(
        &data,
        AnalysisConfig::default(),
        &admission,
        schedule,
        &events,
    )
    .unwrap();
    assert_eq!(
        serde_json::to_string(&standalone.output).unwrap(),
        serde_json::to_string(&overloaded.output).unwrap(),
        "shedding is upstream of analysis"
    );
}

/// Shedding runs upstream of the partitioner, so where the workers live
/// cannot matter: subprocess workers give the in-process answer and the
/// same overload ledger.
#[test]
fn overloaded_cluster_over_subprocess_workers_equals_in_process() {
    let params = ScenarioParams::tiny(42);
    let data = run(&params);
    let events = scenario_event_stream(&data);
    let schedule = SimSchedule::new(2 * SERVICE_PER_TICK, SERVICE_PER_TICK);
    let admission = AdmissionConfig::shedding(QUEUE, 7);
    let in_process = ClusterConfig::new(2);
    let subprocess = ClusterConfig {
        workers: Workers::Subprocess(SubprocessOptions {
            worker_bin: env!("CARGO_BIN_EXE_faultline-shard-worker").into(),
            scenario: ScenarioSpec::Params(Box::new(params)),
        }),
        ..in_process.clone()
    };
    let (expected, expected_counters) =
        run_overloaded_cluster(&data, &events, &in_process, &admission, schedule).unwrap();
    let (result, counters) =
        run_overloaded_cluster(&data, &events, &subprocess, &admission, schedule).unwrap();
    assert!(counters.shed > 0, "the schedule must actually shed");
    assert_eq!(
        serde_json::to_string(&expected.output).unwrap(),
        serde_json::to_string(&result.output).unwrap()
    );
    assert_eq!(expected_counters, counters);
    assert_eq!(result.report.overload, Some(counters));
    let t = result.report.transport.expect("transport ledger");
    assert!(t.bytes_sent > 0, "survivors really crossed a pipe: {t:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shed-mode replay is invariant across one engine and in-process
    /// shard threads {1,4}: same seed + same stream ⇒ byte-identical
    /// output and an identical [`OverloadCounters`] ledger, for random
    /// scenario seeds, admission seeds, queue capacities, and overload
    /// factors.
    #[test]
    fn shed_replay_is_thread_and_shard_invariant(
        scenario_seed in 0u64..10_000,
        admission_seed in 0u64..1_000,
        capacity in 16usize..256,
        overload_num in 2usize..5,
    ) {
        let (data, events) = workload(scenario_seed);
        let schedule = SimSchedule::new(overload_num * SERVICE_PER_TICK, SERVICE_PER_TICK);
        let admission = AdmissionConfig::shedding(capacity, admission_seed);

        let (result, expected_counters) =
            run_overloaded(&data, AnalysisConfig::default(), &admission, schedule, &events)
                .unwrap();
        prop_assert!(expected_counters.conserved(), "{:?}", expected_counters);
        prop_assert!(expected_counters.queue_high_water <= capacity as u64);
        let expected = serde_json::to_string(&result.output).unwrap();
        for shards in [1u32, 4] {
            let (result, counters) = run_overloaded_cluster(
                &data,
                &events,
                &ClusterConfig::new(shards),
                &admission,
                schedule,
            )
            .unwrap();
            prop_assert!(counters.conserved(), "shards {}: {:?}", shards, counters);
            let bytes = serde_json::to_string(&result.output).unwrap();
            prop_assert_eq!(&expected, &bytes, "shards {} diverged", shards);
            prop_assert_eq!(&expected_counters, &counters, "shards {} ledger", shards);
            prop_assert_eq!(
                result.report.overload.expect("merged report carries the ledger"),
                counters
            );
        }
    }
}
