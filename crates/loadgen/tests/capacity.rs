//! The simulated-clock capacity, pinned exactly.
//!
//! On `ScenarioParams::tiny(42)`, with a 64-event shedding queue (seed 7)
//! served 8 events per tick, offered load is ramped in quarter-service
//! steps until more than 1% of it is shed. Nothing here reads a wall
//! clock, so the breaking point and the ledger of the 2× step are the
//! same on every machine and in every build: a change that moves them
//! changed admission or shedding, not the timing.

use faultline_core::admission::{run_overloaded, AdmissionConfig, SimSchedule};
use faultline_core::{scenario_event_stream, AnalysisConfig, OverloadCounters};
use faultline_loadgen::{deterministic_capacity, SloConfig};
use faultline_sim::scenario::{run, ScenarioParams};

const QUEUE: usize = 64;
const SERVICE_PER_TICK: usize = 8;
const SEED: u64 = 7;

#[test]
fn the_breaking_point_is_pinned() {
    let data = run(&ScenarioParams::tiny(42));
    let events = scenario_event_stream(&data);
    let verdict = deterministic_capacity(
        &data,
        &events,
        QUEUE,
        SERVICE_PER_TICK,
        SEED,
        &SloConfig::default(),
    )
    .expect("the ramp runs");
    // The service rate itself passes; the first quarter-step above it
    // sheds more than 1% and ends the ramp.
    assert_eq!(verdict.breaking_point, Some(8.0));
    let walked: Vec<(f64, bool)> = verdict
        .steps
        .iter()
        .map(|s| (s.offered_rate, s.passed))
        .collect();
    assert_eq!(walked, [(8.0, true), (10.0, false)]);
}

/// Twice the service rate, sustained: the queue stays at its bound,
/// every offered event is accounted for, and the report carries the
/// ledger — each count pinned.
#[test]
fn two_x_overload_ledger_is_pinned() {
    let data = run(&ScenarioParams::tiny(42));
    let events = scenario_event_stream(&data);
    let (result, counters) = run_overloaded(
        &data,
        AnalysisConfig::default(),
        &AdmissionConfig::shedding(QUEUE, SEED),
        SimSchedule::new(2 * SERVICE_PER_TICK, SERVICE_PER_TICK),
        &events,
    )
    .expect("the overloaded run finishes");
    assert!(counters.conserved(), "{counters:?}");
    assert_eq!(result.report.overload, Some(counters));
    assert_eq!(
        counters,
        OverloadCounters {
            offered: 729,
            admitted: 424,
            shed: 305,
            quarantined: 0,
            shed_critical: 0,
            shed_important: 178,
            shed_chatter: 127,
            shed_evicted: 216,
            shed_refused: 89,
            backpressure_waits: 0,
            queue_high_water: 64,
            watermark_lag_max_millis: 585_058_863,
        }
    );
}
