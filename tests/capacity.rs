//! The simulated-clock capacity, pinned exactly.
//!
//! The harness answers "how much traffic can this system serve?" by
//! finding the breaking point: offer load at a target rate through
//! `faultline-core`'s admission layer, check the SLOs ([`SloConfig`]),
//! raise the rate, and repeat until one breaks. The last passing rate is
//! the capacity. Arrivals and service both run on [`SimSchedule`] ticks,
//! so the breaking point is a pure function of the event stream and the
//! schedule.
//!
//! On `ScenarioParams::tiny(42)`, with a 64-event shedding queue (seed 7)
//! served 8 events per tick, offered load is ramped in quarter-service
//! steps until more than 1% of it is shed. Nothing here reads a wall
//! clock, so the breaking point and the ledger of the 2× step are the
//! same on every machine and in every build: a change that moves them
//! changed admission or shedding, not the timing.

use faultline_core::admission::{run_overloaded, AdmissionConfig, SimSchedule};
use faultline_core::{scenario_event_stream, AnalysisConfig, OverloadCounters, StreamEvent};
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_sim::ScenarioData;

/// The service-level objectives a load step must meet to pass. Any
/// `None` objective is not enforced (but the metric is still recorded).
#[derive(Debug, Clone, Copy, PartialEq)]
struct SloConfig {
    /// Maximum fraction of offered events shed.
    max_shed_fraction: f64,
    /// Maximum watermark lag (arrival frontier minus delivery frontier)
    /// in simulated milliseconds. Generous by default: on an event-time
    /// stream spanning months, even a small queue holds minutes of
    /// simulated time.
    max_watermark_lag_millis: Option<u64>,
    /// Maximum events resident in the admission queue (its memory
    /// bound). The queue never exceeds its configured capacity, so this
    /// objective catches a *mis-sized* capacity, not a leak.
    max_queue_high_water: Option<u64>,
}

impl Default for SloConfig {
    /// Shed at most 1%; lag and memory recorded but unenforced.
    fn default() -> Self {
        SloConfig {
            max_shed_fraction: 0.01,
            max_watermark_lag_millis: None,
            max_queue_high_water: None,
        }
    }
}

/// Everything one load step measured, plus the SLO verdict.
#[derive(Debug, Clone)]
struct RampStep {
    /// Offered rate, events per simulated tick.
    offered_rate: f64,
    /// Fraction of offered events shed.
    shed_fraction: f64,
    /// Worst watermark lag, simulated milliseconds.
    watermark_lag_max_millis: u64,
    /// Admission-queue high water, events.
    queue_high_water: u64,
    /// Every objective held.
    passed: bool,
    /// Which objectives broke, empty when `passed`.
    violations: Vec<String>,
}

/// Judge one step's metrics against the SLOs.
fn judge(slo: &SloConfig, step: &mut RampStep) {
    let mut v = Vec::new();
    if step.shed_fraction > slo.max_shed_fraction {
        v.push(format!(
            "shed_fraction {:.4} > {:.4}",
            step.shed_fraction, slo.max_shed_fraction
        ));
    }
    if let Some(max) = slo.max_watermark_lag_millis {
        if step.watermark_lag_max_millis > max {
            v.push(format!(
                "watermark_lag {} ms > {max} ms",
                step.watermark_lag_max_millis
            ));
        }
    }
    if let Some(max) = slo.max_queue_high_water {
        if step.queue_high_water > max {
            v.push(format!(
                "queue_high_water {} > {max}",
                step.queue_high_water
            ));
        }
    }
    step.passed = v.is_empty();
    step.violations = v;
}

/// The ramp verdict: every step walked, and the breaking point — the
/// highest offered rate whose step passed every SLO (`None` when even
/// the first step failed).
#[derive(Debug, Clone)]
struct RampVerdict {
    /// Steps in ramp order.
    steps: Vec<RampStep>,
    /// Highest passing offered rate.
    breaking_point: Option<f64>,
}

impl RampVerdict {
    /// Collect a walked ramp into a verdict.
    fn from_steps(steps: Vec<RampStep>) -> Self {
        let breaking_point = steps
            .iter()
            .filter(|s| s.passed)
            .map(|s| s.offered_rate)
            .fold(None, |acc: Option<f64>, r| {
                Some(acc.map_or(r, |a| a.max(r)))
            });
        RampVerdict {
            steps,
            breaking_point,
        }
    }
}

/// Simulated-clock capacity: with the service rate pinned at
/// `drained_per_tick`, walk `offered_per_tick` upward (whole engine run
/// per step, via [`run_overloaded`]) until an SLO breaks. No wall clock
/// is consulted anywhere, so the returned breaking point is identical
/// on every machine.
fn deterministic_capacity(
    data: &ScenarioData,
    events: &[StreamEvent],
    queue_capacity: usize,
    drained_per_tick: usize,
    seed: u64,
    slo: &SloConfig,
) -> Result<RampVerdict, faultline_core::AnalysisError> {
    let mut steps = Vec::new();
    let d = drained_per_tick.max(1);
    // d, d+ceil(d/4), ... — overload grows in quarter-service steps.
    let delta = d.div_ceil(4);
    let mut offered = d;
    while offered <= 4 * d {
        let schedule = SimSchedule::new(offered, d);
        let admission = AdmissionConfig::shedding(queue_capacity, seed);
        let (_result, counters) = run_overloaded(
            data,
            AnalysisConfig::default(),
            &admission,
            schedule,
            events,
        )?;
        let mut step = RampStep {
            offered_rate: offered as f64,
            shed_fraction: counters.shed_fraction(),
            watermark_lag_max_millis: counters.watermark_lag_max_millis,
            queue_high_water: counters.queue_high_water,
            passed: false,
            violations: Vec::new(),
        };
        judge(slo, &mut step);
        let failed = !step.passed;
        steps.push(step);
        if failed {
            break;
        }
        offered += delta;
    }
    Ok(RampVerdict::from_steps(steps))
}

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

fn step(rate: f64, shed: f64, lag: u64, high_water: u64) -> RampStep {
    RampStep {
        offered_rate: rate,
        shed_fraction: shed,
        watermark_lag_max_millis: lag,
        queue_high_water: high_water,
        passed: false,
        violations: vec!["stale".into()],
    }
}

#[test]
fn judge_flags_each_objective() {
    let slo = SloConfig {
        max_shed_fraction: 0.01,
        max_watermark_lag_millis: Some(10),
        max_queue_high_water: Some(64),
    };
    let mut bad = step(100.0, 0.5, 100, 128);
    judge(&slo, &mut bad);
    assert!(!bad.passed);
    assert_eq!(bad.violations.len(), 3, "{:?}", bad.violations);

    let mut good = step(100.0, 0.0, 5, 32);
    judge(&slo, &mut good);
    assert!(good.passed);
    assert!(good.violations.is_empty());
}

#[test]
fn verdict_takes_the_highest_passing_rate() {
    let judged = |rate: f64, passed: bool| RampStep {
        passed,
        ..step(rate, 0.0, 0, 0)
    };
    let v = RampVerdict::from_steps(vec![
        judged(10.0, true),
        judged(20.0, true),
        judged(30.0, false),
    ]);
    assert_eq!(v.breaking_point, Some(20.0));
    let none = RampVerdict::from_steps(vec![judged(10.0, false)]);
    assert_eq!(none.breaking_point, None);
}
