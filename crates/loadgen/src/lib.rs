//! The capacity harness: how much traffic can this system serve?
//!
//! Modeled on the Internet Computer's scalability suite, the harness
//! answers that question the only defensible way — by *finding the
//! breaking point*: offer load at a target rate, check the SLOs
//! ([`SloConfig`]), raise the rate, and repeat until one breaks. The
//! last passing rate is the capacity.
//!
//! [`deterministic_capacity`] offers the load through `faultline-core`'s
//! admission layer ([`faultline_core::admission`]) on a simulated clock:
//! arrivals and service both run on [`SimSchedule`] ticks, so the
//! breaking point is a pure function of the event stream and the
//! schedule — machine-independent, which is what lets a test pin it
//! exactly (`tests/capacity.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use faultline_core::admission::{run_overloaded, AdmissionConfig, SimSchedule};
use faultline_core::{AnalysisConfig, StreamEvent};
use faultline_sim::ScenarioData;

/// The service-level objectives a load step must meet to pass. Any
/// `None` objective is not enforced (but the metric is still recorded).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Maximum fraction of offered events shed.
    pub max_shed_fraction: f64,
    /// Maximum watermark lag (arrival frontier minus delivery frontier)
    /// in simulated milliseconds. Generous by default: on an event-time
    /// stream spanning months, even a small queue holds minutes of
    /// simulated time.
    pub max_watermark_lag_millis: Option<u64>,
    /// Maximum events resident in the admission queue (its memory
    /// bound). The queue never exceeds its configured capacity, so this
    /// objective catches a *mis-sized* capacity, not a leak.
    pub max_queue_high_water: Option<u64>,
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
pub struct RampStep {
    /// Offered rate, events per simulated tick.
    pub offered_rate: f64,
    /// Rate that survived admission, in the same unit.
    pub achieved_rate: f64,
    /// Fraction of offered events shed.
    pub shed_fraction: f64,
    /// Worst watermark lag, simulated milliseconds.
    pub watermark_lag_max_millis: u64,
    /// Admission-queue high water, events.
    pub queue_high_water: u64,
    /// Every objective held.
    pub passed: bool,
    /// Which objectives broke, empty when `passed`.
    pub violations: Vec<String>,
}

/// Judge one step's metrics against the SLOs.
pub fn judge(slo: &SloConfig, step: &mut RampStep) {
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
pub struct RampVerdict {
    /// Steps in ramp order.
    pub steps: Vec<RampStep>,
    /// Highest passing offered rate.
    pub breaking_point: Option<f64>,
}

impl RampVerdict {
    /// Collect a walked ramp into a verdict.
    pub fn from_steps(steps: Vec<RampStep>) -> Self {
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
pub fn deterministic_capacity(
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
            achieved_rate: offered as f64 * (1.0 - counters.shed_fraction()),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn step(rate: f64, shed: f64, lag: u64, high_water: u64) -> RampStep {
        RampStep {
            offered_rate: rate,
            achieved_rate: rate * (1.0 - shed),
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
}
