//! Failure-injection tests: the pipeline must survive hostile or
//! degenerate inputs without panicking and produce bounded results.

use faultline_core::{Analysis, AnalysisConfig};
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_sim::workload::WorkloadParams;
use faultline_topology::generator::CenicParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Randomly drop a third of the syslog archive *after* collection (log
/// rotation losing files): reconstruction must survive the mangled
/// stream and downtime can only move within sane bounds.
#[test]
fn survives_post_hoc_syslog_truncation() {
    let mut data = run(&ScenarioParams::tiny(601));
    let baseline = {
        let a = Analysis::run(&data, AnalysisConfig::default());
        a.output.syslog_failures.len()
    };
    let mut rng = StdRng::seed_from_u64(99);
    data.syslog.retain(|_| rng.random::<f64>() > 0.33);
    let a = Analysis::run(&data, AnalysisConfig::default());
    // No panic, and the reconstruction shrinks rather than explodes.
    assert!(a.output.syslog_failures.len() <= baseline + 10);
    // Every surviving failure is still well-formed.
    for f in &a.output.syslog_failures {
        assert!(f.end > f.start);
    }
}

/// Shuffle the listener's transition log (a badly merged archive): the
/// pipeline sorts internally where it matters and must not panic.
#[test]
fn survives_reordered_listener_log() {
    let mut data = run(&ScenarioParams::tiny(602));
    data.transitions.reverse();
    let a = Analysis::run(&data, AnalysisConfig::default());
    // Reversed raw transitions make the per-source diffs nonsensical, but
    // the merge counts every inconsistency instead of panicking.
    let _ = a.table4();
    let _ = a.table3();
    assert!(a.output.is_stats.raw > 0);
}

/// A scenario with a failure-free workload: everything is zero, nothing
/// divides by it.
#[test]
fn zero_failure_workload() {
    let mut params = ScenarioParams::tiny(603);
    let mut quiet = WorkloadParams::default();
    for p in [&mut quiet.core, &mut quiet.cpe] {
        p.standalone_rate_median = 1e-9;
        p.flap_episode_rate_median = 1e-9;
        p.maintenance_rate = 0.0;
        p.blip_rate = 0.0;
        p.pseudo_background_rate = 0.0;
        p.reset_after_failure_prob = 0.0;
        p.abort_per_flap_failure_prob = 0.0;
    }
    quiet.period_days = 30.0;
    quiet.seed = 603;
    params.workload = quiet;
    let data = run(&params);
    assert!(
        data.truth.failures.len() < 5,
        "{}",
        data.truth.failures.len()
    );
    let a = Analysis::run(&data, AnalysisConfig::default());
    let t4 = a.table4();
    assert!(t4.isis_downtime_hours >= 0.0);
    let t7 = a.table7();
    assert!(t7.isis_events <= data.truth.failures.len() as u64);
    // Statistics handle empty/singleton samples.
    let _ = a.table5();
}

/// A listener outage covering almost the whole period: nearly everything
/// is sanitized away, nothing panics.
#[test]
fn listener_offline_for_most_of_the_period() {
    let mut params = ScenarioParams::tiny(604);
    params.outages.count = 1;
    params.outages.duration_range = (
        faultline_topology::time::Duration::from_days(28),
        faultline_topology::time::Duration::from_days(29),
    );
    let data = run(&params);
    let a = Analysis::run(&data, AnalysisConfig::default());
    let t4 = a.table4();
    // Sanitization removed failures overlapping the giant outage.
    assert!(
        (a.output.isis_sanitize.removed_offline + a.output.syslog_sanitize.removed_offline) > 0
            || data.truth.failures.is_empty()
    );
    assert!(t4.overlap_failures <= t4.isis_failures.min(t4.syslog_failures));
}

/// A degenerate three-router topology still flows end to end.
#[test]
fn minimal_topology() {
    let mut params = ScenarioParams::tiny(605);
    params.topology = CenicParams {
        core_routers: 3,
        cpe_routers: 2,
        core_links: 3,
        cpe_links: 2,
        multi_link_pairs: 0,
        customers: 2,
        short_lifetime_fraction: 0.0,
        period_days: 30.0,
        seed: 605,
    };
    let data = run(&params);
    let a = Analysis::run(&data, AnalysisConfig::default());
    assert_eq!(a.table.len(), 5);
    let _ = a.table4();
    let _ = a.table7();
}
