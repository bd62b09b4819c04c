//! End-to-end integration tests spanning every crate: topology generation
//! → config mining → failure simulation → IS-IS flooding + syslog
//! transport → the full comparative analysis.

use faultline_core::sanitize::TICKET_SLACK;
use faultline_core::{Analysis, AnalysisConfig};
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_topology::link::LinkClass;

/// With a lossless transport and no listener outages, the syslog and
/// IS-IS reconstructions must agree closely: the only syslog-only
/// failures are deliberately injected pseudo-events, and the only
/// IS-IS-only failures are boundary artifacts.
#[test]
fn lossless_differential_baseline() {
    let data = run(&ScenarioParams::tiny(101).lossless());
    let a = Analysis::run(&data, AnalysisConfig::default());
    let matching = &a.output.matching;
    let isis_n = a.output.isis_failures.len();
    let matched = matching.matched.len();
    assert!(
        matched as f64 >= 0.9 * isis_n as f64,
        "lossless run must match >=90% of IS-IS failures: {matched}/{isis_n}"
    );
    // Transport accounting: everything offered was delivered.
    assert_eq!(data.transport_stats.offered, data.transport_stats.delivered);
}

/// The lossy pipeline must reproduce the paper's headline asymmetries
/// at reduced scale.
#[test]
fn lossy_run_shows_paper_asymmetries() {
    let mut params = ScenarioParams::tiny(103);
    params.workload.period_days = 180.0;
    // Link lifetimes are drawn against the topology's period; keep them
    // in sync so links live through the longer window.
    params.topology.period_days = 180.0;
    let data = run(&params);
    let a = Analysis::run(&data, AnalysisConfig::default());

    // Both sources reconstruct a meaningful number of failures. (The tiny
    // topology has few links and flapping is concentrated, so counts are
    // modest.)
    assert!(
        a.output.isis_failures.len() > 40,
        "{}",
        a.output.isis_failures.len()
    );
    assert!(
        a.output.syslog_failures.len() > 40,
        "{}",
        a.output.syslog_failures.len()
    );

    // Syslog downtime does not exceed IS-IS downtime by much (lost
    // messages and silent outages bias it down; small runs are noisy).
    let t4 = a.table4();
    assert!(
        t4.syslog_downtime_hours <= t4.isis_downtime_hours * 1.3,
        "syslog {:.0}h vs isis {:.0}h",
        t4.syslog_downtime_hours,
        t4.isis_downtime_hours
    );
    // Overlap is bounded by both sides.
    assert!(t4.overlap_failures <= t4.isis_failures.min(t4.syslog_failures));
    assert!(t4.overlap_downtime_hours <= t4.isis_downtime_hours + 1e-9);
    assert!(t4.overlap_downtime_hours <= t4.syslog_downtime_hours + 1e-9);
}

/// Every failure the analysis reports must lie on a resolvable link and
/// inside the measurement period.
#[test]
fn failures_are_well_formed() {
    let data = run(&ScenarioParams::tiny(104));
    let a = Analysis::run(&data, AnalysisConfig::default());
    let period_ms = (data.period_days * 86_400_000.0) as u64;
    for f in a
        .output
        .isis_failures
        .iter()
        .chain(a.output.syslog_failures.iter())
    {
        assert!(f.end > f.start, "non-positive duration: {f:?}");
        assert!(f.end.as_millis() <= period_ms + 3_600_000);
        assert!(a.table.is_resolvable(f.link));
    }
}

/// The mined link inventory must resolve every syslog message and every
/// IS-IS transition the simulator produces (full naming closure).
#[test]
fn naming_layer_is_closed() {
    let data = run(&ScenarioParams::tiny(105));
    let a = Analysis::run(&data, AnalysisConfig::default());
    assert_eq!(a.output.resolve_stats.unresolved, 0);
    assert_eq!(a.output.is_stats.unknown, 0);
    assert_eq!(a.output.ip_stats.unknown, 0);
    // IP reachability identifies every link uniquely (/31s).
    assert_eq!(a.output.ip_stats.unresolvable_multilink, 0);
}

/// Table 5 metric samples feed a KS test without panicking, for both
/// classes, and the distributions have sane supports.
#[test]
fn statistics_pipeline_runs() {
    let mut params = ScenarioParams::tiny(106);
    params.workload.period_days = 90.0;
    let data = run(&params);
    let a = Analysis::run(&data, AnalysisConfig::default());
    for class in [LinkClass::Core, LinkClass::Cpe] {
        let ks = a.ks_tests(class);
        for r in [ks.failures_per_link, ks.failure_duration, ks.link_downtime] {
            assert!((0.0..=1.0).contains(&r.statistic));
            assert!((0.0..=1.0).contains(&r.p_value));
        }
    }
    let fig = a.figure1();
    // ECDFs are monotone by construction; check the ends.
    assert_eq!(fig.duration_secs.0.at(f64::MAX), 1.0);
    assert_eq!(fig.duration_secs.1.at(-1.0), 0.0);
}

/// Sanitization invariants: nothing overlapping a listener outage
/// survives, and every long syslog failure that survives is chronicled
/// by a ticket.
#[test]
fn sanitization_invariants() {
    let data = run(&ScenarioParams::tiny(107));
    let a = Analysis::run(&data, AnalysisConfig::default());
    for f in a
        .output
        .isis_failures
        .iter()
        .chain(a.output.syslog_failures.iter())
    {
        for s in &data.offline_spans {
            assert!(f.end < s.from || f.start > s.to);
        }
    }
    let cfg = AnalysisConfig::default();
    for f in &a.output.syslog_failures {
        if f.duration() > cfg.long_threshold {
            let lid = a.link_of_ix[f.link.0 as usize].expect("a mined link");
            assert!(
                data.tickets.verifies(lid, f.start, f.end, TICKET_SLACK),
                "surviving long failure without ticket: {f:?}"
            );
        }
    }
}

/// Isolation results are consistent between the two entry points and
/// bounded by the topology.
#[test]
fn isolation_consistency() {
    let data = run(&ScenarioParams::tiny(108));
    let a = Analysis::run(&data, AnalysisConfig::default());
    let t7 = a.table7();
    let n_customers = data.topology.customers().len() as u64;
    assert!(t7.isis_sites <= n_customers);
    assert!(t7.syslog_sites <= n_customers);
    assert!(t7.intersection.matched_events <= t7.isis_events.min(t7.syslog_events));
    assert!(t7.intersection.common_sites <= t7.isis_sites.min(t7.syslog_sites));
    assert!(t7.intersection.intersection_days <= t7.isis_days + 1e-9);
    assert!(t7.intersection.intersection_days <= t7.syslog_days + 1e-9);
}
