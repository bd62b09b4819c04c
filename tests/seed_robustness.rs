//! Seed robustness: the paper-shape conclusions must hold across random
//! seeds, not just the canonical one. Bands here are wider than in
//! `paper_shape.rs` (which pins seed 42), but every *ordering* claim is
//! asserted for each seed.

use faultline_core::{Analysis, AnalysisConfig};
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_topology::link::LinkClass;

fn params_with_seed(seed: u64) -> ScenarioParams {
    let mut p = ScenarioParams {
        seed,
        ..ScenarioParams::default()
    };
    p.workload.seed = seed ^ 0x5EED;
    p.transport.seed = seed ^ 0x7777;
    p.topology.seed = seed;
    p
}

#[test]
fn orderings_hold_across_seeds() {
    for seed in [7u64, 1234, 0xDEADBEEF] {
        let data = run(&params_with_seed(seed));
        let a = Analysis::run(&data, AnalysisConfig::default());

        let t4 = a.table4();
        let count_ratio = t4.syslog_failures as f64 / t4.isis_failures as f64;
        assert!(
            (0.85..1.30).contains(&count_ratio),
            "seed {seed}: count ratio {count_ratio}"
        );
        assert!(
            t4.syslog_downtime_hours < t4.isis_downtime_hours,
            "seed {seed}: syslog must under-report downtime \
             ({:.0} vs {:.0})",
            t4.syslog_downtime_hours,
            t4.isis_downtime_hours
        );

        let t3 = a.table3();
        let none_share =
            (t3.down.none + t3.up.none) as f64 / (t3.down.total() + t3.up.total()) as f64;
        assert!(
            (0.05..0.35).contains(&none_share),
            "seed {seed}: none share {none_share}"
        );
        assert!(
            t3.unmatched_down_in_flap_pct > 50.0,
            "seed {seed}: unmatched must concentrate in flapping"
        );

        // KS verdicts are the paper's sharpest claim; they must be
        // seed-independent.
        for class in [LinkClass::Core, LinkClass::Cpe] {
            let ks = a.ks_tests(class);
            assert!(
                ks.failures_per_link.consistent_at(0.05),
                "seed {seed} {class:?}: failures/link p={}",
                ks.failures_per_link.p_value
            );
            assert!(
                !ks.failure_duration.consistent_at(0.05),
                "seed {seed} {class:?}: duration p={}",
                ks.failure_duration.p_value
            );
        }

        // Table 5 orderings.
        let t5 = a.table5();
        assert!(
            t5.cpe_isis[0].median > t5.core_isis[0].median,
            "seed {seed}: CPE links fail more often"
        );
        assert!(
            t5.core_isis[1].median > t5.cpe_isis[1].median,
            "seed {seed}: Core failures last longer"
        );

        // Isolation: intersection below both, syslog downtime below
        // IS-IS downtime.
        let t7 = a.table7();
        assert!(
            t7.syslog_days <= t7.isis_days * 1.05,
            "seed {seed}: isolation downtime ordering ({:.1} vs {:.1})",
            t7.syslog_days,
            t7.isis_days
        );
        assert!(t7.intersection.matched_events <= t7.isis_events.min(t7.syslog_events));
    }
}

#[test]
fn false_positive_taxonomy_holds_across_seeds() {
    for seed in [99u64, 31337] {
        let data = run(&params_with_seed(seed));
        let a = Analysis::run(&data, AnalysisConfig::default());
        let fp = a.false_positives();
        let total = (fp.short_count + fp.long_count).max(1);
        assert!(
            fp.short_count * 10 >= total * 7,
            "seed {seed}: short FPs must dominate ({}/{total})",
            fp.short_count
        );
        assert!(
            fp.long_in_flap * 10 >= fp.long_count * 7,
            "seed {seed}: long FPs concentrate in flapping ({}/{})",
            fp.long_in_flap,
            fp.long_count
        );
    }
}
