//! Paper-shape regression tests: run the canonical full-scale scenario
//! (the one every experiment binary uses) and pin the qualitative
//! findings of every table. These are the reproduction's contract —
//! if a refactor breaks a paper-level conclusion, a test here fails.
//!
//! Absolute numbers are asserted as *bands* around the paper's values;
//! see EXPERIMENTS.md for the exact paper-vs-measured comparison.

use faultline_core::{Analysis, AnalysisConfig};
use faultline_sim::scenario::{run, ScenarioData, ScenarioParams};
use faultline_topology::link::LinkClass;
use std::sync::OnceLock;

/// The full 389-day scenario takes ~0.5 s; share it across tests.
fn data() -> &'static ScenarioData {
    static DATA: OnceLock<ScenarioData> = OnceLock::new();
    DATA.get_or_init(|| run(&ScenarioParams::default()))
}

fn analysis() -> Analysis<'static> {
    Analysis::run(data(), AnalysisConfig::default())
}

#[test]
fn table1_scale_matches_paper() {
    let a = analysis();
    let t1 = a.table1();
    assert_eq!(t1.core_routers, 60);
    assert_eq!(t1.cpe_routers, 175);
    assert_eq!(t1.core_links, 84);
    assert_eq!(t1.cpe_links, 215);
    assert_eq!(t1.multi_link_pairs, 26);
    // Paper: 47,371 ADJCHANGE messages over the period.
    assert!(
        (25_000..90_000).contains(&t1.syslog_adjacency_messages),
        "{}",
        t1.syslog_adjacency_messages
    );
}

#[test]
fn table2_is_reachability_beats_ip_for_adjacency_messages() {
    let a = analysis();
    let t2 = a.table2();
    // Paper: 82%/25% (down), 85%/23% (up) — IS reach matches ADJCHANGE
    // messages ~3x better than IP reach.
    assert!(t2.isis_down.0 > 70.0, "IS down match {}", t2.isis_down.0);
    assert!(t2.isis_up.0 > 70.0);
    assert!(t2.isis_down.1 < 45.0, "IP down match {}", t2.isis_down.1);
    assert!(t2.isis_down.0 > 2.0 * t2.isis_down.1);
    // Paper: physical-media messages match IP reach better than IS reach
    // (52%/31% down).
    assert!(
        t2.phys_down.1 > t2.phys_down.0,
        "physical media must track IP reachability: {t2:?}"
    );
}

#[test]
fn table3_unmatched_transitions_concentrate_in_flapping() {
    let a = analysis();
    let t3 = a.table3();
    let down_total = t3.down.total() as f64;
    let up_total = t3.up.total() as f64;
    // Paper: DOWN None 18%, UP None 15%.
    let down_none = t3.down.none as f64 / down_total;
    let up_none = t3.up.none as f64 / up_total;
    assert!((0.08..0.30).contains(&down_none), "down none {down_none}");
    assert!((0.08..0.30).contains(&up_none), "up none {up_none}");
    // Paper: the majority of unmatched transitions occur during flapping
    // (67% / 61%).
    assert!(t3.unmatched_down_in_flap_pct > 55.0);
    assert!(t3.unmatched_up_in_flap_pct > 55.0);
    // "One" is a large column (39%/48%) — not a both-or-nothing world.
    assert!(t3.down.one as f64 / down_total > 0.25);
    assert!(t3.up.one as f64 / up_total > 0.25);
}

#[test]
fn table4_syslog_counts_more_but_reports_less_downtime() {
    let a = analysis();
    let t4 = a.table4();
    // Paper: 11,213 vs 11,738 failures (+4.7%), 3,648 vs 2,714 hours
    // (-26%). Bands: counts within ±15% of each other with syslog >= 95%
    // of IS-IS; downtime clearly lower for syslog.
    let count_ratio = t4.syslog_failures as f64 / t4.isis_failures as f64;
    assert!(
        (0.95..1.20).contains(&count_ratio),
        "count ratio {count_ratio}"
    );
    let downtime_ratio = t4.syslog_downtime_hours / t4.isis_downtime_hours;
    assert!(
        (0.6..0.95).contains(&downtime_ratio),
        "downtime ratio {downtime_ratio}"
    );
    // Paper scale: ~10-12k failures, ~3-4k hours.
    assert!(
        (7_000..15_000).contains(&t4.isis_failures),
        "{}",
        t4.isis_failures
    );
    assert!((2_000.0..5_000.0).contains(&t4.isis_downtime_hours));
    // The ticket check removes a multi-thousand-hour block of spurious
    // downtime from a couple dozen long failures (paper: 25 / ~6,000 h).
    assert!((10..80).contains(&t4.syslog_long_removed));
    assert!(t4.syslog_long_removed_hours > 2_000.0);
}

#[test]
fn table5_medians_track_paper_orderings() {
    let a = analysis();
    let t5 = a.table5();
    // [0]=failures/link, [1]=duration, [2]=tbf, [3]=downtime; median field.
    // CPE links fail more often than Core links (12.3 vs 6.6 medians).
    assert!(t5.cpe_isis[0].median > t5.core_isis[0].median);
    // Core failures last longer than CPE failures (42 s vs 12 s medians).
    assert!(t5.core_isis[1].median > t5.cpe_isis[1].median);
    // Median time between failures is short (flapping dominated): under
    // an hour for both classes in both sources (paper: 0.2 h / 0.01-0.03 h).
    assert!(t5.core_isis[2].median < 1.0, "{}", t5.core_isis[2].median);
    assert!(t5.cpe_isis[2].median < 1.0);
    // Syslog under-reports annualized downtime in both classes.
    assert!(t5.core_syslog[3].median <= t5.core_isis[3].median);
    assert!(t5.cpe_syslog[3].median <= t5.cpe_isis[3].median);
    // Heavy tails: averages far exceed medians for durations.
    assert!(t5.cpe_isis[1].mean > 10.0 * t5.cpe_isis[1].median);
}

#[test]
fn ks_verdicts_match_paper() {
    let a = analysis();
    // Paper (§4.2): consistent for failures per link and link downtime,
    // NOT for failure duration. Check the CPE class (the paper's Figure 1
    // class) and Core.
    for class in [LinkClass::Core, LinkClass::Cpe] {
        let ks = a.ks_tests(class);
        assert!(
            ks.failures_per_link.consistent_at(0.05),
            "{class:?} failures/link p={}",
            ks.failures_per_link.p_value
        );
        assert!(
            ks.link_downtime.consistent_at(0.05),
            "{class:?} downtime p={}",
            ks.link_downtime.p_value
        );
        assert!(
            !ks.failure_duration.consistent_at(0.05),
            "{class:?} duration must be DISTINCT, p={}",
            ks.failure_duration.p_value
        );
    }
}

#[test]
fn table6_spurious_dominates_downs_lost_dominates_ups() {
    let a = analysis();
    let t6 = a.table6();
    let counts = t6.counts;
    // Paper: 461 double-downs, 202 double-ups; more downs than ups.
    assert!(counts.down_total() > counts.up_total());
    assert!(
        (150..900).contains(&counts.down_total()),
        "{}",
        counts.down_total()
    );
    assert!(
        (40..400).contains(&counts.up_total()),
        "{}",
        counts.up_total()
    );
    // Paper: spurious retransmission explains 52% of double-downs (vs 42%
    // lost); lost messages explain 86% of double-ups.
    assert!(
        counts.down[1] > counts.down[2],
        "spurious must beat unknown for downs: {counts:?}"
    );
    assert!(
        counts.up[0] > counts.up[1] + counts.up[2],
        "lost messages must dominate double-ups: {counts:?}"
    );
    assert_eq!(t6.total_ambiguous, counts.down_total() + counts.up_total());
}

#[test]
fn false_positive_taxonomy_matches_paper() {
    let a = analysis();
    let fp = a.false_positives();
    let total = fp.short_count + fp.long_count;
    // Paper: 2,440 FPs = 21% of syslog failures; 83% short.
    let share = total as f64 / a.output.syslog_failures.len() as f64;
    assert!((0.10..0.35).contains(&share), "FP share {share}");
    let short_share = fp.short_count as f64 / total as f64;
    assert!(short_share > 0.7, "short share {short_share}");
    // Paper: nearly all long FPs occur during flapping, and they carry
    // nearly all FP downtime.
    assert!(fp.long_in_flap as f64 >= 0.8 * fp.long_count as f64);
    assert!(fp.long_downtime_ms > 10 * fp.short_downtime_ms);
}

#[test]
fn table7_isolation_orderings() {
    let a = analysis();
    let t7 = a.table7();
    // Paper: IS-IS 1,401 events / 74 sites / 26.3 d; syslog 1,060 / 67 /
    // 22.3; intersection 1,002 / 66 / 19.8.
    assert!((700..2_200).contains(&t7.isis_events), "{}", t7.isis_events);
    assert!((50..=130).contains(&t7.isis_sites), "{}", t7.isis_sites);
    assert!((15.0..60.0).contains(&t7.isis_days), "{}", t7.isis_days);
    // Syslog reports less isolation downtime than IS-IS.
    assert!(t7.syslog_days < t7.isis_days);
    // Intersection below both.
    assert!(t7.intersection.intersection_days <= t7.syslog_days + 1e-9);
    assert!(t7.intersection.matched_events <= t7.isis_events.min(t7.syslog_events));
}

#[test]
fn flapping_share_of_failures_is_majority() {
    // Paper §4.1/§4.2: flapping dominates the failure count (median TBF
    // of minutes implies most consecutive failures are flap cycles).
    let d = data();
    let flap = d.truth.failures.iter().filter(|f| f.in_flap).count();
    assert!(
        flap * 2 > d.truth.failures.len(),
        "flap share {}/{}",
        flap,
        d.truth.failures.len()
    );
}
