//! Reproduces the §4.3 strategy comparison for ambiguous double up/down
//! messages: assume-down, assume-up, or keep the previous state. The
//! paper finds keeping the previous state brings syslog link downtime
//! closest to IS-IS link downtime.
//!
//! The harness re-runs the whole pipeline under each strategy and reports
//! the absolute downtime error against the IS-IS reconstruction.

use faultline_core::{AmbiguityStrategy, Analysis, AnalysisConfig};

fn main() {
    let data = faultline_bench::paper_scenario();
    println!("strategy,syslog_failures,syslog_hours,isis_hours,abs_error_hours");
    let mut rows = Vec::new();
    for (name, strategy) in [
        ("previous-state", AmbiguityStrategy::PreviousState),
        ("assume-down", AmbiguityStrategy::AssumeDown),
        ("assume-up", AmbiguityStrategy::AssumeUp),
    ] {
        let config = AnalysisConfig {
            strategy,
            ..AnalysisConfig::default()
        };
        let analysis = Analysis::run(&data, config);
        let t4 = analysis.table4();
        let err = (t4.syslog_downtime_hours - t4.isis_downtime_hours).abs();
        println!(
            "{},{},{:.0},{:.0},{:.0}",
            name, t4.syslog_failures, t4.syslog_downtime_hours, t4.isis_downtime_hours, err
        );
        rows.push((name, err));
    }
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"));
    println!();
    println!(
        "best strategy by downtime error: {} (paper's conclusion: previous-state)",
        rows[0].0
    );
}
