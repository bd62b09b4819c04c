//! Quickstart: simulate a small network for three months, run the full
//! syslog-vs-IS-IS analysis, and print the headline comparison.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use faultline_core::{Analysis, AnalysisConfig};
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_topology::generator::CenicParams;

fn main() {
    // A fifth-scale CENIC for a 90-day window, fully deterministic.
    let mut params = ScenarioParams::tiny(7);
    params.topology = CenicParams {
        core_routers: 12,
        cpe_routers: 35,
        core_links: 17,
        cpe_links: 43,
        multi_link_pairs: 5,
        customers: 26,
        seed: 7,
        ..CenicParams::default()
    };
    params.workload.period_days = 90.0;

    println!("simulating 90 days over a {}-router network ...", 12 + 35);
    let data = run(&params);
    println!(
        "  ground truth: {} failures, {} hours of downtime",
        data.truth.failures.len(),
        data.truth.total_downtime().as_hours_f64().round()
    );
    println!(
        "  observables : {} listener transitions, {} syslog lines",
        data.transitions.len(),
        data.raw_syslog_lines
    );

    let analysis = Analysis::run(&data, AnalysisConfig::default());
    println!();
    println!("{}", analysis.table4());
    println!("{}", analysis.table3());

    let fp = analysis.false_positives();
    println!(
        "false positives: {} short (<=10s), {} long; long ones in flapping: {}",
        fp.short_count, fp.long_count, fp.long_in_flap
    );

    let t7 = analysis.table7();
    println!();
    println!("{t7}");
    println!("Takeaway (the paper's conclusion): syslog approximates aggregate");
    println!("failure statistics well, but misses flapping detail and disagrees");
    println!("with IS-IS on customer isolation.");
}
