//! Customer isolation analysis (§4.4): simulate a network, reconstruct
//! failures from both sources, and list which customers were cut off from
//! the backbone, for how long, and whether the two data sources agree.
//!
//! ```sh
//! cargo run --example customer_isolation
//! ```

use faultline_core::analysis::Source;
use faultline_core::{Analysis, AnalysisConfig};
use faultline_sim::scenario::{run, ScenarioParams};

fn main() {
    let params = ScenarioParams::tiny(11);
    println!("simulating 30 days ...");
    let data = run(&params);
    let analysis = Analysis::run(&data, AnalysisConfig::default());

    let isis = analysis.isolation(Source::Isis);
    let syslog = analysis.isolation(Source::Syslog);

    println!(
        "IS-IS : {} isolating events over {} components, {} sites, {:.2} days of isolation",
        isis.event_count(),
        isis.components,
        isis.sites_impacted(),
        isis.downtime_days()
    );
    println!(
        "syslog: {} isolating events over {} components, {} sites, {:.2} days of isolation",
        syslog.event_count(),
        syslog.components,
        syslog.sites_impacted(),
        syslog.downtime_days()
    );

    println!("\nper-customer isolation (IS-IS view):");
    let per_customer = isis.per_customer();
    let mut rows: Vec<_> = per_customer.iter().collect();
    rows.sort_by_key(|(c, _)| c.0);
    for (cust, spans) in rows {
        let total = faultline_core::isolation::spans_duration(spans);
        let name = &data.topology.customer(*cust).name;
        println!(
            "  {:<9} isolated {} time(s), total {}",
            name,
            spans.len(),
            total
        );
        for (from, to) in spans.iter().take(3) {
            println!("      {from} .. {to}");
        }
    }

    let cmp = faultline_core::isolation::compare(&isis, &syslog);
    println!(
        "\ncross-source: {} matched events, {} IS-IS-only, {} syslog-only, \
         {} common sites, {:.2} days seen by both",
        cmp.matched_events, cmp.left_only, cmp.right_only, cmp.common_sites, cmp.intersection_days
    );
}
