//! Sensitivity analysis over the loss-model knobs DESIGN.md calls out.
//!
//! The reproduction's claim is that the paper's numbers *pin down the
//! loss structure*: this binary sweeps each mechanism and shows which
//! exhibit it controls. Three sweeps:
//!
//! 1. `flap_pair_loss` → Table 3's None/One/Both split and the syslog
//!    failure deficit;
//! 2. `base_loss` → Table 6's double-message volume and the phantom
//!    >24 h failures the ticket check removes;
//! 3. the analysis-side flap-gap threshold → how much of the unmatched
//!    mass lands "during flapping".

use faultline_core::{Analysis, AnalysisConfig};
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_topology::time::Duration;

fn main() {
    println!("== sweep 1: flap_pair_loss (overload pair-fate drop probability) ==");
    println!("pair_loss,none_pct,one_pct,both_pct,syslog_failures,isis_failures");
    for pair_loss in [0.0, 0.2, 0.48, 0.7, 0.9] {
        let mut params = ScenarioParams::default();
        params.transport.flap_pair_loss = pair_loss;
        let data = run(&params);
        let a = Analysis::run(&data, AnalysisConfig::default());
        let t3 = a.table3();
        let total = (t3.down.total() + t3.up.total()).max(1) as f64;
        println!(
            "{:.2},{:.1},{:.1},{:.1},{},{}",
            pair_loss,
            100.0 * (t3.down.none + t3.up.none) as f64 / total,
            100.0 * (t3.down.one + t3.up.one) as f64 / total,
            100.0 * (t3.down.both + t3.up.both) as f64 / total,
            a.output.syslog_failures.len(),
            a.output.isis_failures.len(),
        );
    }

    println!();
    println!("== sweep 2: base_loss (independent per-message drop) ==");
    println!("base_loss,double_downs,double_ups,long_removed,long_removed_hours");
    for base_loss in [0.0, 0.008, 0.03, 0.1] {
        let mut params = ScenarioParams::default();
        params.transport.base_loss = base_loss;
        let data = run(&params);
        let a = Analysis::run(&data, AnalysisConfig::default());
        let (t6, counts) = a.table6();
        let t4 = a.table4();
        let _ = t6;
        println!(
            "{:.3},{},{},{},{:.0}",
            base_loss,
            counts.down_total(),
            counts.up_total(),
            t4.syslog_long_removed,
            t4.syslog_long_removed_hours,
        );
    }

    println!();
    println!("== sweep 3: flap-gap threshold (analysis-side) ==");
    println!("gap_mins,unmatched_down_in_flap_pct,isis_episodes_detected");
    let data = run(&ScenarioParams::default());
    for mins in [1u64, 5, 10, 30] {
        let config = AnalysisConfig {
            flap_gap: Duration::from_secs(mins * 60),
            ..AnalysisConfig::default()
        };
        let a = Analysis::run(&data, config);
        let t3 = a.table3();
        let eps = faultline_core::flap::detect_episodes(
            &a.output.isis_recon.failures,
            Duration::from_secs(mins * 60),
        );
        println!(
            "{},{:.0},{}",
            mins,
            t3.unmatched_down_in_flap_pct,
            eps.len()
        );
    }
}
