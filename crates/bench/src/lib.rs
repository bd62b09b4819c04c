//! Experiment harness for the faultline reproduction.
//!
//! The paper's tables and figure are the `tables` binary in `src/bin/`,
//! beside one binary per further experiment; this library holds the
//! shared scenario setup so every experiment runs against the *same*
//! simulated 13-month dataset (seed 42), exactly as the paper computes
//! every exhibit from one measurement period.

use faultline_core::{Analysis, AnalysisConfig};
use faultline_sim::scenario::{run, ScenarioData, ScenarioParams};

/// The canonical paper-scale scenario parameters: CENIC-scale topology,
/// 389-day period, lossy transport, five listener outages.
pub fn paper_params() -> ScenarioParams {
    ScenarioParams::default()
}

/// Run the canonical scenario (prints progress to stderr because the full
/// period takes a few seconds).
pub fn paper_scenario() -> ScenarioData {
    eprintln!("simulating 389-day CENIC-scale scenario (seed fixed) ...");
    let t0 = std::time::Instant::now();
    let data = run(&paper_params());
    eprintln!(
        "simulated: {} truth failures, {} listener transitions, {} syslog messages in {:.1}s",
        data.truth.failures.len(),
        data.transitions.len(),
        data.syslog.len(),
        t0.elapsed().as_secs_f64()
    );
    data
}

/// Run the full analysis pipeline on a scenario with the default
/// configuration, printing the per-stage [`faultline_core::PipelineReport`]
/// to stderr.
pub fn analyze(data: &ScenarioData) -> Analysis<'_> {
    let t0 = std::time::Instant::now();
    let a = Analysis::run(data, AnalysisConfig::default());
    eprintln!(
        "analysis: {} syslog failures, {} IS-IS failures in {:.1}s",
        a.output.syslog_failures.len(),
        a.output.isis_failures.len(),
        t0.elapsed().as_secs_f64()
    );
    eprintln!("{}", a.report);
    a
}

/// Render a simple ASCII CDF plot of one or two series.
pub fn ascii_cdf(
    title: &str,
    xlabel: &str,
    series: &[(&str, &faultline_core::stats::Ecdf)],
    xs: &[f64],
    log_x: bool,
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "{title}").unwrap();
    writeln!(
        out,
        "  {:>12}  {}",
        xlabel,
        series
            .iter()
            .map(|(n, _)| format!("{n:>8}"))
            .collect::<Vec<_>>()
            .join(" ")
    )
    .unwrap();
    for &x in xs {
        let cells: Vec<String> = series
            .iter()
            .map(|(_, e)| format!("{:>8.3}", e.at(x)))
            .collect();
        let xfmt = if log_x && x >= 1000.0 {
            format!("{:>12.0}", x)
        } else {
            format!("{:>12.2}", x)
        };
        writeln!(out, "  {}  {}", xfmt, cells.join(" ")).unwrap();
    }
    out
}

/// Log-spaced sample points between `lo` and `hi`.
pub fn log_points(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo && n >= 2);
    (0..n)
        .map(|i| (lo.ln() + (hi.ln() - lo.ln()) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_core::stats::Ecdf;

    #[test]
    fn log_points_are_monotone_and_bounded() {
        let xs = log_points(1.0, 1000.0, 7);
        assert_eq!(xs.len(), 7);
        assert!((xs[0] - 1.0).abs() < 1e-9);
        assert!((xs[6] - 1000.0).abs() < 1e-6);
        for w in xs.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn ascii_cdf_renders_rows() {
        let e = Ecdf::new(vec![1.0, 5.0, 10.0]);
        let out = ascii_cdf("t", "x", &[("s", &e)], &[1.0, 10.0], false);
        assert!(out.contains("t"));
        assert_eq!(out.lines().count(), 4); // title + header + 2 rows
        assert!(out.contains("1.000"));
    }

    #[test]
    #[should_panic]
    fn log_points_rejects_bad_range() {
        log_points(0.0, 1.0, 5);
    }
}
