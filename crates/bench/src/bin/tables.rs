//! Regenerates the paper's exhibits: Tables 1–7 and Figure 1.
//!
//! ```sh
//! cargo run --release -p faultline-bench --bin tables            # every exhibit
//! cargo run --release -p faultline-bench --bin tables -- table4  # just Table 4
//! ```
//!
//! Exhibits print to stdout in the order named (the default order is
//! Table 1 to Table 7, then Figure 1), each preceded by a `== name ==`
//! line on stderr, so one exhibit's stdout is exactly that exhibit.
//! Tables 2–7 and Figure 1 share one simulated dataset (seed 42), as
//! the paper computes every exhibit from one measurement period; Table 1
//! simulates its own, with periodic LSP refresh enabled.
//!
//! Paper values, for comparison:
//!
//! - **Table 1** (dataset summary): 60 Core + 175 CPE routers; 11,623
//!   config files; 84 Core + 215 CPE links; 47,371 syslog messages;
//!   11,095,550 IS-IS updates (dominated by refresh floods).
//! - **Table 2** (IS vs IP reachability transitions matched by syslog):
//!   IS-IS Down 82% / 25%, IS-IS Up 85% / 23%, physical media Down
//!   31% / 52%, physical media Up 34% / 53%.
//! - **Table 3** (IS-IS transitions by endpoint routers' messages
//!   matched): DOWN None 2,022 (18%) One 4,512 (39%) Both 4,962 (43%);
//!   UP None 1,696 (15%) One 5,432 (48%) Both 4,168 (37%); 67% of
//!   unmatched DOWNs and 61% of unmatched UPs occur during flapping.
//! - **Table 4** (failures and downtime after sanitization): IS-IS
//!   11,213 failures / 3,648 h; syslog 11,738 / 2,714 h; overlap 9,298 /
//!   2,331 h. The ticket check removes ~6,000 spurious hours.
//! - **Table 5** (per-link statistics, syslog vs IS-IS, plus the §4.2 KS
//!   tests): Core failures/link median 5.7 vs 6.6, CPE 11.3 vs 12.3;
//!   Core duration median 52 s vs 42 s, CPE 10 s vs 12 s; Core downtime
//!   median 0.6 h vs 0.8 h, CPE 1.9 h vs 2.4 h; KS consistent for
//!   failures/link and downtime, not for duration.
//! - **Table 6** (ambiguous double up/down syslog changes): Lost Message
//!   194 down / 174 up; Spurious Retransmission 240 / 28; Unknown 27 / 0;
//!   Total 461 / 202.
//! - **Table 7** (customer-isolating events): IS-IS 1,401 events / 74
//!   sites / 26.3 days; syslog 1,060 / 67 / 22.3; intersection 1,002 /
//!   66 / 19.8.
//! - **Figure 1** (CPE CDFs of failure duration, annualized downtime and
//!   time between failures, as CSV on stdout and ASCII on stderr):
//!   syslog has more 1-second failures, IS-IS more 5–7 s failures;
//!   downtime and TBF track closely.

use faultline_bench::{analyze, ascii_cdf, log_points, paper_params, paper_scenario};
use faultline_core::Analysis;
use faultline_sim::scenario::run;
use faultline_topology::link::LinkClass;
use faultline_topology::time::Duration;

/// Every exhibit, in the default order.
const EXHIBITS: [&str; 8] = [
    "table1", "table2", "table3", "table4", "table5", "table6", "table7", "figure1",
];

fn main() {
    let mut picked: Vec<String> = std::env::args().skip(1).collect();
    if picked.is_empty() {
        picked = EXHIBITS.iter().map(|e| e.to_string()).collect();
    }
    if let Some(bad) = picked.iter().find(|e| !EXHIBITS.contains(&e.as_str())) {
        eprintln!(
            "unknown exhibit {bad}; expected one of {}",
            EXHIBITS.join(", ")
        );
        std::process::exit(2);
    }
    let data = picked.iter().any(|e| e != "table1").then(paper_scenario);
    let analysis = data.as_ref().map(analyze);
    for exhibit in &picked {
        eprintln!("== {exhibit} ==");
        let a = || analysis.as_ref().expect("the paper scenario was analyzed");
        match exhibit.as_str() {
            "table1" => table1(),
            "table2" => table2(a()),
            "table3" => println!("{}", a().table3()),
            "table4" => println!("{}", a().table4()),
            "table5" => table5(a()),
            "table6" => println!("{}", a().table6().0),
            "table7" => println!("{}", a().table7()),
            _ => figure1(a()),
        }
    }
}

/// Table 1 on its own simulation with LSP refresh enabled, so the IS-IS
/// update count is meaningful.
fn table1() {
    let mut params = paper_params();
    // Cisco's default LSP refresh is 900 s; this is what makes the update
    // count millions rather than tens of thousands.
    params.refresh_interval = Some(Duration::from_secs(900));
    // ~9M refresh LSPs: skip the byte-level round trip for this one run.
    params.wire_fidelity = false;
    eprintln!("simulating with LSP refresh enabled (this floods ~9M LSPs) ...");
    let t0 = std::time::Instant::now();
    let data = run(&params);
    eprintln!("simulated in {:.1}s", t0.elapsed().as_secs_f64());
    println!("{}", analyze(&data).table1());
}

fn table2(analysis: &Analysis<'_>) {
    println!("{}", analysis.table2());
    println!(
        "IS transitions: {} (multi-link excluded: {}); IP transitions: {}",
        analysis.output.is_stats.emitted,
        analysis.output.is_stats.unresolvable_multilink,
        analysis.output.ip_stats.emitted
    );
}

fn table5(analysis: &Analysis<'_>) {
    println!("{}", analysis.table5());
    println!();
    println!("-- Core links --");
    println!("{}", analysis.ks_tests(LinkClass::Core));
    println!("-- CPE links --");
    println!("{}", analysis.ks_tests(LinkClass::Cpe));
}

/// Figure 1: the three CPE CDFs as CSV series on stdout, and a coarse
/// ASCII rendering of each on stderr.
fn figure1(analysis: &Analysis<'_>) {
    let fig = analysis.figure1();
    let series = [
        (
            "(a): CPE failure duration",
            "seconds",
            &fig.duration_secs,
            (1.0, 100_000.0),
            3,
        ),
        (
            "(b): CPE annualized downtime",
            "hours",
            &fig.downtime_hours,
            (0.01, 1_000.0),
            4,
        ),
        (
            "(c): CPE time-between-failures",
            "hours",
            &fig.tbf_hours,
            (0.001, 10_000.0),
            4,
        ),
    ];
    // x to 3 decimals for the duration curve, 4 for the others.
    for (i, (title, unit, (syslog, isis), (lo, hi), digits)) in series.iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("# Figure 1{title} CDF");
        println!("# x={unit}, F_syslog(x), F_isis(x)");
        for x in log_points(*lo, *hi, 41) {
            println!(
                "{x:.prec$},{:.4},{:.4}",
                syslog.at(x),
                isis.at(x),
                prec = *digits
            );
        }
    }

    eprintln!();
    for (title, unit, (syslog, isis), range) in [
        (
            "Figure 1(a) failure duration (CPE)",
            "seconds",
            &fig.duration_secs,
            (1.0, 10_000.0),
        ),
        (
            "Figure 1(b) annualized downtime (CPE)",
            "hours",
            &fig.downtime_hours,
            (0.01, 300.0),
        ),
        (
            "Figure 1(c) time between failures (CPE)",
            "hours",
            &fig.tbf_hours,
            (0.001, 3_000.0),
        ),
    ] {
        let points = log_points(range.0, range.1, 15);
        let curves = [("syslog", syslog), ("isis", isis)];
        eprintln!("{}", ascii_cdf(title, unit, &curves, &points, true));
    }
}
