//! `faultline` — command-line front end for the reproduction.
//!
//! ```text
//! faultline simulate [--scale tiny|paper] [--seed N] [--days D] [--out FILE]
//! faultline analyze --archive FILE [--exhibit NAME]
//! faultline report  [--scale tiny|paper] [--seed N] [--days D] [--exhibit NAME]
//! ```
//!
//! `simulate` runs a scenario and writes a JSON archive of both
//! observable datasets (plus ground truth); `analyze` re-analyzes a
//! stored archive without re-simulating; `report` does both in one go.
//! `NAME` is `table1`..`table7`, `forensics` or `all` (the default).
//! Figure 1's CSV and ASCII plots come from the `tables` binary of
//! `faultline-bench`.

use faultline_core::{Analysis, AnalysisConfig};
use faultline_sim::scenario::{run, ScenarioData, ScenarioParams};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

/// Every exhibit `--exhibit` names, in the order `all` prints them.
const EXHIBITS: [&str; 8] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "forensics",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  faultline simulate [--scale tiny|paper] [--seed N] [--days D] [--out FILE]\n  \
         faultline analyze --archive FILE [--exhibit NAME|all]\n  \
         faultline report  [--scale tiny|paper] [--seed N] [--days D] [--exhibit NAME|all]\n\n\
         exhibits: {} all",
        EXHIBITS.join(" ")
    );
    ExitCode::from(2)
}

struct Opts {
    scale: String,
    seed: u64,
    days: Option<f64>,
    out: Option<String>,
    archive: Option<String>,
    exhibit: String,
}

fn parse_opts(args: &[String]) -> Option<Opts> {
    let mut o = Opts {
        scale: "paper".into(),
        seed: 42,
        days: None,
        out: None,
        archive: None,
        exhibit: "all".into(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => o.scale = it.next()?.clone(),
            "--seed" => o.seed = it.next()?.parse().ok()?,
            "--days" => o.days = Some(it.next()?.parse().ok()?),
            "--out" => o.out = Some(it.next()?.clone()),
            "--archive" => o.archive = Some(it.next()?.clone()),
            "--exhibit" => {
                let name = it.next()?;
                if name != "all" && !EXHIBITS.contains(&name.as_str()) {
                    return None;
                }
                o.exhibit = name.clone();
            }
            _ => return None,
        }
    }
    Some(o)
}

fn build_params(o: &Opts) -> Option<ScenarioParams> {
    let mut params = match o.scale.as_str() {
        "tiny" => ScenarioParams::tiny(o.seed),
        "paper" => {
            let mut p = ScenarioParams {
                seed: o.seed,
                ..Default::default()
            };
            p.workload.seed = o.seed ^ 0x5EED;
            p.transport.seed = o.seed ^ 0x7777;
            p.topology.seed = o.seed;
            p
        }
        _ => return None,
    };
    if let Some(days) = o.days {
        params.workload.period_days = days;
        params.topology.period_days = days;
    }
    Some(params)
}

fn print_exhibits(data: &ScenarioData, exhibit: &str) {
    let a = Analysis::run(data, AnalysisConfig::default());
    for name in EXHIBITS
        .into_iter()
        .filter(|e| exhibit == "all" || exhibit == *e)
    {
        match name {
            "table1" => println!("{}", a.table1()),
            "table2" => println!("{}", a.table2()),
            "table3" => println!("{}", a.table3()),
            "table4" => println!("{}", a.table4()),
            "table5" => {
                println!("{}", a.table5());
                println!(
                    "-- Core --\n{}",
                    a.ks_tests(faultline_topology::link::LinkClass::Core)
                );
                println!(
                    "-- CPE --\n{}",
                    a.ks_tests(faultline_topology::link::LinkClass::Cpe)
                );
            }
            "table6" => println!("{}", a.table6()),
            "table7" => println!("{}", a.table7()),
            _ => println!("{}", a.isolation_forensics()),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let Some(opts) = parse_opts(rest) else {
        return usage();
    };

    match cmd.as_str() {
        "simulate" => {
            let Some(params) = build_params(&opts) else {
                return usage();
            };
            eprintln!("simulating ({} scale, seed {}) ...", opts.scale, opts.seed);
            let data = run(&params);
            eprintln!(
                "done: {} truth failures, {} transitions, {} syslog lines",
                data.truth.failures.len(),
                data.transitions.len(),
                data.raw_syslog_lines
            );
            if let Some(path) = &opts.out {
                let file = match File::create(path) {
                    Ok(f) => f,
                    Err(e) => {
                        eprintln!("cannot create {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                if let Err(e) = data.save(BufWriter::new(file)) {
                    eprintln!("cannot write archive: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("archive written to {path}");
            }
            ExitCode::SUCCESS
        }
        "analyze" => {
            let Some(path) = &opts.archive else {
                return usage();
            };
            let file = match File::open(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot open {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let data = match ScenarioData::load(BufReader::new(file)) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("cannot load archive: {e}");
                    return ExitCode::FAILURE;
                }
            };
            print_exhibits(&data, &opts.exhibit);
            ExitCode::SUCCESS
        }
        "report" => {
            let Some(params) = build_params(&opts) else {
                return usage();
            };
            eprintln!("simulating ({} scale, seed {}) ...", opts.scale, opts.seed);
            let data = run(&params);
            print_exhibits(&data, &opts.exhibit);
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
