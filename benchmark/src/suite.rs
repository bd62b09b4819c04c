//! The untraced measurement, shared by the single run the driver calls
//! and by `run.sh` and `repeat.sh`: every workload asked for, each round
//! of it in a child process of its own, in interleaved rounds — round *r*
//! runs every workload once, so a noisy spell on a shared box cannot land
//! on one workload only — with the passes of each workload pooled across
//! rounds.

use crate::stats;
use crate::workloads::Workload;
use crate::{result_line, Args, OUT_DIR};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// Timed seconds per workload per round of `run.sh` and `repeat.sh`.
pub const ROUND_SECONDS: f64 = 5.0;
/// Rounds, so also set-ups, per workload in one measurement.
const ROUNDS: usize = 3;
/// The second seed of `repeat.sh`: not the one the harness was written on.
const SECOND_SEED: u64 = 7;

/// What the rounds of one workload pooled to.
#[derive(Default)]
struct Pooled {
    /// Events handed to the program per pass.
    n: u64,
    /// Wall of each timed pass, ms.
    pass_ms: Vec<f64>,
    /// Per pass: the 99th-percentile ingest-unit time, µs. Empty on the
    /// workloads whose one call takes the whole input.
    unit_p99_us: Vec<f64>,
    /// Process start → first timed pass, one per round.
    setup_s: Vec<f64>,
    /// Resident before, and at most during, the timed passes: the
    /// largest of the rounds.
    rss_before_mb: f64,
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
}

impl Pooled {
    /// The end-to-end metrics, as `BENCHMARK.json` names them. A result
    /// line must carry every one of them on every workload and none may
    /// read 0, so where there is no ingest unit `ingest_p99_us` repeats
    /// the median pass wall (one unit: the whole input) and says nothing
    /// `events_per_s` does not; `metrics` leaves it out there.
    fn result_metrics(&self) -> [(&'static str, f64, &'static str); 4] {
        let pass_ms = stats::median(&self.pass_ms);
        let unit_p99_us = if self.unit_p99_us.is_empty() {
            pass_ms * 1e3
        } else {
            stats::median(&self.unit_p99_us)
        };
        [
            ("events_per_s", self.n as f64 / (pass_ms / 1e3), "events/s"),
            ("ingest_p99_us", unit_p99_us, "us"),
            ("peak_rss_mb", self.peak_rss_mb, "MB"),
            ("setup_s", stats::median(&self.setup_s), "s"),
        ]
    }

    /// The end-to-end metrics this workload has: `ingest_p99_us` only
    /// where the program is fed in units.
    fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let mut all = self.result_metrics().to_vec();
        all.retain(|(name, ..)| *name != "ingest_p99_us" || !self.unit_p99_us.is_empty());
        all
    }
}

fn floats(v: &Value) -> Vec<f64> {
    v.as_array()
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Run this binary again with `argv`. Returns its standard output and
/// whether every answer was right (exit 0; exit 1 means the run itself
/// reports a wrong answer; anything else is an error).
fn again(argv: &[String]) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(argv)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start {argv:?}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    match out.status.code() {
        Some(0) => Ok((stdout, true)),
        Some(1) => Ok((stdout, false)),
        _ => Err(format!("{argv:?} ended with {}", out.status)),
    }
}

/// The arguments of one run of `workload` as `args` describes it.
fn argv_of(args: &Args, workload: Workload, seconds: f64, more: &[&str]) -> Vec<String> {
    let mut argv = vec![
        "--workload".to_string(),
        workload.name().to_string(),
        "--seed".to_string(),
        args.seed.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
    ];
    argv.extend(more.iter().map(|s| s.to_string()));
    if args.quick {
        argv.push("--quick".to_string());
    }
    if args.corrupt_reference {
        argv.push("--corrupt-reference".to_string());
    }
    argv
}

/// The JSON object a run prints on its last line.
fn last_line(stdout: &str) -> Result<Value, String> {
    stdout
        .lines()
        .last()
        .and_then(|l| serde_json::from_str(l).ok())
        .ok_or_else(|| "a run printed no result".to_string())
}

/// One untraced pooled measurement of `workloads` at `args.seed`.
fn measure(
    args: &Args,
    workloads: &[Workload],
    round_seconds: f64,
) -> Result<BTreeMap<&'static str, Pooled>, String> {
    let rounds = if args.quick { 1 } else { ROUNDS };
    let mut pooled: BTreeMap<&'static str, Pooled> = BTreeMap::new();
    for r in 1..=rounds {
        for &workload in workloads {
            eprintln!("round {r}/{rounds}: {}", workload.name());
            let (stdout, _) = again(&argv_of(args, workload, round_seconds, &["--round"]))?;
            let got = last_line(&stdout)?;
            let p = pooled.entry(workload.name()).or_default();
            p.n = got["events"]
                .as_u64()
                .ok_or("a round names no event count")?;
            p.pass_ms.extend(floats(&got["pass_ms"]));
            p.unit_p99_us.extend(floats(&got["unit_p99_us"]));
            p.setup_s.extend(got["setup_s"].as_f64());
            p.attempted += got["attempted"].as_u64().unwrap_or(0);
            p.failed += got["failed"].as_u64().unwrap_or(0);
            p.rss_before_mb = p
                .rss_before_mb
                .max(got["rss_before_mb"].as_f64().unwrap_or(0.0));
            p.peak_rss_mb = p
                .peak_rss_mb
                .max(got["peak_rss_mb"].as_f64().unwrap_or(0.0));
            if r == rounds {
                eprintln!(
                    "{}: CPUs {}; state on {}; peak memory is {}",
                    workload.name(),
                    got["cpus"].as_u64().unwrap_or(0),
                    got["state_fs"].as_str().unwrap_or("unknown"),
                    if got["peak_is_of_passes"].as_bool() == Some(true) {
                        "of the timed passes"
                    } else {
                        "of the whole process (the kernel would not restart the watermark)"
                    }
                );
            }
            if p.pass_ms.is_empty() {
                return Err(format!("{}: no pass completed", workload.name()));
            }
        }
    }
    Ok(pooled)
}

/// The run the driver calls: one workload, `--seconds` of timed passes
/// split over the rounds, the result on the last line.
pub fn single(args: &Args) -> Result<bool, String> {
    let workload = args.workload.expect("a single run has a workload");
    let pooled = measure(args, &[workload], args.seconds / ROUNDS as f64)?;
    print_pooled(args.seed, &pooled);
    let p = &pooled[workload.name()];
    println!(
        "{}",
        result_line(p.attempted, p.failed, &p.result_metrics())
    );
    Ok(p.failed == 0)
}

fn print_pooled(seed: u64, pooled: &BTreeMap<&'static str, Pooled>) {
    println!("seed {seed}: every timing is the median over the pooled passes of all rounds");
    println!(
        "{:<19} {:<15} {:>14} {:<9} {:>14} {:>14} {:>7}",
        "workload", "metric", "value", "unit", "q1", "q3", "samples"
    );
    for (workload, p) in Workload::ALL
        .iter()
        .filter_map(|w| Some((w.name(), pooled.get(w.name())?)))
    {
        let passes = p.pass_ms.len();
        let (q1, _, q3) = stats::quartiles(&p.pass_ms);
        let rate = |ms: f64| p.n as f64 / (ms / 1e3);
        let (u1, _, u3) = stats::quartiles(&p.unit_p99_us);
        let (s1, _, s3) = stats::quartiles(&p.setup_s);
        for (name, value, unit) in p.metrics() {
            let (lo, hi, count) = match name {
                "events_per_s" => (rate(q3), rate(q1), passes),
                "ingest_p99_us" => (u1, u3, passes),
                "setup_s" => (s1, s3, p.setup_s.len()),
                _ => (value, value, p.setup_s.len()),
            };
            println!(
                "{workload:<19} {name:<15} {value:>14.3} {unit:<9} {lo:>14.3} {hi:>14.3} \
                 {count:>7}"
            );
        }
        println!(
            "{workload:<19} {:<15} {:>14.3} {:<9} (of the peak: resident before the timed passes, \
             the harness's inputs)",
            "rss_before_mb", p.rss_before_mb, "MB"
        );
        println!(
            "{workload:<19} {:<15} {:>14} {:<9} ({} of {} events)",
            "failed_fraction",
            p.failed as f64 / p.attempted.max(1) as f64,
            "ratio",
            p.failed,
            p.attempted
        );
    }
}

/// `run.sh`: the pooled untraced measurement, or with `--trace` one
/// traced run per workload.
pub fn run(args: &Args) -> Result<bool, String> {
    if !args.trace {
        let pooled = measure(args, &Workload::ALL, args.seconds)?;
        print_pooled(args.seed, &pooled);
        return Ok(pooled.values().all(|p| p.failed == 0));
    }
    let mut ok = true;
    let mut docs = Vec::new();
    for workload in Workload::ALL {
        eprintln!("traced: {}", workload.name());
        let (stdout, correct) = again(&argv_of(args, workload, args.seconds, &["--trace", "1"]))?;
        // Everything but the machine-readable last line.
        let body: Vec<&str> = stdout.lines().collect();
        println!("{}", body[..body.len().saturating_sub(1)].join("\n"));
        ok &= correct;
        let path = Path::new(OUT_DIR).join(format!("trace.{}.json", workload.name()));
        let doc = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        docs.push(format!("\"{}\":{}", workload.name(), doc.trim_end()));
    }
    let path = Path::new(OUT_DIR).join("trace.json");
    std::fs::write(&path, format!("{{{}}}\n", docs.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("all six traces together: {}", path.display());
    Ok(ok)
}

/// The regression bound of every end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = doc["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end")?;
    Ok(metrics
        .iter()
        .filter_map(|m| Some((m["name"].as_str()?.to_string(), m["bound"].as_f64()?)))
        .collect())
}

/// `repeat.sh`: the same commit measured twice must agree within each
/// metric's own bound, and a second seed must pass every answer check.
pub fn repeat(args: &Args) -> Result<bool, String> {
    let bounds = bounds()?;
    let first = measure(args, &Workload::ALL, args.seconds)?;
    let second = measure(args, &Workload::ALL, args.seconds)?;
    let other = measure(
        &Args {
            seed: SECOND_SEED,
            ..args.clone()
        },
        &Workload::ALL,
        args.seconds,
    )?;
    print_pooled(args.seed, &first);
    print_pooled(args.seed, &second);
    print_pooled(SECOND_SEED, &other);

    let mut ok = true;
    println!(
        "\n{:<19} {:<15} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "differ", "bound"
    );
    for workload in Workload::ALL {
        let (a, b) = (&first[workload.name()], &second[workload.name()]);
        for ((name, x, _), (_, y, _)) in a.metrics().into_iter().zip(b.metrics()) {
            let bound = *bounds
                .get(name)
                .ok_or_else(|| format!("no bound for {name}"))?;
            let differ = (x - y).abs() / x.min(y);
            let verdict = if differ <= bound {
                ""
            } else {
                "  MISSES ITS BOUND"
            };
            ok &= differ <= bound;
            println!(
                "{:<19} {name:<15} {x:>14.3} {y:>14.3} {:>8.2}% {:>6.0}%{verdict}",
                workload.name(),
                differ * 100.0,
                bound * 100.0
            );
        }
    }
    for (label, set) in [
        ("first", &first),
        ("second", &second),
        ("second seed", &other),
    ] {
        for (name, p) in set {
            if p.failed > 0 {
                ok = false;
                println!(
                    "{label}: {name} failed {} of {} events",
                    p.failed, p.attempted
                );
            }
        }
    }
    println!("{}", if ok { "repeat: PASS" } else { "repeat: FAIL" });
    Ok(ok)
}

/// The harness checks itself: with the reference deliberately corrupted,
/// a run must report every event failed and exit nonzero.
pub fn self_test(args: &Args) -> Result<bool, String> {
    let corrupted = Args {
        quick: true,
        corrupt_reference: true,
        ..args.clone()
    };
    let (stdout, correct) = again(&argv_of(
        &corrupted,
        Workload::StreamLive,
        args.seconds,
        &["--trace", "0"],
    ))?;
    let result = last_line(&stdout)?;
    let attempted = result["attempted"].as_u64().unwrap_or(0);
    let failed = result["failed"].as_u64().unwrap_or(0);
    let caught = !correct
        && result["correct"].as_bool() == Some(false)
        && attempted > 0
        && attempted == failed;
    println!(
        "self-test: with a corrupted reference the run exited {}, failed {failed} of {attempted} \
         events (failed_fraction {}): {}",
        if correct { "zero" } else { "nonzero" },
        failed as f64 / attempted.max(1) as f64,
        if caught { "PASS" } else { "FAIL" }
    );
    Ok(caught)
}
