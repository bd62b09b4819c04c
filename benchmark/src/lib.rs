//! Faultline's one benchmark: six workloads, end-to-end metrics, and a
//! per-layer cost ledger — all measured from outside the program, around
//! calls to its public functions. See `benchmark/README.md`.
//!
//! One invocation with `--workload` is one run of one workload and ends
//! with the result as a JSON object on the last line of standard output
//! (the contract `BENCHMARK.json` is written to). Without `--workload`
//! the same binary runs every workload (`run.sh`, `repeat.sh`). Either
//! way the untraced measurement is the one in [`suite`]: rounds of child
//! processes, one workload each, pooled.

pub mod inputs;
pub mod ledger;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;

use inputs::Scenario;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{CountingAlloc, Tracer};
use workloads::{Prepared, Workload};

/// Where a run may write: trace files and the durable workloads' state.
/// `run.sh` changes to the repository root first, so this is relative.
///
/// The state directories sit here, inside the checkout, because a run may
/// read and write nowhere else; whether that is tmpfs or a block device is
/// the checkout's business, and every run prints which.
pub const OUT_DIR: &str = "benchmark/out";

/// Share of `--seconds` a traced run spends on the workload's own passes;
/// the ledger takes the rest and more.
const TRACED_PASS_SHARE: f64 = 0.4;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// One run of one workload (`--workload`): its rounds, pooled.
    Single,
    /// One round of one workload, in a process of its own (`--round`;
    /// what `Single`, `Suite` and `Repeat` start).
    Round,
    /// Every workload, interleaved rounds, pooled (`run.sh`).
    Suite,
    /// Suite twice plus a second seed, compared (`repeat.sh`).
    Repeat,
    /// Corrupt the reference and expect the run to fail (`--self-test`).
    SelfTest,
}

#[derive(Clone, Debug)]
pub struct Args {
    pub mode: Mode,
    pub workload: Option<Workload>,
    pub seed: u64,
    /// Timed seconds: of the whole run (`Single`), of one round otherwise.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub corrupt_reference: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut a = Args {
            mode: Mode::Suite,
            workload: None,
            seed: 42,
            seconds: suite::ROUND_SECONDS,
            trace: false,
            quick: false,
            corrupt_reference: false,
        };
        let mut round = false;
        let mut it = argv.iter().peekable();
        while let Some(arg) = it.next() {
            let mut number = |what: &str| -> Result<f64, String> {
                let text = it.next().ok_or_else(|| format!("{arg} needs {what}"))?;
                text.parse().map_err(|e| format!("{arg} {text}: {e}"))
            };
            match arg.as_str() {
                "--seed" => a.seed = number("a whole number")? as u64,
                "--seconds" => a.seconds = number("a number of seconds")?,
                "--workload" => {
                    let name = it.next().ok_or("--workload needs a name")?;
                    a.workload = Some(
                        Workload::from_name(name)
                            .ok_or_else(|| format!("unknown workload {name}"))?,
                    );
                    a.mode = Mode::Single;
                }
                // `--trace 0|1` (the driver) or bare `--trace` (run.sh).
                "--trace" => {
                    a.trace = it.peek().is_none_or(|v| v.as_str() != "0");
                    it.next_if(|v| matches!(v.as_str(), "0" | "1"));
                }
                "--quick" => a.quick = true,
                "--corrupt-reference" => a.corrupt_reference = true,
                "--round" => round = true,
                "--repeat" => a.mode = Mode::Repeat,
                "--self-test" => a.mode = Mode::SelfTest,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if round {
            if a.workload.is_none() {
                return Err("--round needs --workload".to_string());
            }
            a.mode = Mode::Round;
        }
        Ok(a)
    }
}

/// Entry point of both binaries. `alloc` is the counting allocator when
/// this is the traced binary.
pub fn run(alloc: Option<&'static CountingAlloc>) -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("faultline-benchmark: {e}");
            return 2;
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("faultline-benchmark: {OUT_DIR}: {e}");
        return 2;
    }
    let result = match args.mode {
        Mode::Single if args.trace && alloc.is_none() => exec_traced(&argv),
        Mode::Single if args.trace => traced_run(&args, alloc),
        Mode::Single => suite::single(&args),
        Mode::Round => round(&args),
        Mode::Suite => suite::run(&args),
        Mode::Repeat => suite::repeat(&args),
        Mode::SelfTest => suite::self_test(&args),
    };
    match result {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("faultline-benchmark: {e}");
            2
        }
    }
}

/// Confine this thread — and every thread and process started from it
/// afterwards — to the lowest CPU it may run on (see
/// [`Workload::one_cpu`]).
fn confine_to_one_cpu() -> Result<(), String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live, writable buffer of exactly `size` bytes,
    // which is what the call fills; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".to_string());
    }
    let cpu = allowed
        .iter()
        .enumerate()
        .find_map(|(i, word)| (*word != 0).then(|| i * 64 + word.trailing_zeros() as usize))
        .ok_or("no CPU allowed")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of `size` bytes that the call only reads.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(())
}

/// Only the traced binary counts allocations; hand the run over to it.
fn exec_traced(argv: &[String]) -> Result<bool, String> {
    use std::os::unix::process::CommandExt;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let traced = exe.with_file_name("faultline-benchmark-traced");
    let err = std::process::Command::new(&traced).args(argv).exec();
    Err(format!("exec {}: {err}", traced.display()))
}

fn state_root(workload: Workload, tag: &str) -> PathBuf {
    Path::new(OUT_DIR).join("state").join(format!(
        "{}-{}-{tag}",
        workload.name(),
        std::process::id()
    ))
}

fn scenario_of(workload: Workload, quick: bool) -> Scenario {
    if quick {
        Scenario::Tiny
    } else {
        workload.scenario()
    }
}

/// One `kB` line of `/proc/self/status`, in MB.
fn status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with(key))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Start the peak-memory watermark (`VmHWM`) again from what is live
/// now, so it follows the timed passes and not the set-up, whose own peak
/// (the uncut simulation, the reference answer as JSON) is higher than
/// any pass's on most workloads and moves with the seed. Freed heap the
/// allocator still holds goes back to the kernel first. Returns false
/// where the kernel refuses; the watermark then covers the whole process.
fn restart_peak_rss() -> bool {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and may be called at any
        // time; it only releases free memory at the top of the heap arenas.
        unsafe { malloc_trim(0) };
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The file system the durable workloads' state lands on.
fn describe_state_fs() -> String {
    let Ok(dir) = std::fs::canonicalize(OUT_DIR) else {
        return "unknown".to_string();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), format!("{fs} at {mount}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".to_string(), |(_, d)| d)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{value}` prints an f64 with all its digits.
        write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|x| format!("{x}")).collect();
    format!("[{}]", items.join(","))
}

/// One round: set up once, verify, time passes for `--seconds`, and
/// print what was measured as one JSON object on the last line, for
/// [`suite`] to pool.
fn round(args: &Args) -> Result<bool, String> {
    let process_start = Instant::now();
    let workload = args.workload.expect("a round has a workload");
    if workload.one_cpu() {
        confine_to_one_cpu()?;
    }
    let scenario = scenario_of(workload, args.quick);
    let mut p = Prepared::new(workload, scenario, args.seed, state_root(workload, "r"))?;
    if args.corrupt_reference {
        p.corrupt_reference();
    }
    let n = p.n();
    let mut tr = Tracer::off();

    // The first pass is compared byte-for-byte as JSON and not timed: it
    // doubles as the warm-up (page faults, allocator growth).
    let first = p.pass(&mut tr, true);
    let (mut attempted, mut failed) = (n, first.failed_events);
    drop(first);
    let peak_is_of_passes = restart_peak_rss();
    let rss_before_mb = status_mb("VmRSS:");
    // Everything before the first timed pass, the checked pass included:
    // whatever the program does once per process lands here.
    let setup_s = process_start.elapsed().as_secs_f64();

    // Per pass: its wall, ms, and the 99th percentile of its ingest-unit
    // times, µs (none on a workload whose one call takes the whole input).
    let (mut pass_ms, mut unit_p99_us) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    loop {
        let checked = p.pass(&mut tr, false);
        attempted += n;
        failed += checked.failed_events;
        if let Some(pass) = &checked.pass {
            pass_ms.push(pass.wall.as_secs_f64() * 1e3);
            if !pass.unit_us.is_empty() {
                unit_p99_us.push(stats::percentile(&stats::sorted(&pass.unit_us), 99.0));
            }
        }
        if args.quick || started.elapsed() >= budget {
            break;
        }
    }
    println!(
        "{{\"events\":{n},\"attempted\":{attempted},\"failed\":{failed},\"setup_s\":{setup_s},\
         \"rss_before_mb\":{rss_before_mb},\"peak_rss_mb\":{},\"peak_is_of_passes\":{peak_is_of_passes},\
         \"cpus\":{},\"state_fs\":\"{}\",\"pass_ms\":{},\"unit_p99_us\":{}}}",
        status_mb("VmHWM:"),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        describe_state_fs(),
        json_list(&pass_ms),
        json_list(&unit_p99_us),
    );
    Ok(failed == 0)
}

/// One traced run: the workload's passes with spans on (and off, for the
/// overhead), then the whole per-layer ledger; all of it on every CPU.
fn traced_run(args: &Args, alloc: Option<&'static CountingAlloc>) -> Result<bool, String> {
    let workload = args.workload.expect("single mode has a workload");
    let scenario = scenario_of(workload, args.quick);
    let mut p = Prepared::new(workload, scenario, args.seed, state_root(workload, "w"))?;
    let n = p.n();
    let mut tr = Tracer::on(alloc);

    tr.set_on(false);
    let first = p.pass(&mut tr, true);
    let (mut attempted, mut failed) = (n, first.failed_events);
    drop(first);

    // Alternate untraced and traced passes so both see the same machine.
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut traced_ids = Vec::new();
    let mut counters = faultline_core::TransportCounters::default();
    let budget = Duration::from_secs_f64(args.seconds * TRACED_PASS_SHARE);
    let started = Instant::now();
    loop {
        for on in [false, true] {
            tr.set_on(on);
            let id = tr.next_pass();
            let checked = p.pass(&mut tr, false);
            attempted += n;
            failed += checked.failed_events;
            let Some(pass) = checked.pass else { continue };
            if on {
                traced_ids.push(id);
                traced_ms.push(pass.wall.as_secs_f64() * 1e3);
                counters = pass.report.transport.unwrap_or_default();
            } else {
                plain_ms.push(pass.wall.as_secs_f64() * 1e3);
            }
        }
        if args.quick || started.elapsed() >= budget {
            break;
        }
    }
    if plain_ms.is_empty() || traced_ms.is_empty() {
        return Err("no pass completed".to_string());
    }
    tr.set_on(true);

    let mut ledger = ledger::Ledger::default();
    ledger.put(
        "trace_overhead_fraction",
        // `events_per_s` is N over the median pass wall.
        1.0 - stats::median(&plain_ms) / stats::median(&traced_ms),
    );
    // The untraced passes of this run: for a workload whose rounds are
    // confined to one CPU, the reading on every CPU that they leave out.
    ledger.put(
        "all_cpus_events_per_s",
        n as f64 / (stats::median(&plain_ms) / 1e3),
    );
    ledger.put("core.transport.frames_sent", counters.frames_sent as f64);
    ledger.put("core.transport.bytes_sent", counters.bytes_sent as f64);
    ledger.put(
        "core.transport.bytes_received",
        counters.bytes_received as f64,
    );

    // The ledger runs on `paper` and `wide`; the workload's own set-up
    // serves as one of them where it can.
    let setup = |other: Workload| {
        Prepared::new(
            other,
            scenario_of(other, args.quick),
            args.seed,
            state_root(other, "ledger"),
        )
    };
    if scenario == Scenario::Wide {
        let mut paper = setup(Workload::StreamLive)?;
        ledger::fill(&mut ledger, &mut paper, &mut p, &mut tr)?;
    } else {
        let mut wide = setup(Workload::ClusterWide)?;
        ledger::fill(&mut ledger, &mut p, &mut wide, &mut tr)?;
    }
    attempted += ledger.attempted;
    failed += ledger.failed;

    let self_ns = tr.self_ns_by_name(&traced_ids);
    let total: u64 = self_ns.values().sum();
    println!(
        "{} seed {} scenario {} N {n}: {} traced passes; self time per pass by layer \
         (a span's time minus its children's):",
        workload.name(),
        args.seed,
        scenario.name(),
        traced_ids.len(),
    );
    for (name, ns) in &self_ns {
        println!(
            "  {name:<24} {:>10.3} ms  {:>5.1}%",
            *ns as f64 / 1e6 / traced_ids.len() as f64,
            100.0 * *ns as f64 / total.max(1) as f64
        );
    }
    let metrics = ledger.metrics();
    for (name, value, unit) in &metrics {
        println!("  {name:<48} {value:>16.3} {unit}");
    }

    let path = Path::new(OUT_DIR).join(format!("trace.{}.json", workload.name()));
    let mut doc = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"scenario\":\"{}\",\"events\":{n},\"workload_passes\":{:?},\n\"self_ns\":{{",
        workload.name(),
        args.seed,
        scenario.name(),
        traced_ids
    );
    let layers: Vec<String> = self_ns
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    doc.push_str(&layers.join(","));
    doc.push_str("},\n\"per_layer\":{");
    let rows: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    doc.push_str(&rows.join(","));
    doc.push_str("},\n\"spans\":");
    doc.push_str(&tr.spans_json());
    doc.push_str("}\n");
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());

    println!("{}", result_line(attempted, failed, &metrics));
    Ok(failed == 0)
}
