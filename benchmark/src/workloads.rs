//! The six workloads: set-up, one pass, and the answer check.
//!
//! The load generator is one thread, closed loop, one caller. The program
//! keeps its defaults — `AnalysisConfig::default()` (threads sized to the
//! machine), `DurabilityPolicy::default()`, `ClusterConfig::new(2)` —
//! because defaults are what users get, and runs on every CPU the process
//! may use; [`Workload::one_cpu`] is the one exception.

use crate::inputs::{self, Inputs, Scenario};
use crate::trace::Tracer;
use faultline_core::admission::{AdmissionConfig, AdmissionController, Offer};
use faultline_core::{
    run_cluster, run_cluster_subprocess, Analysis, AnalysisConfig, ClusterConfig, DurabilityPolicy,
    DurableStream, IngestOutcome, OverloadCounters, PipelineReport, RecoveryReport, ScenarioSpec,
    StreamAnalysis, StreamEvent, StreamOutput, SubprocessOptions,
};
use faultline_syslog::{collector::parse_records, LogRecord, ParseStats};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Events per ingest unit on the incremental workloads.
pub const UNIT: usize = 256;

/// Share of the stream `crash_recover` ingests before the crash.
const CRASH_AT: f64 = 0.9;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    BatchArchive,
    StreamLive,
    DurableStream,
    CrashRecover,
    ClusterWide,
    ClusterSubprocess,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::BatchArchive,
        Workload::StreamLive,
        Workload::DurableStream,
        Workload::CrashRecover,
        Workload::ClusterWide,
        Workload::ClusterSubprocess,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchArchive => "batch_archive",
            Workload::StreamLive => "stream_live",
            Workload::DurableStream => "durable_stream",
            Workload::CrashRecover => "crash_recover",
            Workload::ClusterWide => "cluster_wide",
            Workload::ClusterSubprocess => "cluster_subprocess",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's untraced rounds are confined to one CPU,
    /// where the program's "threads sized to the machine" resolves to 1.
    ///
    /// The driver refuses a benchmark whose spread over ten seeds exceeds
    /// a metric's bound, 0.25 at most, and judges later changes by that
    /// bound. Measured on two vCPUs, 15 s runs of three pooled rounds:
    ///
    /// - `stream_live` spawns and joins scoped threads for every 256-event
    ///   unit while the second CPU idles in between, so a pass mostly
    ///   times how fast the hypervisor wakes a halted vCPU: the same seed
    ///   gave 70 ms and 130 ms passes seconds apart, and back-to-back
    ///   ten-seed sets spread 9.5% and 43%.
    /// - `cluster_subprocess` puts a dispatcher and two workers of two
    ///   threads each on two CPUs; ten-seed sets spread 6% to 20% on
    ///   `events_per_s` and up to 23% on the pass wall.
    ///
    /// The other four run on every CPU: they spread 17% at worst, outside
    /// one slow spell of the whole box that took `durable_stream` to 24%
    /// and the confined `stream_live` with it (README, "Steadiness", set
    /// B). What the two lose is not lost: every traced run is unconfined and reports
    /// `all_cpus_events_per_s`, and the ledger measures the fan-out per
    /// event (`core.streaming.ingest_ns_per_event.c256` against
    /// `serial_ingest_ns_per_event.c256`).
    pub fn one_cpu(self) -> bool {
        matches!(self, Workload::StreamLive | Workload::ClusterSubprocess)
    }

    pub fn scenario(self) -> Scenario {
        match self {
            Workload::ClusterWide => Scenario::Wide,
            _ => Scenario::Paper,
        }
    }
}

/// The reference answer: `Analysis::run` on the same data, computed in
/// set-up, never by the code path a workload measures.
pub struct Reference {
    pub json: String,
    pub shape: Vec<u64>,
}

/// The cheap comparison every pass after the first gets: the headline
/// counters plus the length of every output vector. (The full JSON costs
/// more than most passes.)
pub fn shape(o: &StreamOutput) -> Vec<u64> {
    let c = &o.counters;
    let mut v = vec![
        c.syslog_ingested,
        c.isis_ingested,
        c.transitions_derived,
        c.failures_reconstructed,
        c.failures_after_sanitize,
        c.sanitize_dropped,
        c.failures_matched,
        c.ambiguous_periods,
    ];
    v.extend(
        [
            o.messages.len(),
            o.is_transitions.len(),
            o.ip_transitions.len(),
            o.syslog_transitions.len(),
            o.isis_recon.failures.len(),
            o.isis_recon.ambiguous.len(),
            o.syslog_recon.failures.len(),
            o.syslog_recon.ambiguous.len(),
            o.isis_failures.len(),
            o.syslog_failures.len(),
            o.matching.matched.len(),
            o.matching.partial.len(),
            o.matching.left_only.len(),
            o.matching.right_only.len(),
        ]
        .map(|n| n as u64),
    );
    v
}

/// Everything a workload's passes need, built from the seed.
pub struct Prepared {
    pub workload: Workload,
    seed: u64,
    pub inputs: Inputs,
    pub reference: Reference,
    /// `batch_archive`: the raw collector archive.
    records: Vec<LogRecord>,
    /// Durable workloads: a directory of this set-up's own, removed on drop.
    state_root: PathBuf,
    /// `crash_recover`: the state a crashed collector left behind.
    pristine: PathBuf,
    /// `cluster_subprocess`: the benchmark's own shard worker binary and
    /// the scenario as the workers receive it.
    workers: Option<SubprocessOptions>,
    dirs_made: usize,
}

impl Prepared {
    /// Full set-up: simulate, cut to the prefix, compute the reference,
    /// prepare the workload's own inputs. `state_root` must be unique to
    /// this call.
    pub fn new(
        workload: Workload,
        scenario: Scenario,
        seed: u64,
        state_root: PathBuf,
    ) -> Result<Self, String> {
        let inputs = inputs::build(scenario, seed);
        let analysis = Analysis::run(&inputs.data, AnalysisConfig::default());
        let reference = Reference {
            json: serde_json::to_string(&analysis.output).map_err(|e| e.to_string())?,
            shape: shape(&analysis.output),
        };
        drop(analysis);
        let mut p = Prepared {
            workload,
            seed,
            records: Vec::new(),
            pristine: state_root.join("pristine"),
            workers: None,
            state_root,
            inputs,
            reference,
            dirs_made: 0,
        };
        p.retarget(workload)?;
        Ok(p)
    }

    /// Prepare what `workload`'s passes need beyond the scenario and the
    /// reference. The ledger walks one simulation through several
    /// workloads' passes this way; what an earlier target built is kept.
    pub fn retarget(&mut self, workload: Workload) -> Result<(), String> {
        self.workload = workload;
        match workload {
            Workload::BatchArchive if self.records.is_empty() => {
                self.records = inputs::raw_archive(&self.inputs, self.seed);
            }
            Workload::CrashRecover if !self.pristine.exists() => self.crash()?,
            Workload::ClusterSubprocess if self.workers.is_none() => {
                let exe = std::env::current_exe().map_err(|e| e.to_string())?;
                let worker_bin = exe.with_file_name("faultline-benchmark-worker");
                if !worker_bin.is_file() {
                    return Err(format!("no worker binary at {}", worker_bin.display()));
                }
                // A worker needs the side inputs an engine is built from
                // (topology, hostnames, link windows, offline spans,
                // tickets); its events arrive as frames. Every caller in
                // the repository sends `ScenarioSpec::Params` instead and
                // lets each worker re-run the simulator — then a pass
                // mostly times the simulator, whose cost swings ±30% with
                // the seed. Sending the side inputs inline keeps the pass
                // about frames crossing a pipe.
                let mut slim = self.inputs.data.clone();
                slim.syslog.clear();
                slim.transitions.clear();
                slim.truth = Default::default();
                self.workers = Some(SubprocessOptions {
                    worker_bin,
                    scenario: ScenarioSpec::Inline(Box::new(slim)),
                });
            }
            _ => {}
        }
        Ok(())
    }

    /// Events handed to the program per pass.
    pub fn n(&self) -> u64 {
        self.inputs.events.len() as u64
    }

    /// Make every later answer check fail (the harness self-test).
    pub fn corrupt_reference(&mut self) {
        self.reference.json.push(' ');
        self.reference.shape[0] += 1;
    }

    /// Ingest the head of the stream durably, then drop the engine
    /// without `finish` — what a killed collector leaves on disk.
    fn crash(&mut self) -> Result<(), String> {
        let head = (self.inputs.events.len() as f64 * CRASH_AT) as usize;
        let mut durable = DurableStream::create(
            &self.pristine,
            &self.inputs.data,
            AnalysisConfig::default(),
            DurabilityPolicy::default(),
        )
        .map_err(|e| e.to_string())?;
        for event in &self.inputs.events[..head] {
            durable.ingest(event).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn fresh_dir(&mut self) -> PathBuf {
        self.dirs_made += 1;
        self.state_root.join(format!("pass-{}", self.dirs_made))
    }

    /// Run one pass and check its answer. An `Err` from the program is a
    /// failed pass (all N events, no timing), not a harness abort.
    pub fn pass(&mut self, tr: &mut Tracer, full_check: bool) -> Checked {
        let n = self.n();
        let pass = match self.run(tr) {
            Ok(pass) => pass,
            Err(e) => {
                eprintln!("{}: pass failed: {e}", self.workload.name());
                return Checked {
                    failed_events: n,
                    pass: None,
                };
            }
        };
        let answer_ok = if let Some(json) = &pass.json {
            *json == self.reference.json
        } else if full_check {
            serde_json::to_string(&pass.output).is_ok_and(|json| json == self.reference.json)
        } else {
            shape(&pass.output) == self.reference.shape
        };
        if !answer_ok {
            eprintln!(
                "{}: answer differs from the reference",
                self.workload.name()
            );
        }
        Checked {
            failed_events: if answer_ok {
                pass.lost_events.min(n)
            } else {
                n
            },
            pass: Some(pass),
        }
    }

    fn run(&mut self, tr: &mut Tracer) -> Result<Pass, String> {
        match self.workload {
            Workload::BatchArchive => self.batch_archive(tr),
            Workload::StreamLive => Ok(self.stream_live(tr)),
            Workload::DurableStream => self.durable_stream(tr),
            Workload::CrashRecover => self.crash_recover(tr),
            Workload::ClusterWide | Workload::ClusterSubprocess => self.cluster(tr),
        }
    }

    /// Archive in, tables out: parse the raw lines, run the batch
    /// driver, serialize the answer.
    fn batch_archive(&mut self, tr: &mut Tracer) -> Result<Pass, String> {
        // The parsed messages replace the scenario's own; free those
        // outside the timed region.
        drop(std::mem::take(&mut self.inputs.data.syslog));
        let t0 = Instant::now();
        let root = tr.enter("pass");
        let s = tr.enter("syslog.parse");
        let (messages, stats) = parse_records(&self.records);
        tr.exit(s);
        self.inputs.data.syslog = messages;
        let s = tr.enter("core.analysis");
        let analysis = Analysis::run(&self.inputs.data, AnalysisConfig::default());
        tr.exit(s);
        let s = tr.enter("core.export");
        let json = serde_json::to_string(&analysis.output);
        tr.exit(s);
        tr.exit(root);
        let wall = t0.elapsed();
        let Analysis { output, report, .. } = analysis;
        Ok(Pass {
            wall,
            lost_events: stats.malformed,
            json: Some(json.map_err(|e| e.to_string())?),
            parse: Some(stats),
            ..Pass::new(output, report)
        })
    }

    /// The live collector: admission queue in front of the streaming
    /// driver, micro-batches of `UNIT`.
    fn stream_live(&mut self, tr: &mut Tracer) -> Pass {
        let mut failed = 0u64;
        let mut unit_us = Vec::with_capacity(self.inputs.events.len() / UNIT + 1);
        let mut staged: Vec<StreamEvent> = Vec::with_capacity(UNIT);
        let mut served: Vec<StreamEvent> = Vec::with_capacity(UNIT);
        let t0 = Instant::now();
        let root = tr.enter("pass");
        let mut ctl = AdmissionController::new(AdmissionConfig::default());
        let s = tr.enter("core.streaming.new");
        let mut engine = StreamAnalysis::new(&self.inputs.data, AnalysisConfig::default());
        tr.exit(s);
        let mut serve = |ctl: &mut AdmissionController,
                         engine: &mut StreamAnalysis,
                         tr: &mut Tracer,
                         failed: &mut u64| {
            served.clear();
            let s = tr.enter("core.admission.drain");
            ctl.drain(UNIT, &mut served);
            tr.exit(s);
            let s = tr.enter("core.streaming.ingest");
            let summary = engine.ingest_batch(&served);
            tr.exit(s);
            ctl.note_engine(&summary);
            *failed += summary.late + summary.quarantined;
        };
        for chunk in self.inputs.events.chunks(UNIT) {
            // `offer` takes the event by value; the copy is the load
            // generator producing it, so it sits outside the unit.
            let s = tr.enter("harness.generate");
            staged.extend(chunk.iter().cloned());
            tr.exit(s);
            let u0 = Instant::now();
            let s = tr.enter("core.admission.offer");
            for event in staged.drain(..) {
                let mut event = event;
                loop {
                    match ctl.offer(event) {
                        Offer::Enqueued => break,
                        Offer::Shed => {
                            failed += 1;
                            break;
                        }
                        Offer::Blocked(back) => {
                            serve(&mut ctl, &mut engine, tr, &mut failed);
                            event = back;
                        }
                    }
                }
            }
            tr.exit(s);
            serve(&mut ctl, &mut engine, tr, &mut failed);
            unit_us.push(u0.elapsed().as_secs_f64() * 1e6);
        }
        while ctl.queued() > 0 {
            serve(&mut ctl, &mut engine, tr, &mut failed);
        }
        let s = tr.enter("core.streaming.flush");
        let result = engine.flush();
        tr.exit(s);
        tr.exit(root);
        Pass {
            wall: t0.elapsed(),
            unit_us,
            lost_events: failed,
            admission: Some(ctl.counters()),
            ..Pass::new(result.output, result.report)
        }
    }

    /// The write side of the durability layer: journal every event,
    /// checkpoint on the default cadence.
    fn durable_stream(&mut self, tr: &mut Tracer) -> Result<Pass, String> {
        let dir = self.fresh_dir();
        let mut failed = 0u64;
        let mut unit_us = Vec::with_capacity(self.inputs.events.len() / UNIT + 1);
        let t0 = Instant::now();
        let root = tr.enter("pass");
        let s = tr.enter("core.recovery.create");
        let durable = DurableStream::create(
            &dir,
            &self.inputs.data,
            AnalysisConfig::default(),
            DurabilityPolicy::default(),
        );
        tr.exit(s);
        let mut durable = durable.map_err(|e| e.to_string())?;
        for chunk in self.inputs.events.chunks(UNIT) {
            let u0 = Instant::now();
            let s = tr.enter("core.recovery.ingest");
            failed += ingest_durably(&mut durable, chunk);
            tr.exit(s);
            unit_us.push(u0.elapsed().as_secs_f64() * 1e6);
        }
        let s = tr.enter("core.recovery.finish");
        let result = durable.finish();
        tr.exit(s);
        tr.exit(root);
        let wall = t0.elapsed();
        let _ = fs::remove_dir_all(&dir);
        Ok(Pass {
            wall,
            unit_us,
            lost_events: failed,
            ..Pass::new(result.output, result.report)
        })
    }

    /// The read side: restore the snapshot chain, replay the journal
    /// tail, re-feed what the crash lost, finish.
    fn crash_recover(&mut self, tr: &mut Tracer) -> Result<Pass, String> {
        let dir = self.fresh_dir();
        copy_dir(&self.pristine, &dir).map_err(|e| format!("copy crashed state: {e}"))?;
        let t0 = Instant::now();
        let root = tr.enter("pass");
        let s = tr.enter("core.recovery.recover");
        let recovered = DurableStream::recover(
            &dir,
            &self.inputs.data,
            AnalysisConfig::default(),
            DurabilityPolicy::default(),
        );
        tr.exit(s);
        let (mut durable, recovery) = recovered.map_err(|e| e.to_string())?;
        let resume = (recovery.resumed_at_seq as usize).min(self.inputs.events.len());
        let s = tr.enter("core.recovery.ingest");
        let failed = ingest_durably(&mut durable, &self.inputs.events[resume..]);
        tr.exit(s);
        let s = tr.enter("core.recovery.finish");
        let result = durable.finish();
        tr.exit(s);
        tr.exit(root);
        let wall = t0.elapsed();
        let _ = fs::remove_dir_all(&dir);
        Ok(Pass {
            wall,
            lost_events: failed,
            recovery: Some(recovery),
            ..Pass::new(result.output, result.report)
        })
    }

    /// Two shards behind the dispatcher, in-process or over stdio pipes.
    fn cluster(&mut self, tr: &mut Tracer) -> Result<Pass, String> {
        let cfg = ClusterConfig::new(2);
        let workers = match self.workload {
            Workload::ClusterSubprocess => Some(
                self.workers
                    .as_ref()
                    .ok_or("cluster_subprocess was never set up")?,
            ),
            _ => None,
        };
        let t0 = Instant::now();
        let root = tr.enter("pass");
        let s = tr.enter("core.cluster");
        let result = match workers {
            Some(opts) => {
                run_cluster_subprocess(&self.inputs.data, &self.inputs.events, &cfg, opts)
                    .map_err(|e| e.to_string())
            }
            None => {
                run_cluster(&self.inputs.data, &self.inputs.events, &cfg).map_err(|e| e.to_string())
            }
        };
        tr.exit(s);
        tr.exit(root);
        let wall = t0.elapsed();
        let result = result?;
        Ok(Pass {
            wall,
            ..Pass::new(result.output, result.report)
        })
    }
}

impl Drop for Prepared {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.state_root);
    }
}

/// Per-event durable ingest; returns how many events the program did not
/// accept (late, quarantined, or an `Err`).
fn ingest_durably(durable: &mut DurableStream, events: &[StreamEvent]) -> u64 {
    let mut failed = 0;
    for event in events {
        match durable.ingest(event) {
            Ok(IngestOutcome::Accepted) => {}
            Ok(_) => failed += 1,
            Err(e) => {
                eprintln!("durable ingest: {e}");
                failed += 1;
            }
        }
    }
    failed
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// What one pass produced.
pub struct Pass {
    /// Input handed over → complete answer in hand.
    pub wall: Duration,
    /// Wall time of each ingest unit, µs; empty on the workloads whose
    /// one call takes the whole input.
    pub unit_us: Vec<f64>,
    /// Events the program lost or refused (late, quarantined, shed, `Err`).
    pub lost_events: u64,
    pub output: StreamOutput,
    pub report: PipelineReport,
    /// `batch_archive`: the answer as serialized inside the pass.
    pub json: Option<String>,
    pub parse: Option<ParseStats>,
    pub recovery: Option<RecoveryReport>,
    pub admission: Option<OverloadCounters>,
}

impl Pass {
    fn new(output: StreamOutput, report: PipelineReport) -> Pass {
        Pass {
            wall: Duration::ZERO,
            unit_us: Vec::new(),
            lost_events: 0,
            output,
            report,
            json: None,
            parse: None,
            recovery: None,
            admission: None,
        }
    }
}

/// A pass and the verdict on it.
pub struct Checked {
    /// Lost events, or all N when the answer differs from the reference
    /// or the program returned an error.
    pub failed_events: u64,
    /// `None` when the program returned an error.
    pub pass: Option<Pass>,
}
