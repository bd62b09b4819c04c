//! Sharded multi-collector runtime — many kernels, one answer.
//!
//! The paper analyzes one 299-link backbone in a single process; a
//! production deployment watches orders of magnitude more links than one
//! collector can ingest. Because every semantic stage of the pipeline is
//! strictly per-link (the [`crate::kernel`] never shares state between
//! links), the lane work can be *partitioned by link* across N
//! independent worker shards, and the per-shard answers can be merged
//! back into the exact single-process answer. This module is that
//! runtime: **one runner, [`run_cluster`]**, a dispatcher + N workers
//! speaking a serializable protocol over a [`ShardTransport`] (see
//! [`crate::transport`]):
//!
//! ```text
//!                            ShardMsg over a ShardTransport
//!                           ┌─────────────────────────────────────┐
//!   events ─► front engine  │  ┌─ worker-0: lanes ─ Flushed ─┐    │
//!   (admit, late check,  ───┼──┼─ worker-1: lanes ─ Flushed ─┼────┼─► merge
//!    classify once: the     │  └─ worker-N: lanes ─ Flushed ─┘    │   ([front, shard0, …],
//!    messages + counters)   │   Rows frames: (LinkIx, LaneEvent)  │    concatenated,
//!          │                │   threads + channels (InProcess)    │    sorted once)
//!          └─ front output ─┼── or pipes + frames (Subprocess) ───┼─►
//!                           └─────────────────────────────────────┘
//! ```
//!
//! What kind of run it is — where the workers live, whether they are
//! durable — is two *values* of [`ClusterConfig`], not two functions:
//!
//! | field | value | what changes |
//! |---|---|---|
//! | [`ClusterConfig::workers`] | [`Workers::InProcess`] (default) / [`Workers::Subprocess`] | scoped threads behind bounded channels, or `faultline-shard-worker` processes over hashed stdio frames |
//! | [`ClusterConfig::durability`] | `None` / `Some(`[`ClusterDurability`]`)` | every worker journals under its own `shard-{i}/`; a lost worker is respawned and recovered instead of failing the run |
//!
//! Every combination goes through the same dispatcher loop and comes
//! back as the same [`ClusterResult`] under the same [`TransportError`].
//!
//! - **Partitioner.** The dispatcher classifies each event once, in a
//!   *front* engine of its own that admits it, judges lateness against
//!   the one global watermark, counts it and logs its resolved message.
//!   What is left is at most one lane row, `(LinkIx, LaneEvent)`, sent to
//!   the shard owning its link: the link's interned `(Sym, Sym)` key
//!   ([`crate::linktable::LinkTable::shard_key`]) through a jump
//!   consistent hash ([`shard_of_key`]), tabled once per shard count.
//!   Growing N → N+1 shards moves only the ~1/(N+1) of keys that land on
//!   the new shard, all *to* it. Events that yield no row never leave
//!   the dispatcher.
//! - **Workers.** A worker is lanes plus its answer log: a
//!   [`crate::streaming::StreamAnalysis`] (or
//!   [`crate::recovery::DurableStream`]) that only applies rows, and
//!   speaks only [`crate::transport::ShardMsg`] frames. A shard's rows
//!   keep global time order and a link's whole history lands on one
//!   shard, so every per-link state machine sees exactly its
//!   single-process history.
//! - **Aggregator.** [`merge_outputs`] rebuilds the global
//!   [`StreamOutput`] from the front's output and the shard outputs, *in
//!   that order*: the front contributes the resolved messages, the
//!   resolution counters and the serial halves of the merge counters
//!   (raw/unknown/multi-link); the shards contribute everything their
//!   lanes finalize. Counters are summed; records are concatenated in
//!   index order into one answer log and sorted once by the kernel's own
//!   `StreamOutput::assemble`, which equals a k-way merge with ties
//!   to the lowest index.
//!   `tests/cluster_equivalence.rs` and `tests/cluster_process.rs` assert
//!   the merged JSON is byte-identical to
//!   [`crate::analysis::Analysis::run`] for every tested shard count, seed
//!   and chaos preset, in process and across the subprocess transport.
//! - **Supervisor.** With [`ClusterConfig::durability`] set, a worker
//!   that dies mid-run — a [`faultline_sim::chaos::ShardKill`] abort
//!   inside the worker, or the dispatcher killing it outright (channel
//!   teardown in-process, a real `SIGKILL` for a subprocess) — is
//!   observed through the transport (a dead channel, EOF on the pipe)
//!   and *recorded* rather than returned. Once the healthy workers have
//!   flushed, the dispatcher respawns *that worker only*, recovers it
//!   through the ordinary [`crate::recovery::DurableStream::recover`]
//!   ladder, regenerates its rows by running the classifier over the
//!   stream again, re-feeds the ones it had not applied, and the merged
//!   answer is still byte-identical; healthy shards never restart
//!   (`tests/cluster_recovery.rs`, `tests/cluster_process.rs`). Without
//!   durability any worker loss is the run's error.

use crate::analysis::{self, AnalysisConfig};
use crate::error::TransportError;
use crate::intern::Sym;
use crate::kernel::{self, AnswerLog, LaneRow};
use crate::linktable::{LinkIx, LinkTable, Naming};
use crate::observe::{self, DurabilityCounters, PipelineReport, ShardCounters, TransportCounters};
use crate::recovery::{DurabilityPolicy, RecoveryReport};
use crate::streaming::{StreamAnalysis, StreamEvent, StreamOutput, StreamResult};
use crate::transport::{
    DurableSpec, InProcessTransport, ReadyMsg, ScenarioSpec, ShardMsg, ShardTransport,
    SubprocessTransport, WorkerSpec,
};
use faultline_sim::chaos::ShardKill;
use faultline_sim::ScenarioData;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// FNV-1a over the two interned ids, one round per word (the ids are
/// already dense and well-distributed).
fn key_hash(key: (Sym, Sym)) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    h = (h ^ u64::from(key.0 .0)).wrapping_mul(PRIME);
    h = (h ^ u64::from(key.1 .0)).wrapping_mul(PRIME);
    h
}

/// Jump consistent hash (Lamping & Veach): maps a 64-bit key onto
/// `0..buckets` such that growing to `buckets + 1` reassigns only the
/// keys that move to the new bucket — expected `1/(buckets + 1)` of
/// them — and reassigns them *to* the new bucket.
fn jump_hash(mut key: u64, buckets: u32) -> u32 {
    debug_assert!(buckets >= 1);
    let mut b: i64 = -1;
    let mut j: i64 = 0;
    while j < i64::from(buckets) {
        b = j;
        key = key.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
        let r = f64::from(1u32 << 31) / (((key >> 33) + 1) as f64);
        j = (((b + 1) as f64) * r) as i64;
    }
    b as u32
}

/// The shard an interned `(Sym, Sym)` link key lives on, for a cluster
/// of `shards` workers (`shards` is clamped to at least 1).
pub fn shard_of_key(key: (Sym, Sym), shards: u32) -> u32 {
    jump_hash(key_hash(key), shards.max(1))
}

/// The shard a link lives on: consistent hash of its canonical endpoint
/// host pair. Every member of a multi-link adjacency shares the pair, so
/// parallel links are always co-located — the property that lets
/// IS-reachability events, which resolve only to the *pair*, route
/// without knowing which member they belong to.
pub fn shard_of_link(table: &LinkTable, link: LinkIx, shards: u32) -> u32 {
    shard_of_key(table.shard_key(link), shards)
}

/// Split an event stream into per-shard substreams, in order, by the link
/// the classifier resolves each event to (shard 0 for an event naming
/// none: it only bumps counters, which sum). Run through one
/// [`crate::streaming::StreamAnalysis`] each, the substreams' outputs
/// merge to the single-process answer.
pub fn partition_events(
    table: &LinkTable,
    events: &[StreamEvent],
    shards: u32,
) -> Vec<Vec<StreamEvent>> {
    let assign = Assignment::new(table, shards.max(1));
    let mut routed: Vec<Vec<StreamEvent>> = (0..assign.shards).map(|_| Vec::new()).collect();
    for event in events {
        let c = kernel::classify(table, event.observed());
        let link = c.row.map(|row| row.link).or(c.message.map(|m| m.link));
        routed[link.map_or(0, |link| assign.worker(link))].push(event.clone());
    }
    routed
}

/// Deterministically merge shard [`StreamOutput`]s — **in index order**
/// — into the single global output. For [`run_cluster`]'s outputs (the
/// dispatcher's front engine first, then the workers in index order, as
/// the transport collects them), and for the outputs of
/// [`partition_events`] substreams of one in-order stream, the result
/// serializes byte-identical to the single-process
/// [`crate::analysis::Analysis::run`] answer — the differential contract
/// `tests/cluster_equivalence.rs` pins. The counters are summed and the
/// records concatenated in index order, then one stable sort per vector
/// (the kernel's own `StreamOutput::assemble`), which on lists each
/// already sorted equals a k-way merge with ties to the lowest index.
/// The first output's records start the log, moved whole. See the
/// module docs for why each field merges the way it does.
pub fn merge_outputs(outputs: Vec<StreamOutput>) -> StreamOutput {
    let mut log: Option<AnswerLog> = None;
    let mut sums = StreamOutput::default();
    for out in outputs {
        sums.resolve_stats.add(&out.resolve_stats);
        sums.is_stats.add(&out.is_stats);
        sums.ip_stats.add(&out.ip_stats);
        sums.isis_sanitize.add(&out.isis_sanitize);
        sums.syslog_sanitize.add(&out.syslog_sanitize);
        for (sum, recon) in [
            (&mut sums.isis_recon, &out.isis_recon),
            (&mut sums.syslog_recon, &out.syslog_recon),
        ] {
            sum.unterminated += recon.unterminated;
            sum.boundary_ups += recon.boundary_ups;
        }
        sums.counters.syslog_ingested += out.counters.syslog_ingested;
        match &mut log {
            None => log = Some(AnswerLog::from(out)),
            Some(log) => log.append(&mut AnswerLog::from(out)),
        }
    }
    StreamOutput::assemble(log.unwrap_or_default(), sums)
}

/// How a sharded cluster run is shaped: how many workers, where they
/// run, and whether they are durable. [`run_cluster`] is the only
/// runner; everything that distinguishes one kind of run from another
/// is a value here.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker shards (clamped to at least 1).
    pub shards: u32,
    /// The per-shard analysis configuration — identical on every shard,
    /// exactly as the single process would run it.
    pub analysis: AnalysisConfig,
    /// Micro-batch size, in lane rows, of each [`ShardMsg::Rows`] frame
    /// the dispatcher sends.
    pub chunk: usize,
    /// Where the workers run.
    pub workers: Workers,
    /// When present, every worker journals and checkpoints under its own
    /// `shard-{i}/` directory, and a worker lost mid-run is respawned
    /// and recovered instead of failing the run.
    pub durability: Option<ClusterDurability>,
}

impl ClusterConfig {
    /// A cluster of `shards` in-process, non-durable workers with the
    /// default analysis configuration and micro-batch size.
    pub fn new(shards: u32) -> Self {
        ClusterConfig {
            shards,
            analysis: AnalysisConfig::default(),
            chunk: 2048,
            workers: Workers::InProcess,
            durability: None,
        }
    }
}

/// Where a cluster's workers run. The protocol, the dispatcher and the
/// answer are identical either way.
#[derive(Debug, Clone)]
pub enum Workers {
    /// Scoped threads behind bounded channels, borrowing the
    /// dispatcher's scenario; messages move by value.
    InProcess,
    /// `faultline-shard-worker` child processes speaking hashed frames
    /// over stdio.
    Subprocess(SubprocessOptions),
}

/// How to run cluster workers as `faultline-shard-worker` subprocesses.
#[derive(Debug, Clone)]
pub struct SubprocessOptions {
    /// The worker binary (see [`crate::transport::locate_worker_bin`]).
    pub worker_bin: PathBuf,
    /// How each worker materializes its own copy of the scenario —
    /// must describe the same data the dispatcher routes with
    /// ([`ScenarioSpec::Params`] or [`ScenarioSpec::Inline`]).
    pub scenario: ScenarioSpec,
}

/// Durability for a cluster run, plus the chaos hooks that only make
/// sense when there is durable state to recover from.
#[derive(Debug, Clone)]
pub struct ClusterDurability {
    /// The cluster's durability root; shard `i` owns [`shard_dir`]`(root, i)`.
    /// Must not hold prior durable state.
    pub root: PathBuf,
    /// Checkpoint cadence, retention, fsync, and retry policy of every shard.
    pub policy: DurabilityPolicy,
    /// Deterministic in-worker aborts: the named worker applies exactly
    /// `after_events` of its lane rows, then dies without a word — the
    /// engine is dropped mid-run, no flush, no farewell message.
    pub kills: Vec<ShardKill>,
    /// Dispatcher-side kills: once exactly `after_events` of the named
    /// worker's lane rows have been sent, the dispatcher kills it
    /// through the transport — channel teardown in-process, a genuine
    /// `SIGKILL` for a subprocess, which gets no chance to flush buffers.
    pub hard_kills: Vec<ShardKill>,
}

/// The durability directory of one shard under the cluster root:
/// `root/shard-{i}/` — each shard journals and checkpoints entirely
/// within its own directory, which is what lets the supervisor recover
/// it without touching any other shard's state.
pub fn shard_dir(root: &Path, shard: u32) -> PathBuf {
    root.join(format!("shard-{shard}"))
}

/// One supervisor recovery: which shard died and what
/// [`crate::recovery::DurableStream::recover`] found in its `shard-{i}/` directory.
#[derive(Debug, Clone)]
pub struct ShardRecovery {
    /// The shard that was recovered.
    pub shard: u32,
    /// The recovery ladder's findings for that shard.
    pub report: RecoveryReport,
}

/// What a cluster run produces: the merged (single-process-identical)
/// output, the cluster-level report, each shard's own report, and the
/// ledgers of whatever adversity the run was configured with.
pub struct ClusterResult {
    /// The merged derived surface — byte-identical to the single-process
    /// answer on the same stream.
    pub output: StreamOutput,
    /// Cluster-level accounting: dispatch/shard/merge stages, merged
    /// headline counters, [`ShardCounters`] in
    /// [`PipelineReport::cluster`], and the transport's frame/byte
    /// ledger in [`PipelineReport::transport`].
    pub report: PipelineReport,
    /// Every shard's own [`PipelineReport`], in worker-index order.
    pub shard_reports: Vec<PipelineReport>,
    /// Every recovery the supervisor performed, in shard order; empty
    /// when no worker was lost.
    pub recoveries: Vec<ShardRecovery>,
    /// Per-shard `DurabilityCounters::restores` on a durable run (empty
    /// otherwise) — the healthy-shards-never-restart contract is
    /// `restores == 0` for every shard not named in a [`ShardKill`].
    pub shard_restores: Vec<u64>,
}

/// Wall-clock attribution for [`cluster_report`].
struct ClusterWalls {
    dispatch: std::time::Duration,
    shard_ingest: std::time::Duration,
    merge: std::time::Duration,
    total: std::time::Duration,
}

/// Fold the merged output, the front's report and the shard reports into
/// the cluster-level [`PipelineReport`]: what the front offered, judged
/// late and quarantined is the run's; the shards' lane-side counters
/// sum, their high-water marks take the worst shard.
#[allow(clippy::too_many_arguments)]
fn cluster_report(
    output: &StreamOutput,
    front: &PipelineReport,
    shard_reports: &[PipelineReport],
    events_per_shard: Vec<u64>,
    links_per_shard: Vec<u64>,
    walls: ClusterWalls,
    recovery_events: u64,
    durability: Option<DurabilityCounters>,
    transport: TransportCounters,
) -> PipelineReport {
    let shards = events_per_shard.len() as u32;
    let total_rows: u64 = events_per_shard.iter().sum();
    let max_shard_events = events_per_shard.iter().copied().max().unwrap_or(0);
    let min_shard_events = events_per_shard.iter().copied().min().unwrap_or(0);
    let mean = total_rows as f64 / shards.max(1) as f64;
    let skew = if mean > 0.0 {
        max_shard_events as f64 / mean
    } else {
        0.0
    };

    let mut streaming = front.streaming.unwrap_or_default();
    for s in shard_reports.iter().filter_map(|r| r.streaming.as_ref()) {
        streaming.batches += s.batches;
        streaming.segments_closed += s.segments_closed;
        streaming.open_state_high_water =
            streaming.open_state_high_water.max(s.open_state_high_water);
        streaming.arena_events_high_water = streaming
            .arena_events_high_water
            .max(s.arena_events_high_water);
        streaming.finalized_at_flush += s.finalized_at_flush;
        streaming.flap_episodes += s.flap_episodes;
    }
    let total_secs = walls.total.as_secs_f64();
    streaming.events_per_sec = if total_secs > 0.0 {
        streaming.events_ingested as f64 / total_secs
    } else {
        0.0
    };
    let events = streaming.events_ingested;

    let mut report = PipelineReport::new(1);
    report.record_stage("dispatch", events, total_rows, walls.dispatch);
    report.record_stage(
        "shard_ingest",
        total_rows,
        output.counters.transitions_derived,
        walls.shard_ingest,
    );
    report.record_stage(
        "merge",
        output.counters.failures_after_sanitize,
        output.counters.failures_matched,
        walls.merge,
    );
    report.counters = output.counters;
    report.streaming = Some(streaming);
    report.durability = durability;
    report.robustness = front.robustness;
    report.cluster = Some(ShardCounters {
        shards,
        events_per_shard,
        links_per_shard,
        max_shard_events,
        min_shard_events,
        skew,
        recovery_events,
        merge_micros: walls.merge.as_micros() as u64,
    });
    report.transport = Some(transport);
    report.total_micros = walls.total.as_micros() as u64;
    observe::narrate(|| {
        format!(
            "cluster done: {shards} shards, {events} events, {total_rows} rows, skew {skew:.2}, {recovery_events} recoveries"
        )
    });
    report
}

/// Every link's shard at one shard count, hashed once up front — the
/// per-row loop then routes with an array index instead of re-running
/// FNV + jump-hash for every row.
struct Assignment {
    shards: u32,
    by_link: Vec<u32>,
}

impl Assignment {
    fn new(table: &LinkTable, shards: u32) -> Self {
        Assignment {
            shards,
            by_link: table
                .iter()
                .map(|ix| shard_of_link(table, ix, shards))
                .collect(),
        }
    }

    /// The worker that owns `link`.
    fn worker(&self, link: LinkIx) -> usize {
        self.by_link[link.0 as usize] as usize
    }

    /// Links assigned to each shard.
    fn links_per_shard(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.shards as usize];
        for &shard in &self.by_link {
            counts[shard as usize] += 1;
        }
        counts
    }
}

/// Which workers were lost mid-run. Only a durable run may lose one:
/// its supervisor pass brings the worker back from its `shard-{i}/`
/// directory. A non-durable worker has no state to recover, so there
/// the loss is the run's error.
struct Losses {
    recoverable: bool,
    dead: Vec<bool>,
}

impl Losses {
    /// Pass `result` through, unless it is a worker loss this run can
    /// recover from: then record it and carry on without that worker.
    fn absorb<T>(
        &mut self,
        worker: usize,
        result: Result<T, TransportError>,
    ) -> Result<Option<T>, TransportError> {
        match result {
            Ok(value) => Ok(Some(value)),
            Err(e) if self.recoverable && e.is_worker_loss() => {
                self.dead[worker] = true;
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

/// The spec of worker `shard` in a cluster of `shards`: fresh, or —
/// for the supervisor's respawn — recovering from its own directory. A
/// recovering worker never inherits the abort hook that killed its
/// predecessor.
fn worker_spec(cfg: &ClusterConfig, shard: u32, shards: u32, recover: bool) -> WorkerSpec {
    let scenario = match &cfg.workers {
        Workers::InProcess => ScenarioSpec::Attached,
        Workers::Subprocess(opts) => opts.scenario.clone(),
    };
    let mut spec = WorkerSpec::new(shard, shards, cfg.analysis.clone(), scenario);
    if let Some(d) = &cfg.durability {
        spec.durable = Some(DurableSpec {
            dir: shard_dir(&d.root, shard).display().to_string(),
            policy: d.policy,
            recover,
        });
        if !recover {
            spec.abort_after_events = kill_point(&d.kills, shard);
        }
    }
    spec
}

fn kill_point(kills: &[ShardKill], shard: u32) -> Option<u64> {
    kills
        .iter()
        .find(|k| k.shard == shard)
        .map(|k| k.after_events)
}

/// Start the configured workers and hand `drive` the transport that
/// reaches them — the one place the two transports are named. Returns
/// what `drive` returned plus the transport's ledger. An in-process
/// worker panic re-raises at scope exit.
fn with_workers<R>(
    data: &ScenarioData,
    naming: &Arc<Naming>,
    workers: &Workers,
    specs: Vec<WorkerSpec>,
    drive: impl FnOnce(&mut dyn ShardTransport) -> R,
) -> Result<(R, TransportCounters), TransportError> {
    match workers {
        Workers::InProcess => Ok(std::thread::scope(|scope| {
            let mut transport = InProcessTransport::start(scope, data, Arc::clone(naming), specs);
            let driven = drive(&mut transport);
            (driven, transport.counters())
        })),
        Workers::Subprocess(opts) => {
            let mut transport = SubprocessTransport::start(&opts.worker_bin, &specs)?;
            let driven = drive(&mut transport);
            Ok((driven, transport.counters()))
        }
    }
}

/// Receive a worker's next message and require it to be the kind
/// `want` names: `take` unpacks that kind and hands any other back.
fn expect<T>(
    transport: &mut dyn ShardTransport,
    worker: usize,
    want: &str,
    take: impl FnOnce(ShardMsg) -> Result<T, ShardMsg>,
) -> Result<T, TransportError> {
    match transport.recv(worker)? {
        ShardMsg::Fatal { detail } => Err(TransportError::WorkerReported { worker, detail }),
        msg => take(msg).map_err(|other| TransportError::Protocol {
            worker,
            detail: format!("expected {want}, got {}", other.kind()),
        }),
    }
}

/// Receive a worker's next message and require it to be [`ShardMsg::Ready`].
fn expect_ready(
    transport: &mut dyn ShardTransport,
    worker: usize,
) -> Result<ReadyMsg, TransportError> {
    expect(transport, worker, "ready", |msg| match msg {
        ShardMsg::Ready(ready) => Ok(ready),
        other => Err(other),
    })
}

/// Receive a worker's next message and require it to be [`ShardMsg::Flushed`].
fn expect_flushed(
    transport: &mut dyn ShardTransport,
    worker: usize,
) -> Result<(StreamOutput, PipelineReport), TransportError> {
    expect(transport, worker, "flushed", |msg| match msg {
        ShardMsg::Flushed(out) => Ok((out.output, out.report)),
        other => Err(other),
    })
}

/// What one pass of the dispatcher hands back.
struct Dispatched {
    /// The front engine's flushed output and report.
    front: StreamResult,
    /// Every worker's flushed output and report, in worker-index order.
    flushed: Vec<(StreamOutput, PipelineReport)>,
    /// Lane rows routed to each worker over the whole run.
    events_per_shard: Vec<u64>,
    /// Links each worker holds.
    links_per_shard: Vec<u64>,
    recoveries: Vec<ShardRecovery>,
}

/// The dispatcher — the only one. Ready barrier; then a single fused
/// pass that routes each event through a front engine over the run's
/// naming layer and sends every row batch the moment it fills (still
/// cache-warm for the worker), firing each hard kill when exactly its
/// `after_events` of the victim's rows have been sent; Flush, flush the
/// front while the workers flush, collect in worker-index order; then
/// the supervisor pass over whatever was lost.
fn dispatch(
    transport: &mut dyn ShardTransport,
    data: &ScenarioData,
    naming: &Arc<Naming>,
    events: &[StreamEvent],
    cfg: &ClusterConfig,
) -> Result<Dispatched, TransportError> {
    let table = &naming.table;
    let router = || {
        StreamAnalysis::with_naming(
            data,
            cfg.analysis.clone(),
            Arc::clone(naming),
            Instant::now(),
        )
    };
    let mut front = router();
    let chunk = cfg.chunk.max(1);
    let cap = chunk.min(events.len());
    let hard_kills = cfg.durability.as_ref().map_or(&[][..], |d| &d.hard_kills);

    let workers = transport.workers();
    for worker in 0..workers {
        expect_ready(transport, worker)?;
    }
    let assign = Assignment::new(table, workers as u32);
    let mut current: Vec<Vec<LaneRow>> = (0..workers).map(|_| Vec::with_capacity(cap)).collect();
    let mut counts = vec![0u64; workers];
    let mut losses = Losses {
        recoverable: cfg.durability.is_some(),
        dead: vec![false; workers],
    };
    let kill_at: Vec<Option<u64>> = (0..workers)
        .map(|w| kill_point(hard_kills, w as u32))
        .collect();
    for (w, at) in kill_at.iter().enumerate() {
        if *at == Some(0) {
            hard_kill(transport, &mut losses, w, 0)?;
        }
    }

    for event in events {
        let Some(row) = front.route(event.observed()).1 else {
            continue;
        };
        let w = assign.worker(row.link);
        counts[w] += 1;
        if losses.dead[w] {
            // Withheld; the supervisor pass re-feeds it.
            continue;
        }
        let batch = &mut current[w];
        batch.push(row);
        // Cutting the batch here lands the kill exactly on its
        // row boundary.
        let kill_due = kill_at[w] == Some(counts[w]);
        if batch.len() >= chunk || kill_due {
            let full = std::mem::replace(batch, Vec::with_capacity(cap));
            losses.absorb(w, transport.send(w, ShardMsg::Rows(full)))?;
        }
        if kill_due && !losses.dead[w] {
            hard_kill(transport, &mut losses, w, counts[w])?;
        }
    }
    for (w, partial) in current.into_iter().enumerate() {
        if !partial.is_empty() {
            losses.absorb(w, transport.send(w, ShardMsg::Rows(partial)))?;
        }
    }

    for w in 0..workers {
        if !losses.dead[w] {
            losses.absorb(w, transport.send(w, ShardMsg::Flush))?;
        }
    }
    // The front collects its answer while the workers collect theirs.
    let front = front.flush();
    let mut flushed: Vec<Option<(StreamOutput, PipelineReport)>> =
        (0..workers).map(|_| None).collect();
    for (w, answer) in flushed.iter_mut().enumerate() {
        if !losses.dead[w] {
            *answer = losses.absorb(w, expect_flushed(transport, w))?;
        }
    }

    // Supervisor pass: every lost worker is respawned against its own
    // shard-{i}/ directory and recovered through the ordinary ladder;
    // healthy workers are never touched. A second loss of the same
    // worker propagates.
    let mut recoveries = Vec::new();
    for (w, answer) in flushed.iter_mut().enumerate() {
        if !losses.dead[w] {
            continue;
        }
        transport.respawn(w, worker_spec(cfg, w as u32, workers as u32, true))?;
        let ready = expect_ready(transport, w)?;
        let report = ready.recovery.ok_or_else(|| TransportError::Protocol {
            worker: w,
            detail: "respawned worker reported no recovery".to_string(),
        })?;
        observe::narrate(|| {
            format!(
                "cluster: supervisor recovered shard {w} at seq {}",
                report.resumed_at_seq
            )
        });
        // The worker's rows are the stream classified again, by a fresh
        // router over the same naming layer, and filtered through the
        // same routing; the ladder already brought back its first
        // `resumed_at_seq` rows.
        let mut router = router();
        let rows: Vec<LaneRow> = events
            .iter()
            .filter_map(|event| router.route(event.observed()).1)
            .filter(|row| assign.worker(row.link) == w)
            .skip(report.resumed_at_seq as usize)
            .collect();
        for batch in rows.chunks(chunk) {
            transport.send(w, ShardMsg::Rows(batch.to_vec()))?;
        }
        transport.send(w, ShardMsg::Flush)?;
        *answer = Some(expect_flushed(transport, w)?);
        recoveries.push(ShardRecovery {
            shard: w as u32,
            report,
        });
    }

    Ok(Dispatched {
        front,
        flushed: flushed
            .into_iter()
            .map(|f| f.expect("every lost worker was recovered above"))
            .collect(),
        events_per_shard: counts,
        links_per_shard: assign.links_per_shard(),
        recoveries,
    })
}

/// Kill worker `w` through the transport, `at` rows into its share.
fn hard_kill(
    transport: &mut dyn ShardTransport,
    losses: &mut Losses,
    w: usize,
    at: u64,
) -> Result<(), TransportError> {
    transport.kill(w)?;
    observe::narrate(|| format!("cluster: shard {w} hard-killed after {at} events"));
    losses.dead[w] = true;
    Ok(())
}

/// Aggregate per-shard durability counters into the cluster-wide figure
/// (sums, except high-water marks and rates which take the worst shard)
/// and collect the per-shard restore counts. The reports arrived in
/// `Flushed` frames — from another process, for subprocess workers — so
/// one without the section is a protocol violation, not a panic.
fn fold_durability(
    reports: &[PipelineReport],
) -> Result<(DurabilityCounters, Vec<u64>), TransportError> {
    let mut durability = DurabilityCounters::default();
    let mut shard_restores = Vec::with_capacity(reports.len());
    for (worker, report) in reports.iter().enumerate() {
        let d = report.durability.ok_or_else(|| TransportError::Protocol {
            worker,
            detail: "durable worker flushed a report with no durability section".to_string(),
        })?;
        shard_restores.push(d.restores);
        durability.checkpoints_written += d.checkpoints_written;
        durability.checkpoint_bytes_last = durability
            .checkpoint_bytes_last
            .max(d.checkpoint_bytes_last);
        durability.checkpoint_write_micros_max = durability
            .checkpoint_write_micros_max
            .max(d.checkpoint_write_micros_max);
        durability.checkpoint_retries += d.checkpoint_retries;
        durability.journal_records += d.journal_records;
        durability.journal_segments += d.journal_segments;
        durability.journal_bytes += d.journal_bytes;
        durability.journal_fsyncs += d.journal_fsyncs;
        durability.restores += d.restores;
        durability.events_replayed += d.events_replayed;
        durability.journal_truncated_records += d.journal_truncated_records;
        durability.deltas_written += d.deltas_written;
        durability.delta_bytes_total += d.delta_bytes_total;
        durability.full_bytes_total += d.full_bytes_total;
        durability.chain_length_at_recovery = durability
            .chain_length_at_recovery
            .max(d.chain_length_at_recovery);
        durability.snapshot_thread_stalls += d.snapshot_thread_stalls;
        durability.snapshot_sync_fallbacks += d.snapshot_sync_fallbacks;
        durability.ingest_stall_micros += d.ingest_stall_micros;
        // A rate, so the cluster-wide figure is the worst shard, not a sum.
        durability.snapshot_stall_rate_per_sec = durability
            .snapshot_stall_rate_per_sec
            .max(d.snapshot_stall_rate_per_sec);
    }
    Ok((durability, shard_restores))
}

/// Run a sharded cluster — the only runner. Classify `events` once at
/// the dispatcher, send each of `cfg.shards` workers (behind the
/// transport `cfg.workers` names) the lane rows of the links it owns,
/// and merge the dispatcher's and the shards' outputs into the
/// single-process answer.
///
/// Durability is read from `cfg` too (see [`ClusterConfig`]); either
/// way, the merged output is byte-identical to
/// [`crate::analysis::Analysis::run`] on the same stream. Configuration and input ordering are validated once, before
/// any worker starts or any directory is created.
///
/// # Examples
///
/// ```
/// use faultline_core::cluster::{run_cluster, ClusterConfig};
/// use faultline_core::{scenario_event_stream, Analysis, AnalysisConfig};
/// use faultline_sim::scenario::{run, ScenarioParams};
///
/// let data = run(&ScenarioParams::tiny(42));
/// let events = scenario_event_stream(&data);
/// let clustered = run_cluster(&data, &events, &ClusterConfig::new(3)).unwrap();
/// let batch = Analysis::run(&data, AnalysisConfig::default());
/// assert_eq!(
///     serde_json::to_string(&clustered.output).unwrap(),
///     serde_json::to_string(&batch.output).unwrap(),
/// );
/// assert_eq!(clustered.shard_reports.len(), 3);
/// ```
pub fn run_cluster(
    data: &ScenarioData,
    events: &[StreamEvent],
    cfg: &ClusterConfig,
) -> Result<ClusterResult, TransportError> {
    let started = Instant::now();
    // Validate configuration and input ordering once; shard workers then
    // construct engines infallibly with the same inputs.
    analysis::validate_inputs(data, &cfg.analysis)?;
    let shards = cfg.shards.max(1);

    // The dispatch stage covers the routing side input (the naming
    // layer, mined once here and shared by the front engine and every
    // in-process worker); the per-link shard assignment and the
    // per-event classify+send work are fused into the feed inside
    // `dispatch`, so they land in the shard_ingest wall they actually
    // overlap with.
    let t_dispatch = Instant::now();
    let naming = Arc::new(Naming::mine(data));
    let dispatch_wall = t_dispatch.elapsed();

    let t_shards = Instant::now();
    let specs = (0..shards)
        .map(|shard| worker_spec(cfg, shard, shards, false))
        .collect();
    let (driven, transport) = with_workers(data, &naming, &cfg.workers, specs, |transport| {
        dispatch(transport, data, &naming, events, cfg)
    })?;
    let run = driven?;
    let shard_wall = t_shards.elapsed();

    let (outputs, shard_reports): (Vec<_>, Vec<_>) = run.flushed.into_iter().unzip();
    let (durability, shard_restores) = match &cfg.durability {
        Some(_) => Some(fold_durability(&shard_reports)?),
        None => None,
    }
    .unzip();
    let t_merge = Instant::now();
    let output = merge_outputs(std::iter::once(run.front.output).chain(outputs).collect());
    let merge_wall = t_merge.elapsed();

    let report = cluster_report(
        &output,
        &run.front.report,
        &shard_reports,
        run.events_per_shard,
        run.links_per_shard,
        ClusterWalls {
            dispatch: dispatch_wall,
            shard_ingest: shard_wall,
            merge: merge_wall,
            total: started.elapsed(),
        },
        run.recoveries.len() as u64,
        durability,
        transport,
    );
    Ok(ClusterResult {
        output,
        report,
        shard_reports,
        recoveries: run.recoveries,
        shard_restores: shard_restores.unwrap_or_default(),
    })
}

/// [`run_cluster`] with `cfg.workers` overridden to
/// [`Workers::Subprocess`]`(opts)` — an older spelling kept for callers
/// that compile against it. New code sets [`ClusterConfig::workers`].
pub fn run_cluster_subprocess(
    data: &ScenarioData,
    events: &[StreamEvent],
    cfg: &ClusterConfig,
    opts: &SubprocessOptions,
) -> Result<ClusterResult, TransportError> {
    let cfg = ClusterConfig {
        workers: Workers::Subprocess(opts.clone()),
        ..cfg.clone()
    };
    run_cluster(data, events, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linktable;
    use crate::transport::witness;
    use faultline_sim::scenario::{run, ScenarioParams};

    #[test]
    fn jump_hash_is_stable_and_in_range() {
        for key in 0..1000u64 {
            for n in 1..10u32 {
                let b = jump_hash(key, n);
                assert!(b < n);
                assert_eq!(b, jump_hash(key, n), "deterministic");
            }
        }
    }

    #[test]
    fn growing_the_cluster_only_moves_keys_to_the_new_shard() {
        for key in 0..2000u64 {
            for n in 1..12u32 {
                let before = jump_hash(key, n);
                let after = jump_hash(key, n + 1);
                assert!(
                    after == before || after == n,
                    "key {key}: {before} -> {after} adding shard {n}"
                );
            }
        }
    }

    #[test]
    fn partition_covers_every_event_exactly_once() {
        let data = run(&ScenarioParams::tiny(11));
        let table = linktable::from_scenario(&data);
        let events = crate::streaming::scenario_event_stream(&data);
        for n in [1u32, 2, 4, 7] {
            let routed = partition_events(&table, &events, n);
            assert_eq!(routed.len(), n as usize);
            let total: usize = routed.iter().map(Vec::len).sum();
            assert_eq!(total, events.len());
            for shard in &routed {
                assert!(shard.windows(2).all(|w| w[0].at() <= w[1].at()));
            }
        }
    }

    /// The precomputed per-link table agrees with hashing each link's
    /// key afresh, and every row `run_cluster` routes lands on the shard
    /// of the link the classifier named.
    #[test]
    fn precomputed_assignment_agrees_with_shard_of_link() {
        let data = run(&ScenarioParams::tiny(11));
        let table = linktable::from_scenario(&data);
        let events = crate::streaming::scenario_event_stream(&data);
        for n in [1u32, 3, 7] {
            let assign = Assignment::new(&table, n);
            for ix in table.iter() {
                assert_eq!(assign.worker(ix), shard_of_link(&table, ix, n) as usize);
            }
            let parts = partition_events(&table, &events, n);
            for (shard, part) in parts.iter().enumerate() {
                for event in part {
                    let c = kernel::classify(&table, event.observed());
                    if let Some(link) = c.row.map(|row| row.link).or(c.message.map(|m| m.link)) {
                        assert_eq!(shard_of_link(&table, link, n) as usize, shard);
                    }
                }
            }
        }
    }

    #[test]
    fn every_in_process_worker_resolves_through_the_dispatchers_table() {
        let data = run(&ScenarioParams::tiny(7));
        let events = crate::streaming::scenario_event_stream(&data);
        let naming = Arc::new(Naming::mine(&data));
        // `run_cluster` after its one mining call.
        let run_with = |cfg: &ClusterConfig| {
            let specs = (0..cfg.shards)
                .map(|shard| worker_spec(cfg, shard, cfg.shards, false))
                .collect();
            let (driven, transport) =
                with_workers(&data, &naming, &cfg.workers, specs, |transport| {
                    dispatch(transport, &data, &naming, &events, cfg)
                })
                .expect("in-process workers start");
            (driven.expect("the run completes"), transport)
        };
        // What the witness should have seen, in (kind, shard) order:
        // every engine over the one table above.
        let all_on_it = |engines: &[(&'static str, u32)]| {
            let naming = Arc::as_ptr(&naming) as usize;
            let built = engines.iter().map(|&(kind, shard)| witness::Built {
                shard,
                kind,
                naming,
            });
            built.collect::<Vec<_>>()
        };
        let seen = || {
            let mut seen = witness::take(&data);
            seen.sort_by_key(|b| (b.kind, b.shard));
            seen
        };
        witness::take(&data);

        // Two fresh workers.
        let (fresh, _) = run_with(&ClusterConfig::new(2));
        assert_eq!(fresh.flushed.len(), 2);
        assert_eq!(seen(), all_on_it(&[("fresh", 0), ("fresh", 1)]));

        // Two durable workers, one hard-killed and respawned by the
        // supervisor, which recovers it from its directory.
        let root =
            std::env::temp_dir().join(format!("faultline-cluster-naming-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (durable, counters) = run_with(&ClusterConfig {
            durability: Some(ClusterDurability {
                root: root.clone(),
                policy: DurabilityPolicy::default(),
                kills: Vec::new(),
                hard_kills: vec![ShardKill {
                    shard: 1,
                    after_events: 40,
                }],
            }),
            ..ClusterConfig::new(2)
        });
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(durable.recoveries.len(), 1);
        assert_eq!(counters.worker_restarts, 1);
        assert_eq!(
            seen(),
            all_on_it(&[("create", 0), ("create", 1), ("recover", 1)])
        );
    }

    #[test]
    fn a_flushed_report_without_durability_is_a_protocol_error() {
        let durable = PipelineReport {
            durability: Some(DurabilityCounters {
                restores: 1,
                ..DurabilityCounters::default()
            }),
            ..PipelineReport::default()
        };
        let (folded, restores) =
            fold_durability(&[durable.clone(), durable.clone()]).expect("both sections present");
        assert_eq!((folded.restores, restores), (2, vec![1, 1]));

        // What a misbehaving subprocess worker could answer with.
        match fold_durability(&[durable, PipelineReport::default()]) {
            Err(TransportError::Protocol { worker: 1, detail }) => {
                assert!(detail.contains("durability"), "{detail}")
            }
            other => panic!("expected a protocol error naming worker 1, got {other:?}"),
        }
    }
}
