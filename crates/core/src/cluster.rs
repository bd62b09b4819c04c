//! Sharded multi-collector runtime — many kernels, one answer.
//!
//! The paper analyzes one 299-link backbone in a single process; a
//! production deployment watches orders of magnitude more links than one
//! collector can ingest. Because every semantic stage of the pipeline is
//! strictly per-link (the [`crate::kernel`] never shares state between
//! links), the stream can be *partitioned by link* across N independent
//! worker shards, each running the ordinary streaming driver over its
//! substream, and the per-shard answers can be merged back into the
//! exact single-process answer. This module is that runtime: **one
//! runner, [`run_cluster`]**, a dispatcher + N workers speaking a
//! serializable protocol over a [`ShardTransport`] (see
//! [`crate::transport`]):
//!
//! ```text
//!               ShardMsg over a ShardTransport
//!              ┌────────────────────────────────────────────┐
//!              │  ┌─ worker-0: StreamAnalysis ─ Flushed ─┐  │
//!  dispatcher ─┼──┼─ worker-1: StreamAnalysis ─ Flushed ─┼──┼─ merge
//!  (route +    │  └─ worker-N: StreamAnalysis ─ Flushed ─┘  │  (k-way, by the
//!   Events     │     thread + channels (InProcess)          │   collect keys)
//!   frames)    │     or pipes + frames (Subprocess)         │
//!              └────────────────────────────────────────────┘
//! ```
//!
//! What kind of run it is — where the workers live, whether they are
//! durable, whether the cluster grows mid-stream — is three *values* of
//! [`ClusterConfig`], not three functions:
//!
//! | field | value | what changes |
//! |---|---|---|
//! | [`ClusterConfig::workers`] | [`Workers::InProcess`] (default) / [`Workers::Subprocess`] | scoped threads behind bounded channels, or `faultline-shard-worker` processes over hashed stdio frames |
//! | [`ClusterConfig::durability`] | `None` / `Some(`[`ClusterDurability`]`)` | every worker journals under its own `shard-{i}/`; a lost worker is respawned and recovered instead of failing the run |
//! | [`ClusterConfig::reshard_at`] | `None` / `Some(event index)` | the cluster grows N → N+1 at that event boundary, migrating exactly the lanes jump-hash reassigns |
//!
//! Every combination goes through the same dispatcher loop and comes
//! back as the same [`ClusterResult`] under the same [`TransportError`].
//!
//! - **Partitioner.** [`route_event`] resolves each event to its link
//!   exactly as the kernel's classify stage would, then hashes the
//!   link's interned `(Sym, Sym)` key ([`crate::linktable::LinkTable::shard_key`])
//!   through a jump consistent hash ([`shard_of_key`]). Jump hashing
//!   gives the resharding property the property tests pin: growing
//!   N → N+1 shards moves only the ~1/(N+1) of keys that land on the new
//!   shard, and every moved key moves *to* the new shard. Events that
//!   resolve to no link (unresolved hostnames, unknown prefixes) go to a
//!   deterministic fallback shard — they only increment counters, which
//!   sum shard-wise, so any deterministic placement preserves the merge.
//! - **Workers.** Each worker owns an unmodified [`crate::streaming::StreamAnalysis`]
//!   (or [`crate::recovery::DurableStream`] on a durable run) and interacts with
//!   the dispatcher *only* through [`crate::transport::ShardMsg`]
//!   frames: `Ready`, `Events`, `Flush`/`Flushed`, `Fatal`. A shard's
//!   substream preserves global time order, and a link's entire history
//!   lands on exactly one shard, so every per-link state machine sees
//!   byte-for-byte the history it would see in a single process.
//! - **Aggregator.** [`merge_outputs`] rebuilds the global
//!   [`StreamOutput`] from the shard outputs *in worker-index order*:
//!   counter structs are field-wise sums (each offered event is counted
//!   by exactly one shard), event-level vectors are k-way merged on the
//!   same keys `Kernel::collect` uses with ties taken from the lowest
//!   worker index (a tie spans shards only for a link a reshard moved,
//!   whose earlier records sit on the lower index, so this reproduces
//!   the single-process order exactly), and the match index
//!   pairs are re-based from shard-local to global failure positions.
//!   `tests/cluster_equivalence.rs` asserts the merged JSON is
//!   byte-identical to [`crate::analysis::Analysis::run`] for every
//!   tested shard count, seed, and chaos preset;
//!   `tests/cluster_process.rs` asserts the same across the subprocess
//!   transport.
//! - **Supervisor.** With [`ClusterConfig::durability`] set, a worker
//!   that dies mid-run — a [`faultline_sim::chaos::ShardKill`] abort
//!   inside the worker, or the dispatcher killing it outright (channel
//!   teardown in-process, a real `SIGKILL` for a subprocess) — is
//!   observed through the transport (a dead channel, EOF on the pipe)
//!   and *recorded* rather than returned. Once the healthy workers have
//!   flushed, the dispatcher respawns *that worker only*, recovers it
//!   through the ordinary [`crate::recovery::DurableStream::recover`]
//!   ladder, re-feeds the unconsumed tail of its substream, and the
//!   merged answer is still byte-identical; healthy shards never restart
//!   (`tests/cluster_recovery.rs`, `tests/cluster_process.rs`). Without
//!   durability any worker loss is the run's error.
//! - **Live resharding.** With [`ClusterConfig::reshard_at`] set,
//!   dispatch pauses at that event boundary, the lanes of exactly the
//!   links jump-hash reassigns are detached from their old workers
//!   ([`crate::transport::ShardMsg::ExportLanes`]), shipped as
//!   serialized lane snapshots
//!   ([`crate::transport::ShardMsg::LaneMigrate`]), attached by the new
//!   worker, and dispatch resumes at N+1 routing. A lane is the link's
//!   whole open state, so it continues on the new worker exactly where
//!   it stopped. What the link had finalized stays in the old worker's
//!   answer log, as its resolved messages always did, and the k-way
//!   merge interleaves both workers' records: the old worker's are
//!   earlier and its index lower. The merged output is byte-identical
//!   to a from-scratch N+1 run (`tests/cluster_reshard.rs`). Durable
//!   workers refuse lane migration, so combining the two is a typed
//!   [`TransportError::WorkerReported`].

use crate::analysis::{self, AnalysisConfig};
use crate::error::TransportError;
use crate::intern::Sym;
use crate::linktable::{LinkIx, LinkTable, Naming};
use crate::matching::FailureMatching;
use crate::observe::{
    self, DurabilityCounters, PipelineCounters, PipelineReport, ShardCounters, StreamingCounters,
    TransportCounters,
};
use crate::reconstruct::{Failure, Reconstruction};
use crate::recovery::{DurabilityPolicy, RecoveryReport};
use crate::sanitize::SanitizeReport;
use crate::streaming::{LaneMigration, StreamEvent, StreamOutput};
use crate::transitions::{IsisMergeStats, SyslogResolveStats};
use crate::transport::{
    DurableSpec, InProcessTransport, ReadyMsg, ScenarioSpec, ShardMsg, ShardTransport,
    SubprocessTransport, WorkerSpec,
};
use faultline_isis::listener::{ReachabilityKind, TransitionSubject};
use faultline_sim::chaos::ShardKill;
use faultline_sim::ScenarioData;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The partition key used for events that resolve to no link (unknown
/// hostnames, foreign prefixes, unparseable subjects). They only
/// increment resolution counters — shard-wise sums — so any
/// deterministic placement is merge-equivalent; pinning one keeps the
/// per-shard event counts reproducible.
pub const UNROUTED_KEY: (Sym, Sym) = (Sym(u32::MAX), Sym(u32::MAX));

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

/// The link an event would resolve to, mirroring the kernel's classify
/// stage read-only: syslog by `(host, interface)`, IS reachability by
/// system-ID pair (any member — they co-locate), IP reachability by /31
/// subnet.
fn link_of_event(table: &LinkTable, event: &StreamEvent) -> Option<LinkIx> {
    match event {
        StreamEvent::Syslog(m) => table.by_interface(&m.event.host, &m.event.interface),
        StreamEvent::Isis(t) => match t.kind {
            ReachabilityKind::IsReach => match &t.subject {
                TransitionSubject::Adjacency { neighbor } => {
                    table.by_sysid_pair(t.source, *neighbor).first().copied()
                }
                _ => None,
            },
            ReachabilityKind::IpReach => t.subject.as_subnet().and_then(|s| table.by_subnet(s)),
        },
    }
}

/// The shard one event is routed to. Deterministic in the event and the
/// (deterministically interned) table, so every dispatcher in a cluster
/// agrees without coordination.
pub fn route_event(table: &LinkTable, event: &StreamEvent, shards: u32) -> u32 {
    match link_of_event(table, event) {
        Some(link) => shard_of_link(table, link, shards),
        None => shard_of_key(UNROUTED_KEY, shards),
    }
}

/// Split an event stream into per-shard substreams, preserving order
/// within each (a subsequence of an in-order stream is in order, so no
/// shard ever sees a late event the single process would not have).
pub fn partition_events(
    table: &LinkTable,
    events: &[StreamEvent],
    shards: u32,
) -> Vec<Vec<StreamEvent>> {
    let n = shards.max(1);
    let mut routed: Vec<Vec<StreamEvent>> = (0..n).map(|_| Vec::new()).collect();
    for event in events {
        routed[route_event(table, event, n) as usize].push(event.clone());
    }
    routed
}

fn add_resolve(into: &mut SyslogResolveStats, from: &SyslogResolveStats) {
    into.isis_resolved += from.isis_resolved;
    into.physical_resolved += from.physical_resolved;
    into.lineproto_skipped += from.lineproto_skipped;
    into.unresolved += from.unresolved;
}

fn add_merge_stats(into: &mut IsisMergeStats, from: &IsisMergeStats) {
    into.raw += from.raw;
    into.unresolvable_multilink += from.unresolvable_multilink;
    into.unknown += from.unknown;
    into.inconsistent += from.inconsistent;
    into.emitted += from.emitted;
}

/// K-way merge of per-shard vectors that each arrive already ordered by
/// `key` (the collect-stage invariant, asserted in debug builds rather
/// than re-established with a sort). Ties take the lowest worker index —
/// for outputs in worker-index order this is exactly the
/// concatenate-then-stable-sort result the aggregator has always
/// produced, in O(total × shards) without disturbing a single
/// already-ordered element.
fn merge_sorted<T: Clone, K: Ord>(
    shards: &[StreamOutput],
    side: impl Fn(&StreamOutput) -> &[T],
    key: impl Fn(&T) -> K,
) -> Vec<T> {
    for out in shards {
        debug_assert!(
            side(out).windows(2).all(|w| key(&w[0]) <= key(&w[1])),
            "shard outputs must arrive internally ordered (worker-index order from the transport)"
        );
    }
    let total: usize = shards.iter().map(|o| side(o).len()).sum();
    let mut cursors = vec![0usize; shards.len()];
    let mut merged = Vec::with_capacity(total);
    while merged.len() < total {
        let mut best: Option<usize> = None;
        for (s, out) in shards.iter().enumerate() {
            let list = side(out);
            if cursors[s] >= list.len() {
                continue;
            }
            // Strict `<` keeps ties on the lowest worker index.
            let better = match best {
                None => true,
                Some(b) => key(&list[cursors[s]]) < key(&side(&shards[b])[cursors[b]]),
            };
            if better {
                best = Some(s);
            }
        }
        let s = best.expect("cursor accounting");
        merged.push(side(&shards[s])[cursors[s]].clone());
        cursors[s] += 1;
    }
    merged
}

/// Build the per-shard → global failure-index remap for one side of the
/// matching: a k-way merge on the `(link, start)` collect key (each
/// shard's list arrives ordered; a tie spans shards only for a link a
/// reshard moved, whose earlier failures sit on the lower index).
/// Returns the globally ordered failures plus, per shard, the global
/// position of each shard-local index.
fn order_failures(
    shards: &[StreamOutput],
    side: fn(&StreamOutput) -> &[Failure],
) -> (Vec<Failure>, Vec<Vec<usize>>) {
    for out in shards {
        debug_assert!(
            side(out)
                .windows(2)
                .all(|w| (w[0].link, w[0].start) <= (w[1].link, w[1].start)),
            "shard failure lists must arrive internally ordered"
        );
    }
    let total: usize = shards.iter().map(|o| side(o).len()).sum();
    let mut cursors = vec![0usize; shards.len()];
    let mut remap: Vec<Vec<usize>> = shards.iter().map(|o| vec![0; side(o).len()]).collect();
    let mut ordered = Vec::with_capacity(total);
    while ordered.len() < total {
        let mut best: Option<usize> = None;
        for (s, out) in shards.iter().enumerate() {
            let list = side(out);
            if cursors[s] >= list.len() {
                continue;
            }
            let f = &list[cursors[s]];
            let better = match best {
                None => true,
                Some(b) => {
                    let g = &side(&shards[b])[cursors[b]];
                    (f.link, f.start) < (g.link, g.start)
                }
            };
            if better {
                best = Some(s);
            }
        }
        let s = best.expect("cursor accounting");
        let i = cursors[s];
        remap[s][i] = ordered.len();
        ordered.push(side(&shards[s])[i]);
        cursors[s] += 1;
    }
    (ordered, remap)
}

/// Deterministically merge shard [`StreamOutput`]s — **in worker-index
/// order, as the transport collects them** — into the single global
/// output. For shard outputs produced by [`partition_events`] substreams
/// of one in-order stream, the result serializes byte-identical to the
/// single-process [`crate::analysis::Analysis::run`] answer — the
/// differential contract `tests/cluster_equivalence.rs` pins. Each
/// shard's vectors already carry the collect-stage order (a debug
/// assertion, not a re-sort); the merge is k-way with ties to the lowest
/// worker index. See the module docs for why each field merges the way
/// it does.
pub fn merge_outputs(shards: Vec<StreamOutput>) -> StreamOutput {
    let mut resolve_stats = SyslogResolveStats::default();
    let mut is_stats = IsisMergeStats::default();
    let mut ip_stats = IsisMergeStats::default();
    let mut isis_recon = Reconstruction::default();
    let mut syslog_recon = Reconstruction::default();
    let mut isis_sanitize = SanitizeReport::default();
    let mut syslog_sanitize = SanitizeReport::default();
    let mut syslog_ingested = 0u64;
    for out in &shards {
        add_resolve(&mut resolve_stats, &out.resolve_stats);
        add_merge_stats(&mut is_stats, &out.is_stats);
        add_merge_stats(&mut ip_stats, &out.ip_stats);
        isis_sanitize.add(&out.isis_sanitize);
        syslog_sanitize.add(&out.syslog_sanitize);
        isis_recon.unterminated += out.isis_recon.unterminated;
        isis_recon.boundary_ups += out.isis_recon.boundary_ups;
        syslog_recon.unterminated += out.syslog_recon.unterminated;
        syslog_recon.boundary_ups += out.syslog_recon.boundary_ups;
        syslog_ingested += out.counters.syslog_ingested;
    }
    // Event-level vectors: k-way merges on the collect-stage keys. A
    // `(time, link)` tie group lives on the link's shard, or — for a
    // link a reshard moved — starts on its old shard and ends on the new
    // one, which has the highest index; either way lowest-worker-index
    // tie-breaking reproduces the single-process order.
    let messages = merge_sorted(&shards, |o| &o.messages, |m| (m.at, m.link));
    let is_transitions = merge_sorted(&shards, |o| &o.is_transitions, |t| (t.at, t.link));
    let ip_transitions = merge_sorted(&shards, |o| &o.ip_transitions, |t| (t.at, t.link));
    let syslog_transitions = merge_sorted(&shards, |o| &o.syslog_transitions, |t| (t.at, t.link));
    isis_recon.failures = merge_sorted(&shards, |o| &o.isis_recon.failures, |f| (f.link, f.start));
    isis_recon.ambiguous =
        merge_sorted(&shards, |o| &o.isis_recon.ambiguous, |a| (a.link, a.first));
    syslog_recon.failures =
        merge_sorted(&shards, |o| &o.syslog_recon.failures, |f| (f.link, f.start));
    syslog_recon.ambiguous = merge_sorted(
        &shards,
        |o| &o.syslog_recon.ambiguous,
        |a| (a.link, a.first),
    );

    // Failure lists + match pairs: order globally, then re-base every
    // shard-local index pair to its global position.
    let (syslog_failures, left_remap) = order_failures(&shards, |o| &o.syslog_failures);
    let (isis_failures, right_remap) = order_failures(&shards, |o| &o.isis_failures);
    let mut matched: Vec<(usize, usize)> = Vec::new();
    let mut partial: Vec<(usize, usize)> = Vec::new();
    for (s, out) in shards.iter().enumerate() {
        for &(i, j) in &out.matching.matched {
            matched.push((left_remap[s][i], right_remap[s][j]));
        }
        for &(i, j) in &out.matching.partial {
            partial.push((left_remap[s][i], right_remap[s][j]));
        }
    }
    let matching =
        FailureMatching::from_pairs(matched, partial, syslog_failures.len(), isis_failures.len());

    let mut output = StreamOutput {
        messages,
        resolve_stats,
        is_transitions,
        is_stats,
        ip_transitions,
        ip_stats,
        syslog_transitions,
        isis_recon,
        syslog_recon,
        isis_failures,
        syslog_failures,
        isis_sanitize,
        syslog_sanitize,
        matching,
        counters: PipelineCounters::default(),
    };
    // Headline counters: recounted from the merged structures, as
    // `Kernel::collect` counts them.
    output.counters = output.tally(syslog_ingested);
    output
}
/// How a sharded cluster run is shaped: how many workers, where they
/// run, whether they are durable, and whether the cluster grows
/// mid-stream. [`run_cluster`] is the only runner; everything that
/// distinguishes one kind of run from another is a value here.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker shards (clamped to at least 1).
    pub shards: u32,
    /// The per-shard analysis configuration — identical on every shard,
    /// exactly as the single process would run it.
    pub analysis: AnalysisConfig,
    /// Micro-batch size of each [`ShardMsg::Events`] frame the
    /// dispatcher sends.
    pub chunk: usize,
    /// Where the workers run.
    pub workers: Workers,
    /// When present, every worker journals and checkpoints under its own
    /// `shard-{i}/` directory, and a worker lost mid-run is respawned
    /// and recovered instead of failing the run.
    pub durability: Option<ClusterDurability>,
    /// When present, the cluster grows from `shards` to `shards + 1`
    /// workers at this event-stream position (clamped to the stream
    /// length): events before it are dispatched at N-shard routing,
    /// exactly the lanes jump-hash reassigns migrate to the new worker,
    /// and the rest is dispatched at (N+1)-shard routing.
    pub reshard_at: Option<usize>,
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
            reshard_at: None,
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
    /// Deterministic in-worker aborts: the named worker consumes exactly
    /// `after_events` of its substream, then dies without a word — the
    /// engine is dropped mid-run, no flush, no farewell message.
    pub kills: Vec<ShardKill>,
    /// Dispatcher-side kills: once exactly `after_events` of the named
    /// worker's substream have been sent, the dispatcher kills it
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

/// The migration ledger of one live reshard.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReshardReport {
    /// Shard count before the grow.
    pub from_shards: u32,
    /// Shard count after the grow (`from_shards + 1`).
    pub to_shards: u32,
    /// The event-stream position the reshard happened at.
    pub split_at: usize,
    /// Exactly the links jump-hash reassigned — every one maps to the
    /// new shard, pinned by `tests/cluster_reshard.rs` against an
    /// independent recomputation.
    pub moved_links: Vec<LinkIx>,
    /// Live lanes actually shipped (moved links whose lane had opened;
    /// the rest are state-free and start fresh on the new worker).
    pub lanes_moved: u64,
    /// Wall-clock cost of the pause: grow + export + ship + import.
    pub migration_micros: u64,
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
    /// What moved and what it cost, when the run resharded.
    pub reshard: Option<ReshardReport>,
}

/// Wall-clock attribution for [`cluster_report`].
struct ClusterWalls {
    dispatch: std::time::Duration,
    shard_ingest: std::time::Duration,
    merge: std::time::Duration,
    total: std::time::Duration,
}

/// Fold the merged output + shard reports into the cluster-level
/// [`PipelineReport`] (the merge has already run; this builds the
/// accounting around it).
#[allow(clippy::too_many_arguments)]
fn cluster_report(
    output: &StreamOutput,
    shard_reports: &[PipelineReport],
    events_per_shard: Vec<u64>,
    links_per_shard: Vec<u64>,
    walls: ClusterWalls,
    recovery_events: u64,
    durability: Option<DurabilityCounters>,
    transport: TransportCounters,
) -> PipelineReport {
    let shards = events_per_shard.len() as u32;
    let total_events: u64 = events_per_shard.iter().sum();
    let max_shard_events = events_per_shard.iter().copied().max().unwrap_or(0);
    let min_shard_events = events_per_shard.iter().copied().min().unwrap_or(0);
    let mean = total_events as f64 / shards.max(1) as f64;
    let skew = if mean > 0.0 {
        max_shard_events as f64 / mean
    } else {
        0.0
    };

    let mut streaming = StreamingCounters::default();
    let mut robustness = observe::RobustnessCounters::default();
    for (i, r) in shard_reports.iter().enumerate() {
        if let Some(s) = &r.streaming {
            streaming.events_ingested += s.events_ingested;
            streaming.syslog_events += s.syslog_events;
            streaming.isis_events += s.isis_events;
            streaming.batches += s.batches;
            streaming.late_events += s.late_events;
            streaming.segments_closed += s.segments_closed;
            streaming.open_state_high_water =
                streaming.open_state_high_water.max(s.open_state_high_water);
            streaming.arena_events_high_water = streaming
                .arena_events_high_water
                .max(s.arena_events_high_water);
            streaming.watermark_lag_max_millis = streaming
                .watermark_lag_max_millis
                .max(s.watermark_lag_max_millis);
            streaming.finalized_at_flush += s.finalized_at_flush;
            streaming.flap_episodes += s.flap_episodes;
        }
        if i == 0 {
            // The parse-side baseline (raw/malformed/irrelevant lines)
            // describes the scenario, not the shard — every shard
            // reports the same numbers, so take them once.
            robustness = r.robustness;
            robustness.quarantined_syslog = 0;
            robustness.quarantined_isis = 0;
        }
        robustness.quarantined_syslog += r.robustness.quarantined_syslog;
        robustness.quarantined_isis += r.robustness.quarantined_isis;
    }
    let total_secs = walls.total.as_secs_f64();
    streaming.events_per_sec = if total_secs > 0.0 {
        streaming.events_ingested as f64 / total_secs
    } else {
        0.0
    };

    let threads = shard_reports.first().map(|r| r.threads).unwrap_or(1);
    let mut report = PipelineReport::new(threads);
    report.record_stage("dispatch", total_events, total_events, walls.dispatch);
    report.record_stage(
        "shard_ingest",
        total_events,
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
    report.robustness = robustness;
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
            "cluster done: {shards} shards, {total_events} events, skew {skew:.2}, {recovery_events} recoveries"
        )
    });
    report
}

/// Every link's shard at one shard count, hashed once up front — the
/// per-event loop then routes with one table probe plus an array index
/// instead of re-running FNV + jump-hash 170k+ times for a 300-link
/// keyspace. Agrees with [`route_event`] for every event (a debug
/// assertion on the hot path, a unit test below).
struct Assignment {
    shards: u32,
    by_link: Vec<u32>,
    unrouted: u32,
}

impl Assignment {
    fn new(table: &LinkTable, shards: u32) -> Self {
        Assignment {
            shards,
            by_link: table
                .iter()
                .map(|ix| shard_of_link(table, ix, shards))
                .collect(),
            unrouted: shard_of_key(UNROUTED_KEY, shards),
        }
    }

    fn worker_of(&self, table: &LinkTable, event: &StreamEvent) -> usize {
        let shard = match link_of_event(table, event) {
            Some(link) => self.by_link[link.0 as usize],
            None => self.unrouted,
        };
        debug_assert_eq!(shard, route_event(table, event, self.shards));
        shard as usize
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

/// Receive a worker's next message and require it to be [`ShardMsg::Ready`].
fn expect_ready(
    transport: &mut dyn ShardTransport,
    worker: usize,
) -> Result<ReadyMsg, TransportError> {
    match transport.recv(worker)? {
        ShardMsg::Ready(ready) => Ok(ready),
        ShardMsg::Fatal { detail } => Err(TransportError::WorkerReported { worker, detail }),
        other => Err(TransportError::Protocol {
            worker,
            detail: format!("expected ready, got {}", other.kind()),
        }),
    }
}

/// Receive a worker's next message and require it to be [`ShardMsg::Flushed`].
fn expect_flushed(
    transport: &mut dyn ShardTransport,
    worker: usize,
) -> Result<(StreamOutput, PipelineReport), TransportError> {
    match transport.recv(worker)? {
        ShardMsg::Flushed(out) => Ok((out.output, out.report)),
        ShardMsg::Fatal { detail } => Err(TransportError::WorkerReported { worker, detail }),
        other => Err(TransportError::Protocol {
            worker,
            detail: format!("expected flushed, got {}", other.kind()),
        }),
    }
}

/// The reshard pause: [`ShardTransport::grow`] worker N, detach exactly
/// the lanes jump-hash reassigns from their old workers and attach them
/// to the new one. The caller has already sent every pre-split event.
fn grow_and_migrate(
    transport: &mut dyn ShardTransport,
    table: &LinkTable,
    grow_spec: WorkerSpec,
    split_at: usize,
) -> Result<ReshardReport, TransportError> {
    let t_migrate = Instant::now();
    let old_workers = transport.workers();
    let new_worker = transport.grow(grow_spec)?;
    expect_ready(transport, new_worker)?;
    let before_shards = old_workers as u32;
    let after_shards = before_shards + 1;
    let mut moved_links: Vec<LinkIx> = Vec::new();
    let mut moving: Vec<Vec<LinkIx>> = (0..old_workers).map(|_| Vec::new()).collect();
    for ix in table.iter() {
        let before = shard_of_link(table, ix, before_shards);
        let after = shard_of_link(table, ix, after_shards);
        if before != after {
            debug_assert_eq!(
                after as usize, new_worker,
                "jump hash moves keys only to the new shard"
            );
            moving[before as usize].push(ix);
            moved_links.push(ix);
        }
    }
    // ExportLanes rides the same FIFO command stream as the Events
    // before it, and its LaneMigrate reply is the synchronization point:
    // once it arrives, that worker has consumed every pre-split event.
    let mut migration = LaneMigration::default();
    for (w, links) in moving.into_iter().enumerate() {
        if links.is_empty() {
            continue;
        }
        transport.send(w, ShardMsg::ExportLanes(links))?;
        match transport.recv(w)? {
            ShardMsg::LaneMigrate(part) => migration.merge(part),
            ShardMsg::Fatal { detail } => {
                return Err(TransportError::WorkerReported { worker: w, detail })
            }
            other => {
                return Err(TransportError::Protocol {
                    worker: w,
                    detail: format!("expected lane_migrate, got {}", other.kind()),
                })
            }
        }
    }
    // Links whose lane never opened (zero events so far) are absent from
    // the migration — a fresh lane on the new worker is state-free and
    // byte-equivalent.
    let lanes_moved = migration.lane_count() as u64;
    transport.send(new_worker, ShardMsg::LaneMigrate(migration))?;
    let ack = expect_ready(transport, new_worker)?;
    if ack.lanes_imported != lanes_moved {
        return Err(TransportError::Protocol {
            worker: new_worker,
            detail: format!(
                "migrated {lanes_moved} lanes but the new worker imported {}",
                ack.lanes_imported
            ),
        });
    }
    let migration_micros = t_migrate.elapsed().as_micros() as u64;
    transport.counters_mut().lanes_migrated += lanes_moved;
    transport.counters_mut().migration_micros += migration_micros;
    observe::narrate(|| {
        format!(
            "cluster: resharded {before_shards} -> {after_shards}, {} links / {lanes_moved} live lanes moved in {migration_micros} us",
            moved_links.len()
        )
    });
    Ok(ReshardReport {
        from_shards: before_shards,
        to_shards: after_shards,
        split_at,
        moved_links,
        lanes_moved,
        migration_micros,
    })
}

/// What one pass of the dispatcher hands back.
struct Dispatched {
    /// Every worker's flushed output and report, in worker-index order.
    flushed: Vec<(StreamOutput, PipelineReport)>,
    /// Events routed to each worker over the whole run.
    events_per_shard: Vec<u64>,
    /// Links each worker holds under the routing the run ended with.
    links_per_shard: Vec<u64>,
    recoveries: Vec<ShardRecovery>,
    reshard: Option<ReshardReport>,
}

/// The dispatcher — the only one. Ready barrier; then a single fused
/// pass that routes each event and sends every batch the moment it
/// fills (the batch the worker ingests is the one the dispatcher just
/// wrote, still cache-warm, and on multi-core hosts routing overlaps
/// worker ingest), pausing once at `cfg.reshard_at` to grow the cluster
/// and firing each hard kill when exactly its `after_events` of the
/// victim's substream have been sent; Flush, collect in worker-index
/// order; then the supervisor pass over whatever was lost.
fn dispatch(
    transport: &mut dyn ShardTransport,
    table: &LinkTable,
    events: &[StreamEvent],
    cfg: &ClusterConfig,
) -> Result<Dispatched, TransportError> {
    let chunk = cfg.chunk.max(1);
    let cap = chunk.min(events.len());
    let hard_kills = cfg.durability.as_ref().map_or(&[][..], |d| &d.hard_kills);

    let mut workers = transport.workers();
    for worker in 0..workers {
        expect_ready(transport, worker)?;
    }
    let mut assign = Assignment::new(table, workers as u32);
    let mut current: Vec<Vec<StreamEvent>> =
        (0..workers).map(|_| Vec::with_capacity(cap)).collect();
    let mut counts = vec![0u64; workers];
    let mut losses = Losses {
        recoverable: cfg.durability.is_some(),
        dead: vec![false; workers],
    };
    let mut kill_at: Vec<Option<u64>> = (0..workers)
        .map(|w| kill_point(hard_kills, w as u32))
        .collect();
    for (w, at) in kill_at.iter().enumerate() {
        if *at == Some(0) {
            hard_kill(transport, &mut losses, w, 0)?;
        }
    }

    let split = cfg
        .reshard_at
        .map_or(events.len(), |at| at.min(events.len()));
    let (pre, post) = events.split_at(split);
    let mut reshard = None;
    // One loop body for both halves; without a reshard `post` is empty.
    for (segment, grow_first) in [(pre, false), (post, cfg.reshard_at.is_some())] {
        if grow_first {
            send_partials(transport, &mut current, &mut losses)?;
            let shards = workers as u32;
            let grow_spec = worker_spec(cfg, shards, shards + 1, false);
            reshard = Some(grow_and_migrate(transport, table, grow_spec, split)?);
            workers += 1;
            assign = Assignment::new(table, workers as u32);
            current.push(Vec::with_capacity(cap));
            counts.push(0);
            losses.dead.push(false);
            kill_at.push(None);
        }
        for event in segment {
            let w = assign.worker_of(table, event);
            counts[w] += 1;
            if losses.dead[w] {
                // Withheld; the supervisor pass re-feeds it.
                continue;
            }
            let batch = &mut current[w];
            batch.push(event.clone());
            // Cutting the batch here lands the kill exactly on its
            // event boundary.
            let kill_due = kill_at[w] == Some(counts[w]);
            if batch.len() >= chunk || kill_due {
                let full = std::mem::replace(batch, Vec::with_capacity(cap));
                losses.absorb(w, transport.send(w, ShardMsg::Events(full)))?;
            }
            if kill_due && !losses.dead[w] {
                hard_kill(transport, &mut losses, w, counts[w])?;
            }
        }
    }
    send_partials(transport, &mut current, &mut losses)?;

    for w in 0..workers {
        if !losses.dead[w] {
            losses.absorb(w, transport.send(w, ShardMsg::Flush))?;
        }
    }
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
    // worker propagates. (Durable workers refuse lane migration, so a
    // run that reaches this point never resharded and `assign` is the
    // routing the whole stream was dispatched with.)
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
        // The worker's substream is the stream filtered through the same
        // routing; the ladder already brought back its first
        // `resumed_at_seq` events.
        let resumed = usize::try_from(report.resumed_at_seq).unwrap_or(usize::MAX);
        let tail = events
            .iter()
            .filter(|event| assign.worker_of(table, event) == w)
            .skip(resumed);
        let mut batch = Vec::with_capacity(cap);
        for event in tail {
            batch.push(event.clone());
            if batch.len() >= chunk {
                let full = std::mem::replace(&mut batch, Vec::with_capacity(cap));
                transport.send(w, ShardMsg::Events(full))?;
            }
        }
        if !batch.is_empty() {
            transport.send(w, ShardMsg::Events(batch))?;
        }
        transport.send(w, ShardMsg::Flush)?;
        *answer = Some(expect_flushed(transport, w)?);
        recoveries.push(ShardRecovery {
            shard: w as u32,
            report,
        });
    }

    Ok(Dispatched {
        flushed: flushed
            .into_iter()
            .map(|f| f.expect("every lost worker was recovered above"))
            .collect(),
        events_per_shard: counts,
        links_per_shard: assign.links_per_shard(),
        recoveries,
        reshard,
    })
}

/// Send every worker its partial batch, if it holds one.
fn send_partials(
    transport: &mut dyn ShardTransport,
    current: &mut [Vec<StreamEvent>],
    losses: &mut Losses,
) -> Result<(), TransportError> {
    for (w, batch) in current.iter_mut().enumerate() {
        if !batch.is_empty() {
            let partial = std::mem::take(batch);
            losses.absorb(w, transport.send(w, ShardMsg::Events(partial)))?;
        }
    }
    Ok(())
}

/// Kill worker `w` through the transport, `at` events into its substream.
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

/// Run a sharded cluster — the only runner. Partition `events` by link
/// across `cfg.shards` workers, run each shard as an independent
/// [`crate::streaming::StreamAnalysis`] behind the transport
/// `cfg.workers` names, and merge the shard outputs into the
/// single-process answer.
///
/// Durability and a mid-stream grow are read from `cfg` too (see
/// [`ClusterConfig`]); whatever the combination, the merged output is
/// byte-identical to [`crate::analysis::Analysis::run`] on the same
/// stream. Configuration and input ordering are validated once, before
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
/// // Grow 3 -> 4 workers half way through the stream.
/// let cfg = ClusterConfig {
///     reshard_at: Some(events.len() / 2),
///     ..ClusterConfig::new(3)
/// };
/// let clustered = run_cluster(&data, &events, &cfg).unwrap();
/// let batch = Analysis::run(&data, AnalysisConfig::default());
/// assert_eq!(
///     serde_json::to_string(&clustered.output).unwrap(),
///     serde_json::to_string(&batch.output).unwrap(),
/// );
/// assert_eq!(clustered.reshard.unwrap().to_shards, 4);
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
    // layer, mined once here and shared by every in-process worker); the
    // per-link shard assignment and the per-event route+send work are
    // fused into the feed inside `dispatch`, so they land in the
    // shard_ingest wall they actually overlap with.
    let t_dispatch = Instant::now();
    let naming = Arc::new(Naming::mine(data));
    let dispatch_wall = t_dispatch.elapsed();

    let t_shards = Instant::now();
    let specs = (0..shards)
        .map(|shard| worker_spec(cfg, shard, shards, false))
        .collect();
    let (driven, transport) = with_workers(data, &naming, &cfg.workers, specs, |transport| {
        dispatch(transport, &naming.table, events, cfg)
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
    let output = merge_outputs(outputs);
    let merge_wall = t_merge.elapsed();

    let report = cluster_report(
        &output,
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
        reshard: run.reshard,
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
    fn unrouted_events_get_a_deterministic_shard() {
        let data = run(&ScenarioParams::tiny(5));
        let table = linktable::from_scenario(&data);
        let events = crate::streaming::scenario_event_stream(&data);
        for n in [1u32, 2, 3, 5, 8] {
            for e in events.iter().take(200) {
                assert_eq!(route_event(&table, e, n), route_event(&table, e, n));
                assert!(route_event(&table, e, n) < n);
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

    #[test]
    fn precomputed_assignment_agrees_with_route_event() {
        let data = run(&ScenarioParams::tiny(11));
        let table = linktable::from_scenario(&data);
        let events = crate::streaming::scenario_event_stream(&data);
        for n in [1u32, 3, 7] {
            let assign = Assignment::new(&table, n);
            for (i, event) in events.iter().enumerate() {
                assert_eq!(
                    assign.worker_of(&table, event),
                    route_event(&table, event, n) as usize,
                    "event {i} at {n} shards"
                );
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
                    dispatch(transport, &naming.table, &events, cfg)
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

        // Two fresh workers, then the one a reshard grows.
        let (resharded, _) = run_with(&ClusterConfig {
            reshard_at: Some(events.len() / 2),
            ..ClusterConfig::new(2)
        });
        assert_eq!(resharded.reshard.map(|r| r.to_shards), Some(3));
        assert_eq!(
            seen(),
            all_on_it(&[("fresh", 0), ("fresh", 1), ("fresh", 2)])
        );

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
