//! Sharded multi-collector runtime — many kernels, one answer.
//!
//! The paper analyzes one 299-link backbone in a single process; a
//! production deployment watches orders of magnitude more links than one
//! collector can ingest. Because every semantic stage of the pipeline is
//! strictly per-link (the [`crate::kernel`] never shares state between
//! links), the stream can be *partitioned by link* across N independent
//! worker shards, each running the ordinary streaming driver over its
//! substream, and the per-shard answers can be merged back into the
//! exact single-process answer. This module is that runtime, built as a
//! **dispatcher + N workers speaking a serializable protocol** over a
//! [`ShardTransport`] (see [`crate::transport`]):
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
//!   (or [`crate::recovery::DurableStream`] in the durable runtime) and interacts with
//!   the dispatcher *only* through [`crate::transport::ShardMsg`]
//!   frames: `Ready`, `Events`, `Flush`/`Flushed`, `Fatal`. A shard's
//!   substream preserves global time order, and a link's entire history
//!   lands on exactly one shard, so every per-link state machine sees
//!   byte-for-byte the history it would see in a single process. The
//!   default [`crate::transport::InProcessTransport`] runs workers as
//!   scoped threads behind bounded channels (messages move by value);
//!   [`run_cluster_subprocess`] runs the same protocol against
//!   `faultline-shard-worker` child processes over hashed stdio frames.
//! - **Aggregator.** [`merge_outputs`] rebuilds the global
//!   [`StreamOutput`] from the shard outputs *in worker-index order*:
//!   counter structs are field-wise sums (each offered event is counted
//!   by exactly one shard), event-level vectors are k-way merged on the
//!   same keys `Kernel::collect` uses with ties taken from the lowest
//!   worker index (ties only ever come from one shard, so this
//!   reproduces the single-process order exactly), and the match index
//!   pairs are re-based from shard-local to global failure positions.
//!   `tests/cluster_equivalence.rs` asserts the merged JSON is
//!   byte-identical to [`crate::analysis::Analysis::run`] for every
//!   tested shard count, seed, and chaos preset;
//!   `tests/cluster_process.rs` asserts the same across the subprocess
//!   transport.
//! - **Supervisor.** In the durable runtime ([`run_durable_cluster`])
//!   every shard journals and checkpoints under its own `shard-{i}/`
//!   directory. When a worker dies mid-run — a deterministic
//!   [`faultline_sim::chaos::ShardKill`] abort, or a real `SIGKILL` of a
//!   subprocess worker — the dispatcher observes the loss through the
//!   transport (a dead channel in-process, EOF on the pipe for a
//!   subprocess), respawns *that worker only*, recovers it through the
//!   ordinary [`crate::recovery::DurableStream::recover`] ladder, re-feeds the
//!   unconsumed tail of its substream, and the merged answer is still
//!   byte-identical; healthy shards never restart
//!   (`tests/cluster_recovery.rs`, `tests/cluster_process.rs`).
//! - **Live resharding.** [`run_reshard_cluster`] grows a running
//!   cluster N → N+1 at an event boundary: dispatch pauses, the lanes
//!   of exactly the links jump-hash reassigns are detached from their
//!   old workers ([`crate::transport::ShardMsg::ExportLanes`]), shipped
//!   as serialized lane snapshots
//!   ([`crate::transport::ShardMsg::LaneMigrate`]), attached by the new
//!   worker, and dispatch resumes at N+1 routing. Because every
//!   per-link derived state lives in its lane and moves whole, the
//!   merged output is byte-identical to a from-scratch N+1 run
//!   (`tests/cluster_reshard.rs`).

use crate::analysis::{self, AnalysisConfig};
use crate::error::{RecoveryError, TransportError};
use crate::intern::Sym;
use crate::linktable::{self, LinkIx, LinkTable};
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
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
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

/// Partition a stream directly into per-shard queues of `chunk`-sized
/// [`ShardMsg::Events`] batches — one clone per event, moved (never
/// re-serialized or re-copied) through the in-process transport.
fn partition_batches(
    table: &LinkTable,
    events: &[StreamEvent],
    shards: u32,
    chunk: usize,
) -> Vec<VecDeque<Vec<StreamEvent>>> {
    let n = shards.max(1);
    let chunk = chunk.max(1);
    let cap = chunk.min(events.len());
    // The per-event loop touches only a flat `Vec` per shard (one bounds
    // check + push); full batches rotate into the queue on the chunk
    // boundary, keeping the partitioner as cheap as the pre-transport
    // flat `partition_events` despite producing ready-to-send batches.
    let mut queues: Vec<VecDeque<Vec<StreamEvent>>> = (0..n).map(|_| VecDeque::new()).collect();
    let mut current: Vec<Vec<StreamEvent>> = (0..n).map(|_| Vec::with_capacity(cap)).collect();
    for event in events {
        let shard = route_event(table, event, n) as usize;
        let batch = &mut current[shard];
        batch.push(event.clone());
        if batch.len() >= chunk {
            let full = std::mem::replace(batch, Vec::with_capacity(cap));
            queues[shard].push_back(full);
        }
    }
    for (shard, batch) in current.into_iter().enumerate() {
        if !batch.is_empty() {
            queues[shard].push_back(batch);
        }
    }
    queues
}

fn batch_counts(batches: &[VecDeque<Vec<StreamEvent>>]) -> Vec<u64> {
    batches
        .iter()
        .map(|q| q.iter().map(|b| b.len() as u64).sum())
        .collect()
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

fn add_sanitize(into: &mut SanitizeReport, from: &SanitizeReport) {
    into.removed_offline += from.removed_offline;
    into.removed_offline_ms += from.removed_offline_ms;
    into.long_checked += from.long_checked;
    into.long_removed += from.long_removed;
    into.long_removed_ms += from.long_removed_ms;
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
/// shard's list arrives ordered; ties cannot span shards because a link
/// never does). Returns the globally ordered failures plus, per shard,
/// the global position of each shard-local index.
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
        add_sanitize(&mut isis_sanitize, &out.isis_sanitize);
        add_sanitize(&mut syslog_sanitize, &out.syslog_sanitize);
        isis_recon.unterminated += out.isis_recon.unterminated;
        isis_recon.boundary_ups += out.isis_recon.boundary_ups;
        syslog_recon.unterminated += out.syslog_recon.unterminated;
        syslog_recon.boundary_ups += out.syslog_recon.boundary_ups;
        syslog_ingested += out.counters.syslog_ingested;
    }
    // Event-level vectors: k-way merges on the collect-stage keys. Every
    // `(time, link)` tie group lives on a single shard (the link's
    // shard), so lowest-worker-index tie-breaking reproduces the
    // single-process order.
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
    matched.sort_by_key(|&(i, _)| i);
    partial.sort_by_key(|&(i, _)| i);
    let mut left_used = vec![false; syslog_failures.len()];
    let mut right_used = vec![false; isis_failures.len()];
    for &(i, j) in matched.iter().chain(partial.iter()) {
        left_used[i] = true;
        right_used[j] = true;
    }
    let matching = FailureMatching {
        matched,
        partial,
        left_only: (0..left_used.len()).filter(|&i| !left_used[i]).collect(),
        right_only: (0..right_used.len()).filter(|&j| !right_used[j]).collect(),
    };

    // Headline counters: recomputed from the merged structures with the
    // exact formulas `Kernel::collect` uses.
    let reconstructed = (isis_recon.failures.len() + syslog_recon.failures.len()) as u64;
    let survived = (isis_failures.len() + syslog_failures.len()) as u64;
    let counters = PipelineCounters {
        syslog_ingested,
        isis_ingested: is_stats.raw + ip_stats.raw,
        transitions_derived: (is_transitions.len()
            + ip_transitions.len()
            + syslog_transitions.len()) as u64,
        failures_reconstructed: reconstructed,
        failures_after_sanitize: survived,
        sanitize_dropped: reconstructed - survived,
        failures_matched: matching.matched.len() as u64,
        ambiguous_periods: (isis_recon.ambiguous.len() + syslog_recon.ambiguous.len()) as u64,
    };

    StreamOutput {
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
        counters,
    }
}

/// How a sharded cluster run is shaped.
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
}

impl ClusterConfig {
    /// A cluster of `shards` workers with the default analysis
    /// configuration and micro-batch size.
    pub fn new(shards: u32) -> Self {
        ClusterConfig {
            shards,
            analysis: AnalysisConfig::default(),
            chunk: 2048,
        }
    }
}

/// What a cluster run produces: the merged (single-process-identical)
/// output, the cluster-level report, and each shard's own report.
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
}

/// Wall-clock attribution for [`assemble_result`].
struct ClusterWalls {
    dispatch: std::time::Duration,
    shard_ingest: std::time::Duration,
    merge: std::time::Duration,
    total: std::time::Duration,
}

/// Fold shard outputs + reports into a [`ClusterResult`] (the merge has
/// already run; this builds the accounting around it).
#[allow(clippy::too_many_arguments)]
fn assemble_result(
    output: StreamOutput,
    shard_reports: Vec<PipelineReport>,
    events_per_shard: Vec<u64>,
    links_per_shard: Vec<u64>,
    walls: ClusterWalls,
    recovery_events: u64,
    durability: Option<DurabilityCounters>,
    transport: Option<TransportCounters>,
) -> ClusterResult {
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
    report.transport = transport;
    report.total_micros = walls.total.as_micros() as u64;
    observe::narrate(|| {
        format!(
            "cluster done: {shards} shards, {total_events} events, skew {skew:.2}, {recovery_events} recoveries"
        )
    });
    ClusterResult {
        output,
        report,
        shard_reports,
    }
}

/// Links assigned to each shard by the partitioner.
fn links_per_shard(table: &LinkTable, shards: u32) -> Vec<u64> {
    let mut counts = vec![0u64; shards.max(1) as usize];
    for ix in table.iter() {
        counts[shard_of_link(table, ix, shards) as usize] += 1;
    }
    counts
}

// ---------------------------------------------------------------------------
// Transport-generic drivers
// ---------------------------------------------------------------------------

/// Receive a worker's next message and require it to be [`ShardMsg::Ready`].
fn expect_ready<T: ShardTransport + ?Sized>(
    transport: &mut T,
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
fn expect_flushed<T: ShardTransport + ?Sized>(
    transport: &mut T,
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

/// Round-robin the queued [`ShardMsg::Events`] batches out to the
/// workers; bounded transport channels provide the backpressure.
fn feed_round_robin<T: ShardTransport + ?Sized>(
    transport: &mut T,
    batches: &mut [VecDeque<Vec<StreamEvent>>],
) -> Result<(), TransportError> {
    loop {
        let mut any = false;
        for (worker, queue) in batches.iter_mut().enumerate() {
            if let Some(batch) = queue.pop_front() {
                any = true;
                transport.send(worker, ShardMsg::Events(batch))?;
            }
        }
        if !any {
            return Ok(());
        }
    }
}

/// The plain (non-durable) dispatcher: Ready barrier, then a single
/// fused pass that routes each event and sends every batch the moment
/// it fills — the batch the worker ingests is the one the dispatcher
/// just wrote, still cache-warm, and on multi-core hosts routing
/// overlaps worker ingest instead of running as a separate
/// materialize-everything pass. Flush and collect in worker-index
/// order. Any worker loss is an error — a non-durable worker has no
/// state to recover. Returns outputs, reports, and the per-shard event
/// counts the fused pass tallied.
#[allow(clippy::type_complexity)]
fn drive_stream_feed<T: ShardTransport + ?Sized>(
    transport: &mut T,
    table: &LinkTable,
    events: &[StreamEvent],
    chunk: usize,
) -> Result<(Vec<StreamOutput>, Vec<PipelineReport>, Vec<u64>), TransportError> {
    let workers = transport.workers();
    let n = workers as u32;
    let chunk = chunk.max(1);
    let cap = chunk.min(events.len());
    for worker in 0..workers {
        expect_ready(transport, worker)?;
    }
    // Hash every *link* to its shard once up front — the per-event loop
    // then routes with one table probe plus an array index instead of
    // re-running FNV + jump-hash 170k+ times for a 300-link keyspace.
    let assign: Vec<u32> = table.iter().map(|ix| shard_of_link(table, ix, n)).collect();
    let unrouted = shard_of_key(UNROUTED_KEY, n);
    let mut current: Vec<Vec<StreamEvent>> =
        (0..workers).map(|_| Vec::with_capacity(cap)).collect();
    let mut counts = vec![0u64; workers];
    for event in events {
        let shard = match link_of_event(table, event) {
            Some(link) => assign[link.0 as usize],
            None => unrouted,
        } as usize;
        debug_assert_eq!(shard as u32, route_event(table, event, n));
        counts[shard] += 1;
        let batch = &mut current[shard];
        batch.push(event.clone());
        if batch.len() >= chunk {
            let full = std::mem::replace(batch, Vec::with_capacity(cap));
            transport.send(shard, ShardMsg::Events(full))?;
        }
    }
    for (shard, batch) in current.into_iter().enumerate() {
        if !batch.is_empty() {
            transport.send(shard, ShardMsg::Events(batch))?;
        }
    }
    for worker in 0..workers {
        transport.send(worker, ShardMsg::Flush)?;
    }
    let mut outputs = Vec::with_capacity(workers);
    let mut reports = Vec::with_capacity(workers);
    for worker in 0..workers {
        let (output, report) = expect_flushed(transport, worker)?;
        outputs.push(output);
        reports.push(report);
    }
    Ok((outputs, reports, counts))
}

/// The durable dispatcher: like [`drive_feed_flush`], but worker losses
/// during feed/flush/collect are *expected* (deterministic aborts and
/// real SIGKILLs both surface as a dead transport endpoint). Dead
/// workers are respawned with their recovery spec, resumed from the
/// `resumed_at_seq` their recovery ladder reports, re-fed only the
/// unconsumed tail of their substream, and flushed; a second loss of
/// the same worker propagates. `hard_kills` makes the *dispatcher*
/// kill the named worker at the first send boundary at or past
/// `after_events` — a genuine SIGKILL for subprocess transports.
#[allow(clippy::type_complexity)]
fn drive_durable<T: ShardTransport + ?Sized>(
    transport: &mut T,
    routed: &[Vec<StreamEvent>],
    chunk: usize,
    hard_kills: &[ShardKill],
    respawn_spec: &dyn Fn(u32) -> WorkerSpec,
) -> Result<(Vec<StreamOutput>, Vec<PipelineReport>, Vec<ShardRecovery>), TransportError> {
    let workers = transport.workers();
    debug_assert_eq!(workers, routed.len());
    let chunk = chunk.max(1);
    for worker in 0..workers {
        expect_ready(transport, worker)?;
    }

    let mut dead = vec![false; workers];
    let mut pos = vec![0usize; workers];
    let mut hard: Vec<Option<u64>> = (0..workers)
        .map(|w| {
            hard_kills
                .iter()
                .find(|k| k.shard == w as u32)
                .map(|k| k.after_events)
        })
        .collect();
    loop {
        let mut any = false;
        for w in 0..workers {
            if dead[w] {
                continue;
            }
            if let Some(at) = hard[w] {
                if pos[w] as u64 >= at {
                    transport.kill(w)?;
                    observe::narrate(|| {
                        format!("cluster: shard {w} hard-killed after {at} events")
                    });
                    dead[w] = true;
                    hard[w] = None;
                    continue;
                }
            }
            if pos[w] >= routed[w].len() {
                continue;
            }
            any = true;
            let mut end = (pos[w] + chunk).min(routed[w].len());
            if let Some(at) = hard[w] {
                // Land the kill exactly on its event boundary.
                end = end.min(at as usize);
            }
            match transport.send(w, ShardMsg::Events(routed[w][pos[w]..end].to_vec())) {
                Ok(()) => pos[w] = end,
                Err(e) if e.is_worker_loss() => dead[w] = true,
                Err(e) => return Err(e),
            }
        }
        if !any {
            break;
        }
    }

    let mut outputs: Vec<Option<StreamOutput>> = (0..workers).map(|_| None).collect();
    let mut reports: Vec<Option<PipelineReport>> = (0..workers).map(|_| None).collect();
    for (w, is_dead) in dead.iter_mut().enumerate() {
        if *is_dead {
            continue;
        }
        match transport.send(w, ShardMsg::Flush) {
            Ok(()) => {}
            Err(e) if e.is_worker_loss() => *is_dead = true,
            Err(e) => return Err(e),
        }
    }
    for w in 0..workers {
        if dead[w] {
            continue;
        }
        match expect_flushed(transport, w) {
            Ok((output, report)) => {
                outputs[w] = Some(output);
                reports[w] = Some(report);
            }
            Err(e) if e.is_worker_loss() => dead[w] = true,
            Err(e) => return Err(e),
        }
    }

    // Supervisor pass: every dead worker is respawned against its own
    // shard-{i}/ directory and recovered through the ordinary ladder;
    // healthy workers are never touched.
    let mut recoveries = Vec::new();
    for w in 0..workers {
        if !dead[w] {
            continue;
        }
        transport.respawn(w, respawn_spec(w as u32))?;
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
        let mut p = (report.resumed_at_seq as usize).min(routed[w].len());
        while p < routed[w].len() {
            let end = (p + chunk).min(routed[w].len());
            transport.send(w, ShardMsg::Events(routed[w][p..end].to_vec()))?;
            p = end;
        }
        transport.send(w, ShardMsg::Flush)?;
        let (output, shard_report) = expect_flushed(transport, w)?;
        outputs[w] = Some(output);
        reports[w] = Some(shard_report);
        recoveries.push(ShardRecovery {
            shard: w as u32,
            report,
        });
    }

    let outputs = outputs
        .into_iter()
        .map(|o| o.expect("every dead shard recovered above"))
        .collect();
    let reports = reports
        .into_iter()
        .map(|r| r.expect("every dead shard recovered above"))
        .collect();
    Ok((outputs, reports, recoveries))
}

/// The live-reshard dispatcher: feed the pre-split stream at N-shard
/// routing, pause at the boundary, [`ShardTransport::grow`] worker N,
/// detach exactly the lanes jump-hash reassigns from their old workers
/// and attach them to the new one, then resume at (N+1)-shard routing.
/// Returns the flushed outputs plus the migration ledger.
#[allow(clippy::type_complexity)]
fn drive_reshard<T: ShardTransport + ?Sized>(
    transport: &mut T,
    table: &LinkTable,
    pre: Vec<VecDeque<Vec<StreamEvent>>>,
    post: Vec<VecDeque<Vec<StreamEvent>>>,
    grow_spec: WorkerSpec,
) -> Result<
    (
        Vec<StreamOutput>,
        Vec<PipelineReport>,
        Vec<LinkIx>,
        u64,
        u64,
    ),
    TransportError,
> {
    let old_workers = transport.workers();
    debug_assert_eq!(old_workers, pre.len());
    debug_assert_eq!(old_workers + 1, post.len());
    for worker in 0..old_workers {
        expect_ready(transport, worker)?;
    }
    let mut pre = pre;
    feed_round_robin(transport, &mut pre)?;

    // --- the pause: grow, migrate exactly the reassigned lanes ---
    let t_migrate = Instant::now();
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
    for (w, links) in moving.iter().enumerate() {
        if links.is_empty() {
            continue;
        }
        transport.send(w, ShardMsg::ExportLanes(links.clone()))?;
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

    // --- resume dispatch at N+1 routing ---
    let mut post = post;
    feed_round_robin(transport, &mut post)?;
    let workers = transport.workers();
    for worker in 0..workers {
        transport.send(worker, ShardMsg::Flush)?;
    }
    let mut outputs = Vec::with_capacity(workers);
    let mut reports = Vec::with_capacity(workers);
    for worker in 0..workers {
        let (output, report) = expect_flushed(transport, worker)?;
        outputs.push(output);
        reports.push(report);
    }
    Ok((outputs, reports, moved_links, lanes_moved, migration_micros))
}

// ---------------------------------------------------------------------------
// In-process entry points
// ---------------------------------------------------------------------------

fn fresh_specs(shards: u32, cfg: &ClusterConfig, scenario: &ScenarioSpec) -> Vec<WorkerSpec> {
    (0..shards)
        .map(|shard| WorkerSpec::new(shard, shards, cfg.analysis.clone(), scenario.clone()))
        .collect()
}

/// Run the in-memory sharded cluster: partition `events` by link across
/// `cfg.shards` workers, run each shard as an independent
/// [`crate::streaming::StreamAnalysis`] behind the in-process transport,
/// and merge the shard outputs into the single-process answer.
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
/// let clustered = run_cluster(&data, &events, &ClusterConfig::new(4)).unwrap();
/// let batch = Analysis::run(&data, AnalysisConfig::default());
/// assert_eq!(
///     serde_json::to_string(&clustered.output).unwrap(),
///     serde_json::to_string(&batch.output).unwrap(),
/// );
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

    // The dispatch stage covers the routing side inputs (link table +
    // per-shard link assignment); the per-event route+send work is
    // fused into the feed inside `drive_stream_feed`, so it lands in
    // the shard_ingest wall it actually overlaps with.
    let t_dispatch = Instant::now();
    let table = linktable::from_scenario(data);
    let per_shard_links = links_per_shard(&table, shards);
    let dispatch_wall = t_dispatch.elapsed();

    let t_shards = Instant::now();
    let specs = fresh_specs(shards, cfg, &ScenarioSpec::Attached);
    let driven = std::thread::scope(|scope| {
        let mut transport = InProcessTransport::start(scope, data, specs);
        let result = drive_stream_feed(&mut transport, &table, events, cfg.chunk);
        (result, transport.counters())
    });
    // A worker panic re-raises at scope exit above, exactly as the
    // former join-based runtime did; anything else the transport
    // reports is the caller's to handle, as in the subprocess twin.
    let (outputs, shard_reports, events_per_shard) = driven.0?;
    let shard_wall = t_shards.elapsed();

    let t_merge = Instant::now();
    let output = merge_outputs(outputs);
    let merge_wall = t_merge.elapsed();

    Ok(assemble_result(
        output,
        shard_reports,
        events_per_shard,
        per_shard_links,
        ClusterWalls {
            dispatch: dispatch_wall,
            shard_ingest: shard_wall,
            merge: merge_wall,
            total: started.elapsed(),
        },
        0,
        None,
        Some(driven.1),
    ))
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

/// What [`run_durable_cluster`] hands back: the merged result plus the
/// supervisor's recovery ledger.
pub struct DurableClusterRun {
    /// The merged cluster result (byte-identical to single-process).
    pub result: ClusterResult,
    /// Every recovery the supervisor performed, in shard order; empty
    /// when no shard was killed.
    pub recoveries: Vec<ShardRecovery>,
    /// Per-shard `DurabilityCounters::restores` — the
    /// healthy-shards-never-restart contract is `restores == 0` for every
    /// shard not named in a [`ShardKill`].
    pub shard_restores: Vec<u64>,
}

#[allow(clippy::too_many_arguments)]
fn durable_spec(
    root: &Path,
    shard: u32,
    shards: u32,
    cfg: &ClusterConfig,
    policy: &DurabilityPolicy,
    scenario: &ScenarioSpec,
    recover: bool,
    abort_after_events: Option<u64>,
) -> WorkerSpec {
    WorkerSpec {
        shard,
        shards,
        config: cfg.analysis.clone(),
        scenario: scenario.clone(),
        durable: Some(DurableSpec {
            dir: shard_dir(root, shard).display().to_string(),
            policy: *policy,
            recover,
        }),
        abort_after_events,
    }
}

fn transport_to_recovery_error(e: TransportError) -> RecoveryError {
    RecoveryError::WorkerFailed {
        shard: e.worker().unwrap_or(0) as u32,
        detail: e.to_string(),
    }
}

/// Aggregate per-shard durability counters into the cluster-wide figure
/// (sums, except high-water marks and rates which take the worst shard)
/// and collect the per-shard restore counts.
fn fold_durability(reports: &[PipelineReport]) -> (DurabilityCounters, Vec<u64>) {
    let mut durability = DurabilityCounters::default();
    let mut shard_restores = Vec::with_capacity(reports.len());
    for report in reports {
        let d = report
            .durability
            .expect("durable shards always report durability");
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
    (durability, shard_restores)
}

/// Run the durable sharded cluster: like [`run_cluster`], but every
/// worker owns a [`crate::recovery::DurableStream`] journaling and checkpointing under
/// its own `shard-{i}/` directory beneath `root` (which must not hold
/// prior durable state). `kills` is the chaos hook: each [`ShardKill`]
/// makes the named worker die after consuming exactly `after_events` of
/// its substream — the engine is dropped mid-run, no flush, no farewell
/// message. The dispatcher observes the loss through the transport,
/// respawns the worker, recovers it independently through the ordinary
/// [`crate::recovery::DurableStream::recover`] ladder (checkpoint fallback + journal
/// replay + compaction), re-feeds the unconsumed tail of its substream,
/// and merges as usual. Healthy workers are never restarted or re-fed.
pub fn run_durable_cluster(
    root: &Path,
    data: &ScenarioData,
    events: &[StreamEvent],
    cfg: &ClusterConfig,
    policy: &DurabilityPolicy,
    kills: &[ShardKill],
) -> Result<DurableClusterRun, RecoveryError> {
    let started = Instant::now();
    let shards = cfg.shards.max(1);

    let t_dispatch = Instant::now();
    let table = linktable::from_scenario(data);
    let routed = partition_events(&table, events, shards);
    let events_per_shard: Vec<u64> = routed.iter().map(|r| r.len() as u64).collect();
    let per_shard_links = links_per_shard(&table, shards);
    let dispatch_wall = t_dispatch.elapsed();

    let scenario = ScenarioSpec::Attached;
    let specs: Vec<WorkerSpec> = (0..shards)
        .map(|shard| {
            let abort = kills
                .iter()
                .find(|k| k.shard == shard)
                .map(|k| k.after_events);
            durable_spec(root, shard, shards, cfg, policy, &scenario, false, abort)
        })
        .collect();

    let t_shards = Instant::now();
    let driven = std::thread::scope(|scope| {
        let mut transport = InProcessTransport::start(scope, data, specs);
        let result = drive_durable(&mut transport, &routed, cfg.chunk, &[], &|shard| {
            durable_spec(root, shard, shards, cfg, policy, &scenario, true, None)
        });
        (result, transport.counters())
    });
    let (outputs, shard_reports, recoveries) = driven.0.map_err(transport_to_recovery_error)?;
    let shard_wall = t_shards.elapsed();

    let (durability, shard_restores) = fold_durability(&shard_reports);
    let t_merge = Instant::now();
    let output = merge_outputs(outputs);
    let merge_wall = t_merge.elapsed();

    let recovery_events = recoveries.len() as u64;
    Ok(DurableClusterRun {
        result: assemble_result(
            output,
            shard_reports,
            events_per_shard,
            per_shard_links,
            ClusterWalls {
                dispatch: dispatch_wall,
                shard_ingest: shard_wall,
                merge: merge_wall,
                total: started.elapsed(),
            },
            recovery_events,
            Some(durability),
            Some(driven.1),
        ),
        recoveries,
        shard_restores,
    })
}

// ---------------------------------------------------------------------------
// Live resharding
// ---------------------------------------------------------------------------

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

/// What [`run_reshard_cluster`] hands back: the merged result (still
/// byte-identical to batch and to a from-scratch N+1 run) plus the
/// migration ledger.
pub struct ReshardRun {
    /// The merged cluster result at `to_shards` workers.
    pub result: ClusterResult,
    /// What moved, and what it cost.
    pub reshard: ReshardReport,
}

#[allow(clippy::too_many_arguments)]
fn assemble_reshard(
    outputs: Vec<StreamOutput>,
    shard_reports: Vec<PipelineReport>,
    events_per_shard: Vec<u64>,
    table: &LinkTable,
    after_shards: u32,
    walls: ClusterWalls,
    counters: TransportCounters,
    reshard: ReshardReport,
) -> ReshardRun {
    let t_merge = Instant::now();
    let output = merge_outputs(outputs);
    let merge_wall = t_merge.elapsed();
    let walls = ClusterWalls {
        merge: merge_wall,
        ..walls
    };
    ReshardRun {
        result: assemble_result(
            output,
            shard_reports,
            events_per_shard,
            links_per_shard(table, after_shards),
            walls,
            0,
            None,
            Some(counters),
        ),
        reshard,
    }
}

/// Per-worker event totals for a reshard run: pre-split counts at N
/// routing plus post-split counts at N+1 routing.
fn reshard_event_counts(
    pre: &[VecDeque<Vec<StreamEvent>>],
    post: &[VecDeque<Vec<StreamEvent>>],
) -> Vec<u64> {
    let mut counts = batch_counts(post);
    for (w, c) in batch_counts(pre).into_iter().enumerate() {
        counts[w] += c;
    }
    counts
}

/// Grow a live in-process cluster from `cfg.shards` to `cfg.shards + 1`
/// workers at event boundary `split_at` (clamped to the stream length):
/// the first `split_at` events are dispatched at N-shard routing, the
/// cluster pauses at the boundary, exactly the lanes jump-hash
/// reassigns migrate to the new worker as serialized snapshots, and the
/// rest of the stream is dispatched at (N+1)-shard routing. The merged
/// output is byte-identical to a from-scratch N+1 run — and therefore
/// to the single-process batch answer (`tests/cluster_reshard.rs`).
pub fn run_reshard_cluster(
    data: &ScenarioData,
    events: &[StreamEvent],
    cfg: &ClusterConfig,
    split_at: usize,
) -> Result<ReshardRun, TransportError> {
    let started = Instant::now();
    analysis::validate_inputs(data, &cfg.analysis)?;
    let shards = cfg.shards.max(1);
    let split = split_at.min(events.len());

    let t_dispatch = Instant::now();
    let table = linktable::from_scenario(data);
    let pre = partition_batches(&table, &events[..split], shards, cfg.chunk);
    let post = partition_batches(&table, &events[split..], shards + 1, cfg.chunk);
    let events_per_shard = reshard_event_counts(&pre, &post);
    let dispatch_wall = t_dispatch.elapsed();

    let t_shards = Instant::now();
    let specs = fresh_specs(shards, cfg, &ScenarioSpec::Attached);
    let grow_spec = WorkerSpec::new(
        shards,
        shards + 1,
        cfg.analysis.clone(),
        ScenarioSpec::Attached,
    );
    let driven = std::thread::scope(|scope| {
        let mut transport = InProcessTransport::start(scope, data, specs);
        let result = drive_reshard(&mut transport, &table, pre, post, grow_spec);
        (result, transport.counters())
    });
    let (outputs, shard_reports, moved_links, lanes_moved, migration_micros) = driven.0?;
    let shard_wall = t_shards.elapsed();

    Ok(assemble_reshard(
        outputs,
        shard_reports,
        events_per_shard,
        &table,
        shards + 1,
        ClusterWalls {
            dispatch: dispatch_wall,
            shard_ingest: shard_wall,
            merge: std::time::Duration::ZERO,
            total: started.elapsed(),
        },
        driven.1,
        ReshardReport {
            from_shards: shards,
            to_shards: shards + 1,
            split_at: split,
            moved_links,
            lanes_moved,
            migration_micros,
        },
    ))
}

// ---------------------------------------------------------------------------
// Subprocess entry points
// ---------------------------------------------------------------------------

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

/// [`run_cluster`], but every worker is a `faultline-shard-worker`
/// subprocess speaking hashed frames over stdio. The merged output is
/// byte-identical to the in-process cluster and to batch
/// (`tests/cluster_process.rs`). Worker death is an error here — the
/// non-durable cluster has no state to recover.
pub fn run_cluster_subprocess(
    data: &ScenarioData,
    events: &[StreamEvent],
    cfg: &ClusterConfig,
    opts: &SubprocessOptions,
) -> Result<ClusterResult, TransportError> {
    let started = Instant::now();
    analysis::validate_inputs(data, &cfg.analysis)?;
    let shards = cfg.shards.max(1);

    let t_dispatch = Instant::now();
    let table = linktable::from_scenario(data);
    let per_shard_links = links_per_shard(&table, shards);
    let dispatch_wall = t_dispatch.elapsed();

    let t_shards = Instant::now();
    let specs = fresh_specs(shards, cfg, &opts.scenario);
    let mut transport = SubprocessTransport::start(&opts.worker_bin, &specs)?;
    let (outputs, shard_reports, events_per_shard) =
        drive_stream_feed(&mut transport, &table, events, cfg.chunk)?;
    let counters = transport.counters();
    drop(transport);
    let shard_wall = t_shards.elapsed();

    let t_merge = Instant::now();
    let output = merge_outputs(outputs);
    let merge_wall = t_merge.elapsed();

    Ok(assemble_result(
        output,
        shard_reports,
        events_per_shard,
        per_shard_links,
        ClusterWalls {
            dispatch: dispatch_wall,
            shard_ingest: shard_wall,
            merge: merge_wall,
            total: started.elapsed(),
        },
        0,
        None,
        Some(counters),
    ))
}

/// [`run_durable_cluster`] over subprocess workers. `kills` are the
/// deterministic in-worker aborts ([`ShardKill`] semantics identical to
/// the in-process runtime); `hard_kills` make the dispatcher SIGKILL
/// the named worker's process at the first send boundary at or past
/// `after_events` — the worker gets no chance to flush buffers or say
/// goodbye, and the supervisor recovers it purely from its `shard-{i}/`
/// directory.
#[allow(clippy::too_many_arguments)]
pub fn run_durable_cluster_subprocess(
    root: &Path,
    data: &ScenarioData,
    events: &[StreamEvent],
    cfg: &ClusterConfig,
    policy: &DurabilityPolicy,
    opts: &SubprocessOptions,
    kills: &[ShardKill],
    hard_kills: &[ShardKill],
) -> Result<DurableClusterRun, RecoveryError> {
    let started = Instant::now();
    let shards = cfg.shards.max(1);

    let t_dispatch = Instant::now();
    let table = linktable::from_scenario(data);
    let routed = partition_events(&table, events, shards);
    let events_per_shard: Vec<u64> = routed.iter().map(|r| r.len() as u64).collect();
    let per_shard_links = links_per_shard(&table, shards);
    let dispatch_wall = t_dispatch.elapsed();

    let specs: Vec<WorkerSpec> = (0..shards)
        .map(|shard| {
            let abort = kills
                .iter()
                .find(|k| k.shard == shard)
                .map(|k| k.after_events);
            durable_spec(
                root,
                shard,
                shards,
                cfg,
                policy,
                &opts.scenario,
                false,
                abort,
            )
        })
        .collect();

    let t_shards = Instant::now();
    let mut transport = SubprocessTransport::start(&opts.worker_bin, &specs)
        .map_err(transport_to_recovery_error)?;
    let driven = drive_durable(&mut transport, &routed, cfg.chunk, hard_kills, &|shard| {
        durable_spec(root, shard, shards, cfg, policy, &opts.scenario, true, None)
    });
    let counters = transport.counters();
    drop(transport);
    let (outputs, shard_reports, recoveries) = driven.map_err(transport_to_recovery_error)?;
    let shard_wall = t_shards.elapsed();

    let (durability, shard_restores) = fold_durability(&shard_reports);
    let t_merge = Instant::now();
    let output = merge_outputs(outputs);
    let merge_wall = t_merge.elapsed();

    let recovery_events = recoveries.len() as u64;
    Ok(DurableClusterRun {
        result: assemble_result(
            output,
            shard_reports,
            events_per_shard,
            per_shard_links,
            ClusterWalls {
                dispatch: dispatch_wall,
                shard_ingest: shard_wall,
                merge: merge_wall,
                total: started.elapsed(),
            },
            recovery_events,
            Some(durability),
            Some(counters),
        ),
        recoveries,
        shard_restores,
    })
}

/// [`run_reshard_cluster`] over subprocess workers: the migrated lanes
/// genuinely cross process boundaries as hashed frames.
pub fn run_reshard_cluster_subprocess(
    data: &ScenarioData,
    events: &[StreamEvent],
    cfg: &ClusterConfig,
    split_at: usize,
    opts: &SubprocessOptions,
) -> Result<ReshardRun, TransportError> {
    let started = Instant::now();
    analysis::validate_inputs(data, &cfg.analysis)?;
    let shards = cfg.shards.max(1);
    let split = split_at.min(events.len());

    let t_dispatch = Instant::now();
    let table = linktable::from_scenario(data);
    let pre = partition_batches(&table, &events[..split], shards, cfg.chunk);
    let post = partition_batches(&table, &events[split..], shards + 1, cfg.chunk);
    let events_per_shard = reshard_event_counts(&pre, &post);
    let dispatch_wall = t_dispatch.elapsed();

    let t_shards = Instant::now();
    let specs = fresh_specs(shards, cfg, &opts.scenario);
    let grow_spec = WorkerSpec::new(
        shards,
        shards + 1,
        cfg.analysis.clone(),
        opts.scenario.clone(),
    );
    let mut transport = SubprocessTransport::start(&opts.worker_bin, &specs)?;
    let (outputs, shard_reports, moved_links, lanes_moved, migration_micros) =
        drive_reshard(&mut transport, &table, pre, post, grow_spec)?;
    let counters = transport.counters();
    drop(transport);
    let shard_wall = t_shards.elapsed();

    Ok(assemble_reshard(
        outputs,
        shard_reports,
        events_per_shard,
        &table,
        shards + 1,
        ClusterWalls {
            dispatch: dispatch_wall,
            shard_ingest: shard_wall,
            merge: std::time::Duration::ZERO,
            total: started.elapsed(),
        },
        counters,
        ReshardReport {
            from_shards: shards,
            to_shards: shards + 1,
            split_at: split,
            moved_links,
            lanes_moved,
            migration_micros,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn batched_partition_agrees_with_the_flat_partition() {
        let data = run(&ScenarioParams::tiny(11));
        let table = linktable::from_scenario(&data);
        let events = crate::streaming::scenario_event_stream(&data);
        for n in [1u32, 3, 7] {
            for chunk in [1usize, 5, 4096, usize::MAX] {
                let flat = partition_events(&table, &events, n);
                let batched = partition_batches(&table, &events, n, chunk);
                assert_eq!(flat.len(), batched.len());
                for (f, q) in flat.iter().zip(&batched) {
                    let rejoined: Vec<StreamEvent> =
                        q.iter().flat_map(|b| b.iter().cloned()).collect();
                    assert_eq!(
                        serde_json::to_string(f).unwrap(),
                        serde_json::to_string(&rejoined).unwrap(),
                        "{n} shards, chunk {chunk}"
                    );
                    assert!(q.iter().all(|b| b.len() <= chunk), "chunk bound respected");
                }
            }
        }
    }
}
