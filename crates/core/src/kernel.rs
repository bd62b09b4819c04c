//! The shared per-link analysis kernel — **one kernel, two drivers**.
//!
//! Every semantic stage of the paper's pipeline — syslog resolution,
//! both-ends merge, dedup, DOWN→UP reconstruction, sanitization, flap
//! tracking, segment close, and failure matching — lives here, once, as
//! a set of per-link state machines wrapped by `Kernel`. The two
//! ingestion modes are thin drivers over this module:
//!
//! - the **batch driver** ([`crate::analysis::Analysis::run`]) classifies
//!   the whole archive in one pass and applies every lane's events under
//!   a single end-of-archive watermark (batch = a stream whose watermark
//!   jumps straight to the end);
//! - the **streaming driver** ([`crate::streaming::StreamAnalysis`])
//!   keeps the watermark/admission/checkpoint shell — late-event
//!   rejection, quarantine, micro-batching, serializable snapshots — and
//!   delegates all semantics to the same kernel, one event or micro-batch
//!   at a time.
//!
//! ```text
//!                 ┌───────────────────────────────┐
//!   batch driver  │            kernel             │  streaming driver
//!  Analysis::run ─► classify ─► LinkLane lanes    ◄─ StreamAnalysis
//!  (one pass,     │  (resolve)  dedup · merge     │  (watermark,
//!   watermark =   │             recon · sanitize  │   admission,
//!   end of data)  │             flap · segments   │   checkpoints)
//!                 │        collect → StreamOutput │
//!                 └───────────────────────────────┘
//! ```
//!
//! Both drivers produce the same [`StreamOutput`]; `tests/stream_equivalence.rs`
//! asserts the JSON is byte-identical across chunkings, strategies, and
//! thread counts. The per-stage equivalence argument is narrated in the
//! [`crate::streaming`] module docs.

use crate::analysis::AnalysisConfig;
use crate::arena::EventArena;
use crate::codec::rows;
use crate::intern::FastMap;
use crate::linktable::{LinkIx, Naming};
use crate::matching::{match_failures, FailureMatching};
use crate::observe::PipelineCounters;
use crate::par;
use crate::reconstruct::{AmbiguityStrategy, AmbiguousPeriod, Failure, Reconstruction};
use crate::sanitize::SanitizeReport;
use crate::transitions::{
    IsisMergeStats, LinkTransition, MessageFamily, ResolvedMessage, SyslogResolveStats,
};
use faultline_isis::listener::{
    OfflineSpan, ReachabilityKind, Transition, TransitionDirection, TransitionSubject,
};
use faultline_sim::tickets::TicketLog;
use faultline_sim::ScenarioData;
use faultline_syslog::message::{LinkEventKind, SyslogMessage};
use faultline_topology::link::LinkId;
use faultline_topology::osi::SystemId;
use faultline_topology::time::{Duration, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Everything the pipeline derives from the observables — the complete
/// comparable surface of a run, produced identically by both drivers.
/// Two runs are equivalent iff their `StreamOutput`s serialize
/// identically; the differential harness compares the JSON byte-for-byte.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamOutput {
    /// Resolved syslog messages (all families), sorted by `(time, link)`.
    pub messages: Vec<ResolvedMessage>,
    /// Syslog resolution counters.
    pub resolve_stats: SyslogResolveStats,
    /// Link-level IS-reachability transitions, sorted by `(time, link)`.
    pub is_transitions: Vec<LinkTransition>,
    /// IS merge counters.
    pub is_stats: IsisMergeStats,
    /// Link-level IP-reachability transitions, sorted by `(time, link)`.
    pub ip_transitions: Vec<LinkTransition>,
    /// IP merge counters.
    pub ip_stats: IsisMergeStats,
    /// Deduplicated syslog link transitions, sorted by `(time, link)`.
    pub syslog_transitions: Vec<LinkTransition>,
    /// Pre-sanitization IS-IS reconstruction.
    pub isis_recon: Reconstruction,
    /// Pre-sanitization syslog reconstruction.
    pub syslog_recon: Reconstruction,
    /// Sanitized IS-IS failures, sorted by `(link, start)`.
    pub isis_failures: Vec<Failure>,
    /// Sanitized syslog failures, sorted by `(link, start)`.
    pub syslog_failures: Vec<Failure>,
    /// Sanitization counters, IS-IS side.
    pub isis_sanitize: SanitizeReport,
    /// Sanitization counters, syslog side.
    pub syslog_sanitize: SanitizeReport,
    /// Failure matching between the sanitized sets (syslog on the left).
    pub matching: FailureMatching,
    /// Headline item counters.
    pub counters: PipelineCounters,
}

/// An event routed to one link's state machines.
pub(crate) enum LaneEvent {
    /// An IS-IS-adjacency-family syslog message (dedup + reconstruction).
    Dedup {
        at: Timestamp,
        direction: TransitionDirection,
    },
    /// An IS-reachability transition (both-ends merge + reconstruction).
    Is {
        at: Timestamp,
        source: SystemId,
        direction: TransitionDirection,
    },
    /// An IP-reachability transition (both-ends merge only).
    Ip {
        at: Timestamp,
        source: SystemId,
        direction: TransitionDirection,
    },
}

/// Side inputs shared by every lane (immutable during a run).
pub(crate) struct LaneCtx<'a> {
    pub(crate) config: &'a AnalysisConfig,
    pub(crate) offline: &'a [OfflineSpan],
    pub(crate) tickets: &'a TicketLog,
}

/// Both-end-confirmation dedup state for one link (§3.4): a message with
/// the same direction as the previously *kept* message, within the dedup
/// window, is a confirmation from the other end, not a new transition.
/// Shared by [`LinkLane`] and the standalone
/// [`crate::reconstruct::dedup_syslog`].
#[derive(Default)]
pub(crate) struct DedupState {
    /// Last kept transition (the dedup anchor).
    pub(crate) last: Option<(Timestamp, TransitionDirection)>,
}

impl DedupState {
    /// Feed one message; returns whether it survives as a new transition.
    /// Confirmations refresh the anchor so chains of confirmations keep
    /// merging.
    pub(crate) fn keep(
        &mut self,
        at: Timestamp,
        direction: TransitionDirection,
        window: Duration,
    ) -> bool {
        if let Some((last_at, last_dir)) = self.last {
            if last_dir == direction && at.abs_diff(last_at) <= window {
                self.last = Some((at, last_dir));
                return false;
            }
        }
        self.last = Some((at, direction));
        true
    }
}

/// The both-ends AND-merge state for one link and one reachability kind:
/// a link-level DOWN fires on the first endpoint's withdrawal, an UP only
/// once both ends re-advertise. Shared by [`LinkLane`] and the standalone
/// [`crate::transitions::isis_link_transitions`].
#[derive(Default)]
pub(crate) struct MergeState {
    pub(crate) advertised: FastMap<SystemId, bool>,
    pub(crate) down_count: u32,
    pub(crate) inconsistent: u64,
}

impl MergeState {
    /// Feed one per-origin event; returns whether it emits a link-level
    /// transition.
    pub(crate) fn step(&mut self, source: SystemId, direction: TransitionDirection) -> bool {
        let adv = self.advertised.entry(source).or_insert(true);
        match direction {
            TransitionDirection::Down => {
                if !*adv {
                    self.inconsistent += 1;
                    return false;
                }
                *adv = false;
                self.down_count += 1;
                self.down_count == 1
            }
            TransitionDirection::Up => {
                if *adv {
                    self.inconsistent += 1;
                    return false;
                }
                *adv = true;
                self.down_count -= 1;
                self.down_count == 0
            }
        }
    }
}

/// Incremental DOWN→UP reconstruction state for one link and one source.
/// Shared by [`LinkLane`] and the standalone
/// [`crate::reconstruct::reconstruct`].
#[derive(Default)]
pub(crate) struct ReconLane {
    pub(crate) open: Option<Timestamp>,
    pub(crate) last_at: Option<Timestamp>,
    pub(crate) last_dir: Option<TransitionDirection>,
    /// Under `AssumeDown` only: the most recently closed failure, still
    /// extendable by a later double-up. `None` under other strategies.
    pub(crate) pending: Option<Failure>,
    /// Finalized pre-sanitization failures, in close order (= start
    /// order, since per-link failure intervals are sequential).
    pub(crate) failures: Vec<Failure>,
    pub(crate) ambiguous: Vec<AmbiguousPeriod>,
    pub(crate) boundary_ups: u32,
}

impl ReconLane {
    /// Feed one link-level transition. Returns the failure that became
    /// *final* at this step, if any (at most one per step).
    pub(crate) fn step(
        &mut self,
        link: LinkIx,
        at: Timestamp,
        direction: TransitionDirection,
        strategy: AmbiguityStrategy,
    ) -> Option<Failure> {
        use TransitionDirection::{Down, Up};
        let mut finalized = None;
        match (direction, self.open) {
            (Down, None) => {
                // Once a new failure opens, the previously closed one can
                // never be extended again (extension requires an UP with
                // nothing open): it is final now.
                finalized = self.pending.take();
                self.open = Some(at);
            }
            (Up, Some(start)) => {
                let f = Failure {
                    link,
                    start,
                    end: at,
                };
                self.open = None;
                if strategy == AmbiguityStrategy::AssumeDown {
                    finalized = self.pending.replace(f);
                } else {
                    finalized = Some(f);
                }
            }
            (Down, Some(_)) => {
                // Invariant: `open` can only be set by a prior step, and
                // every step records `last_at` — not data-dependent.
                let first = self.last_at.expect("open failure implies a prior message");
                self.ambiguous.push(AmbiguousPeriod {
                    link,
                    first,
                    second: at,
                    direction: Down,
                });
                if strategy == AmbiguityStrategy::AssumeUp {
                    self.open = Some(at);
                }
            }
            (Up, None) => match self.last_dir {
                Some(Up) => {
                    // Invariant: `last_dir` and `last_at` are always set
                    // together at the end of each step.
                    let first = self.last_at.expect("had a previous message");
                    self.ambiguous.push(AmbiguousPeriod {
                        link,
                        first,
                        second: at,
                        direction: Up,
                    });
                    if strategy == AmbiguityStrategy::AssumeDown {
                        match self.pending.as_mut() {
                            Some(p) => p.end = at,
                            None => {
                                self.pending = Some(Failure {
                                    link,
                                    start: first,
                                    end: at,
                                })
                            }
                        }
                    }
                }
                _ => self.boundary_ups += 1,
            },
        }
        self.last_at = Some(at);
        self.last_dir = Some(direction);
        if let Some(f) = finalized {
            self.failures.push(f);
        }
        finalized
    }

    /// Whether this machine's state forbids closing the current match
    /// segment: an open or pending failure could still change, and under
    /// `AssumeDown` a trailing UP could yet spawn a failure reaching back
    /// to `last_at`.
    pub(crate) fn blocks_segment_close(&self, strategy: AmbiguityStrategy) -> bool {
        self.open.is_some()
            || self.pending.is_some()
            || (strategy == AmbiguityStrategy::AssumeDown
                && self.last_dir == Some(TransitionDirection::Up))
    }

    /// End of stream: the pending failure, if any, is final.
    pub(crate) fn finish(&mut self) -> Option<Failure> {
        let f = self.pending.take();
        if let Some(f) = f {
            self.failures.push(f);
        }
        f
    }
}

/// All per-link state: bounded working state plus this link's finalized
/// (emitted) records. This is *the* pipeline state machine — both drivers
/// route every event through a `LinkLane`.
pub(crate) struct LinkLane {
    pub(crate) link: LinkIx,
    pub(crate) link_id: Option<LinkId>,
    pub(crate) resolvable: bool,
    /// Syslog both-end-confirmation dedup anchor.
    pub(crate) dedup: DedupState,
    pub(crate) is_merge: MergeState,
    pub(crate) ip_merge: MergeState,
    pub(crate) is_emitted: Vec<LinkTransition>,
    pub(crate) ip_emitted: Vec<LinkTransition>,
    pub(crate) syslog_emitted: Vec<LinkTransition>,
    pub(crate) isis_recon: ReconLane,
    pub(crate) syslog_recon: ReconLane,
    pub(crate) isis_sanitize: SanitizeReport,
    pub(crate) syslog_sanitize: SanitizeReport,
    /// Sanitized failures, per-link order (= `(link, start)` order).
    pub(crate) san_isis: Vec<Failure>,
    pub(crate) san_syslog: Vec<Failure>,
    /// Current match segment: `san_*[seg_start_*..]`.
    pub(crate) seg_start_isis: usize,
    pub(crate) seg_start_syslog: usize,
    /// Max `end` among the segment's buffered failures.
    pub(crate) seg_max_end: Option<Timestamp>,
    /// Finalized matches, per-link indices (syslog left, IS-IS right).
    pub(crate) matched: Vec<(usize, usize)>,
    pub(crate) partial: Vec<(usize, usize)>,
    pub(crate) segments_closed: u64,
    /// Flap-run tracking over sanitized IS-IS failures (monitoring only).
    pub(crate) flap_last_end: Option<Timestamp>,
    pub(crate) flap_run: u32,
    pub(crate) flap_episodes: u64,
    /// Touched since the durability layer's last snapshot mark. Every
    /// mutation flows through [`LinkLane::apply`], so setting the flag
    /// there (and on construction) is exhaustive; the streaming driver's
    /// `mark_clean` resets it after each checkpoint capture. Runtime-only:
    /// deliberately absent from [`LaneSnapshot`].
    pub(crate) dirty: bool,
    /// History-vector lengths at the last snapshot mark — what
    /// [`LinkLane::delta_snapshot`] diffs against. Runtime-only, like
    /// `dirty`.
    pub(crate) mark: LaneMark,
}

/// Lengths of a lane's append-only history vectors at the durability
/// layer's last snapshot mark. Every long-lived vector in a lane only
/// ever grows between marks (`seg_start_*` are cursors *into* `san_*`,
/// not drains), so an incremental snapshot can carry just the slices
/// past these lengths. `marked == false` means the lane was born after
/// the mark (or was restored without one): there is no parent image to
/// diff against and the delta must carry the lane whole.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LaneMark {
    pub(crate) marked: bool,
    is_emitted: usize,
    ip_emitted: usize,
    syslog_emitted: usize,
    isis_failures: usize,
    isis_ambiguous: usize,
    syslog_failures: usize,
    syslog_ambiguous: usize,
    san_isis: usize,
    san_syslog: usize,
    matched: usize,
    partial: usize,
}

impl LinkLane {
    pub(crate) fn new(link: LinkIx, link_id: Option<LinkId>, resolvable: bool) -> LinkLane {
        LinkLane {
            link,
            link_id,
            resolvable,
            dedup: DedupState::default(),
            is_merge: MergeState::default(),
            ip_merge: MergeState::default(),
            is_emitted: Vec::new(),
            ip_emitted: Vec::new(),
            syslog_emitted: Vec::new(),
            isis_recon: ReconLane::default(),
            syslog_recon: ReconLane::default(),
            isis_sanitize: SanitizeReport::default(),
            syslog_sanitize: SanitizeReport::default(),
            san_isis: Vec::new(),
            san_syslog: Vec::new(),
            seg_start_isis: 0,
            seg_start_syslog: 0,
            seg_max_end: None,
            matched: Vec::new(),
            partial: Vec::new(),
            segments_closed: 0,
            flap_last_end: None,
            flap_run: 0,
            flap_episodes: 0,
            dirty: true,
            mark: LaneMark::default(),
        }
    }

    /// Items that could still change or are awaiting a segment close —
    /// the "open state" the streaming counters track.
    pub(crate) fn open_items(&self) -> u64 {
        (self.isis_recon.open.is_some() as u64)
            + (self.isis_recon.pending.is_some() as u64)
            + (self.syslog_recon.open.is_some() as u64)
            + (self.syslog_recon.pending.is_some() as u64)
            + (self.san_isis.len() - self.seg_start_isis) as u64
            + (self.san_syslog.len() - self.seg_start_syslog) as u64
    }

    pub(crate) fn apply(&mut self, event: &LaneEvent, ctx: &LaneCtx<'_>) {
        self.dirty = true;
        match *event {
            LaneEvent::Dedup { at, direction } => self.apply_dedup(at, direction, ctx),
            LaneEvent::Is {
                at,
                source,
                direction,
            } => {
                if self.is_merge.step(source, direction) {
                    let t = LinkTransition {
                        at,
                        link: self.link,
                        direction,
                    };
                    self.is_emitted.push(t);
                    let finalized =
                        self.isis_recon
                            .step(self.link, at, direction, ctx.config.strategy);
                    if let Some(f) = finalized {
                        self.sanitize_isis(f, ctx);
                    }
                }
            }
            LaneEvent::Ip {
                at,
                source,
                direction,
            } => {
                if self.ip_merge.step(source, direction) {
                    self.ip_emitted.push(LinkTransition {
                        at,
                        link: self.link,
                        direction,
                    });
                }
            }
        }
    }

    fn apply_dedup(&mut self, at: Timestamp, direction: TransitionDirection, ctx: &LaneCtx<'_>) {
        if !self.dedup.keep(at, direction, ctx.config.dedup_window) {
            return;
        }
        self.syslog_emitted.push(LinkTransition {
            at,
            link: self.link,
            direction,
        });
        let finalized = self
            .syslog_recon
            .step(self.link, at, direction, ctx.config.strategy);
        if let Some(f) = finalized {
            self.sanitize_syslog(f, ctx);
        }
    }

    /// Sanitize one finalized IS-IS failure (offline spans, then the
    /// multi-link filter) and buffer survivors for matching.
    fn sanitize_isis(&mut self, f: Failure, ctx: &LaneCtx<'_>) {
        if overlaps_offline(&f, ctx.offline) {
            self.isis_sanitize.removed_offline += 1;
            self.isis_sanitize.removed_offline_ms += f.duration().as_millis();
            return;
        }
        if !self.resolvable {
            return;
        }
        self.track_flap(&f, ctx.config.flap_gap);
        self.seg_max_end = Some(self.seg_max_end.map_or(f.end, |e| e.max(f.end)));
        self.san_isis.push(f);
    }

    /// Sanitize one finalized syslog failure (offline spans, long-failure
    /// ticket verification, then the multi-link filter).
    fn sanitize_syslog(&mut self, f: Failure, ctx: &LaneCtx<'_>) {
        if overlaps_offline(&f, ctx.offline) {
            self.syslog_sanitize.removed_offline += 1;
            self.syslog_sanitize.removed_offline_ms += f.duration().as_millis();
            return;
        }
        if f.duration() > ctx.config.long_threshold {
            self.syslog_sanitize.long_checked += 1;
            let verified = self.link_id.is_some_and(|lid| {
                ctx.tickets
                    .verifies(lid, f.start, f.end, ctx.config.ticket_slack)
            });
            if !verified {
                self.syslog_sanitize.long_removed += 1;
                self.syslog_sanitize.long_removed_ms += f.duration().as_millis();
                return;
            }
        }
        if !self.resolvable {
            return;
        }
        self.seg_max_end = Some(self.seg_max_end.map_or(f.end, |e| e.max(f.end)));
        self.san_syslog.push(f);
    }

    fn track_flap(&mut self, f: &Failure, gap: Duration) {
        let continues = self.flap_last_end.is_some_and(|last| {
            f.start
                .checked_duration_since(last)
                .map(|g| g < gap)
                .unwrap_or(true)
        });
        if continues {
            self.flap_run += 1;
        } else {
            if self.flap_run >= 2 {
                self.flap_episodes += 1;
            }
            self.flap_run = 1;
        }
        self.flap_last_end = Some(f.end);
    }

    /// Close the current segment if the watermark proves no future
    /// failure can match or overlap anything buffered in it.
    pub(crate) fn maybe_close_segment(&mut self, watermark: Timestamp, ctx: &LaneCtx<'_>) {
        let strategy = ctx.config.strategy;
        if self.isis_recon.blocks_segment_close(strategy)
            || self.syslog_recon.blocks_segment_close(strategy)
        {
            return;
        }
        let Some(max_end) = self.seg_max_end else {
            return;
        };
        // All events so far have time <= watermark, so every future
        // failure starts at or after it; strictly more than the match
        // window past every buffered end means no future exact match
        // (start distance > window) and no future overlap (start > end).
        let quiet = watermark
            .checked_duration_since(max_end)
            .is_some_and(|gap| gap > ctx.config.match_window);
        if quiet {
            self.close_segment(ctx.config.match_window);
        }
    }

    /// Run the matcher over the segment's buffered failures and re-base
    /// its indices to per-link positions.
    fn close_segment(&mut self, window: Duration) {
        let left = &self.san_syslog[self.seg_start_syslog..];
        let right = &self.san_isis[self.seg_start_isis..];
        if !left.is_empty() || !right.is_empty() {
            let m = match_failures(left, right, window);
            for (i, j) in m.matched {
                self.matched
                    .push((self.seg_start_syslog + i, self.seg_start_isis + j));
            }
            for (i, j) in m.partial {
                self.partial
                    .push((self.seg_start_syslog + i, self.seg_start_isis + j));
            }
            self.segments_closed += 1;
        }
        self.seg_start_syslog = self.san_syslog.len();
        self.seg_start_isis = self.san_isis.len();
        self.seg_max_end = None;
    }

    /// End of stream: finalize pendings, flush the flap run, close the
    /// last segment unconditionally.
    pub(crate) fn finish(&mut self, ctx: &LaneCtx<'_>) {
        if let Some(f) = self.isis_recon.finish() {
            self.sanitize_isis(f, ctx);
        }
        if let Some(f) = self.syslog_recon.finish() {
            self.sanitize_syslog(f, ctx);
        }
        if self.flap_run >= 2 {
            self.flap_episodes += 1;
        }
        self.flap_run = 0;
        self.close_segment(ctx.config.match_window);
    }
}

/// Does a failure interval overlap any listener offline span (closed
/// intervals)? The single sanitization predicate shared by [`LinkLane`]
/// and [`crate::sanitize::remove_offline_spanning`].
pub(crate) fn overlaps_offline(f: &Failure, spans: &[OfflineSpan]) -> bool {
    spans.iter().any(|s| f.start <= s.to && s.from <= f.end)
}

fn merge_sanitize(into: &mut SanitizeReport, from: &SanitizeReport) {
    into.removed_offline += from.removed_offline;
    into.removed_offline_ms += from.removed_offline_ms;
    into.long_checked += from.long_checked;
    into.long_removed += from.long_removed;
    into.long_removed_ms += from.long_removed_ms;
}

/// Serializable image of [`MergeState`]. The advertisement map is
/// flattened to a `SystemId`-sorted vec so a checkpoint's bytes — and
/// therefore its integrity hash — are deterministic for a given state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct MergeSnapshot {
    advertised: Vec<(SystemId, bool)>,
    down_count: u32,
    inconsistent: u64,
}

// The snapshot payload's rows for this module's images (see
// `crate::codec`'s snapshot layout).
rows! {
    MergeSnapshot { advertised, down_count, inconsistent }
    ReconSnapshot { open, last_at, last_dir, pending, failures, ambiguous, boundary_ups }
    LaneSnapshot {
        link,
        link_id,
        resolvable,
        dedup_last,
        is_merge,
        ip_merge,
        is_emitted,
        ip_emitted,
        syslog_emitted,
        isis_recon,
        syslog_recon,
        isis_sanitize,
        syslog_sanitize,
        san_isis,
        san_syslog,
        seg_start_isis,
        seg_start_syslog,
        seg_max_end,
        matched,
        partial,
        segments_closed,
        flap_last_end,
        flap_run,
        flap_episodes,
    }
    ReconTail {
        open,
        last_at,
        last_dir,
        pending,
        failures_base,
        failures_tail,
        ambiguous_base,
        ambiguous_tail,
        boundary_ups,
    }
    LaneTail {
        link,
        link_id,
        resolvable,
        dedup_last,
        is_merge,
        ip_merge,
        is_emitted_base,
        is_emitted_tail,
        ip_emitted_base,
        ip_emitted_tail,
        syslog_emitted_base,
        syslog_emitted_tail,
        isis_recon,
        syslog_recon,
        isis_sanitize,
        syslog_sanitize,
        san_isis_base,
        san_isis_tail,
        san_syslog_base,
        san_syslog_tail,
        seg_start_isis,
        seg_start_syslog,
        seg_max_end,
        matched_base,
        matched_tail,
        partial_base,
        partial_tail,
        segments_closed,
        flap_last_end,
        flap_run,
        flap_episodes,
    }
}

impl MergeState {
    fn snapshot(&self) -> MergeSnapshot {
        let mut advertised: Vec<(SystemId, bool)> =
            self.advertised.iter().map(|(k, v)| (*k, *v)).collect();
        advertised.sort_by_key(|&(id, _)| id);
        MergeSnapshot {
            advertised,
            down_count: self.down_count,
            inconsistent: self.inconsistent,
        }
    }

    fn restore(s: MergeSnapshot) -> MergeState {
        MergeState {
            advertised: s.advertised.into_iter().collect(),
            down_count: s.down_count,
            inconsistent: s.inconsistent,
        }
    }
}

/// Serializable image of [`ReconLane`] (field-for-field).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ReconSnapshot {
    open: Option<Timestamp>,
    last_at: Option<Timestamp>,
    last_dir: Option<TransitionDirection>,
    pending: Option<Failure>,
    failures: Vec<Failure>,
    ambiguous: Vec<AmbiguousPeriod>,
    boundary_ups: u32,
}

impl ReconLane {
    fn snapshot(&self) -> ReconSnapshot {
        ReconSnapshot {
            open: self.open,
            last_at: self.last_at,
            last_dir: self.last_dir,
            pending: self.pending,
            failures: self.failures.clone(),
            ambiguous: self.ambiguous.clone(),
            boundary_ups: self.boundary_ups,
        }
    }

    fn restore(s: ReconSnapshot) -> ReconLane {
        ReconLane {
            open: s.open,
            last_at: s.last_at,
            last_dir: s.last_dir,
            pending: s.pending,
            failures: s.failures,
            ambiguous: s.ambiguous,
            boundary_ups: s.boundary_ups,
        }
    }
}

/// Serializable image of one [`LinkLane`] (field-for-field; the merge
/// maps go through [`MergeSnapshot`] for deterministic bytes). Its
/// snapshot row is its fields in declaration order, so reordering them
/// is a checkpoint-format change.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct LaneSnapshot {
    pub(crate) link: LinkIx,
    link_id: Option<LinkId>,
    resolvable: bool,
    dedup_last: Option<(Timestamp, TransitionDirection)>,
    is_merge: MergeSnapshot,
    ip_merge: MergeSnapshot,
    is_emitted: Vec<LinkTransition>,
    ip_emitted: Vec<LinkTransition>,
    syslog_emitted: Vec<LinkTransition>,
    isis_recon: ReconSnapshot,
    syslog_recon: ReconSnapshot,
    isis_sanitize: SanitizeReport,
    syslog_sanitize: SanitizeReport,
    san_isis: Vec<Failure>,
    san_syslog: Vec<Failure>,
    seg_start_isis: usize,
    seg_start_syslog: usize,
    seg_max_end: Option<Timestamp>,
    matched: Vec<(usize, usize)>,
    partial: Vec<(usize, usize)>,
    segments_closed: u64,
    flap_last_end: Option<Timestamp>,
    flap_run: u32,
    flap_episodes: u64,
}

impl LinkLane {
    pub(crate) fn snapshot(&self) -> LaneSnapshot {
        LaneSnapshot {
            link: self.link,
            link_id: self.link_id,
            resolvable: self.resolvable,
            dedup_last: self.dedup.last,
            is_merge: self.is_merge.snapshot(),
            ip_merge: self.ip_merge.snapshot(),
            is_emitted: self.is_emitted.clone(),
            ip_emitted: self.ip_emitted.clone(),
            syslog_emitted: self.syslog_emitted.clone(),
            isis_recon: self.isis_recon.snapshot(),
            syslog_recon: self.syslog_recon.snapshot(),
            isis_sanitize: self.isis_sanitize,
            syslog_sanitize: self.syslog_sanitize,
            san_isis: self.san_isis.clone(),
            san_syslog: self.san_syslog.clone(),
            seg_start_isis: self.seg_start_isis,
            seg_start_syslog: self.seg_start_syslog,
            seg_max_end: self.seg_max_end,
            matched: self.matched.clone(),
            partial: self.partial.clone(),
            segments_closed: self.segments_closed,
            flap_last_end: self.flap_last_end,
            flap_run: self.flap_run,
            flap_episodes: self.flap_episodes,
        }
    }

    pub(crate) fn restore(s: LaneSnapshot) -> LinkLane {
        LinkLane {
            link: s.link,
            link_id: s.link_id,
            resolvable: s.resolvable,
            dedup: DedupState { last: s.dedup_last },
            is_merge: MergeState::restore(s.is_merge),
            ip_merge: MergeState::restore(s.ip_merge),
            is_emitted: s.is_emitted,
            ip_emitted: s.ip_emitted,
            syslog_emitted: s.syslog_emitted,
            isis_recon: ReconLane::restore(s.isis_recon),
            syslog_recon: ReconLane::restore(s.syslog_recon),
            isis_sanitize: s.isis_sanitize,
            syslog_sanitize: s.syslog_sanitize,
            san_isis: s.san_isis,
            san_syslog: s.san_syslog,
            seg_start_isis: s.seg_start_isis,
            seg_start_syslog: s.seg_start_syslog,
            seg_max_end: s.seg_max_end,
            matched: s.matched,
            partial: s.partial,
            segments_closed: s.segments_closed,
            flap_last_end: s.flap_last_end,
            flap_run: s.flap_run,
            flap_episodes: s.flap_episodes,
            dirty: false,
            mark: LaneMark::default(),
        }
    }

    /// Close the current diff window: clear the dirty flag and anchor
    /// every history vector's mark at its current length, so the next
    /// [`LinkLane::delta_snapshot`] carries only what grows from here.
    pub(crate) fn mark_clean(&mut self) {
        self.dirty = false;
        self.mark = LaneMark {
            marked: true,
            is_emitted: self.is_emitted.len(),
            ip_emitted: self.ip_emitted.len(),
            syslog_emitted: self.syslog_emitted.len(),
            isis_failures: self.isis_recon.failures.len(),
            isis_ambiguous: self.isis_recon.ambiguous.len(),
            syslog_failures: self.syslog_recon.failures.len(),
            syslog_ambiguous: self.syslog_recon.ambiguous.len(),
            san_isis: self.san_isis.len(),
            san_syslog: self.san_syslog.len(),
            matched: self.matched.len(),
            partial: self.partial.len(),
        };
    }

    /// Incremental image of this lane against the last mark: bounded
    /// open state verbatim, history vectors as tails. A lane born after
    /// the mark has no parent image to diff against and ships whole.
    pub(crate) fn delta_snapshot(&self) -> LaneDelta {
        if !self.mark.marked {
            return LaneDelta::Full(self.snapshot());
        }
        let m = &self.mark;
        LaneDelta::Tail(LaneTail {
            link: self.link,
            link_id: self.link_id,
            resolvable: self.resolvable,
            dedup_last: self.dedup.last,
            is_merge: self.is_merge.snapshot(),
            ip_merge: self.ip_merge.snapshot(),
            is_emitted_base: m.is_emitted as u64,
            is_emitted_tail: self.is_emitted[m.is_emitted..].to_vec(),
            ip_emitted_base: m.ip_emitted as u64,
            ip_emitted_tail: self.ip_emitted[m.ip_emitted..].to_vec(),
            syslog_emitted_base: m.syslog_emitted as u64,
            syslog_emitted_tail: self.syslog_emitted[m.syslog_emitted..].to_vec(),
            isis_recon: self.isis_recon.tail(m.isis_failures, m.isis_ambiguous),
            syslog_recon: self
                .syslog_recon
                .tail(m.syslog_failures, m.syslog_ambiguous),
            isis_sanitize: self.isis_sanitize,
            syslog_sanitize: self.syslog_sanitize,
            san_isis_base: m.san_isis as u64,
            san_isis_tail: self.san_isis[m.san_isis..].to_vec(),
            san_syslog_base: m.san_syslog as u64,
            san_syslog_tail: self.san_syslog[m.san_syslog..].to_vec(),
            seg_start_isis: self.seg_start_isis,
            seg_start_syslog: self.seg_start_syslog,
            seg_max_end: self.seg_max_end,
            matched_base: m.matched as u64,
            matched_tail: self.matched[m.matched..].to_vec(),
            partial_base: m.partial as u64,
            partial_tail: self.partial[m.partial..].to_vec(),
            segments_closed: self.segments_closed,
            flap_last_end: self.flap_last_end,
            flap_run: self.flap_run,
            flap_episodes: self.flap_episodes,
        })
    }

    /// Replay a [`LaneTail`] onto this lane, which must be exactly the
    /// state the tail was diffed against: every base length is checked
    /// before any vector grows, so a mismatched application is a typed
    /// error, never a silently wrong lane.
    pub(crate) fn apply_tail(&mut self, t: LaneTail) -> Result<(), String> {
        grow(
            &mut self.is_emitted,
            t.is_emitted_base,
            t.is_emitted_tail,
            "is_emitted",
        )?;
        grow(
            &mut self.ip_emitted,
            t.ip_emitted_base,
            t.ip_emitted_tail,
            "ip_emitted",
        )?;
        grow(
            &mut self.syslog_emitted,
            t.syslog_emitted_base,
            t.syslog_emitted_tail,
            "syslog_emitted",
        )?;
        self.isis_recon.apply_tail(t.isis_recon, "isis")?;
        self.syslog_recon.apply_tail(t.syslog_recon, "syslog")?;
        grow(
            &mut self.san_isis,
            t.san_isis_base,
            t.san_isis_tail,
            "san_isis",
        )?;
        grow(
            &mut self.san_syslog,
            t.san_syslog_base,
            t.san_syslog_tail,
            "san_syslog",
        )?;
        grow(&mut self.matched, t.matched_base, t.matched_tail, "matched")?;
        grow(&mut self.partial, t.partial_base, t.partial_tail, "partial")?;
        self.link_id = t.link_id;
        self.resolvable = t.resolvable;
        self.dedup.last = t.dedup_last;
        self.is_merge = MergeState::restore(t.is_merge);
        self.ip_merge = MergeState::restore(t.ip_merge);
        self.isis_sanitize = t.isis_sanitize;
        self.syslog_sanitize = t.syslog_sanitize;
        self.seg_start_isis = t.seg_start_isis;
        self.seg_start_syslog = t.seg_start_syslog;
        self.seg_max_end = t.seg_max_end;
        self.segments_closed = t.segments_closed;
        self.flap_last_end = t.flap_last_end;
        self.flap_run = t.flap_run;
        self.flap_episodes = t.flap_episodes;
        Ok(())
    }
}

/// Extend an append-only history vector with a tail diffed at
/// `base` — refused unless the vector is exactly `base` long.
fn grow<T>(v: &mut Vec<T>, base: u64, tail: Vec<T>, what: &str) -> Result<(), String> {
    if v.len() as u64 != base {
        return Err(format!(
            "lane tail base mismatch for {what}: parent holds {}, delta diffed at {base}",
            v.len()
        ));
    }
    v.extend(tail);
    Ok(())
}

/// Incremental image of [`ReconLane`]: the bounded open state verbatim,
/// the append-only `failures`/`ambiguous` logs as tails.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ReconTail {
    open: Option<Timestamp>,
    last_at: Option<Timestamp>,
    last_dir: Option<TransitionDirection>,
    pending: Option<Failure>,
    failures_base: u64,
    failures_tail: Vec<Failure>,
    ambiguous_base: u64,
    ambiguous_tail: Vec<AmbiguousPeriod>,
    boundary_ups: u32,
}

impl ReconLane {
    fn tail(&self, failures_mark: usize, ambiguous_mark: usize) -> ReconTail {
        ReconTail {
            open: self.open,
            last_at: self.last_at,
            last_dir: self.last_dir,
            pending: self.pending,
            failures_base: failures_mark as u64,
            failures_tail: self.failures[failures_mark..].to_vec(),
            ambiguous_base: ambiguous_mark as u64,
            ambiguous_tail: self.ambiguous[ambiguous_mark..].to_vec(),
            boundary_ups: self.boundary_ups,
        }
    }

    fn apply_tail(&mut self, t: ReconTail, source: &str) -> Result<(), String> {
        grow(
            &mut self.failures,
            t.failures_base,
            t.failures_tail,
            &format!("{source} recon failures"),
        )?;
        grow(
            &mut self.ambiguous,
            t.ambiguous_base,
            t.ambiguous_tail,
            &format!("{source} recon ambiguous"),
        )?;
        self.open = t.open;
        self.last_at = t.last_at;
        self.last_dir = t.last_dir;
        self.pending = t.pending;
        self.boundary_ups = t.boundary_ups;
        Ok(())
    }
}

/// Incremental image of one [`LinkLane`] relative to the parent
/// snapshot: bounded scalars and open state verbatim, every append-only
/// history vector as a `(base length, tail)` pair. Like
/// [`LaneSnapshot`], its field order is the delta format's.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct LaneTail {
    pub(crate) link: LinkIx,
    link_id: Option<LinkId>,
    resolvable: bool,
    dedup_last: Option<(Timestamp, TransitionDirection)>,
    is_merge: MergeSnapshot,
    ip_merge: MergeSnapshot,
    is_emitted_base: u64,
    is_emitted_tail: Vec<LinkTransition>,
    ip_emitted_base: u64,
    ip_emitted_tail: Vec<LinkTransition>,
    syslog_emitted_base: u64,
    syslog_emitted_tail: Vec<LinkTransition>,
    isis_recon: ReconTail,
    syslog_recon: ReconTail,
    isis_sanitize: SanitizeReport,
    syslog_sanitize: SanitizeReport,
    san_isis_base: u64,
    san_isis_tail: Vec<Failure>,
    san_syslog_base: u64,
    san_syslog_tail: Vec<Failure>,
    seg_start_isis: usize,
    seg_start_syslog: usize,
    seg_max_end: Option<Timestamp>,
    matched_base: u64,
    matched_tail: Vec<(usize, usize)>,
    partial_base: u64,
    partial_tail: Vec<(usize, usize)>,
    segments_closed: u64,
    flap_last_end: Option<Timestamp>,
    flap_run: u32,
    flap_episodes: u64,
}

/// One lane's contribution to a [`crate::streaming::StreamDelta`]:
/// whole if the lane was born inside the diff window, a tail otherwise.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum LaneDelta {
    /// Lane born after the parent snapshot — no parent image exists.
    Full(LaneSnapshot),
    /// Lane that existed at the parent: scalars plus vector tails.
    Tail(LaneTail),
}

/// What [`Kernel::collect`] hands back to a driver: the comparable
/// surface plus the naming layer (so the batch driver can keep it for
/// table derivation) and the kernel-side streaming counters.
pub(crate) struct KernelOutput {
    /// The complete derived surface, identical for both drivers.
    pub(crate) output: StreamOutput,
    /// The configuration the run used, handed back to the driver.
    pub(crate) config: AnalysisConfig,
    /// The naming layer the kernel resolved through.
    pub(crate) naming: Arc<Naming>,
    /// Match segments closed across all lanes.
    pub(crate) segments_closed: u64,
    /// Flap episodes observed across all lanes.
    pub(crate) flap_episodes: u64,
    /// Open/pending failures that were only finalized by `collect`.
    pub(crate) finalized_at_flush: u64,
}

/// The shared pipeline core: the naming layer, every per-link
/// [`LinkLane`], and the serial classification state (resolution and
/// merge counters). Drivers feed it classified events and call
/// [`Kernel::collect`] once at end of data.
pub(crate) struct Kernel<'a> {
    /// The scenario's static side inputs (offline spans, tickets,
    /// topology) — the one input genuinely available up front.
    pub(crate) data: &'a ScenarioData,
    pub(crate) config: AnalysisConfig,
    /// The link table and its topology join, shared with every other
    /// kernel the run started in this process.
    pub(crate) naming: Arc<Naming>,
    pub(crate) lanes: BTreeMap<LinkIx, LinkLane>,
    /// Resolved messages in feed order (finalized at resolution).
    pub(crate) messages: Vec<ResolvedMessage>,
    pub(crate) resolve_stats: SyslogResolveStats,
    /// Serial halves of the merge counters (raw/unknown/multilink); the
    /// stateful halves (inconsistent/emitted) live in the lanes.
    pub(crate) is_stats: IsisMergeStats,
    pub(crate) ip_stats: IsisMergeStats,
    pub(crate) open_items: u64,
    pub(crate) open_items_hwm: u64,
}

impl<'a> Kernel<'a> {
    /// Set up an empty kernel over `naming`, which must have been mined
    /// from `data`. No events are consumed.
    pub(crate) fn new(
        data: &'a ScenarioData,
        config: AnalysisConfig,
        naming: Arc<Naming>,
    ) -> Kernel<'a> {
        Kernel {
            data,
            config,
            naming,
            lanes: BTreeMap::new(),
            messages: Vec::new(),
            resolve_stats: SyslogResolveStats::default(),
            is_stats: IsisMergeStats::default(),
            ip_stats: IsisMergeStats::default(),
            open_items: 0,
            open_items_hwm: 0,
        }
    }

    /// Resolve one syslog message serially; returns the link-routed form
    /// if it survives resolution. Counts every outcome in
    /// [`SyslogResolveStats`] and archives resolved messages.
    pub(crate) fn classify_syslog(&mut self, m: &SyslogMessage) -> Option<(LinkIx, LaneEvent)> {
        let direction = if m.event.up {
            TransitionDirection::Up
        } else {
            TransitionDirection::Down
        };
        let (family, detail) = match &m.event.kind {
            LinkEventKind::IsisAdjacency { detail, .. } => {
                (MessageFamily::IsisAdjacency, Some(*detail))
            }
            LinkEventKind::Link => (MessageFamily::PhysicalMedia, None),
            LinkEventKind::LineProtocol => {
                self.resolve_stats.lineproto_skipped += 1;
                return None;
            }
        };
        let Some((link, host)) = self
            .naming
            .table
            .by_interface_sym(&m.event.host, &m.event.interface)
        else {
            self.resolve_stats.unresolved += 1;
            return None;
        };
        match family {
            MessageFamily::IsisAdjacency => self.resolve_stats.isis_resolved += 1,
            MessageFamily::PhysicalMedia => self.resolve_stats.physical_resolved += 1,
        }
        let at = m.event.at;
        self.messages.push(ResolvedMessage {
            at,
            link,
            direction,
            family,
            host: self.naming.table.symbols().shared(host),
            detail,
        });
        match family {
            MessageFamily::IsisAdjacency => Some((link, LaneEvent::Dedup { at, direction })),
            MessageFamily::PhysicalMedia => None,
        }
    }

    /// Resolve one listener transition serially; returns the link-routed
    /// form if it resolves to a unique link. Counts every outcome in the
    /// matching [`IsisMergeStats`].
    pub(crate) fn classify_isis(&mut self, t: &Transition) -> Option<(LinkIx, LaneEvent)> {
        match t.kind {
            ReachabilityKind::IsReach => {
                self.is_stats.raw += 1;
                match &t.subject {
                    TransitionSubject::Adjacency { neighbor } => {
                        let links = self.naming.table.by_sysid_pair(t.source, *neighbor);
                        match links.len() {
                            0 => {
                                self.is_stats.unknown += 1;
                                None
                            }
                            1 => Some((
                                links[0],
                                LaneEvent::Is {
                                    at: t.at,
                                    source: t.source,
                                    direction: t.direction,
                                },
                            )),
                            _ => {
                                self.is_stats.unresolvable_multilink += 1;
                                None
                            }
                        }
                    }
                    _ => {
                        self.is_stats.unknown += 1;
                        None
                    }
                }
            }
            ReachabilityKind::IpReach => {
                self.ip_stats.raw += 1;
                match &t.subject {
                    TransitionSubject::Prefix { .. } => {
                        match t
                            .subject
                            .as_subnet()
                            .and_then(|s| self.naming.table.by_subnet(s))
                        {
                            Some(link) => Some((
                                link,
                                LaneEvent::Ip {
                                    at: t.at,
                                    source: t.source,
                                    direction: t.direction,
                                },
                            )),
                            None => {
                                self.ip_stats.unknown += 1;
                                None
                            }
                        }
                    }
                    _ => {
                        self.ip_stats.unknown += 1;
                        None
                    }
                }
            }
        }
    }

    /// Apply one classified event to its lane under the given watermark.
    pub(crate) fn apply_one(&mut self, link: LinkIx, event: LaneEvent, watermark: Timestamp) {
        let link_id = self.naming.link_of_ix.get(&link).copied();
        let resolvable = self.naming.table.is_resolvable(link);
        let ctx = LaneCtx {
            config: &self.config,
            offline: &self.data.offline_spans,
            tickets: &self.data.tickets,
        };
        let lane = self
            .lanes
            .entry(link)
            .or_insert_with(|| LinkLane::new(link, link_id, resolvable));
        let before = lane.open_items();
        lane.apply(&event, &ctx);
        lane.maybe_close_segment(watermark, &ctx);
        let after = lane.open_items();
        self.open_items = self.open_items - before + after;
        self.open_items_hwm = self.open_items_hwm.max(self.open_items);
    }

    /// Apply a micro-batch of classified events from the driver's
    /// [`EventArena`], sharded by link, fanning the per-link state
    /// machines across threads via [`crate::par`]. The arena's grouped
    /// iteration is key-ordered and push-stable, so every lane sees its
    /// events in feed order and closes segments against the same
    /// watermark — the result is identical for every thread count. The
    /// arena is borrowed for grouping only; the caller `clear()`s it for
    /// the next batch, reusing the allocation. Returns the number of
    /// lanes touched.
    pub(crate) fn apply_grouped(
        &mut self,
        grouped: &mut EventArena<LinkIx, LaneEvent>,
        watermark: Timestamp,
    ) -> usize {
        if grouped.is_empty() {
            return 0;
        }
        // A lane plus its borrowed run of `(link, index)` keys, handed
        // to one worker; the Mutex moves the owned lane through
        // `par_map`'s `Fn(&T)` surface. Events themselves stay put in
        // the arena's value array — workers read them by index.
        type LaneTask<'s> = (LinkIx, &'s [(LinkIx, u32)], Mutex<Option<LinkLane>>);
        let mut tasks: Vec<LaneTask<'_>> = Vec::new();
        let (groups, events) = grouped.group();
        for (link, run) in groups {
            let lane = self.lanes.remove(&link).unwrap_or_else(|| {
                LinkLane::new(
                    link,
                    self.naming.link_of_ix.get(&link).copied(),
                    self.naming.table.is_resolvable(link),
                )
            });
            self.open_items -= lane.open_items();
            tasks.push((link, run, Mutex::new(Some(lane))));
        }
        let ctx = LaneCtx {
            config: &self.config,
            offline: &self.data.offline_spans,
            tickets: &self.data.tickets,
        };
        let par_cfg = self.config.parallelism;
        let processed: Vec<(LinkIx, LinkLane)> =
            par::par_map(&tasks, &par_cfg, |(link, run, cell)| {
                let mut lane = cell
                    .lock()
                    .expect("lane cell poisoned")
                    .take()
                    .expect("each lane task is processed exactly once");
                for &(_, ix) in run.iter() {
                    lane.apply(&events[ix as usize], &ctx);
                }
                lane.maybe_close_segment(watermark, &ctx);
                (*link, lane)
            });
        let lanes_touched = processed.len();
        for (link, lane) in processed {
            self.open_items += lane.open_items();
            self.lanes.insert(link, lane);
        }
        self.open_items_hwm = self.open_items_hwm.max(self.open_items);
        lanes_touched
    }

    /// End of data: finalize every lane and assemble the global output —
    /// global stable sorts, reconstruction/sanitization merges, per-link
    /// match indices re-based to global positions. `offered_syslog` is
    /// the driver's headline syslog count (the whole archive, including
    /// quarantined and late events).
    pub(crate) fn collect(self, offered_syslog: u64) -> KernelOutput {
        let Kernel {
            data,
            config,
            naming,
            mut lanes,
            mut messages,
            resolve_stats,
            mut is_stats,
            mut ip_stats,
            ..
        } = self;
        let ctx = LaneCtx {
            config: &config,
            offline: &data.offline_spans,
            tickets: &data.tickets,
        };

        let mut finalized_at_flush = 0u64;
        for lane in lanes.values_mut() {
            finalized_at_flush += (lane.isis_recon.open.is_some() as u64)
                + (lane.isis_recon.pending.is_some() as u64)
                + (lane.syslog_recon.open.is_some() as u64)
                + (lane.syslog_recon.pending.is_some() as u64);
            lane.finish(&ctx);
        }

        // Globally sorted event-level outputs. Feed order is stable time
        // order, so one stable `(time, link)` sort reproduces the batch
        // vectors exactly.
        messages.sort_by_key(|m| (m.at, m.link));
        let mut is_transitions: Vec<LinkTransition> = Vec::new();
        let mut ip_transitions: Vec<LinkTransition> = Vec::new();
        let mut syslog_transitions: Vec<LinkTransition> = Vec::new();
        for lane in lanes.values() {
            is_transitions.extend_from_slice(&lane.is_emitted);
            ip_transitions.extend_from_slice(&lane.ip_emitted);
            syslog_transitions.extend_from_slice(&lane.syslog_emitted);
            is_stats.inconsistent += lane.is_merge.inconsistent;
            is_stats.emitted += lane.is_emitted.len() as u64;
            ip_stats.inconsistent += lane.ip_merge.inconsistent;
            ip_stats.emitted += lane.ip_emitted.len() as u64;
        }
        is_transitions.sort_by_key(|t| (t.at, t.link));
        ip_transitions.sort_by_key(|t| (t.at, t.link));
        syslog_transitions.sort_by_key(|t| (t.at, t.link));

        // Reconstructions: lanes iterate in ascending-link order and each
        // lane's failures are in start order, so the concatenations are
        // already `(link, start)`-sorted; the sorts are no-op safeguards.
        let mut isis_recon = Reconstruction::default();
        let mut syslog_recon = Reconstruction::default();
        let mut isis_sanitize = SanitizeReport::default();
        let mut syslog_sanitize = SanitizeReport::default();
        let mut isis_failures: Vec<Failure> = Vec::new();
        let mut syslog_failures: Vec<Failure> = Vec::new();
        let mut matched: Vec<(usize, usize)> = Vec::new();
        let mut partial: Vec<(usize, usize)> = Vec::new();
        let mut segments_closed = 0u64;
        let mut flap_episodes = 0u64;
        for lane in lanes.values() {
            isis_recon
                .failures
                .extend_from_slice(&lane.isis_recon.failures);
            isis_recon
                .ambiguous
                .extend_from_slice(&lane.isis_recon.ambiguous);
            isis_recon.unterminated += lane.isis_recon.open.is_some() as u32;
            isis_recon.boundary_ups += lane.isis_recon.boundary_ups;
            syslog_recon
                .failures
                .extend_from_slice(&lane.syslog_recon.failures);
            syslog_recon
                .ambiguous
                .extend_from_slice(&lane.syslog_recon.ambiguous);
            syslog_recon.unterminated += lane.syslog_recon.open.is_some() as u32;
            syslog_recon.boundary_ups += lane.syslog_recon.boundary_ups;

            merge_sanitize(&mut isis_sanitize, &lane.isis_sanitize);
            merge_sanitize(&mut syslog_sanitize, &lane.syslog_sanitize);

            let left_base = syslog_failures.len();
            let right_base = isis_failures.len();
            for &(i, j) in &lane.matched {
                matched.push((left_base + i, right_base + j));
            }
            for &(i, j) in &lane.partial {
                partial.push((left_base + i, right_base + j));
            }
            syslog_failures.extend_from_slice(&lane.san_syslog);
            isis_failures.extend_from_slice(&lane.san_isis);
            segments_closed += lane.segments_closed;
            flap_episodes += lane.flap_episodes;
        }
        isis_recon.failures.sort_by_key(|f| (f.link, f.start));
        isis_recon.ambiguous.sort_by_key(|a| (a.link, a.first));
        syslog_recon.failures.sort_by_key(|f| (f.link, f.start));
        syslog_recon.ambiguous.sort_by_key(|a| (a.link, a.first));

        // Matching: pairs are already ascending in the left index (per
        // segment, per lane, in link order); left/right-only are the
        // ascending complements — the matcher's exact output shape.
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

        let reconstructed = (isis_recon.failures.len() + syslog_recon.failures.len()) as u64;
        let survived = (isis_failures.len() + syslog_failures.len()) as u64;
        let counters = PipelineCounters {
            syslog_ingested: offered_syslog,
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

        KernelOutput {
            output: StreamOutput {
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
            },
            config,
            naming,
            segments_closed,
            flap_episodes,
            finalized_at_flush,
        }
    }
}
