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
//! asserts the JSON is byte-identical across chunkings and strategies.
//! The per-stage equivalence argument is narrated in the
//! [`crate::streaming`] module docs.

use crate::analysis::AnalysisConfig;
use crate::arena::EventArena;
use crate::codec::rows;
use crate::intern::FastMap;
use crate::linktable::{LinkIx, Naming};
use crate::matching::{match_failures, FailureMatching};
use crate::observe::PipelineCounters;
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
use std::sync::Arc;

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
/// [`crate::reconstruct::reconstruct`]. Open state only: what it
/// finalizes goes to the caller. Its snapshot row is itself.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub(crate) struct ReconLane {
    pub(crate) open: Option<Timestamp>,
    pub(crate) last_at: Option<Timestamp>,
    pub(crate) last_dir: Option<TransitionDirection>,
    /// Under `AssumeDown` only: the most recently closed failure, still
    /// extendable by a later double-up. `None` under other strategies.
    pub(crate) pending: Option<Failure>,
    pub(crate) boundary_ups: u32,
}

impl ReconLane {
    /// Feed one link-level transition. Returns the failure that became
    /// *final* at this step, if any (at most one per step); an ambiguous
    /// period it finds goes to `ambiguous`.
    pub(crate) fn step(
        &mut self,
        link: LinkIx,
        at: Timestamp,
        direction: TransitionDirection,
        strategy: AmbiguityStrategy,
        ambiguous: &mut Vec<AmbiguousPeriod>,
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
                ambiguous.push(AmbiguousPeriod {
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
                    ambiguous.push(AmbiguousPeriod {
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
        self.pending.take()
    }
}

/// Every record one engine has finalized, append-only: resolved
/// messages, link-level transitions, both reconstructions' failures and
/// ambiguous periods, both sanitized failure lists and the match pairs
/// between them. Each record names its link; the log keeps them in the
/// order they were finalized, and [`Kernel::collect`] sorts. A lane's
/// outbox is one too, drained into the kernel's after every step.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct AnswerLog {
    pub(crate) messages: Vec<ResolvedMessage>,
    pub(crate) is_transitions: Vec<LinkTransition>,
    pub(crate) ip_transitions: Vec<LinkTransition>,
    pub(crate) syslog_transitions: Vec<LinkTransition>,
    pub(crate) isis_failures: Vec<Failure>,
    pub(crate) isis_ambiguous: Vec<AmbiguousPeriod>,
    pub(crate) syslog_failures: Vec<Failure>,
    pub(crate) syslog_ambiguous: Vec<AmbiguousPeriod>,
    /// Sanitized failures, one closed match segment after another.
    pub(crate) san_isis: Vec<Failure>,
    pub(crate) san_syslog: Vec<Failure>,
    /// Match pairs as `(san_syslog, san_isis)` positions in this log.
    pub(crate) matched: Vec<(usize, usize)>,
    pub(crate) partial: Vec<(usize, usize)>,
}

/// Each of an [`AnswerLog`]'s vectors' lengths at one moment, in field
/// order: where [`AnswerLog::since`] cuts.
pub(crate) type LogMark = [usize; 12];

impl AnswerLog {
    /// Move every record of `other` to the end of this log, re-basing
    /// its match pairs onto this log's sanitized lists. `other` is left
    /// empty, its capacity kept for the next records.
    pub(crate) fn append(&mut self, other: &mut AnswerLog) {
        let (left, right) = (self.san_syslog.len(), self.san_isis.len());
        let rebase = |(i, j)| (left + i, right + j);
        self.matched.extend(other.matched.drain(..).map(rebase));
        self.partial.extend(other.partial.drain(..).map(rebase));
        self.messages.append(&mut other.messages);
        self.is_transitions.append(&mut other.is_transitions);
        self.ip_transitions.append(&mut other.ip_transitions);
        self.syslog_transitions
            .append(&mut other.syslog_transitions);
        self.isis_failures.append(&mut other.isis_failures);
        self.isis_ambiguous.append(&mut other.isis_ambiguous);
        self.syslog_failures.append(&mut other.syslog_failures);
        self.syslog_ambiguous.append(&mut other.syslog_ambiguous);
        self.san_isis.append(&mut other.san_isis);
        self.san_syslog.append(&mut other.san_syslog);
    }

    pub(crate) fn mark(&self) -> LogMark {
        [
            self.messages.len(),
            self.is_transitions.len(),
            self.ip_transitions.len(),
            self.syslog_transitions.len(),
            self.isis_failures.len(),
            self.isis_ambiguous.len(),
            self.syslog_failures.len(),
            self.syslog_ambiguous.len(),
            self.san_isis.len(),
            self.san_syslog.len(),
            self.matched.len(),
            self.partial.len(),
        ]
    }

    /// The records appended after `mark`, as a log of their own. A
    /// segment's failures and its pairs are appended together, so every
    /// pair past the mark names failures past it.
    pub(crate) fn since(&self, mark: &LogMark) -> AnswerLog {
        let [messages, is, ip, syslog, isis_f, isis_a, syslog_f, syslog_a, san_isis, san_syslog, matched, partial] =
            *mark;
        let rebase = |pairs: &[(usize, usize)]| {
            pairs
                .iter()
                .map(|&(i, j)| (i - san_syslog, j - san_isis))
                .collect()
        };
        AnswerLog {
            messages: self.messages[messages..].to_vec(),
            is_transitions: self.is_transitions[is..].to_vec(),
            ip_transitions: self.ip_transitions[ip..].to_vec(),
            syslog_transitions: self.syslog_transitions[syslog..].to_vec(),
            isis_failures: self.isis_failures[isis_f..].to_vec(),
            isis_ambiguous: self.isis_ambiguous[isis_a..].to_vec(),
            syslog_failures: self.syslog_failures[syslog_f..].to_vec(),
            syslog_ambiguous: self.syslog_ambiguous[syslog_a..].to_vec(),
            san_isis: self.san_isis[san_isis..].to_vec(),
            san_syslog: self.san_syslog[san_syslog..].to_vec(),
            matched: rebase(&self.matched[matched..]),
            partial: rebase(&self.partial[partial..]),
        }
    }
}

/// All open state of one link — what could still change. This is *the*
/// pipeline state machine: both drivers route every event through a
/// `LinkLane`. What a step finalizes lands in the lane's `outbox`, which
/// the [`Kernel`] drains into its [`AnswerLog`], so between steps no
/// field holds a finalized record.
pub(crate) struct LinkLane {
    pub(crate) link: LinkIx,
    pub(crate) link_id: Option<LinkId>,
    pub(crate) resolvable: bool,
    /// Syslog both-end-confirmation dedup anchor.
    pub(crate) dedup: DedupState,
    pub(crate) is_merge: MergeState,
    pub(crate) ip_merge: MergeState,
    pub(crate) isis_recon: ReconLane,
    pub(crate) syslog_recon: ReconLane,
    pub(crate) isis_sanitize: SanitizeReport,
    pub(crate) syslog_sanitize: SanitizeReport,
    /// The current match segment: sanitized failures awaiting a close.
    pub(crate) seg_isis: Vec<Failure>,
    pub(crate) seg_syslog: Vec<Failure>,
    /// Max `end` among the segment's buffered failures.
    pub(crate) seg_max_end: Option<Timestamp>,
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
    /// Records finalized since the kernel last drained this lane.
    pub(crate) outbox: AnswerLog,
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
            isis_recon: ReconLane::default(),
            syslog_recon: ReconLane::default(),
            isis_sanitize: SanitizeReport::default(),
            syslog_sanitize: SanitizeReport::default(),
            seg_isis: Vec::new(),
            seg_syslog: Vec::new(),
            seg_max_end: None,
            segments_closed: 0,
            flap_last_end: None,
            flap_run: 0,
            flap_episodes: 0,
            dirty: true,
            outbox: AnswerLog::default(),
        }
    }

    /// Items that could still change or are awaiting a segment close —
    /// the "open state" the streaming counters track.
    pub(crate) fn open_items(&self) -> u64 {
        (self.isis_recon.open.is_some() as u64)
            + (self.isis_recon.pending.is_some() as u64)
            + (self.syslog_recon.open.is_some() as u64)
            + (self.syslog_recon.pending.is_some() as u64)
            + (self.seg_isis.len() + self.seg_syslog.len()) as u64
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
                    self.outbox.is_transitions.push(LinkTransition {
                        at,
                        link: self.link,
                        direction,
                    });
                    let finalized = self.isis_recon.step(
                        self.link,
                        at,
                        direction,
                        ctx.config.strategy,
                        &mut self.outbox.isis_ambiguous,
                    );
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
                    self.outbox.ip_transitions.push(LinkTransition {
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
        self.outbox.syslog_transitions.push(LinkTransition {
            at,
            link: self.link,
            direction,
        });
        let finalized = self.syslog_recon.step(
            self.link,
            at,
            direction,
            ctx.config.strategy,
            &mut self.outbox.syslog_ambiguous,
        );
        if let Some(f) = finalized {
            self.sanitize_syslog(f, ctx);
        }
    }

    /// Record one finalized IS-IS failure, sanitize it (offline spans,
    /// then the multi-link filter) and buffer survivors for matching.
    fn sanitize_isis(&mut self, f: Failure, ctx: &LaneCtx<'_>) {
        self.outbox.isis_failures.push(f);
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
        self.seg_isis.push(f);
    }

    /// Record one finalized syslog failure and sanitize it (offline
    /// spans, long-failure ticket verification, then the multi-link
    /// filter).
    fn sanitize_syslog(&mut self, f: Failure, ctx: &LaneCtx<'_>) {
        self.outbox.syslog_failures.push(f);
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
        self.seg_syslog.push(f);
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

    /// Run the matcher over the segment's buffered failures and move
    /// them, with their pairs, to the outbox.
    fn close_segment(&mut self, window: Duration) {
        if !self.seg_syslog.is_empty() || !self.seg_isis.is_empty() {
            let m = match_failures(&self.seg_syslog, &self.seg_isis, window);
            let out = &mut self.outbox;
            let (left, right) = (out.san_syslog.len(), out.san_isis.len());
            let rebase = |&(i, j): &(usize, usize)| (left + i, right + j);
            out.matched.extend(m.matched.iter().map(rebase));
            out.partial.extend(m.partial.iter().map(rebase));
            out.san_syslog.append(&mut self.seg_syslog);
            out.san_isis.append(&mut self.seg_isis);
            self.segments_closed += 1;
        }
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
    ReconLane { open, last_at, last_dir, pending, boundary_ups }
    LaneSnapshot {
        link,
        link_id,
        resolvable,
        dedup_last,
        is_merge,
        ip_merge,
        isis_recon,
        syslog_recon,
        isis_sanitize,
        syslog_sanitize,
        seg_isis,
        seg_syslog,
        seg_max_end,
        segments_closed,
        flap_last_end,
        flap_run,
        flap_episodes,
    }
    AnswerLog {
        messages,
        is_transitions,
        ip_transitions,
        syslog_transitions,
        isis_failures,
        isis_ambiguous,
        syslog_failures,
        syslog_ambiguous,
        san_isis,
        san_syslog,
        matched,
        partial,
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

/// Serializable image of one [`LinkLane`]'s open state (field-for-field;
/// the merge maps go through [`MergeSnapshot`] for deterministic bytes).
/// Its snapshot row is its fields in declaration order, so reordering
/// them is a checkpoint-format change.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct LaneSnapshot {
    pub(crate) link: LinkIx,
    link_id: Option<LinkId>,
    resolvable: bool,
    dedup_last: Option<(Timestamp, TransitionDirection)>,
    is_merge: MergeSnapshot,
    ip_merge: MergeSnapshot,
    isis_recon: ReconLane,
    syslog_recon: ReconLane,
    isis_sanitize: SanitizeReport,
    syslog_sanitize: SanitizeReport,
    seg_isis: Vec<Failure>,
    seg_syslog: Vec<Failure>,
    seg_max_end: Option<Timestamp>,
    segments_closed: u64,
    flap_last_end: Option<Timestamp>,
    flap_run: u32,
    flap_episodes: u64,
}

impl LinkLane {
    /// The lane's open state. Its outbox is empty between steps — the
    /// kernel drains it — so nothing finalized is left out.
    pub(crate) fn snapshot(&self) -> LaneSnapshot {
        LaneSnapshot {
            link: self.link,
            link_id: self.link_id,
            resolvable: self.resolvable,
            dedup_last: self.dedup.last,
            is_merge: self.is_merge.snapshot(),
            ip_merge: self.ip_merge.snapshot(),
            isis_recon: self.isis_recon,
            syslog_recon: self.syslog_recon,
            isis_sanitize: self.isis_sanitize,
            syslog_sanitize: self.syslog_sanitize,
            seg_isis: self.seg_isis.clone(),
            seg_syslog: self.seg_syslog.clone(),
            seg_max_end: self.seg_max_end,
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
            isis_recon: s.isis_recon,
            syslog_recon: s.syslog_recon,
            isis_sanitize: s.isis_sanitize,
            syslog_sanitize: s.syslog_sanitize,
            seg_isis: s.seg_isis,
            seg_syslog: s.seg_syslog,
            seg_max_end: s.seg_max_end,
            segments_closed: s.segments_closed,
            flap_last_end: s.flap_last_end,
            flap_run: s.flap_run,
            flap_episodes: s.flap_episodes,
            dirty: false,
            outbox: AnswerLog::default(),
        }
    }
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
/// [`LinkLane`], the [`AnswerLog`] of everything finalized, and the
/// serial classification state (resolution and merge counters). Drivers
/// feed it classified events and call [`Kernel::collect`] once at end of
/// data.
pub(crate) struct Kernel<'a> {
    /// The scenario's static side inputs (offline spans, tickets,
    /// topology) — the one input genuinely available up front.
    pub(crate) data: &'a ScenarioData,
    pub(crate) config: AnalysisConfig,
    /// The link table and its topology join, shared with every other
    /// kernel the run started in this process.
    pub(crate) naming: Arc<Naming>,
    pub(crate) lanes: BTreeMap<LinkIx, LinkLane>,
    /// Every finalized record, resolved messages in feed order.
    pub(crate) log: AnswerLog,
    pub(crate) resolve_stats: SyslogResolveStats,
    /// Serial halves of the merge counters (raw/unknown/multilink); the
    /// stateful halves (inconsistent/emitted) come from the lanes and
    /// the log.
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
            log: AnswerLog::default(),
            resolve_stats: SyslogResolveStats::default(),
            is_stats: IsisMergeStats::default(),
            ip_stats: IsisMergeStats::default(),
            open_items: 0,
            open_items_hwm: 0,
        }
    }

    /// Resolve one syslog message serially; returns the link-routed form
    /// if it survives resolution. Counts every outcome in
    /// [`SyslogResolveStats`] and logs resolved messages.
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
        self.log.messages.push(ResolvedMessage {
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
        self.step_lane(link, std::slice::from_ref(&event), watermark);
        self.open_items_hwm = self.open_items_hwm.max(self.open_items);
    }

    /// Apply a micro-batch of classified events from the driver's
    /// [`EventArena`], one lane at a time on the calling thread. The
    /// arena's grouped iteration is key-ordered and push-stable, so
    /// every lane sees its events in feed order, closes segments against
    /// the same watermark, and drains into the log in link order. The
    /// arena is borrowed for grouping only; the caller `clear()`s it for
    /// the next batch, reusing the allocation. Returns the number of
    /// lanes touched.
    pub(crate) fn apply_grouped(
        &mut self,
        grouped: &mut EventArena<LinkIx, LaneEvent>,
        watermark: Timestamp,
    ) -> usize {
        let (groups, events) = grouped.group();
        let mut lanes_touched = 0;
        for (link, run) in groups {
            let run = run.iter().map(|&(_, ix)| &events[ix as usize]);
            self.step_lane(link, run, watermark);
            lanes_touched += 1;
        }
        self.open_items_hwm = self.open_items_hwm.max(self.open_items);
        lanes_touched
    }

    /// The one per-lane step: apply `events` to `link`'s lane in place
    /// (creating it on first touch), close its segment against
    /// `watermark`, drain its outbox into the log and re-count the
    /// engine's open items. The high-water mark is the caller's, taken
    /// once per event or batch.
    fn step_lane<'e>(
        &mut self,
        link: LinkIx,
        events: impl IntoIterator<Item = &'e LaneEvent>,
        watermark: Timestamp,
    ) {
        let ctx = LaneCtx {
            config: &self.config,
            offline: &self.data.offline_spans,
            tickets: &self.data.tickets,
        };
        let naming = &self.naming;
        let lane = self.lanes.entry(link).or_insert_with(|| {
            LinkLane::new(
                link,
                naming.link_of_ix.get(&link).copied(),
                naming.table.is_resolvable(link),
            )
        });
        let before = lane.open_items();
        for event in events {
            lane.apply(event, &ctx);
        }
        lane.maybe_close_segment(watermark, &ctx);
        self.log.append(&mut lane.outbox);
        self.open_items = self.open_items - before + lane.open_items();
    }

    /// End of data: finalize every lane and assemble the global output
    /// from the log — global stable sorts, lane counter sums, match pairs
    /// re-based through the sanitized lists' sort. `offered_syslog` is
    /// the driver's headline syslog count (the whole archive, including
    /// quarantined and late events).
    pub(crate) fn collect(self, offered_syslog: u64) -> KernelOutput {
        let Kernel {
            data,
            config,
            naming,
            mut lanes,
            mut log,
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

        let mut isis_recon = Reconstruction::default();
        let mut syslog_recon = Reconstruction::default();
        let mut isis_sanitize = SanitizeReport::default();
        let mut syslog_sanitize = SanitizeReport::default();
        let mut finalized_at_flush = 0u64;
        let mut segments_closed = 0u64;
        let mut flap_episodes = 0u64;
        for lane in lanes.values_mut() {
            finalized_at_flush += (lane.isis_recon.open.is_some() as u64)
                + (lane.isis_recon.pending.is_some() as u64)
                + (lane.syslog_recon.open.is_some() as u64)
                + (lane.syslog_recon.pending.is_some() as u64);
            lane.finish(&ctx);
            log.append(&mut lane.outbox);
            isis_recon.unterminated += lane.isis_recon.open.is_some() as u32;
            isis_recon.boundary_ups += lane.isis_recon.boundary_ups;
            syslog_recon.unterminated += lane.syslog_recon.open.is_some() as u32;
            syslog_recon.boundary_ups += lane.syslog_recon.boundary_ups;
            isis_sanitize.add(&lane.isis_sanitize);
            syslog_sanitize.add(&lane.syslog_sanitize);
            is_stats.inconsistent += lane.is_merge.inconsistent;
            ip_stats.inconsistent += lane.ip_merge.inconsistent;
            segments_closed += lane.segments_closed;
            flap_episodes += lane.flap_episodes;
        }
        let AnswerLog {
            mut messages,
            mut is_transitions,
            mut ip_transitions,
            mut syslog_transitions,
            isis_failures: isis_finalized,
            isis_ambiguous,
            syslog_failures: syslog_finalized,
            syslog_ambiguous,
            san_isis,
            san_syslog,
            matched,
            partial,
        } = log;
        is_stats.emitted += is_transitions.len() as u64;
        ip_stats.emitted += ip_transitions.len() as u64;

        // Each lane appends its records in its own order, so one stable
        // sort per vector on the batch keys reproduces the batch vectors
        // exactly: ties on a key only ever come from one lane.
        messages.sort_by_key(|m| (m.at, m.link));
        for transitions in [
            &mut is_transitions,
            &mut ip_transitions,
            &mut syslog_transitions,
        ] {
            transitions.sort_by_key(|t| (t.at, t.link));
        }
        isis_recon.failures = isis_finalized;
        isis_recon.ambiguous = isis_ambiguous;
        syslog_recon.failures = syslog_finalized;
        syslog_recon.ambiguous = syslog_ambiguous;
        for recon in [&mut isis_recon, &mut syslog_recon] {
            recon.failures.sort_by_key(|f| (f.link, f.start));
            recon.ambiguous.sort_by_key(|a| (a.link, a.first));
        }

        // Sanitized lists: a stable sort by link is the per-lane
        // concatenation (= `(link, start)` order); the pairs follow their
        // failures through it.
        let (syslog_failures, left) = sort_by_link(san_syslog);
        let (isis_failures, right) = sort_by_link(san_isis);
        let remap = |pairs: Vec<(usize, usize)>| -> Vec<(usize, usize)> {
            pairs
                .into_iter()
                .map(|(i, j)| (left[i], right[j]))
                .collect()
        };
        let matching = FailureMatching::from_pairs(
            remap(matched),
            remap(partial),
            syslog_failures.len(),
            isis_failures.len(),
        );

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
        output.counters = output.tally(offered_syslog);
        KernelOutput {
            output,
            config,
            naming,
            segments_closed,
            flap_episodes,
            finalized_at_flush,
        }
    }
}

/// Stable-sort failures by link, returning them with each original
/// position's new one.
fn sort_by_link(failures: Vec<Failure>) -> (Vec<Failure>, Vec<usize>) {
    let mut order: Vec<usize> = (0..failures.len()).collect();
    order.sort_by_key(|&i| failures[i].link);
    let mut moved_to = vec![0; order.len()];
    for (new, &old) in order.iter().enumerate() {
        moved_to[old] = new;
    }
    (order.into_iter().map(|i| failures[i]).collect(), moved_to)
}

impl StreamOutput {
    /// The headline counters of this output, counted from its own
    /// vectors; `syslog_ingested` is the offered syslog count, which the
    /// output does not hold.
    pub(crate) fn tally(&self, syslog_ingested: u64) -> PipelineCounters {
        let reconstructed =
            (self.isis_recon.failures.len() + self.syslog_recon.failures.len()) as u64;
        let survived = (self.isis_failures.len() + self.syslog_failures.len()) as u64;
        PipelineCounters {
            syslog_ingested,
            isis_ingested: self.is_stats.raw + self.ip_stats.raw,
            transitions_derived: (self.is_transitions.len()
                + self.ip_transitions.len()
                + self.syslog_transitions.len()) as u64,
            failures_reconstructed: reconstructed,
            failures_after_sanitize: survived,
            sanitize_dropped: reconstructed - survived,
            failures_matched: self.matching.matched.len() as u64,
            ambiguous_periods: (self.isis_recon.ambiguous.len() + self.syslog_recon.ambiguous.len())
                as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::{scenario_event_stream, StreamEvent};
    use faultline_sim::scenario::{run, ScenarioParams};

    /// Feed a fresh kernel the first `share` of a tiny scenario's stream,
    /// one event at a time, and return each lane's encoded snapshot row
    /// size. Every lane's outbox must be drained after every step.
    fn lane_bytes(seed: u64, share: f64) -> BTreeMap<LinkIx, usize> {
        let data = run(&ScenarioParams::tiny(seed));
        let events = scenario_event_stream(&data);
        let naming = Arc::new(Naming::mine(&data));
        let mut kernel = Kernel::new(&data, AnalysisConfig::default(), naming);
        for event in &events[..(events.len() as f64 * share) as usize] {
            let routed = match event {
                StreamEvent::Syslog(m) => kernel.classify_syslog(m),
                StreamEvent::Isis(t) => kernel.classify_isis(t),
            };
            if let Some((link, lane_event)) = routed {
                kernel.apply_one(link, lane_event, event.at());
                assert_eq!(kernel.lanes[&link].outbox.mark(), [0; 12]);
            }
        }
        let mut bytes = BTreeMap::new();
        for (&link, lane) in &kernel.lanes {
            let mut row = Vec::new();
            crate::codec::encode_payload(&lane.snapshot(), &mut row);
            bytes.insert(link, row.len());
        }
        bytes
    }

    /// A lane is open state only, so what it costs to snapshot does not
    /// grow with how much of the stream it has seen: over the lanes that
    /// exist at 30% of the stream, pooled across eight tiny scenarios,
    /// the mean bytes per lane at 90% stay within 1.5x of the mean at
    /// 30%. (One scenario alone can sit in a flap storm whose match
    /// segment is still open at the cut.)
    #[test]
    fn open_state_is_flat_in_stream_position() {
        let (mut early, mut late) = (0, 0);
        for seed in 1..=8 {
            let at_90 = lane_bytes(seed, 0.9);
            for (link, bytes) in lane_bytes(seed, 0.3) {
                early += bytes;
                late += at_90[&link];
            }
        }
        assert!(
            late as f64 <= 1.5 * early as f64,
            "the lanes open at 30% of the stream encode to {late} bytes at 90%, against {early}"
        );
    }
}
