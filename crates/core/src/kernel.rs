//! The shared per-link analysis kernel.
//!
//! Every semantic stage of the paper's pipeline — syslog resolution,
//! both-ends merge, dedup, DOWN→UP reconstruction, sanitization, flap
//! tracking, segment close, and failure matching — lives here, once, as
//! a set of per-link state machines wrapped by `Kernel`. Its one driver
//! is [`crate::streaming::StreamAnalysis`]: the watermark, admission and
//! checkpoint shell — late-event rejection, quarantine, micro-batching,
//! serializable snapshots — that hands the kernel one event or
//! micro-batch at a time. [`crate::analysis::Analysis::run`] feeds that
//! driver a whole archive in 256-event batches.
//!
//! ```text
//!   Analysis::run ─┐  StreamAnalysis    kernel
//!   (an archive in ├─► (watermark,   ─► classify ─► LinkLane lanes ─► collect
//!    256-event     │    admission,      (resolve)   dedup · merge     → StreamOutput
//!    batches)      │    checkpoints)                recon · sanitize
//!   live events ───┘                                flap · segments
//! ```
//!
//! Every chunking of a stream produces the same [`StreamOutput`];
//! `tests/stream_equivalence.rs` asserts the JSON is byte-identical
//! across chunkings and strategies. The per-stage equivalence argument
//! is narrated in the [`crate::streaming`] module docs.

use crate::analysis::AnalysisConfig;
use crate::arena::EventArena;
use crate::codec::rows;
use crate::linktable::{LinkIx, LinkTable, Naming};
use crate::matching::{match_link, FailureMatching};
use crate::observe::PipelineCounters;
use crate::reconstruct::{AmbiguityStrategy, AmbiguousPeriod, Failure, Reconstruction};
use crate::sanitize::{SanitizeReport, TICKET_SLACK};
use crate::transitions::{
    IsisMergeStats, LinkTransition, MessageFamily, ResolvedMessage, SyslogResolveStats,
};
use faultline_isis::listener::{
    OfflineSpan, ReachabilityKind, Transition, TransitionDirection, TransitionSubject,
};
use faultline_sim::tickets::TicketLog;
use faultline_sim::ScenarioData;
use faultline_syslog::message::{LinkEventKind, SyslogMessage};
use faultline_topology::osi::SystemId;
use faultline_topology::time::{Duration, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Everything the pipeline derives from the observables — the complete
/// comparable surface of a run, produced identically by every chunking.
/// Two runs are equivalent iff their `StreamOutput`s serialize
/// identically; the differential harness compares the JSON byte-for-byte.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneEvent {
    /// Message-text time of a syslog message, listener receive time of a
    /// transition.
    pub at: Timestamp,
    /// Up or down; (re-)advertised or withdrawn.
    pub direction: TransitionDirection,
    /// For a listener transition, which reachability changed and the
    /// endpoint whose LSP changed: IS reachability takes both-ends merge
    /// and reconstruction, IP reachability the merge only. `None` for an
    /// IS-IS-adjacency-family syslog message (dedup + reconstruction).
    pub reach: Option<(ReachabilityKind, SystemId)>,
}

/// One lane row: a classified event and the link whose lane applies it —
/// all a cluster shard is sent of the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneRow {
    /// The link whose lane applies the event.
    pub link: LinkIx,
    /// The event, as that lane's state machines take it.
    pub event: LaneEvent,
}

/// One observable, borrowed, as [`classify`] reads it from a scenario's
/// archives or a [`crate::streaming::StreamEvent`].
#[derive(Clone, Copy)]
pub(crate) enum Observed<'e> {
    Syslog(&'e SyslogMessage),
    Isis(&'e Transition),
}

impl Observed<'_> {
    /// Message-text time of a syslog message, listener receive time of a
    /// transition.
    pub(crate) fn at(&self) -> Timestamp {
        match self {
            Observed::Syslog(m) => m.event.at,
            Observed::Isis(t) => t.at,
        }
    }
}

/// Which resolution counter [`Kernel::route`] bumps for one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// A syslog message resolved to a link, in this family.
    Resolved(MessageFamily),
    /// A `%LINEPROTO` message: counted, never resolved.
    LineprotoSkipped,
    /// A syslog message whose `(host, interface)` no mined config names.
    Unresolved,
    /// A listener transition of this kind resolved to one link.
    Routed(ReachabilityKind),
    /// A listener transition of this kind naming no known pair or prefix.
    Unknown(ReachabilityKind),
    /// An IS-reachability transition between multi-link routers.
    Multilink,
}

/// What [`classify`] made of one event: its lane row and its resolved
/// message, where it has them, and the counter it bumps.
pub(crate) struct Classified {
    pub(crate) row: Option<LaneRow>,
    pub(crate) message: Option<ResolvedMessage>,
    pub(crate) outcome: Outcome,
}

/// The naming rules (§3.4), once: syslog resolves by `(host, interface)`,
/// IS reachability by system-ID pair (a multi-link pair names no link),
/// IP reachability by /31 subnet. Pure; every driver, a cluster's
/// dispatcher included, learns where an event goes from this alone.
pub(crate) fn classify(table: &LinkTable, event: Observed<'_>) -> Classified {
    let unrouted = |outcome| Classified {
        row: None,
        message: None,
        outcome,
    };
    match event {
        Observed::Syslog(m) => {
            let (family, detail) = match &m.event.kind {
                LinkEventKind::IsisAdjacency { detail, .. } => {
                    (MessageFamily::IsisAdjacency, Some(*detail))
                }
                LinkEventKind::Link => (MessageFamily::PhysicalMedia, None),
                LinkEventKind::LineProtocol => return unrouted(Outcome::LineprotoSkipped),
            };
            let Some((link, host)) = table.by_interface_sym(&m.event.host, &m.event.interface)
            else {
                return unrouted(Outcome::Unresolved);
            };
            let at = m.event.at;
            let direction = if m.event.up {
                TransitionDirection::Up
            } else {
                TransitionDirection::Down
            };
            let event = LaneEvent {
                at,
                direction,
                reach: None,
            };
            Classified {
                row: (family == MessageFamily::IsisAdjacency).then_some(LaneRow { link, event }),
                message: Some(ResolvedMessage {
                    at,
                    link,
                    direction,
                    family,
                    host: table.symbols().shared(host),
                    detail,
                }),
                outcome: Outcome::Resolved(family),
            }
        }
        Observed::Isis(t) => {
            let link = match (t.kind, &t.subject) {
                (ReachabilityKind::IsReach, TransitionSubject::Adjacency { neighbor }) => {
                    match table.by_sysid_pair(t.source, *neighbor) {
                        [link] => *link,
                        [] => return unrouted(Outcome::Unknown(t.kind)),
                        _ => return unrouted(Outcome::Multilink),
                    }
                }
                (ReachabilityKind::IpReach, TransitionSubject::Prefix { .. }) => {
                    match t.subject.as_subnet().and_then(|s| table.by_subnet(s)) {
                        Some(link) => link,
                        None => return unrouted(Outcome::Unknown(t.kind)),
                    }
                }
                (kind, _) => return unrouted(Outcome::Unknown(kind)),
            };
            let event = LaneEvent {
                at: t.at,
                direction: t.direction,
                reach: Some((t.kind, t.source)),
            };
            Classified {
                row: Some(LaneRow { link, event }),
                message: None,
                outcome: Outcome::Routed(t.kind),
            }
        }
    }
}

/// Side inputs shared by every lane (immutable during a run).
pub(crate) struct LaneCtx<'a> {
    pub(crate) config: &'a AnalysisConfig,
    pub(crate) offline: &'a [OfflineSpan],
    pub(crate) tickets: &'a TicketLog,
    /// A lane's link's topology id and multi-link status.
    pub(crate) naming: &'a Naming,
}

/// The both-ends confirmation window (§3.4): the paper's 10 s, within
/// which the far end's message for the same transition arrives.
pub const DEDUP_WINDOW: Duration = Duration::from_secs(10);

/// Both-end-confirmation dedup state for one link (§3.4): a message with
/// the same direction as the previously *kept* message, within
/// [`DEDUP_WINDOW`], is a confirmation from the other end, not a new
/// transition.
/// Each [`LinkLane`] keeps one for its IS-IS-adjacency-family syslog
/// messages.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub(crate) struct DedupState {
    /// Last kept transition (the dedup anchor).
    pub(crate) last: Option<(Timestamp, TransitionDirection)>,
}

impl DedupState {
    /// Feed one message; returns whether it survives as a new transition.
    /// Confirmations refresh the anchor so chains of confirmations keep
    /// merging.
    pub(crate) fn keep(&mut self, at: Timestamp, direction: TransitionDirection) -> bool {
        if let Some((last_at, last_dir)) = self.last {
            if last_dir == direction && at.abs_diff(last_at) <= DEDUP_WINDOW {
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
/// once both ends re-advertise.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct MergeState {
    /// Whether each origin seen so far advertises the link, sorted by
    /// origin, so a state has one encoding. Its withdrawn origins are
    /// the merge's down count, read where a step needs it.
    pub(crate) advertised: Vec<(SystemId, bool)>,
    pub(crate) inconsistent: u64,
}

impl MergeState {
    /// Feed one per-origin event; returns whether it emits a link-level
    /// transition.
    pub(crate) fn step(&mut self, source: SystemId, direction: TransitionDirection) -> bool {
        let at = match self.advertised.binary_search_by_key(&source, |&(id, _)| id) {
            Ok(at) => at,
            Err(at) => {
                self.advertised.insert(at, (source, true));
                at
            }
        };
        let up = direction == TransitionDirection::Up;
        if self.advertised[at].1 == up {
            self.inconsistent += 1;
            return false;
        }
        self.advertised[at].1 = up;
        // A DOWN fires when it is the one withdrawal, an UP when none is
        // left.
        let withdrawn = self.advertised.iter().filter(|&&(_, adv)| !adv).count();
        withdrawn == usize::from(!up)
    }
}

/// Incremental DOWN→UP reconstruction state for one link and one source.
/// Shared by [`LinkLane`] and the standalone
/// [`crate::reconstruct::reconstruct`]. Open state only: what it
/// finalizes goes to the caller. Its snapshot row is itself.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub(crate) struct ReconLane {
    pub(crate) open: Option<Timestamp>,
    /// The last message, as [`DedupState`] keeps its anchor: its time
    /// and direction are set together or not at all.
    pub(crate) last: Option<(Timestamp, TransitionDirection)>,
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
                // every step records `last` — a restore rejects a lane
                // that breaks it ([`ReconLane::reachable`]).
                let (first, _) = self.last.expect("open failure implies a prior message");
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
            (Up, None) => match self.last {
                Some((first, Up)) => {
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
        self.last = Some((at, direction));
        finalized
    }

    /// Open and pending failures: the items only a later message or the
    /// end of the stream finalizes.
    pub(crate) fn held(&self) -> u64 {
        u64::from(self.open.is_some()) + u64::from(self.pending.is_some())
    }

    /// Whether some run leaves this state by `watermark`: a failure opens
    /// at a DOWN, and nothing held lies past the last message.
    pub(crate) fn reachable(&self, watermark: Option<Timestamp>) -> bool {
        let Some((at, direction)) = self.last else {
            return self.held() == 0;
        };
        watermark.is_some_and(|w| at <= w)
            && (self.open).is_none_or(|open| direction == TransitionDirection::Down && open <= at)
            && (self.pending).is_none_or(|f| f.start <= f.end && f.end <= at)
    }

    /// Whether this machine's state forbids closing the current match
    /// segment: an open or pending failure could still change, and under
    /// `AssumeDown` a trailing UP could yet spawn a failure reaching back
    /// to the last message.
    pub(crate) fn blocks_segment_close(&self, strategy: AmbiguityStrategy) -> bool {
        self.held() > 0
            || (strategy == AmbiguityStrategy::AssumeDown
                && self.last.is_some_and(|(_, d)| d == TransitionDirection::Up))
    }
}

/// Every record one engine has finalized, append-only: resolved
/// messages, link-level transitions, both reconstructions' failures and
/// ambiguous periods, both sanitized failure lists and the match pairs
/// between them. Each record names its link; the log keeps them in the
/// order they were finalized, and [`StreamOutput::assemble`] sorts. A
/// lane's outbox is one too, drained into the kernel's after every
/// step; a finished answer is one again when several are merged, their
/// logs concatenated in index order and sorted once.
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

impl From<StreamOutput> for AnswerLog {
    /// An answer's records as a log; its match pairs are already
    /// positions in its sanitized lists.
    fn from(out: StreamOutput) -> AnswerLog {
        AnswerLog {
            messages: out.messages,
            is_transitions: out.is_transitions,
            ip_transitions: out.ip_transitions,
            syslog_transitions: out.syslog_transitions,
            isis_failures: out.isis_recon.failures,
            isis_ambiguous: out.isis_recon.ambiguous,
            syslog_failures: out.syslog_recon.failures,
            syslog_ambiguous: out.syslog_recon.ambiguous,
            san_isis: out.isis_failures,
            san_syslog: out.syslog_failures,
            matched: out.matching.matched,
            partial: out.matching.partial,
        }
    }
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
/// pipeline state machine: every event with a link goes through a
/// `LinkLane`. What a step finalizes lands in the lane's `outbox`, which
/// the [`Kernel`] drains into its [`AnswerLog`], so between steps no
/// field holds a finalized record. Its snapshot row is its fields in
/// declaration order up to `flap_episodes`, so reordering them is a
/// checkpoint-format change; the rest are runtime-only, decode as their
/// defaults, and [`Kernel::rebuild`] derives `seg_max_end` again.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct LinkLane {
    pub(crate) link: LinkIx,
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
    pub(crate) segments_closed: u64,
    /// Flap-run tracking over sanitized IS-IS failures (monitoring only).
    pub(crate) flap_last_end: Option<Timestamp>,
    pub(crate) flap_run: u32,
    pub(crate) flap_episodes: u64,
    /// Max `end` among the segment's buffered failures, kept so the
    /// per-step close check is O(1). Runtime-only.
    #[serde(skip)]
    pub(crate) seg_max_end: Option<Timestamp>,
    /// Touched since the durability layer's last snapshot mark. Every
    /// mutation flows through [`LinkLane::apply`], so setting the flag
    /// there (and on construction) is exhaustive; the streaming driver's
    /// `mark_clean` resets it after each checkpoint capture.
    /// Runtime-only.
    #[serde(skip)]
    pub(crate) dirty: bool,
    /// Records finalized since the kernel last drained this lane;
    /// runtime-only, and empty between steps.
    #[serde(skip)]
    pub(crate) outbox: AnswerLog,
}

impl LinkLane {
    pub(crate) fn new(link: LinkIx) -> LinkLane {
        LinkLane {
            link,
            dedup: DedupState::default(),
            is_merge: MergeState::default(),
            ip_merge: MergeState::default(),
            isis_recon: ReconLane::default(),
            syslog_recon: ReconLane::default(),
            isis_sanitize: SanitizeReport::default(),
            syslog_sanitize: SanitizeReport::default(),
            seg_isis: Vec::new(),
            seg_syslog: Vec::new(),
            segments_closed: 0,
            flap_last_end: None,
            flap_run: 0,
            flap_episodes: 0,
            seg_max_end: None,
            dirty: true,
            outbox: AnswerLog::default(),
        }
    }

    /// Items that could still change or are awaiting a segment close —
    /// the "open state" the streaming counters track.
    pub(crate) fn open_items(&self) -> u64 {
        self.isis_recon.held()
            + self.syslog_recon.held()
            + (self.seg_isis.len() + self.seg_syslog.len()) as u64
    }

    /// Whether some run leaves this lane by `watermark`.
    pub(crate) fn reachable(&self, watermark: Option<Timestamp>) -> bool {
        let ordered = |fs: &[Failure]| fs.iter().all(|f| f.start <= f.end);
        self.isis_recon.reachable(watermark)
            && self.syslog_recon.reachable(watermark)
            && ordered(&self.seg_isis)
            && ordered(&self.seg_syslog)
    }

    pub(crate) fn apply(&mut self, event: &LaneEvent, ctx: &LaneCtx<'_>) {
        self.dirty = true;
        let LaneEvent {
            at,
            direction,
            reach,
        } = *event;
        match reach {
            None => self.apply_dedup(at, direction, ctx),
            Some((ReachabilityKind::IsReach, source)) => {
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
            Some((ReachabilityKind::IpReach, source)) => {
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
        if !self.dedup.keep(at, direction) {
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
        if !ctx.naming.table.is_resolvable(self.link) {
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
            let verified = ctx.naming.link_of_ix[self.link.0 as usize]
                .is_some_and(|lid| ctx.tickets.verifies(lid, f.start, f.end, TICKET_SLACK));
            if !verified {
                self.syslog_sanitize.long_removed += 1;
                self.syslog_sanitize.long_removed_ms += f.duration().as_millis();
                return;
            }
        }
        if !ctx.naming.table.is_resolvable(self.link) {
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
    pub(crate) fn maybe_close_segment(
        &mut self,
        watermark: Timestamp,
        ctx: &LaneCtx<'_>,
        used: &mut Vec<bool>,
    ) {
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
            self.close_segment(ctx.config.match_window, used);
        }
    }

    /// Match the segment's buffered failures, one link's two lists, and
    /// move them, with their pairs, to the outbox. `used` is the
    /// kernel's matcher scratch.
    fn close_segment(&mut self, window: Duration, used: &mut Vec<bool>) {
        if !self.seg_syslog.is_empty() || !self.seg_isis.is_empty() {
            let out = &mut self.outbox;
            match_link(
                &self.seg_syslog,
                &self.seg_isis,
                window,
                used,
                (out.san_syslog.len(), out.san_isis.len()),
                &mut out.matched,
                &mut out.partial,
            );
            out.san_syslog.append(&mut self.seg_syslog);
            out.san_isis.append(&mut self.seg_isis);
            self.segments_closed += 1;
        }
        self.seg_max_end = None;
    }

    /// End of stream: finalize pendings, flush the flap run, close the
    /// last segment unconditionally.
    pub(crate) fn finish(&mut self, ctx: &LaneCtx<'_>, used: &mut Vec<bool>) {
        if let Some(f) = self.isis_recon.pending.take() {
            self.sanitize_isis(f, ctx);
        }
        if let Some(f) = self.syslog_recon.pending.take() {
            self.sanitize_syslog(f, ctx);
        }
        if self.flap_run >= 2 {
            self.flap_episodes += 1;
        }
        self.flap_run = 0;
        self.close_segment(ctx.config.match_window, used);
    }
}

/// Does a failure interval overlap any listener offline span (closed
/// intervals)? [`LinkLane`]'s listener-outage sanitization predicate, for
/// both sources.
fn overlaps_offline(f: &Failure, spans: &[OfflineSpan]) -> bool {
    spans.iter().any(|s| f.start <= s.to && s.from <= f.end)
}

// The snapshot payload's rows for this module's state (see
// `crate::codec`'s snapshot layout).
rows! {
    LaneEvent { at, direction, reach }
    LaneRow { link, event }
    DedupState { last }
    MergeState { advertised, inconsistent }
    ReconLane { open, last, pending, boundary_ups }
    LinkLane {
        link,
        dedup,
        is_merge,
        ip_merge,
        isis_recon,
        syslog_recon,
        isis_sanitize,
        syslog_sanitize,
        seg_isis,
        seg_syslog,
        segments_closed,
        flap_last_end,
        flap_run,
        flap_episodes;
        seg_max_end,
        dirty,
        outbox,
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
    RouteStats { raw, unresolvable_multilink, unknown }
    Tallies {
        resolve_stats,
        is_route,
        ip_route,
        events_syslog,
        events_isis,
        batches,
        late_events,
        open_items_hwm,
        quarantined_syslog,
        quarantined_isis,
    }
}

/// What [`Kernel::collect`] hands back to the driver: the comparable
/// surface plus the kernel-side streaming counters.
pub(crate) struct KernelOutput {
    /// The complete derived surface.
    pub(crate) output: StreamOutput,
    /// Match segments closed across all lanes.
    pub(crate) segments_closed: u64,
    /// Flap episodes observed across all lanes.
    pub(crate) flap_episodes: u64,
    /// Open/pending failures that were only finalized by `collect`.
    pub(crate) finalized_at_flush: u64,
}

/// The routing half of one reachability kind's [`IsisMergeStats`]: what
/// classification counts. The merge half (`inconsistent`, `emitted`)
/// belongs to the lanes and the log.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub(crate) struct RouteStats {
    pub(crate) raw: u64,
    pub(crate) unresolvable_multilink: u64,
    pub(crate) unknown: u64,
}

/// The engine's carried counters, one value: a checkpoint and a delta
/// hold a copy and a restore takes it back whole. Wall-clock timings and
/// what the lanes or the log hold are not tallies.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub(crate) struct Tallies {
    pub(crate) resolve_stats: SyslogResolveStats,
    pub(crate) is_route: RouteStats,
    pub(crate) ip_route: RouteStats,
    /// Offered events per source, quarantined and late ones included.
    pub(crate) events_syslog: u64,
    pub(crate) events_isis: u64,
    pub(crate) batches: u64,
    pub(crate) late_events: u64,
    /// The most items the lanes held open at once.
    pub(crate) open_items_hwm: u64,
    pub(crate) quarantined_syslog: u64,
    pub(crate) quarantined_isis: u64,
}

/// The shared pipeline core: the naming layer, every per-link
/// [`LinkLane`], the [`AnswerLog`] of everything finalized, and the
/// carried [`Tallies`]. The streaming engine feeds it classified events
/// and calls [`Kernel::collect`] once at end of data.
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
    pub(crate) tallies: Tallies,
    /// The lanes' open items, summed: kept per step, rebuilt on restore.
    pub(crate) open_items: u64,
    /// The segment matcher's used flags: scratch every lane's segment
    /// close reuses, never encoded.
    pub(crate) used: Vec<bool>,
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
            tallies: Tallies::default(),
            open_items: 0,
            used: Vec::new(),
        }
    }

    /// Classify one event, count its outcome, log its resolved message,
    /// and hand back its lane row, if it has one.
    pub(crate) fn route(&mut self, event: Observed<'_>) -> Option<LaneRow> {
        let c = classify(&self.naming.table, event);
        let t = &mut self.tallies;
        let (resolve, is) = (&mut t.resolve_stats, &mut t.is_route);
        match c.outcome {
            Outcome::Resolved(MessageFamily::IsisAdjacency) => resolve.isis_resolved += 1,
            Outcome::Resolved(MessageFamily::PhysicalMedia) => resolve.physical_resolved += 1,
            Outcome::LineprotoSkipped => resolve.lineproto_skipped += 1,
            Outcome::Unresolved => resolve.unresolved += 1,
            Outcome::Routed(kind) | Outcome::Unknown(kind) => {
                let stats = match kind {
                    ReachabilityKind::IsReach => is,
                    ReachabilityKind::IpReach => &mut t.ip_route,
                };
                stats.raw += 1;
                stats.unknown += u64::from(matches!(c.outcome, Outcome::Unknown(_)));
            }
            Outcome::Multilink => {
                is.raw += 1;
                is.unresolvable_multilink += 1;
            }
        }
        self.log.messages.extend(c.message);
        c.row
    }

    /// Apply one classified event to its lane under the given watermark.
    pub(crate) fn apply_one(&mut self, row: LaneRow, watermark: Timestamp) {
        self.step_lane(row.link, std::slice::from_ref(&row.event), watermark);
        self.note_open_items();
    }

    /// Apply a micro-batch of classified events from the driver's
    /// [`EventArena`], one lane at a time on the calling thread. The
    /// arena's grouped iteration is key-ordered and push-stable, so
    /// every lane sees its events in feed order, closes segments against
    /// the same watermark, and drains into the log in link order. The
    /// arena is borrowed for grouping only; the caller `clear()`s it for
    /// the next batch, reusing the allocation.
    pub(crate) fn apply_grouped(
        &mut self,
        grouped: &mut EventArena<LinkIx, LaneEvent>,
        watermark: Timestamp,
    ) {
        let (groups, events) = grouped.group();
        for (link, run) in groups {
            let run = run.iter().map(|&(_, ix)| &events[ix as usize]);
            self.step_lane(link, run, watermark);
        }
        self.note_open_items();
    }

    /// Raise the open-item high-water mark to the current count.
    pub(crate) fn note_open_items(&mut self) {
        let hwm = &mut self.tallies.open_items_hwm;
        *hwm = (*hwm).max(self.open_items);
    }

    /// Derive what is not stored from the lanes, as a restore does: each
    /// lane's segment end and the open-item count.
    pub(crate) fn rebuild(&mut self) {
        for lane in self.lanes.values_mut() {
            let ends = lane.seg_isis.iter().chain(&lane.seg_syslog);
            lane.seg_max_end = ends.map(|f| f.end).max();
        }
        self.open_items = self.lanes.values().map(LinkLane::open_items).sum();
        self.note_open_items();
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
            naming: &self.naming,
        };
        let lane = self
            .lanes
            .entry(link)
            .or_insert_with(|| LinkLane::new(link));
        let before = lane.open_items();
        for event in events {
            lane.apply(event, &ctx);
        }
        lane.maybe_close_segment(watermark, &ctx, &mut self.used);
        self.log.append(&mut lane.outbox);
        self.open_items = self.open_items - before + lane.open_items();
    }

    /// End of data: finalize every lane, fold the lanes' counters into
    /// the tallies and hand both to [`StreamOutput::assemble`].
    /// `offered_syslog` is the driver's headline syslog count (the whole
    /// archive, including quarantined and late events).
    pub(crate) fn collect(self, offered_syslog: u64) -> KernelOutput {
        let Kernel {
            data,
            config,
            naming,
            mut lanes,
            mut log,
            tallies,
            mut used,
            ..
        } = self;
        let ctx = LaneCtx {
            config: &config,
            offline: &data.offline_spans,
            tickets: &data.tickets,
            naming: &naming,
        };
        let merge = |r: RouteStats| IsisMergeStats {
            raw: r.raw,
            unresolvable_multilink: r.unresolvable_multilink,
            unknown: r.unknown,
            ..IsisMergeStats::default()
        };
        let mut sums = StreamOutput {
            resolve_stats: tallies.resolve_stats,
            is_stats: merge(tallies.is_route),
            ip_stats: merge(tallies.ip_route),
            counters: PipelineCounters {
                syslog_ingested: offered_syslog,
                ..PipelineCounters::default()
            },
            ..StreamOutput::default()
        };
        let (mut finalized_at_flush, mut segments_closed, mut flap_episodes) = (0, 0, 0);
        for lane in lanes.values_mut() {
            finalized_at_flush += lane.isis_recon.held() + lane.syslog_recon.held();
            lane.finish(&ctx, &mut used);
            log.append(&mut lane.outbox);
            sums.isis_recon.unterminated += lane.isis_recon.open.is_some() as u32;
            sums.isis_recon.boundary_ups += lane.isis_recon.boundary_ups;
            sums.syslog_recon.unterminated += lane.syslog_recon.open.is_some() as u32;
            sums.syslog_recon.boundary_ups += lane.syslog_recon.boundary_ups;
            sums.isis_sanitize.add(&lane.isis_sanitize);
            sums.syslog_sanitize.add(&lane.syslog_sanitize);
            sums.is_stats.inconsistent += lane.is_merge.inconsistent;
            sums.ip_stats.inconsistent += lane.ip_merge.inconsistent;
            segments_closed += lane.segments_closed;
            flap_episodes += lane.flap_episodes;
        }
        KernelOutput {
            output: StreamOutput::assemble(log, sums),
            segments_closed,
            flap_episodes,
            finalized_at_flush,
        }
    }
}

impl StreamOutput {
    /// Build the answer from every finalized record: the one place its
    /// order is decided, for one kernel's log and for
    /// [`crate::cluster::merge_outputs`]'s logs concatenated in index
    /// order. `out` holds what records cannot count (all but what
    /// [`StreamOutput::derive`] fills in) and no records.
    /// One stable sort per vector on the collect keys gives the batch
    /// order: ties on a key come from one lane, in the order it finalized
    /// them. On lists each sorted and concatenated in index order that
    /// sort equals a k-way merge with ties to the lowest index. Match
    /// pairs follow their failures through the sanitized lists' sort.
    pub(crate) fn assemble(log: AnswerLog, mut out: StreamOutput) -> StreamOutput {
        out.messages = log.messages;
        out.messages.sort_by_key(|m| (m.at, m.link));
        out.is_transitions = log.is_transitions;
        out.ip_transitions = log.ip_transitions;
        out.syslog_transitions = log.syslog_transitions;
        for transitions in [
            &mut out.is_transitions,
            &mut out.ip_transitions,
            &mut out.syslog_transitions,
        ] {
            transitions.sort_by_key(|t| (t.at, t.link));
        }
        (out.isis_recon.failures, out.isis_recon.ambiguous) =
            (log.isis_failures, log.isis_ambiguous);
        (out.syslog_recon.failures, out.syslog_recon.ambiguous) =
            (log.syslog_failures, log.syslog_ambiguous);
        for recon in [&mut out.isis_recon, &mut out.syslog_recon] {
            recon.failures.sort_by_key(|f| (f.link, f.start));
            recon.ambiguous.sort_by_key(|a| (a.link, a.first));
        }
        let (left, right);
        (out.syslog_failures, left) = sort_failures(log.san_syslog);
        (out.isis_failures, right) = sort_failures(log.san_isis);
        let remap = |pairs: Vec<(usize, usize)>| {
            (pairs.into_iter())
                .map(|(i, j)| (left[i], right[j]))
                .collect()
        };
        out.matching.matched = remap(log.matched);
        out.matching.partial = remap(log.partial);
        out.derive();
        out
    }

    /// Fill in what the rest of the answer determines: the matching's
    /// shape, each merge's `emitted` and the headline counters past
    /// `syslog_ingested`. [`crate::codec::decode_flushed`] runs it too, on
    /// a row that stores none of them.
    pub(crate) fn derive(&mut self) {
        let (syslog_len, isis_len) = (self.syslog_failures.len(), self.isis_failures.len());
        self.matching.complete(syslog_len, isis_len);
        self.is_stats.emitted = self.is_transitions.len() as u64;
        self.ip_stats.emitted = self.ip_transitions.len() as u64;
        let reconstructed =
            (self.isis_recon.failures.len() + self.syslog_recon.failures.len()) as u64;
        let survived = (syslog_len + isis_len) as u64;
        self.counters = PipelineCounters {
            syslog_ingested: self.counters.syslog_ingested,
            isis_ingested: self.is_stats.raw + self.ip_stats.raw,
            transitions_derived: self.is_stats.emitted
                + self.ip_stats.emitted
                + self.syslog_transitions.len() as u64,
            failures_reconstructed: reconstructed,
            failures_after_sanitize: survived,
            sanitize_dropped: reconstructed - survived,
            failures_matched: self.matching.matched.len() as u64,
            ambiguous_periods: (self.isis_recon.ambiguous.len() + self.syslog_recon.ambiguous.len())
                as u64,
        };
    }
}

/// Stable-sort failures by `(link, start)`, returning them with each
/// original position's new one.
fn sort_failures(failures: Vec<Failure>) -> (Vec<Failure>, Vec<usize>) {
    let mut order: Vec<(Failure, usize)> = failures.into_iter().zip(0..).collect();
    order.sort_by_key(|&(f, _)| (f.link, f.start));
    let mut moved_to = vec![0; order.len()];
    for (new, &(_, old)) in order.iter().enumerate() {
        moved_to[old] = new;
    }
    (order.into_iter().map(|(f, _)| f).collect(), moved_to)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::scenario_event_stream;
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
            if let Some(row) = kernel.route(event.observed()) {
                kernel.apply_one(row, event.at());
                assert_eq!(kernel.lanes[&row.link].outbox.mark(), [0; 12]);
            }
        }
        let mut bytes = BTreeMap::new();
        for (&link, lane) in &kernel.lanes {
            let mut row = Vec::new();
            crate::codec::encode_payload(lane, &mut row);
            bytes.insert(link, row.len());
        }
        bytes
    }

    /// The times (ms) of the messages one link's dedup keeps, under the
    /// 10 s window.
    fn dedup_kept(messages: &[(u64, TransitionDirection)]) -> Vec<u64> {
        let mut dedup = DedupState::default();
        (messages.iter())
            .filter(|&&(at, dir)| dedup.keep(Timestamp::from_millis(at), dir))
            .map(|&(at, _)| at)
            .collect()
    }

    #[test]
    fn dedup_merges_confirmations_and_keeps_flaps_and_doubles() {
        use TransitionDirection::{Down, Up};
        // Both ends confirm the DOWN and the UP.
        let both_ends = [(10_000, Down), (13_000, Down), (60_000, Up), (62_000, Up)];
        assert_eq!(dedup_kept(&both_ends), [10_000, 60_000]);
        // A repeat 30 s later is a double, not a confirmation.
        let double = [(10_000, Down), (40_000, Down), (90_000, Up)];
        assert_eq!(dedup_kept(&double), [10_000, 40_000, 90_000]);
        // Flap transitions within the window are distinct.
        let flap = [(10_000, Down), (12_000, Up), (14_000, Down)];
        assert_eq!(dedup_kept(&flap), [10_000, 12_000, 14_000]);
        // Each confirmation refreshes the anchor, so a chain keeps merging.
        let chain = [(0, Down), (8_000, Down), (16_000, Down)];
        assert_eq!(dedup_kept(&chain), [0]);
    }

    /// The both-ends merge over a hash map, as it was kept before its
    /// state became an origin-sorted vector: the reference for
    /// [`MergeState`].
    #[derive(Default)]
    struct HashMerge {
        advertised: std::collections::HashMap<SystemId, bool>,
        down_count: u32,
        inconsistent: u64,
    }

    impl HashMerge {
        fn step(&mut self, source: SystemId, direction: TransitionDirection) -> bool {
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

        /// The row of its state: the map flattened sorted by origin,
        /// then the inconsistency count (the down count is not stored).
        fn row(&self) -> Vec<u8> {
            let mut advertised: Vec<(SystemId, bool)> =
                self.advertised.iter().map(|(&k, &v)| (k, v)).collect();
            advertised.sort_by_key(|&(id, _)| id);
            let mut row = Vec::new();
            crate::codec::encode_payload(&(advertised, self.inconsistent), &mut row);
            row
        }
    }

    fn merge_row(merge: &MergeState) -> Vec<u8> {
        let mut row = Vec::new();
        crate::codec::encode_payload(merge, &mut row);
        row
    }

    proptest::proptest! {
        /// Every step of [`MergeState`] returns what the hash-map merge
        /// returns, its withdrawn origins are the reference's down count
        /// and its inconsistency count the reference's, and the final row
        /// is the one the hash map's state encodes to. Replaying the steps
        /// with the origins regrouped in reverse order of first
        /// appearance (each origin's own steps kept in order) ends in the
        /// same row.
        #[test]
        fn merge_state_matches_the_hash_map_reference(
            steps in proptest::collection::vec((0u32..5, proptest::any::<bool>()), 0..48),
        ) {
            let origin = |i: u32| SystemId::from_index([9, 2, 7, 4, 5][i as usize]);
            let direction = |up: bool| if up { TransitionDirection::Up } else { TransitionDirection::Down };
            let (mut merge, mut reference) = (MergeState::default(), HashMerge::default());
            for &(i, up) in &steps {
                let (source, dir) = (origin(i), direction(up));
                proptest::prop_assert_eq!(merge.step(source, dir), reference.step(source, dir));
                let withdrawn = merge.advertised.iter().filter(|&&(_, adv)| !adv).count();
                proptest::prop_assert_eq!(withdrawn, reference.down_count as usize);
                proptest::prop_assert_eq!(merge.inconsistent, reference.inconsistent);
            }
            proptest::prop_assert_eq!(merge_row(&merge), reference.row());

            let first_seen = |i: u32| steps.iter().position(|&(j, _)| j == i);
            let mut regrouped = steps.clone();
            regrouped.sort_by_key(|&(i, _)| std::cmp::Reverse(first_seen(i)));
            let mut replayed = MergeState::default();
            for &(i, up) in &regrouped {
                replayed.step(origin(i), direction(up));
            }
            proptest::prop_assert_eq!(merge_row(&replayed), merge_row(&merge));
        }
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
