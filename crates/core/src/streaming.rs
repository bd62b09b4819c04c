//! Incremental (streaming) failure analysis — the one **driver** over
//! the shared [`crate::kernel`].
//!
//! A production collector does not get the whole syslog archive and
//! listener transition log up front: messages and LSP-derived
//! transitions arrive interleaved, and operators want failure records as
//! soon as they are knowable, not at end-of-quarter. [`StreamAnalysis`]
//! is the incremental driver over the `kernel::Kernel`: feed it
//! [`StreamEvent`]s one at a time ([`StreamAnalysis::ingest`]) or in
//! micro-batches ([`StreamAnalysis::ingest_batch`], which applies each
//! touched link's lane in place on the calling thread), and call
//! [`StreamAnalysis::flush`] at end of stream for the final
//! [`StreamOutput`]. [`crate::analysis::Analysis::run`] is this driver
//! too: it feeds a whole archive in 256-event batches.
//!
//! This module owns only what is genuinely streaming-specific: the
//! watermark, late-event rejection, quarantine admission, micro-batch
//! accounting, wall-clock attribution, and checkpoint capture/restore.
//! Every semantic stage — dedup, both-ends merge, reconstruction,
//! sanitization, flap tracking, segment close, matching — lives in the
//! kernel and is executed by the per-link `kernel::LinkLane` machines.
//! Ingest is two halves: a route (admission, the late check, the
//! watermark, classification) and an apply of the lane rows it yields.
//! Beyond one engine, [`crate::cluster`] splits them — one front engine
//! routes the stream, N shard engines apply its rows by link — and
//! merges their [`StreamOutput`]s back into this same byte-identical
//! surface.
//!
//! # Equivalence contract
//!
//! For an in-order event stream covering the same data, the flushed
//! [`StreamOutput`] is **byte-identical** (as JSON) for every chunking
//! of the stream, from one event at a time to one batch holding it all,
//! and so to [`crate::analysis::Analysis::run`]'s output on the same
//! data. `tests/stream_equivalence.rs` is the differential harness
//! asserting this across random seeds, scales, chunkings, quarantine
//! horizons, and chaos presets. The argument is why *where* the
//! watermark stands when a lane is applied cannot change what the
//! kernel computes:
//!
//! - **Resolution** is stateless; emitted resolved messages are final
//!   immediately. Events arrive in stable time order, so one final
//!   stable `(time, link)` sort produces the same vector.
//! - **Dedup, both-ends merge, reconstruction** are per-link state
//!   machines that only look backward. Every chunking hands a lane the
//!   same events in the same order, so the machines traverse identical
//!   per-link histories.
//! - **Finality.** A reconstructed failure is final when it closes —
//!   except under [`AmbiguityStrategy::AssumeDown`], where the *most
//!   recently closed* failure stays extendable by a later double-up. The
//!   kernel holds exactly that one failure per link per source as
//!   `pending` until the next opening DOWN or end of data.
//! - **Sanitization** is a per-failure predicate against static side
//!   inputs (listener offline spans, trouble tickets, the multi-link
//!   filter), applied at finalization; its counters are
//!   order-independent sums.
//! - **Matching** never crosses links, and within a link the kernel
//!   closes a *segment* only when no failure is open or pending on
//!   either source and the watermark has passed the last buffered
//!   failure's end by strictly more than the match window. Every future
//!   failure then starts at or after the watermark, so it can neither
//!   exact-match nor overlap anything in the segment. A chunking decides
//!   only how often a lane is checked, and so how many quiet gaps one
//!   segment spans: one batch holding the whole stream checks each lane
//!   once, at the end, and closes at most one segment per lane (222 on
//!   the benchmark's seed-4242 archive, against 2,592 in 256-event
//!   batches). The pairs are the same either way — no failure on one
//!   side of a quiet gap can match or overlap one on the other — but
//!   matching a segment is quadratic in its failures.
//!
//! Per-link *working* state is bounded: a dedup anchor, two endpoint
//! advertisement maps, two open/pending slots, and the current segment's
//! buffered failures (drained at every quiet gap). Everything finalized
//! leaves the lane for the kernel's one append-only answer log. Under
//! `AssumeDown` every closed failure remains potentially extendable
//! forever, so segments only drain at flush — the documented degenerate
//! case.

use crate::analysis::{self, AnalysisConfig};
use crate::arena::EventArena;
use crate::codec::rows;
use crate::error::AnalysisError;
use crate::kernel::{AnswerLog, Kernel, LaneEvent, LaneRow, LinkLane, LogMark, Observed, Tallies};
use crate::observe::{self, PipelineReport, RobustnessCounters, StreamingCounters};
use faultline_isis::listener::Transition;
use faultline_sim::ScenarioData;
use faultline_syslog::message::SyslogMessage;
use faultline_topology::time::{Duration, Timestamp};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

use crate::linktable::{LinkIx, Naming};
#[cfg(doc)]
use crate::reconstruct::AmbiguityStrategy;

pub use crate::kernel::StreamOutput;

/// One observable arriving at the streaming engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StreamEvent {
    /// A parsed syslog message from the collector.
    Syslog(SyslogMessage),
    /// A per-origin reachability transition from the IS-IS listener.
    Isis(Transition),
}

impl StreamEvent {
    /// The event's timestamp (message-text time for syslog, listener
    /// receive time for IS-IS).
    pub fn at(&self) -> Timestamp {
        self.observed().at()
    }

    /// The event as the classifier reads it.
    pub(crate) fn observed(&self) -> Observed<'_> {
        match self {
            StreamEvent::Syslog(m) => Observed::Syslog(m),
            StreamEvent::Isis(t) => Observed::Isis(t),
        }
    }
}

/// What [`StreamAnalysis::ingest`] did with one offered event.
///
/// Every outcome still counts as an *offered* event in the headline
/// ingest counters; only [`IngestOutcome::Accepted`] events reach a
/// link's state machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IngestOutcome {
    /// Admitted: the event advanced (or tied) the watermark and was
    /// routed to its link's state machines.
    Accepted,
    /// Diverted by [`AnalysisConfig::quarantine_horizon`] before touching
    /// any state; counted in
    /// [`crate::observe::RobustnessCounters`].
    Quarantined,
    /// Stamped strictly before the current watermark. The kernel's
    /// per-link state machines assume in-order history and every
    /// segment-close proof assumes the watermark never regresses, so the
    /// event is counted in [`StreamingCounters::late_events`] and
    /// dropped rather than silently applied out of order.
    Late,
}

/// Per-outcome tally for one [`StreamAnalysis::ingest_batch`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestSummary {
    /// Events admitted to the state machines.
    pub accepted: u64,
    /// Events diverted by the quarantine horizon.
    pub quarantined: u64,
    /// Events rejected as older than the watermark.
    pub late: u64,
}

impl IngestSummary {
    fn note(&mut self, outcome: IngestOutcome) {
        match outcome {
            IngestOutcome::Accepted => self.accepted += 1,
            IngestOutcome::Quarantined => self.quarantined += 1,
            IngestOutcome::Late => self.late += 1,
        }
    }
}

/// Interleave a scenario's syslog archive and listener transition log
/// into one time-ordered event stream, preserving each source's original
/// order among equal timestamps (a stable merge). This is the stream the
/// collector *would* have seen live; replaying it through
/// [`StreamAnalysis`] reproduces [`crate::analysis::Analysis::run`].
pub fn scenario_event_stream(data: &ScenarioData) -> Vec<StreamEvent> {
    let owned = |event| match event {
        Observed::Syslog(m) => StreamEvent::Syslog(m.clone()),
        Observed::Isis(t) => StreamEvent::Isis(*t),
    };
    observed_stream(data).into_iter().map(owned).collect()
}

/// [`scenario_event_stream`] by reference: the same stable merge, with
/// nothing cloned, as [`crate::analysis::Analysis::run`] feeds it.
pub(crate) fn observed_stream(data: &ScenarioData) -> Vec<Observed<'_>> {
    let mut syslog: Vec<&SyslogMessage> = data.syslog.iter().collect();
    syslog.sort_by_key(|m| m.event.at);
    let mut isis: Vec<&Transition> = data.transitions.iter().collect();
    isis.sort_by_key(|t| t.at);

    let mut out = Vec::with_capacity(syslog.len() + isis.len());
    let (mut i, mut j) = (0, 0);
    while i < syslog.len() && j < isis.len() {
        if syslog[i].event.at <= isis[j].at {
            out.push(Observed::Syslog(syslog[i]));
            i += 1;
        } else {
            out.push(Observed::Isis(isis[j]));
            j += 1;
        }
    }
    out.extend(syslog[i..].iter().map(|m| Observed::Syslog(m)));
    out.extend(isis[j..].iter().map(|t| Observed::Isis(t)));
    out
}

/// A flushed stream: the comparable output plus this run's accounting
/// (stage timings, headline counters, and streaming-specific counters in
/// [`PipelineReport::streaming`]).
pub struct StreamResult {
    /// The complete derived surface, batch-equivalent.
    pub output: StreamOutput,
    /// Per-stage counters and wall-clock timings for this run.
    pub report: PipelineReport,
}

/// A complete, serializable image of a [`StreamAnalysis`] mid-stream:
/// every lane, the log of every record finalized so far (resolved
/// messages, transitions, failures, match pairs), the watermark, and the
/// engine's carried counters — everything [`StreamAnalysis::restore`]
/// needs to continue the run as if it had never stopped. Wall-clock
/// timings are deliberately *not* captured: they describe the process
/// that died, not the state, and they are not part of the
/// [`StreamOutput`] equivalence surface.
///
/// Encoding is deterministic for a given state (a lane keeps its merge
/// state sorted by origin), so a checkpoint's bytes can carry an
/// integrity hash. On disk it is one [`crate::codec`] row
/// (`codec::encode_checkpoint`); see [`crate::recovery`] for the durable
/// file format around that payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamCheckpoint {
    seq: u64,
    config: AnalysisConfig,
    watermark: Option<Timestamp>,
    log: AnswerLog,
    pub(crate) tallies: Tallies,
    pub(crate) lanes: Vec<LinkLane>,
}

impl StreamCheckpoint {
    /// Events the captured engine had consumed — the stream position
    /// this checkpoint represents. Resuming means feeding events from
    /// source position `seq()` onward (0-based), or replaying journal
    /// records with sequence numbers `> seq()`.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// How many lanes the capture holds (diagnostics only).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The analysis configuration the captured run was using.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// The captured watermark (maximum event time seen), if any event
    /// had been accepted.
    pub fn watermark(&self) -> Option<Timestamp> {
        self.watermark
    }
}

/// An **incremental** image of a [`StreamAnalysis`]: everything that
/// changed since the parent snapshot at `parent_seq` — the records the
/// engine finalized since the parent (the tail of its answer log), the
/// open state of every lane touched since (the kernel's dirty-lane
/// flags), whole, and the (cheap, always-copied) counters and
/// watermark. Applying a delta on top of the engine state its parent
/// captured reproduces exactly the state a full [`StreamCheckpoint`] at
/// `seq` would have restored.
///
/// A delta deliberately carries **no configuration**: a chain is anchored
/// at a full base, the base's validated config governs the whole chain,
/// and the configuration cannot change mid-run. The durable file format
/// around this payload — the header chaining parent seq and parent hash —
/// lives in [`crate::recovery`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamDelta {
    seq: u64,
    parent_seq: u64,
    watermark: Option<Timestamp>,
    /// Every record finalized since the parent capture.
    log: AnswerLog,
    pub(crate) tallies: Tallies,
    /// Only lanes dirtied since the parent capture, ascending by link
    /// (the kernel map's iteration order), so serialization stays
    /// deterministic for a given state. A lane is open state only, so
    /// it ships whole.
    pub(crate) lanes: Vec<LinkLane>,
}

// The snapshot payload's rows (see `crate::codec`'s snapshot layout).
rows! {
    StreamCheckpoint { seq, config, watermark, log, tallies, lanes }
    StreamDelta { seq, parent_seq, watermark, log, tallies, lanes }
}

impl StreamDelta {
    /// Events the captured engine had consumed at this delta.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The stream position of the snapshot this delta diffs against.
    pub fn parent_seq(&self) -> u64 {
        self.parent_seq
    }

    /// How many dirtied lanes this delta carries (diagnostics only).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Why no run reaches this state, if none does: the one structural
    /// check of a delta and a checkpoint, past which the kernel indexes,
    /// subtracts and expects freely.
    fn fault(&self, links: usize) -> Option<String> {
        let counted = (self.tallies.events_syslog).checked_add(self.tallies.events_isis);
        let (log, lanes) = (&self.log, &self.lanes);
        let (left, right) = (log.san_syslog.len(), log.san_isis.len());
        if counted.is_none_or(|n| n > self.seq) {
            Some("more events counted than consumed".into())
        } else if (log.matched.iter().chain(&log.partial)).any(|&(i, j)| i >= left || j >= right) {
            Some("a match pair past the sanitized failures".into())
        } else if !lanes.is_sorted_by(|a, b| a.link < b.link) {
            Some("lanes not strictly ascending by link".into())
        } else if lanes.last().is_some_and(|l| l.link.0 as usize >= links) {
            Some(format!("a lane past the {links}-link naming table"))
        } else {
            let lane = lanes.iter().find(|l| !l.reachable(self.watermark))?;
            Some(format!("a lane no run reaches, for link {}", lane.link.0))
        }
    }
}

/// The incremental analysis engine: the streaming driver's shell around
/// the shared `Kernel`. See the module docs for the equivalence
/// contract; construction resolves the link table from the scenario's
/// config archive (the one input that genuinely is available up front),
/// everything else arrives through `ingest*`.
pub struct StreamAnalysis<'a> {
    kernel: Kernel<'a>,
    watermark: Option<Timestamp>,
    /// Micro-batch grouping buffer, reused across `ingest_batch` calls so
    /// steady-state ingestion does not allocate per batch.
    arena: EventArena<LinkIx, LaneEvent>,
    started: Instant,
    ingest_wall: std::time::Duration,
    /// The rows [`StreamAnalysis::feed`]'s batches routed, and the
    /// wall of their route halves (the rest of `ingest_wall` applied).
    fed_rows: u64,
    route_wall: std::time::Duration,
    link_table_wall: std::time::Duration,
    /// Events and lane rows consumed: a snapshot's `seq`.
    seq: u64,
    /// Where the kernel's answer log ended at the last
    /// [`StreamAnalysis::mark_clean`] — where the next delta's log tail
    /// starts. The log only ever appends, so its lengths are a complete
    /// diff anchor.
    log_mark: LogMark,
    /// Events ingested at the last `mark_clean` — the `parent_seq` the
    /// next [`StreamAnalysis::checkpoint_delta`] will chain to.
    marked_seq: u64,
    /// High-water mark of the micro-batch arena (events resident at
    /// once) — process-descriptive like the wall timers, so it resets on
    /// restore rather than round-tripping through checkpoints.
    arena_events_hwm: u64,
    /// Worst observed gap between an announced arrival frontier
    /// ([`StreamAnalysis::note_arrival_frontier`]) and the watermark —
    /// how far the engine's service fell behind the newest arrival.
    /// Process-descriptive; resets on restore.
    watermark_lag_max_millis: u64,
}

impl<'a> StreamAnalysis<'a> {
    /// Set up the engine: mine the link table and freeze the side inputs
    /// (offline spans, tickets). No events are consumed.
    pub fn new(data: &'a ScenarioData, config: AnalysisConfig) -> Self {
        let started = Instant::now();
        let naming = Arc::new(Naming::mine(data));
        StreamAnalysis::with_naming(data, config, naming, started)
    }

    /// Set up the engine over a naming layer already mined from `data`,
    /// the run's shared one. `started` is when construction began: the
    /// `link_table` stage and the run's wall count from it, so a caller
    /// that mined the table for this engine passes the instant before it
    /// did.
    pub(crate) fn with_naming(
        data: &'a ScenarioData,
        config: AnalysisConfig,
        naming: Arc<Naming>,
        started: Instant,
    ) -> Self {
        let kernel = Kernel::new(data, config, naming);
        let link_table_wall = started.elapsed();
        observe::narrate(|| {
            format!(
                "stream start: {} links resolvable",
                kernel.naming.table.len()
            )
        });
        StreamAnalysis {
            kernel,
            watermark: None,
            arena: EventArena::new(),
            started,
            ingest_wall: std::time::Duration::ZERO,
            fed_rows: 0,
            route_wall: std::time::Duration::ZERO,
            link_table_wall,
            seq: 0,
            log_mark: LogMark::default(),
            marked_seq: 0,
            arena_events_hwm: 0,
            watermark_lag_max_millis: 0,
        }
    }

    /// Validated construction: run the same configuration and input
    /// checks as [`crate::analysis::Analysis::try_run`] before setting
    /// up the engine.
    pub fn try_new(data: &'a ScenarioData, config: AnalysisConfig) -> Result<Self, AnalysisError> {
        analysis::validate_inputs(data, &config)?;
        Ok(StreamAnalysis::new(data, config))
    }

    /// The naming layer this engine resolves through.
    #[cfg(test)]
    pub(crate) fn naming(&self) -> &Arc<Naming> {
        &self.kernel.naming
    }

    /// The time up to which the stream is complete: the maximum event
    /// time seen. Segments close once the watermark passes a quiet gap.
    pub fn watermark(&self) -> Option<Timestamp> {
        self.watermark
    }

    /// Items currently held in mutable per-link state (open/pending
    /// failures plus buffered unmatched failures).
    pub fn open_state(&self) -> u64 {
        self.kernel.open_items
    }

    /// Events consumed so far (lane rows, for a cluster shard).
    pub fn events_ingested(&self) -> u64 {
        self.seq
    }

    /// Capture a complete, serializable image of the engine's current
    /// state. Restoring it via [`StreamAnalysis::restore`] and feeding
    /// the rest of the stream yields a [`StreamOutput`] byte-identical
    /// to never having stopped (`tests/crash_recovery.rs` is the
    /// differential harness proving this at every event boundary).
    pub fn checkpoint(&self) -> StreamCheckpoint {
        StreamCheckpoint {
            seq: self.events_ingested(),
            config: self.kernel.config.clone(),
            watermark: self.watermark,
            log: self.kernel.log.clone(),
            tallies: self.kernel.tallies,
            lanes: self.kernel.lanes.values().cloned().collect(),
        }
    }

    /// Capture only what changed since the last [`StreamAnalysis::mark_clean`]:
    /// dirtied lanes, the answer log's tail, and the scalar counters.
    /// The capture is pure — call `mark_clean` once the snapshot has been
    /// handed off (or durably written) to start the next diff window.
    pub fn checkpoint_delta(&self) -> StreamDelta {
        StreamDelta {
            seq: self.events_ingested(),
            parent_seq: self.marked_seq,
            watermark: self.watermark,
            log: self.kernel.log.since(&self.log_mark),
            tallies: self.kernel.tallies,
            lanes: (self.kernel.lanes.values())
                .filter(|lane| lane.dirty)
                .cloned()
                .collect(),
        }
    }

    /// Start a new diff window: clear every lane's dirty flag and mark
    /// where the answer log ends. Called by the
    /// durability layer right after each snapshot capture (full or
    /// delta) so the next [`StreamAnalysis::checkpoint_delta`] diffs
    /// against exactly the state that capture preserved.
    pub fn mark_clean(&mut self) {
        for lane in self.kernel.lanes.values_mut() {
            lane.dirty = false;
        }
        self.log_mark = self.kernel.log.mark();
        self.marked_seq = self.events_ingested();
    }

    /// Advance a restored engine by one delta: replace the dirtied
    /// lanes, append the log tail, take the delta's tallies and rebuild
    /// what is not stored (`Kernel::rebuild`). The engine must be
    /// exactly at the delta's parent state and the delta a state some run
    /// reaches (`StreamDelta::fault`): either failure is a typed error
    /// (surfaced by [`crate::recovery`] as a corrupt chain), applying
    /// nothing, never a silently wrong restore.
    pub fn apply_delta(&mut self, mut delta: StreamDelta) -> Result<(), String> {
        if delta.parent_seq != self.events_ingested() {
            return Err(format!(
                "delta parent seq {} does not match engine position {}",
                delta.parent_seq,
                self.events_ingested()
            ));
        }
        if let Some(fault) = delta.fault(self.kernel.naming.table.len()) {
            return Err(fault);
        }
        self.watermark = delta.watermark;
        self.seq = delta.seq;
        // A checkpoint's log lands on an empty one: move it, not copy it.
        if self.kernel.log.mark() == [0; 12] {
            self.kernel.log = delta.log;
        } else {
            self.kernel.log.append(&mut delta.log);
        }
        self.kernel.tallies = delta.tallies;
        for lane in delta.lanes {
            self.kernel.lanes.insert(lane.link, lane);
        }
        self.kernel.rebuild();
        self.mark_clean();
        Ok(())
    }

    /// Rebuild an engine from a checkpoint against the same scenario's
    /// static side inputs (topology, offline spans, tickets). The
    /// embedded configuration is re-validated exactly as
    /// [`StreamAnalysis::try_new`] would, and the rest is applied as a
    /// delta on the empty engine ([`StreamAnalysis::apply_delta`]), which
    /// refuses a state no run reaches ([`AnalysisError::CorruptState`]).
    /// Wall-clock timers restart at zero — they describe this process,
    /// not the one that died.
    pub fn restore(data: &'a ScenarioData, ckpt: StreamCheckpoint) -> Result<Self, AnalysisError> {
        StreamAnalysis::restore_with(data, ckpt, Arc::new(Naming::mine(data)))
    }

    /// [`StreamAnalysis::restore`] over a naming layer already mined from
    /// `data`.
    pub(crate) fn restore_with(
        data: &'a ScenarioData,
        ckpt: StreamCheckpoint,
        naming: Arc<Naming>,
    ) -> Result<Self, AnalysisError> {
        analysis::validate_inputs(data, &ckpt.config)?;
        let mut engine = StreamAnalysis::with_naming(data, ckpt.config, naming, Instant::now());
        // A checkpoint is a delta on the empty engine.
        let whole = StreamDelta {
            seq: ckpt.seq,
            parent_seq: 0,
            watermark: ckpt.watermark,
            log: ckpt.log,
            tallies: ckpt.tallies,
            lanes: ckpt.lanes,
        };
        engine
            .apply_delta(whole)
            .map_err(|what| AnalysisError::CorruptState { what })?;
        Ok(engine)
    }

    /// Late-event reject check. An event stamped strictly before the
    /// watermark would hand the per-link state machines out-of-order
    /// history and could regress the watermark that every segment-close
    /// proof leans on, so it is counted ([`StreamingCounters::late_events`])
    /// and dropped. Like quarantine, it is still an *offered* event for
    /// the headline ingest counters.
    fn reject_late(&mut self, event: Observed<'_>) -> bool {
        let Some(w) = self.watermark else {
            return false;
        };
        if event.at() >= w {
            return false;
        }
        self.kernel.tallies.late_events += 1;
        true
    }

    /// Quarantine admit check. An event stamped past the configured
    /// horizon is counted and diverted *before* it can advance the
    /// watermark or touch any state machine: a per-item predicate, so
    /// every arrival order leaves the same survivors.
    fn admit(&mut self, event: Observed<'_>) -> bool {
        let Some(horizon) = self.kernel.config.quarantine_horizon else {
            return true;
        };
        if event.at() <= horizon {
            return true;
        }
        // Still an offered event, which `route` counted, but resolution
        // and merge stats never see it.
        let t = &mut self.kernel.tallies;
        match event {
            Observed::Syslog(_) => t.quarantined_syslog += 1,
            Observed::Isis(_) => t.quarantined_isis += 1,
        }
        false
    }

    /// The first half of ingest: count the event as offered, admit it,
    /// reject it if late, advance the watermark and classify it. Says
    /// what became of it and hands back its lane row, if it has one.
    pub(crate) fn route(&mut self, event: Observed<'_>) -> (IngestOutcome, Option<LaneRow>) {
        let t = &mut self.kernel.tallies;
        match event {
            Observed::Syslog(_) => t.events_syslog += 1,
            Observed::Isis(_) => t.events_isis += 1,
        }
        self.seq += 1;
        if !self.admit(event) {
            return (IngestOutcome::Quarantined, None);
        }
        if self.reject_late(event) {
            return (IngestOutcome::Late, None);
        }
        // Not late, so `at` ties or advances the watermark: it never
        // regresses.
        self.watermark = Some(event.at());
        (IngestOutcome::Accepted, self.kernel.route(event))
    }

    /// The second half: group the arena's rows by link and apply each
    /// lane's run in place, in link order, on the calling thread.
    fn apply_arena(&mut self, watermark: Timestamp) {
        self.arena_events_hwm = self.arena_events_hwm.max(self.arena.len() as u64);
        self.kernel.apply_grouped(&mut self.arena, watermark);
    }

    /// Apply a cluster shard's batch of lane rows, in stream order, under
    /// the last row's time, as [`StreamAnalysis::ingest_batch`] applies
    /// its own. Each row counts as one consumed event.
    pub(crate) fn apply_rows(&mut self, rows: &[LaneRow]) {
        let Some(last) = rows.last() else {
            return;
        };
        let t0 = Instant::now();
        self.kernel.tallies.batches += 1;
        self.seq += rows.len() as u64;
        self.watermark = self.watermark.max(Some(last.event.at));
        self.arena.clear();
        for row in rows {
            self.arena.push(row.link, row.event);
        }
        self.apply_arena(last.event.at);
        self.ingest_wall += t0.elapsed();
    }

    /// Apply one lane row under its own time, as [`StreamAnalysis::ingest`]
    /// applies an event: a durable cluster shard's step, live and replayed.
    pub(crate) fn apply_row(&mut self, row: LaneRow) {
        let t0 = Instant::now();
        self.seq += 1;
        self.watermark = self.watermark.max(Some(row.event.at));
        self.kernel.apply_one(row, row.event.at);
        self.ingest_wall += t0.elapsed();
    }

    /// Consume one event; says what became of it ([`IngestOutcome`]).
    pub fn ingest(&mut self, event: &StreamEvent) -> IngestOutcome {
        let t0 = Instant::now();
        let (outcome, row) = self.route(event.observed());
        if let Some(row) = row {
            // The event's own time, which it just set as the watermark.
            self.kernel.apply_one(row, row.event.at);
        }
        self.ingest_wall += t0.elapsed();
        outcome
    }

    /// Consume a micro-batch: route every event in feed order (to keep
    /// the counters and emit order deterministic), then apply the rows,
    /// each touched link's lane taking its run in place. Returns the
    /// per-outcome tally for the batch.
    pub fn ingest_batch(&mut self, events: &[StreamEvent]) -> IngestSummary {
        self.feed(events.iter().map(StreamEvent::observed))
    }

    /// [`StreamAnalysis::ingest_batch`] over borrowed events: one batch,
    /// its route and apply halves each timed once.
    pub(crate) fn feed<'e>(
        &mut self,
        events: impl IntoIterator<Item = Observed<'e>>,
    ) -> IngestSummary {
        let t0 = Instant::now();
        self.kernel.tallies.batches += 1;
        let mut summary = IngestSummary::default();
        // The arena is cleared after each batch (keeping its capacity),
        // so grouping stops allocating once the buffer has grown to the
        // largest batch seen.
        self.arena.clear();
        for event in events {
            let (outcome, row) = self.route(event);
            summary.note(outcome);
            if let Some(row) = row {
                self.arena.push(row.link, row.event);
            }
        }
        self.fed_rows += self.arena.len() as u64;
        self.route_wall += t0.elapsed();
        if let Some(watermark) = self.watermark {
            self.apply_arena(watermark);
        }
        self.ingest_wall += t0.elapsed();
        summary
    }

    /// Record how far the stream's *arrival* frontier (newest event time
    /// offered upstream — queued, shed, or delivered) has advanced past
    /// the engine's watermark. An admission layer calls this after each
    /// drain so [`StreamingCounters::watermark_lag_max_millis`] reports
    /// the worst service lag; without an upstream queue the two frontiers
    /// coincide and the lag stays 0.
    pub fn note_arrival_frontier(&mut self, frontier: Timestamp) {
        let lag = match self.watermark {
            Some(w) => frontier.checked_duration_since(w).unwrap_or(Duration::ZERO),
            None => Duration::from_millis(frontier.as_millis()),
        };
        self.watermark_lag_max_millis = self.watermark_lag_max_millis.max(lag.as_millis());
    }

    /// End of stream: hand the lanes to `Kernel::collect` for the
    /// global assembly, then wrap it in this run's accounting (stage
    /// timings, streaming counters, robustness).
    pub fn flush(self) -> StreamResult {
        self.finish(Stages::Stream)
    }

    /// [`StreamAnalysis::flush`], its report's stages named as `stages`
    /// says.
    pub(crate) fn finish(self, stages: Stages) -> StreamResult {
        let flush_started = Instant::now();
        let data = self.kernel.data;
        let resolvable = self.kernel.naming.table.len() as u64;
        let t = self.kernel.tallies;
        let open_state_high_water = t.open_items_hwm;
        let k = self.kernel.collect(t.events_syslog);
        let counters = k.output.counters;

        let total_wall = self.started.elapsed();
        let events = self.seq;
        let events_per_sec = if total_wall.as_secs_f64() > 0.0 {
            events as f64 / total_wall.as_secs_f64()
        } else {
            0.0
        };
        let streaming = StreamingCounters {
            events_ingested: events,
            syslog_events: t.events_syslog,
            isis_events: t.events_isis,
            batches: t.batches,
            late_events: t.late_events,
            segments_closed: k.segments_closed,
            open_state_high_water,
            arena_events_high_water: self.arena_events_hwm,
            watermark_lag_max_millis: self.watermark_lag_max_millis,
            finalized_at_flush: k.finalized_at_flush,
            flap_episodes: k.flap_episodes,
            events_per_sec,
        };

        let mut report = PipelineReport::new(1);
        let links = data.topology.links().len() as u64;
        report.record_stage("link_table", links, resolvable, self.link_table_wall);
        let derived = counters.transitions_derived;
        let flush = match stages {
            Stages::Stream => {
                report.record_stage("stream_ingest", events, derived, self.ingest_wall);
                "stream_flush"
            }
            Stages::Batch => {
                let (rows, route) = (self.fed_rows, self.route_wall);
                report.record_stage("classify", events, rows, route);
                report.record_stage("lane_apply", rows, derived, self.ingest_wall - route);
                "collect"
            }
        };
        let (built, matched) = (counters.failures_reconstructed, counters.failures_matched);
        report.record_stage(flush, built, matched, flush_started.elapsed());
        report.counters = counters;
        report.streaming = Some(streaming);
        // What the scenario knows of its raw archive, and what this run
        // diverted.
        let parse = data.chaos.as_ref().map(|chaos| chaos.parse);
        report.robustness = RobustnessCounters {
            raw_lines: data.raw_syslog_lines as u64,
            malformed_lines: parse.map_or(0, |p| p.malformed),
            irrelevant_lines: parse.map_or(0, |p| p.irrelevant),
            quarantined_syslog: t.quarantined_syslog,
            quarantined_isis: t.quarantined_isis,
        };
        report.total_micros = total_wall.as_micros() as u64;
        observe::narrate(|| {
            format!(
                "stream done: {} events, {} segments closed, hwm {} open items, {:.3} ms",
                events,
                k.segments_closed,
                open_state_high_water,
                report.total_millis()
            )
        });

        StreamResult {
            output: k.output,
            report,
        }
    }
}

/// How [`StreamAnalysis::finish`] names a run's stages after
/// `link_table`.
pub(crate) enum Stages {
    /// `stream_ingest`, `stream_flush`.
    Stream,
    /// `classify`, `lane_apply`, `collect`: the ingest as
    /// [`StreamAnalysis::feed`]'s route and apply halves, for a run fed
    /// by it alone.
    Batch,
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_sim::scenario::{run, ScenarioParams};
    use faultline_topology::time::Duration;

    // This test forges a corrupt configuration inside a captured
    // checkpoint, which requires private field access — so it lives
    // in-module while the rest of the engine's tests exercise the public
    // API from `tests/streaming_engine.rs`.
    #[test]
    fn restore_revalidates_the_embedded_config() {
        let data = run(&ScenarioParams::tiny(3));
        let stream = StreamAnalysis::new(&data, AnalysisConfig::default());
        let mut ckpt = stream.checkpoint();
        ckpt.config.match_window = Duration::ZERO;
        assert!(matches!(
            StreamAnalysis::restore(&data, ckpt).err(),
            Some(AnalysisError::InvalidConfig { .. })
        ));
    }

    // Each forge is a state no run reaches, and each can lead past the
    // restore to a panic or a silent loss: an open failure with no DOWN
    // before it (the next DOWN's `expect`), a held failure ending before
    // it starts (`Failure::duration`), a match pair past the log's
    // failures (the flush's index, unless later failures fill it), a
    // second lane for one link (dropped) and a lane past the naming
    // table (indexed).
    #[test]
    fn restore_refuses_states_no_run_reaches() {
        use crate::kernel::ReconLane;
        use crate::reconstruct::Failure;
        use faultline_isis::listener::TransitionDirection::{Down, Up};
        let data = run(&ScenarioParams::tiny(5));
        let events = scenario_event_stream(&data);
        let mut engine = StreamAnalysis::new(&data, AnalysisConfig::default());
        for event in &events[..150] {
            engine.ingest(event);
        }
        let ckpt = engine.checkpoint();
        let at = ckpt.watermark.unwrap();
        let link = ckpt.lanes[0].link;
        let open = |last| ReconLane {
            open: Some(at),
            last,
            ..ReconLane::default()
        };
        let backwards = Failure {
            link,
            start: at,
            end: Timestamp::EPOCH,
        };
        type Forge<'f> = Box<dyn Fn(&mut StreamCheckpoint) + 'f>;
        let forges: [(&str, Forge); 8] = [
            (
                "open, no last",
                Box::new(|c| c.lanes[0].isis_recon = open(None)),
            ),
            (
                "open after an UP",
                Box::new(|c| c.lanes[0].isis_recon = open(Some((at, Up)))),
            ),
            (
                "last past the watermark",
                Box::new(|c| {
                    c.lanes[0].syslog_recon.last = Some((Timestamp::from_millis(u64::MAX), Down))
                }),
            ),
            (
                "pending backwards",
                Box::new(|c| {
                    c.lanes[0].isis_recon = ReconLane {
                        last: Some((at, Up)),
                        pending: Some(backwards),
                        ..ReconLane::default()
                    }
                }),
            ),
            (
                "segment backwards",
                Box::new(|c| c.lanes[0].seg_syslog.push(backwards)),
            ),
            (
                "pair past the log",
                Box::new(|c| c.log.matched.push((c.log.san_syslog.len(), 0))),
            ),
            (
                "two lanes for one link",
                Box::new(|c| c.lanes.insert(0, c.lanes[0].clone())),
            ),
            (
                "a lane past the table",
                Box::new(|c| c.lanes.last_mut().unwrap().link = LinkIx(u32::MAX)),
            ),
        ];
        for (what, forge) in forges {
            let mut forged = ckpt.clone();
            forge(&mut forged);
            let restored = StreamAnalysis::restore(&data, forged);
            assert!(
                matches!(restored.err(), Some(AnalysisError::CorruptState { .. })),
                "{what}"
            );
        }
        assert!(StreamAnalysis::restore(&data, ckpt).is_ok());
    }
}
