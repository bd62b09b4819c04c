//! Incremental (streaming) failure analysis — the streaming **driver**
//! over the shared [`crate::kernel`].
//!
//! The batch [`crate::analysis::Analysis::run`] wants the whole syslog
//! archive and listener transition log up front. A production collector
//! does not have that luxury: messages and LSP-derived transitions arrive
//! interleaved, and operators want failure records as soon as they are
//! knowable, not at end-of-quarter. [`StreamAnalysis`] is the incremental
//! driver over the same `kernel::Kernel` the batch pipeline
//! uses: feed it [`StreamEvent`]s one at a time
//! ([`StreamAnalysis::ingest`]) or in micro-batches
//! ([`StreamAnalysis::ingest_batch`], which applies each touched link's
//! lane in place on the calling thread), and call
//! [`StreamAnalysis::flush`] at end of stream for the final
//! [`StreamOutput`].
//!
//! This module owns only what is genuinely streaming-specific: the
//! watermark, late-event rejection, quarantine admission, micro-batch
//! accounting, wall-clock attribution, and checkpoint capture/restore.
//! Every semantic stage — dedup, both-ends merge, reconstruction,
//! sanitization, flap tracking, segment close, matching — lives in the
//! kernel and is executed by the per-link `kernel::LinkLane`
//! machines, identically for both drivers. Beyond one engine,
//! [`crate::cluster`] runs N of these side by side over a link-partitioned
//! stream and merges their [`StreamOutput`]s back into this same
//! byte-identical surface.
//!
//! # Equivalence contract
//!
//! For an in-order event stream covering the same data, the flushed
//! [`StreamOutput`] is **byte-identical** (as JSON) to the batch driver's
//! [`crate::analysis::Analysis::run`] output on the same data, for every
//! chunking of the stream.
//! `tests/stream_equivalence.rs` is the differential harness asserting
//! this across random seeds, scales, chunkings, quarantine horizons, and
//! chaos presets. Since both drivers execute the same kernel, the
//! argument reduces to why *incremental* watermark advancement cannot
//! change what the kernel computes:
//!
//! - **Resolution** is stateless; emitted resolved messages are final
//!   immediately. Both drivers feed events in stable time order, so one
//!   final stable `(time, link)` sort produces the same vector.
//! - **Dedup, both-ends merge, reconstruction** are per-link state
//!   machines that only look backward. The per-link event order the
//!   stream sees equals the per-link order of the batch driver's merged
//!   feed, so the machines traverse identical per-link histories.
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
//!   exact-match nor overlap anything in the segment. The batch driver's
//!   single end-of-archive watermark and the stream's incremental one
//!   close the same segments with the same contents.
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
use crate::kernel::{AnswerLog, Kernel, LaneEvent, LaneSnapshot, LinkLane, LogMark};
use crate::observe::{self, PipelineReport, StreamingCounters};
use crate::transitions::{IsisMergeStats, SyslogResolveStats};
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
        match self {
            StreamEvent::Syslog(m) => m.event.at,
            StreamEvent::Isis(t) => t.at,
        }
    }
}

/// What [`StreamAnalysis::ingest`] did with one offered event.
///
/// Every outcome still counts as an *offered* event in the headline
/// ingest counters (mirroring the batch pipeline, which counts the whole
/// archive); only [`IngestOutcome::Accepted`] events reach a link's
/// state machines.
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
/// [`StreamAnalysis`] reproduces the batch analysis exactly.
pub fn scenario_event_stream(data: &ScenarioData) -> Vec<StreamEvent> {
    let mut syslog: Vec<&SyslogMessage> = data.syslog.iter().collect();
    syslog.sort_by_key(|m| m.event.at);
    let mut isis: Vec<&Transition> = data.transitions.iter().collect();
    isis.sort_by_key(|t| t.at);

    let mut out = Vec::with_capacity(syslog.len() + isis.len());
    let (mut i, mut j) = (0, 0);
    while i < syslog.len() && j < isis.len() {
        if syslog[i].event.at <= isis[j].at {
            out.push(StreamEvent::Syslog(syslog[i].clone()));
            i += 1;
        } else {
            out.push(StreamEvent::Isis(*isis[j]));
            j += 1;
        }
    }
    out.extend(
        syslog[i..]
            .iter()
            .map(|m| StreamEvent::Syslog((*m).clone())),
    );
    out.extend(isis[j..].iter().map(|t| StreamEvent::Isis(**t)));
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
/// every lane's open state, the log of every record finalized so far
/// (resolved messages, transitions, failures, match pairs), the
/// watermark, and all accounting counters — everything [`StreamAnalysis::restore`]
/// needs to continue the run as if it had never stopped. Wall-clock
/// timings are deliberately *not* captured: they describe the process
/// that died, not the state, and they are not part of the
/// [`StreamOutput`] equivalence surface.
///
/// Encoding is deterministic for a given state (maps are flattened
/// sorted), so a checkpoint's bytes can carry an integrity hash. On disk
/// it is one [`crate::codec`] row (`codec::encode_checkpoint`); see
/// [`crate::recovery`] for the durable file format around that payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamCheckpoint {
    seq: u64,
    config: AnalysisConfig,
    watermark: Option<Timestamp>,
    log: AnswerLog,
    resolve_stats: SyslogResolveStats,
    is_stats: IsisMergeStats,
    ip_stats: IsisMergeStats,
    events_syslog: u64,
    events_isis: u64,
    batches: u64,
    late_events: u64,
    open_items: u64,
    open_items_hwm: u64,
    quarantined_syslog: u64,
    quarantined_isis: u64,
    lanes: Vec<LaneSnapshot>,
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
/// flags), whole, and the (cheap, always-copied) scalar counters and
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
    resolve_stats: SyslogResolveStats,
    is_stats: IsisMergeStats,
    ip_stats: IsisMergeStats,
    events_syslog: u64,
    events_isis: u64,
    batches: u64,
    late_events: u64,
    open_items: u64,
    open_items_hwm: u64,
    quarantined_syslog: u64,
    quarantined_isis: u64,
    /// Only lanes dirtied since the parent capture, ascending by link
    /// (the kernel map's iteration order), so serialization stays
    /// deterministic for a given state. A lane is open state only, so
    /// it ships whole.
    lanes: Vec<LaneSnapshot>,
}

// The snapshot payload's rows (see `crate::codec`'s snapshot layout).
rows! {
    StreamCheckpoint {
        seq,
        config,
        watermark,
        log,
        resolve_stats,
        is_stats,
        ip_stats,
        events_syslog,
        events_isis,
        batches,
        late_events,
        open_items,
        open_items_hwm,
        quarantined_syslog,
        quarantined_isis,
        lanes,
    }
    StreamDelta {
        seq,
        parent_seq,
        watermark,
        log,
        resolve_stats,
        is_stats,
        ip_stats,
        events_syslog,
        events_isis,
        batches,
        late_events,
        open_items,
        open_items_hwm,
        quarantined_syslog,
        quarantined_isis,
        lanes,
    }
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
}

/// A set of per-link lanes in flight between two engines — the payload
/// of live resharding ([`crate::cluster::ClusterConfig::reshard_at`]).
/// Each lane ships as its open state, the image a checkpoint holds,
/// captured by [`StreamAnalysis::export_lanes`] on the source engine and
/// attached by [`StreamAnalysis::import_lanes`] on the destination; what
/// the lane had finalized stays in the source engine's log. The lane list
/// is ascending by link (export preserves the request order, which the
/// cluster derives from the sorted link table), so serialization is
/// deterministic for a given state.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LaneMigration {
    lanes: Vec<LaneSnapshot>,
}

impl LaneMigration {
    /// How many lanes this migration carries.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Fold another migration's lanes onto this one (used when several
    /// source workers hand lanes to the same new worker).
    pub fn merge(&mut self, other: LaneMigration) {
        self.lanes.extend(other.lanes);
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
    link_table_wall: std::time::Duration,
    events_syslog: u64,
    events_isis: u64,
    batches: u64,
    late_events: u64,
    quarantined_syslog: u64,
    quarantined_isis: u64,
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
            link_table_wall,
            events_syslog: 0,
            events_isis: 0,
            batches: 0,
            late_events: 0,
            quarantined_syslog: 0,
            quarantined_isis: 0,
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

    /// Events consumed so far.
    pub fn events_ingested(&self) -> u64 {
        self.events_syslog + self.events_isis
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
            resolve_stats: self.kernel.resolve_stats,
            is_stats: self.kernel.is_stats,
            ip_stats: self.kernel.ip_stats,
            events_syslog: self.events_syslog,
            events_isis: self.events_isis,
            batches: self.batches,
            late_events: self.late_events,
            open_items: self.kernel.open_items,
            open_items_hwm: self.kernel.open_items_hwm,
            quarantined_syslog: self.quarantined_syslog,
            quarantined_isis: self.quarantined_isis,
            lanes: self.kernel.lanes.values().map(LinkLane::snapshot).collect(),
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
            resolve_stats: self.kernel.resolve_stats,
            is_stats: self.kernel.is_stats,
            ip_stats: self.kernel.ip_stats,
            events_syslog: self.events_syslog,
            events_isis: self.events_isis,
            batches: self.batches,
            late_events: self.late_events,
            open_items: self.kernel.open_items,
            open_items_hwm: self.kernel.open_items_hwm,
            quarantined_syslog: self.quarantined_syslog,
            quarantined_isis: self.quarantined_isis,
            lanes: self
                .kernel
                .lanes
                .values()
                .filter(|lane| lane.dirty)
                .map(LinkLane::snapshot)
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
    /// lanes, append the log tail, and overwrite the scalar state. The
    /// engine must be exactly at the delta's parent state — the sequence
    /// guard makes a mismatched application a typed error (surfaced by
    /// [`crate::recovery`] as a corrupt chain), never a silently wrong
    /// restore.
    pub fn apply_delta(&mut self, mut delta: StreamDelta) -> Result<(), String> {
        if delta.parent_seq != self.events_ingested() {
            return Err(format!(
                "delta parent seq {} does not match engine position {}",
                delta.parent_seq,
                self.events_ingested()
            ));
        }
        self.watermark = delta.watermark;
        self.kernel.log.append(&mut delta.log);
        self.kernel.resolve_stats = delta.resolve_stats;
        self.kernel.is_stats = delta.is_stats;
        self.kernel.ip_stats = delta.ip_stats;
        self.events_syslog = delta.events_syslog;
        self.events_isis = delta.events_isis;
        self.batches = delta.batches;
        self.late_events = delta.late_events;
        self.kernel.open_items = delta.open_items;
        self.kernel.open_items_hwm = delta.open_items_hwm;
        self.quarantined_syslog = delta.quarantined_syslog;
        self.quarantined_isis = delta.quarantined_isis;
        for snap in delta.lanes {
            self.kernel.lanes.insert(snap.link, LinkLane::restore(snap));
        }
        self.mark_clean();
        Ok(())
    }

    /// Rebuild an engine from a checkpoint against the same scenario's
    /// static side inputs (topology, offline spans, tickets). The
    /// embedded configuration is re-validated exactly as
    /// [`StreamAnalysis::try_new`] would. Wall-clock timers restart at
    /// zero — they describe this process, not the one that died.
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
        engine.watermark = ckpt.watermark;
        engine.kernel.log = ckpt.log;
        engine.kernel.resolve_stats = ckpt.resolve_stats;
        engine.kernel.is_stats = ckpt.is_stats;
        engine.kernel.ip_stats = ckpt.ip_stats;
        engine.events_syslog = ckpt.events_syslog;
        engine.events_isis = ckpt.events_isis;
        engine.batches = ckpt.batches;
        engine.late_events = ckpt.late_events;
        engine.kernel.open_items = ckpt.open_items;
        engine.kernel.open_items_hwm = ckpt.open_items_hwm;
        engine.quarantined_syslog = ckpt.quarantined_syslog;
        engine.quarantined_isis = ckpt.quarantined_isis;
        engine.kernel.lanes = ckpt
            .lanes
            .into_iter()
            .map(|s| (s.link, LinkLane::restore(s)))
            .collect();
        // Restored lanes are clean: the next delta diffs against exactly
        // this state.
        engine.mark_clean();
        Ok(engine)
    }

    /// Detach the requested links' lanes from this engine, whole. A link
    /// with no lane yet (no event has touched it) is simply skipped: a
    /// fresh lane is state-free, so the destination engine creating one
    /// on demand reproduces the same machine. The removed lanes stop
    /// counting toward this engine's open-state bound immediately.
    ///
    /// A lane is the link's whole open state — dedup anchor, endpoint
    /// maps, open/pending failures, the buffered match segment — so a
    /// moved lane continues on the destination exactly where it stopped
    /// here. What the link had finalized is in this engine's answer log;
    /// it stays behind, and the cluster merge interleaves the logs.
    pub fn export_lanes(&mut self, links: &[LinkIx]) -> LaneMigration {
        let mut lanes = Vec::new();
        for link in links {
            if let Some(lane) = self.kernel.lanes.remove(link) {
                self.kernel.open_items -= lane.open_items();
                lanes.push(lane.snapshot());
            }
        }
        LaneMigration { lanes }
    }

    /// Attach migrated lanes to this engine. Fails (typed, applying
    /// nothing further) if a lane arrives for a link this engine already
    /// has state for — that would silently discard one side's open
    /// state. Returns how many lanes were attached.
    pub fn import_lanes(&mut self, migration: LaneMigration) -> Result<u64, String> {
        let mut imported = 0u64;
        for snap in migration.lanes {
            if self.kernel.lanes.contains_key(&snap.link) {
                return Err(format!(
                    "lane migration for link {:?} collides with existing lane state",
                    snap.link
                ));
            }
            let lane = LinkLane::restore(snap);
            self.kernel.open_items += lane.open_items();
            self.kernel.lanes.insert(lane.link, lane);
            imported += 1;
        }
        self.kernel.open_items_hwm = self.kernel.open_items_hwm.max(self.kernel.open_items);
        Ok(imported)
    }

    /// Late-event reject check. An event stamped strictly before the
    /// watermark would hand the per-link state machines out-of-order
    /// history and could regress the watermark that every segment-close
    /// proof leans on, so it is counted ([`StreamingCounters::late_events`])
    /// and dropped. Like quarantine, it is still an *offered* event for
    /// the headline ingest counters.
    fn reject_late(&mut self, event: &StreamEvent) -> bool {
        let Some(w) = self.watermark else {
            return false;
        };
        if event.at() >= w {
            return false;
        }
        match event {
            StreamEvent::Syslog(_) => self.events_syslog += 1,
            StreamEvent::Isis(_) => self.events_isis += 1,
        }
        self.late_events += 1;
        true
    }

    /// Quarantine admit check. An event stamped past the configured
    /// horizon is counted and diverted *before* it can advance the
    /// watermark or touch any state machine — the same per-item
    /// predicate the batch driver applies during its merge pass, so both
    /// drivers see identical survivors regardless of arrival order.
    fn admit(&mut self, event: &StreamEvent) -> bool {
        let Some(horizon) = self.kernel.config.quarantine_horizon else {
            return true;
        };
        if event.at() <= horizon {
            return true;
        }
        // Still an offered event: ingest counters include it (mirroring
        // the batch pipeline's `syslog_ingested`, which counts the whole
        // archive), but resolution and merge stats never see it.
        match event {
            StreamEvent::Syslog(_) => {
                self.events_syslog += 1;
                self.quarantined_syslog += 1;
            }
            StreamEvent::Isis(_) => {
                self.events_isis += 1;
                self.quarantined_isis += 1;
            }
        }
        false
    }

    /// Count one admitted event as offered and route it through the
    /// kernel's serial classification.
    fn classify(&mut self, event: &StreamEvent) -> Option<(LinkIx, LaneEvent)> {
        match event {
            StreamEvent::Syslog(m) => {
                self.events_syslog += 1;
                self.kernel.classify_syslog(m)
            }
            StreamEvent::Isis(t) => {
                self.events_isis += 1;
                self.kernel.classify_isis(t)
            }
        }
    }

    /// Consume one event; says what became of it ([`IngestOutcome`]).
    pub fn ingest(&mut self, event: &StreamEvent) -> IngestOutcome {
        let t0 = Instant::now();
        if !self.admit(event) {
            self.ingest_wall += t0.elapsed();
            return IngestOutcome::Quarantined;
        }
        if self.reject_late(event) {
            self.ingest_wall += t0.elapsed();
            return IngestOutcome::Late;
        }
        // Not late, so `at` ties or advances the watermark: it never
        // regresses.
        self.watermark = Some(event.at());
        if let Some((link, lane_event)) = self.classify(event) {
            // Invariant: the watermark was set on this very event above.
            let watermark = self.watermark.expect("just noted");
            self.kernel.apply_one(link, lane_event, watermark);
        }
        self.ingest_wall += t0.elapsed();
        IngestOutcome::Accepted
    }

    /// Consume a micro-batch: resolution runs in feed order (to keep the
    /// counters and emit order deterministic), then each touched link's
    /// lane takes its run of the batch in place, in link order, on the
    /// calling thread. Returns the per-outcome tally for the batch.
    pub fn ingest_batch(&mut self, events: &[StreamEvent]) -> IngestSummary {
        let t0 = Instant::now();
        self.batches += 1;
        let mut summary = IngestSummary::default();
        // The arena is cleared after each batch (keeping its capacity),
        // so grouping stops allocating once the buffer has grown to the
        // largest batch seen.
        self.arena.clear();
        for event in events {
            if !self.admit(event) {
                summary.note(IngestOutcome::Quarantined);
                continue;
            }
            if self.reject_late(event) {
                summary.note(IngestOutcome::Late);
                continue;
            }
            self.watermark = Some(event.at());
            summary.note(IngestOutcome::Accepted);
            if let Some((link, lane_event)) = self.classify(event) {
                self.arena.push(link, lane_event);
            }
        }
        self.arena_events_hwm = self.arena_events_hwm.max(self.arena.len() as u64);
        if let Some(watermark) = self.watermark {
            self.kernel.apply_grouped(&mut self.arena, watermark);
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
    /// batch-identical global assembly, then wrap it in this run's
    /// accounting (stage timings, streaming counters, robustness).
    pub fn flush(self) -> StreamResult {
        let flush_started = Instant::now();
        let data = self.kernel.data;
        let open_state_high_water = self.kernel.open_items_hwm;
        let k = self.kernel.collect(self.events_syslog);
        let counters = k.output.counters;

        let total_wall = self.started.elapsed();
        let events = self.events_syslog + self.events_isis;
        let events_per_sec = if total_wall.as_secs_f64() > 0.0 {
            events as f64 / total_wall.as_secs_f64()
        } else {
            0.0
        };
        let streaming = StreamingCounters {
            events_ingested: events,
            syslog_events: self.events_syslog,
            isis_events: self.events_isis,
            batches: self.batches,
            late_events: self.late_events,
            segments_closed: k.segments_closed,
            open_state_high_water,
            arena_events_high_water: self.arena_events_hwm,
            watermark_lag_max_millis: self.watermark_lag_max_millis,
            finalized_at_flush: k.finalized_at_flush,
            flap_episodes: k.flap_episodes,
            events_per_sec,
        };

        let mut report = PipelineReport::new(1);
        report.record_stage(
            "link_table",
            data.topology.links().len() as u64,
            k.naming.table.len() as u64,
            self.link_table_wall,
        );
        report.record_stage(
            "stream_ingest",
            events,
            counters.transitions_derived,
            self.ingest_wall,
        );
        report.record_stage(
            "stream_flush",
            counters.failures_reconstructed,
            counters.failures_matched,
            flush_started.elapsed(),
        );
        report.counters = counters;
        report.streaming = Some(streaming);
        let mut robustness = analysis::robustness_baseline(data);
        robustness.quarantined_syslog = self.quarantined_syslog;
        robustness.quarantined_isis = self.quarantined_isis;
        report.robustness = robustness;
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

    // Lane export/import needs private access to enumerate the kernel's
    // lanes; the end-to-end resharding semantics live in
    // `tests/cluster_reshard.rs`.
    #[test]
    fn lane_export_import_moves_open_state_and_rejects_bad_payloads() {
        let data = run(&ScenarioParams::tiny(5));
        let events = scenario_event_stream(&data);
        let mut engine = StreamAnalysis::new(&data, AnalysisConfig::default());
        for event in &events[..events.len() / 2] {
            engine.ingest(event);
        }
        let links: Vec<LinkIx> = engine.kernel.lanes.keys().copied().collect();
        assert!(!links.is_empty(), "half the tiny stream must touch lanes");
        let open_before = engine.open_state();

        let moved = engine.export_lanes(&links);
        assert_eq!(moved.lane_count(), links.len());
        assert_eq!(engine.open_state(), 0, "exported lanes leave no open state");
        assert_eq!(
            engine.export_lanes(&links).lane_count(),
            0,
            "re-export of absent lanes is a no-op"
        );

        let imported = engine.import_lanes(moved.clone()).expect("import back");
        assert_eq!(imported, links.len() as u64);
        assert_eq!(engine.open_state(), open_before);
        assert!(
            engine.import_lanes(moved).unwrap_err().contains("collides"),
            "double import must be a typed error"
        );
    }
}
