//! Per-stage observability for the analysis pipeline.
//!
//! Production log-analysis systems live or die on knowing where time and
//! items go: events ingested, transitions derived, failures
//! reconstructed, matches made, items dropped by sanitization. This
//! module is that accounting layer. [`crate::analysis::Analysis::run`]
//! stamps each stage into a [`PipelineReport`] that rides along with the
//! results; [`crate::export`] serializes it to JSON/CSV for
//! `BENCH_*.json`-style datapoints.
//!
//! Narration: set `RUST_LOG=faultline_core=debug` (or
//! `FAULTLINE_TRACE=1`) and every recorded stage prints a one-line
//! summary to stderr as the pipeline runs. The check is a cheap
//! `OnceLock`-cached environment probe, so disabled narration costs one
//! branch per stage.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;
use std::time::Duration as WallDuration;

/// One pipeline stage's accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageReport {
    /// Stable stage identifier. [`crate::analysis::Analysis::run`]
    /// records `link_table`, `classify`, `lane_apply`, and `collect`; a
    /// flushed stream records `link_table`, `stream_ingest`, and
    /// `stream_flush`.
    pub stage: String,
    /// Items entering the stage.
    pub items_in: u64,
    /// Items leaving the stage.
    pub items_out: u64,
    /// Wall-clock time spent, microseconds.
    pub wall_micros: u64,
}

impl StageReport {
    /// Wall time in milliseconds.
    pub fn wall_millis(&self) -> f64 {
        self.wall_micros as f64 / 1_000.0
    }

    /// Input items per second; `0.0` for an instantaneous stage.
    pub fn throughput(&self) -> f64 {
        if self.wall_micros == 0 {
            0.0
        } else {
            self.items_in as f64 * 1e6 / self.wall_micros as f64
        }
    }
}

/// Headline item counters across the whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineCounters {
    /// Raw syslog messages offered to resolution.
    pub syslog_ingested: u64,
    /// Raw listener transitions offered to the link-level merges (IS and
    /// IP reachability).
    pub isis_ingested: u64,
    /// Link-level transitions derived (IS + IP + deduplicated syslog).
    pub transitions_derived: u64,
    /// Failures reconstructed before sanitization, both sources.
    pub failures_reconstructed: u64,
    /// Failures surviving sanitization and the multi-link filter, both
    /// sources.
    pub failures_after_sanitize: u64,
    /// Failures dropped between reconstruction and matching (listener
    /// outages, unverified long failures, multi-link members).
    pub sanitize_dropped: u64,
    /// Exact failure matches across the two sources.
    pub failures_matched: u64,
    /// Ambiguous double-message periods seen during reconstruction, both
    /// sources.
    pub ambiguous_periods: u64,
}

/// The counters of the [`crate::streaming::StreamAnalysis`] engine that
/// every run goes through (a cluster's are its engines', summed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamingCounters {
    /// Total events consumed (`syslog_events + isis_events`).
    pub events_ingested: u64,
    /// Syslog messages consumed.
    pub syslog_events: u64,
    /// IS-IS listener transitions consumed.
    pub isis_events: u64,
    /// Micro-batches ingested via `ingest_batch` (0 when fed one event
    /// at a time).
    pub batches: u64,
    /// Events arriving with a timestamp behind the watermark.
    pub late_events: u64,
    /// Per-link match segments finalized before flush (quiet-gap closes).
    pub segments_closed: u64,
    /// High-water mark of items held in mutable per-link state.
    pub open_state_high_water: u64,
    /// High-water mark of events resident in the micro-batch grouping
    /// arena — the other half of the engine's bounded working memory.
    #[serde(default)]
    pub arena_events_high_water: u64,
    /// Worst observed gap between the arrival frontier the driver
    /// reported (`StreamAnalysis::note_arrival_frontier`) and the
    /// engine's watermark, in simulated milliseconds. 0 when the driver
    /// never reported a frontier (no admission layer in front).
    #[serde(default)]
    pub watermark_lag_max_millis: u64,
    /// Open or pending failures only finalized by `flush`.
    pub finalized_at_flush: u64,
    /// Flapping episodes observed on the sanitized IS-IS stream.
    pub flap_episodes: u64,
    /// End-to-end ingest rate, events per wall-clock second.
    pub events_per_sec: f64,
}

/// Accounting for the crash-safety layer around a streaming run
/// ([`crate::recovery::DurableStream`]): checkpoints written, journal
/// growth, and — after a recovery — how much state came back from disk.
/// Absent (`None`) on runs that did not go through the durability layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DurabilityCounters {
    /// Checkpoints successfully written (post-retry).
    pub checkpoints_written: u64,
    /// Size in bytes of the most recent checkpoint payload.
    pub checkpoint_bytes_last: u64,
    /// Slowest single snapshot write, microseconds: serialize + hash +
    /// write (fsync, rename), with any retries and the retention pass —
    /// the same quantity whichever thread did the writing.
    pub checkpoint_write_micros_max: u64,
    /// Checkpoint write attempts that failed and were retried.
    pub checkpoint_retries: u64,
    /// Events appended to the write-ahead journal this run.
    pub journal_records: u64,
    /// Journal segments started this run (1 unless rotation kicked in).
    pub journal_segments: u64,
    /// Bytes appended to the journal this run.
    pub journal_bytes: u64,
    /// Group-commit `fsync` calls issued on journal segments this run
    /// (0 unless [`crate::recovery::DurabilityPolicy`] sets
    /// `fsync_every_n_records`).
    #[serde(default)]
    pub journal_fsyncs: u64,
    /// Recoveries this engine instance went through (0 for an
    /// uninterrupted run, 1 when built by the recovery supervisor).
    pub restores: u64,
    /// Journal events replayed into the engine during recovery.
    pub events_replayed: u64,
    /// Torn journal records dropped at a segment tail during recovery.
    pub journal_truncated_records: u64,
    /// Incremental delta snapshots successfully written (a subset of
    /// `checkpoints_written`; the rest were full bases).
    #[serde(default)]
    pub deltas_written: u64,
    /// Total bytes across all delta snapshots written this run.
    #[serde(default)]
    pub delta_bytes_total: u64,
    /// Total bytes across all full base checkpoints written this run.
    #[serde(default)]
    pub full_bytes_total: u64,
    /// Deltas the last recovery applied on top of its full base (0 when
    /// the restored tip was itself a full checkpoint, or no recovery
    /// happened).
    #[serde(default)]
    pub chain_length_at_recovery: u64,
    /// Times the ingest thread blocked because the snapshot writer's
    /// bounded hand-off queue was full (backpressure).
    #[serde(default)]
    pub snapshot_thread_stalls: u64,
    /// Cadence snapshots written on the ingest thread because the
    /// writer thread had given up on an earlier one.
    #[serde(default)]
    pub snapshot_sync_fallbacks: u64,
    /// Wall-clock time the ingest thread spent inside the snapshot
    /// section (capture + hand-off to the writer thread; the whole
    /// write once it has fallen back to writing inline), microseconds.
    #[serde(default)]
    pub ingest_stall_micros: u64,
    /// [`DurabilityCounters::snapshot_thread_stalls`] per wall-clock
    /// second of the run so far — the per-second surfacing of
    /// snapshot-writer backpressure that capacity SLOs gate on. A raw
    /// stall *count* looks fine on a long run while the writer is
    /// actually saturated; the rate does not.
    #[serde(default)]
    pub snapshot_stall_rate_per_sec: f64,
}

/// What the pipeline refused or quarantined instead of crashing on: the
/// graceful-degradation side of the ledger. All zeros on a clean run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RobustnessCounters {
    /// Raw archive lines behind the parsed messages.
    pub raw_lines: u64,
    /// Lines the parser classified as malformed (counted, never fatal).
    pub malformed_lines: u64,
    /// Well-formed lines with non-studied mnemonics.
    pub irrelevant_lines: u64,
    /// Syslog messages quarantined: text timestamp beyond the configured
    /// horizon ([`crate::analysis::AnalysisConfig::quarantine_horizon`]).
    pub quarantined_syslog: u64,
    /// Listener transitions quarantined past the same horizon.
    pub quarantined_isis: u64,
}

impl RobustnessCounters {
    /// Total items diverted away from the reconstruction state machines.
    pub fn total_quarantined(&self) -> u64 {
        self.quarantined_syslog + self.quarantined_isis
    }
}

/// The overload ledger of an admission-controlled run
/// ([`crate::admission::AdmissionController`]): what arrived, what the
/// engine served, what the quarantine gate diverted, and — under the
/// shedding policy — exactly what was dropped, by priority class and by
/// mechanism. Absent (`None`) on runs without an admission layer.
///
/// The ledger balances **exactly** once the queue has drained:
/// [`OverloadCounters::conserved`] checks
/// `admitted + shed + quarantined == offered`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverloadCounters {
    /// Events offered to (and consumed by) the admission queue. Offers
    /// bounced by blocking backpressure are *not* counted until they are
    /// re-offered and consumed.
    pub offered: u64,
    /// Events the engine accepted past the quarantine gate — admitted =
    /// accepted + late (late ones are sub-counted in
    /// [`StreamingCounters::late_events`]).
    pub admitted: u64,
    /// Events dropped by the shedding policy (refused or evicted).
    pub shed: u64,
    /// Events the engine's quarantine horizon diverted (the same events
    /// counted in [`RobustnessCounters`]).
    pub quarantined: u64,
    /// Shed IS-IS listener transitions
    /// ([`crate::admission::EventClass::Critical`] — should stay 0
    /// unless the queue holds nothing else).
    pub shed_critical: u64,
    /// Shed syslog link/adjacency DOWN/UP messages.
    pub shed_important: u64,
    /// Shed line-protocol chatter — the class designed to go first.
    pub shed_chatter: u64,
    /// Shed events that were already queued and got evicted by a
    /// higher-priority (or tie-break-winning) newcomer.
    pub shed_evicted: u64,
    /// Shed events refused at the door.
    pub shed_refused: u64,
    /// Offers bounced under [`crate::admission::OverloadPolicy::Block`]
    /// (each bounce is one drain-and-retry round trip).
    pub backpressure_waits: u64,
    /// High-water mark of events resident in the bounded queue — the
    /// admission layer's memory bound, never above the configured
    /// capacity.
    pub queue_high_water: u64,
    /// Worst observed arrival-frontier-to-delivery-frontier gap in
    /// simulated milliseconds — how far behind the newest arrival the
    /// service fell.
    pub watermark_lag_max_millis: u64,
}

impl OverloadCounters {
    /// The exact-conservation identity: every offered event is admitted,
    /// shed, or quarantined — true for any finished (fully drained,
    /// engine-acknowledged) run.
    pub fn conserved(&self) -> bool {
        self.admitted + self.shed + self.quarantined == self.offered
    }

    /// Fraction of offered events shed; 0.0 on an empty run.
    pub fn shed_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }
}

/// Accounting for a sharded cluster run ([`crate::cluster`]): how the
/// partitioner spread the stream, how balanced the shards were, and what
/// the supervisor had to recover. Absent (`None`) on single-process
/// runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardCounters {
    /// Worker shards the run used.
    pub shards: u32,
    /// Lane rows routed to each shard, in shard order: an event that
    /// yields no row (physical-media, line-protocol, unresolved,
    /// multi-link, late, quarantined) reaches no shard.
    pub events_per_shard: Vec<u64>,
    /// Links the partitioner assigned to each shard, in shard order.
    pub links_per_shard: Vec<u64>,
    /// Busiest shard's row count.
    pub max_shard_events: u64,
    /// Quietest shard's row count.
    pub min_shard_events: u64,
    /// Load skew: busiest shard's rows over the per-shard mean (1.0 is
    /// perfectly balanced; 0.0 when no event yielded a row).
    pub skew: f64,
    /// Shards the supervisor recovered mid-run (0 on a healthy run).
    pub recovery_events: u64,
    /// Wall time the deterministic aggregator spent merging shard
    /// outputs, microseconds.
    pub merge_micros: u64,
}

/// Accounting for the shard transport under a cluster run
/// ([`crate::transport::ShardTransport`]): frames and bytes exchanged
/// between the dispatcher and its workers, worker lifecycle events, and
/// the cost of live lane migration. Absent (`None`) on runs that did
/// not go through a transport. Byte counters stay 0 on the in-process
/// transport, which moves messages without serializing them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportCounters {
    /// Frames the dispatcher sent to workers.
    pub frames_sent: u64,
    /// Frames the dispatcher received from workers.
    pub frames_received: u64,
    /// Serialized bytes sent (subprocess transport only).
    pub bytes_sent: u64,
    /// Serialized bytes received (subprocess transport only).
    pub bytes_received: u64,
    /// Workers started over the transport's lifetime (initial spawns,
    /// respawns, and live-reshard growth).
    pub workers_spawned: u64,
    /// Workers respawned after the supervisor observed their death.
    pub worker_restarts: u64,
    /// Workers the supervisor killed deliberately (chaos injection).
    pub workers_killed: u64,
    /// Per-link lanes moved between workers by live resharding.
    pub lanes_migrated: u64,
    /// Wall time spent exporting, shipping, and importing migrated
    /// lanes, microseconds.
    pub migration_micros: u64,
}

/// Per-stage counters and wall-clock timings for one
/// [`crate::analysis::Analysis`] run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Threads the run's lane work used: 1 for every driver and every
    /// cluster shard, since lanes apply on the calling thread.
    pub threads: usize,
    /// Per-stage accounting, in execution order.
    pub stages: Vec<StageReport>,
    /// Headline counters.
    pub counters: PipelineCounters,
    /// The streaming engine's counters; `None` only on a report built
    /// by hand.
    #[serde(default)]
    pub streaming: Option<StreamingCounters>,
    /// Durability-layer counters; `None` unless the run was wrapped in
    /// [`crate::recovery::DurableStream`].
    #[serde(default)]
    pub durability: Option<DurabilityCounters>,
    /// Overload/admission ledger; `None` unless the run went through an
    /// [`crate::admission::AdmissionController`].
    #[serde(default)]
    pub overload: Option<OverloadCounters>,
    /// Degradation accounting (malformed lines, quarantined items).
    #[serde(default)]
    pub robustness: RobustnessCounters,
    /// Sharded-cluster counters; `None` unless the run came from
    /// [`crate::cluster::run_cluster`].
    #[serde(default)]
    pub cluster: Option<ShardCounters>,
    /// Shard-transport counters; `None` unless the run's shards spoke
    /// through a [`crate::transport::ShardTransport`].
    #[serde(default)]
    pub transport: Option<TransportCounters>,
    /// End-to-end wall time, microseconds.
    pub total_micros: u64,
}

impl PipelineReport {
    /// New empty report for a run with `threads` workers.
    pub fn new(threads: usize) -> Self {
        PipelineReport {
            threads,
            ..PipelineReport::default()
        }
    }

    /// Record a completed stage; narrates it when tracing is enabled.
    pub fn record_stage(&mut self, stage: &str, items_in: u64, items_out: u64, wall: WallDuration) {
        let wall_micros = wall.as_micros() as u64;
        narrate(|| {
            format!(
                "stage {stage:<16} {items_in:>9} -> {items_out:>9} items  {:>10.3} ms",
                wall_micros as f64 / 1_000.0
            )
        });
        self.stages.push(StageReport {
            stage: stage.to_string(),
            items_in,
            items_out,
            wall_micros,
        });
    }

    /// Look up a stage by name.
    pub fn stage(&self, name: &str) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// End-to-end wall time in milliseconds.
    pub fn total_millis(&self) -> f64 {
        self.total_micros as f64 / 1_000.0
    }
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipeline report: {} stages, {:.3} ms total, {} thread(s)",
            self.stages.len(),
            self.total_millis(),
            self.threads
        )?;
        writeln!(
            f,
            "  {:<16} {:>10} {:>10} {:>11} {:>12}",
            "stage", "items in", "items out", "wall (ms)", "items/s"
        )?;
        for s in &self.stages {
            writeln!(
                f,
                "  {:<16} {:>10} {:>10} {:>11.3} {:>12.0}",
                s.stage,
                s.items_in,
                s.items_out,
                s.wall_millis(),
                s.throughput()
            )?;
        }
        let c = &self.counters;
        writeln!(
            f,
            "  ingested {} syslog + {} isis; {} transitions derived",
            c.syslog_ingested, c.isis_ingested, c.transitions_derived
        )?;
        writeln!(
            f,
            "  failures: {} reconstructed, {} after sanitize ({} dropped), {} matched; {} ambiguous periods",
            c.failures_reconstructed,
            c.failures_after_sanitize,
            c.sanitize_dropped,
            c.failures_matched,
            c.ambiguous_periods
        )?;
        let r = &self.robustness;
        if *r != RobustnessCounters::default() {
            writeln!(
                f,
                "  robustness: {} raw lines ({} malformed, {} irrelevant), {} syslog + {} isis quarantined",
                r.raw_lines,
                r.malformed_lines,
                r.irrelevant_lines,
                r.quarantined_syslog,
                r.quarantined_isis
            )?;
        }
        if let Some(s) = &self.streaming {
            writeln!(
                f,
                "  streaming: {} events in {} batches ({:.0}/s), {} late, {} segments closed, hwm {} open / {} arena, lag {} ms, {} finalized at flush",
                s.events_ingested,
                s.batches,
                s.events_per_sec,
                s.late_events,
                s.segments_closed,
                s.open_state_high_water,
                s.arena_events_high_water,
                s.watermark_lag_max_millis,
                s.finalized_at_flush
            )?;
        }
        if let Some(o) = &self.overload {
            writeln!(
                f,
                "  overload: {} offered = {} admitted + {} shed + {} quarantined ({}), shed {}/{}/{} crit/imp/chatter ({} evicted, {} refused), {} waits, queue hwm {}, lag {} ms",
                o.offered,
                o.admitted,
                o.shed,
                o.quarantined,
                if o.conserved() { "conserved" } else { "UNBALANCED" },
                o.shed_critical,
                o.shed_important,
                o.shed_chatter,
                o.shed_evicted,
                o.shed_refused,
                o.backpressure_waits,
                o.queue_high_water,
                o.watermark_lag_max_millis
            )?;
        }
        if let Some(d) = &self.durability {
            writeln!(
                f,
                "  durability: {} checkpoints ({} deltas, last {} B, worst {:.3} ms, {} retries, {} stalls @ {:.2}/s, {} sync fallbacks), {} journal records in {} segments ({} B), {} restores ({} replayed, {} torn, chain {})",
                d.checkpoints_written,
                d.deltas_written,
                d.checkpoint_bytes_last,
                d.checkpoint_write_micros_max as f64 / 1_000.0,
                d.checkpoint_retries,
                d.snapshot_thread_stalls,
                d.snapshot_stall_rate_per_sec,
                d.snapshot_sync_fallbacks,
                d.journal_records,
                d.journal_segments,
                d.journal_bytes,
                d.restores,
                d.events_replayed,
                d.journal_truncated_records,
                d.chain_length_at_recovery
            )?;
        }
        if let Some(c) = &self.cluster {
            writeln!(
                f,
                "  cluster: {} shards, {}..{} events/shard (skew {:.2}), {} recoveries, merge {:.3} ms",
                c.shards,
                c.min_shard_events,
                c.max_shard_events,
                c.skew,
                c.recovery_events,
                c.merge_micros as f64 / 1_000.0
            )?;
        }
        if let Some(t) = &self.transport {
            writeln!(
                f,
                "  transport: {} frames out / {} in ({} B out / {} B in), {} spawned ({} restarts, {} killed), {} lanes migrated in {:.3} ms",
                t.frames_sent,
                t.frames_received,
                t.bytes_sent,
                t.bytes_received,
                t.workers_spawned,
                t.worker_restarts,
                t.workers_killed,
                t.lanes_migrated,
                t.migration_micros as f64 / 1_000.0
            )?;
        }
        Ok(())
    }
}

/// True when pipeline narration is enabled: `FAULTLINE_TRACE` set to
/// anything but `0`, or a `RUST_LOG` directive enabling `debug`/`trace`
/// globally or for `faultline_core`.
pub fn narration_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        if std::env::var_os("FAULTLINE_TRACE").is_some_and(|v| v != "0") {
            return true;
        }
        match std::env::var("RUST_LOG") {
            Ok(spec) => spec.split(',').any(|directive| {
                let d = directive.trim().to_ascii_lowercase();
                matches!(d.as_str(), "debug" | "trace")
                    || d.strip_prefix("faultline_core=")
                        .is_some_and(|lvl| lvl == "debug" || lvl == "trace")
            }),
            Err(_) => false,
        }
    })
}

/// Emit a lazily-formatted narration line to stderr when enabled.
pub fn narrate(line: impl FnOnce() -> String) {
    if narration_enabled() {
        eprintln!("[faultline_core] {}", line());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PipelineReport {
        let mut r = PipelineReport::new(4);
        r.record_stage("resolve_syslog", 1000, 900, WallDuration::from_micros(1500));
        r.record_stage("reconstruct", 900, 120, WallDuration::from_micros(800));
        r.counters.syslog_ingested = 1000;
        r.counters.failures_reconstructed = 120;
        r.total_micros = 2300;
        r
    }

    #[test]
    fn stage_lookup_and_derived_quantities() {
        let r = sample();
        let s = r.stage("resolve_syslog").expect("recorded");
        assert_eq!(s.items_in, 1000);
        assert_eq!(s.items_out, 900);
        assert!((s.wall_millis() - 1.5).abs() < 1e-9);
        assert!((s.throughput() - 1000.0 * 1e6 / 1500.0).abs() < 1e-6);
        assert!(r.stage("nonexistent").is_none());
        assert!((r.total_millis() - 2.3).abs() < 1e-9);
    }

    #[test]
    fn zero_wall_stage_has_zero_throughput() {
        let mut r = PipelineReport::new(1);
        r.record_stage("instant", 5, 5, WallDuration::ZERO);
        assert_eq!(r.stage("instant").unwrap().throughput(), 0.0);
    }

    #[test]
    fn display_names_every_stage() {
        let r = sample();
        let text = format!("{r}");
        assert!(text.contains("resolve_syslog"));
        assert!(text.contains("reconstruct"));
        assert!(text.contains("4 thread(s)"));
        assert!(text.contains("120 reconstructed"));
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample();
        let json = serde_json::to_string(&r).unwrap();
        let back: PipelineReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.threads, 4);
        assert_eq!(back.stages.len(), 2);
        assert_eq!(back.stages[0].wall_micros, 1500);
        assert_eq!(back.counters.syslog_ingested, 1000);
        assert!(back.durability.is_none(), "absent by default");
    }

    #[test]
    fn durability_counters_render_and_round_trip() {
        let mut r = sample();
        r.durability = Some(DurabilityCounters {
            checkpoints_written: 3,
            checkpoint_bytes_last: 4096,
            checkpoint_write_micros_max: 1500,
            checkpoint_retries: 1,
            journal_records: 1000,
            journal_segments: 2,
            journal_bytes: 123_456,
            journal_fsyncs: 125,
            restores: 1,
            events_replayed: 250,
            journal_truncated_records: 1,
            deltas_written: 2,
            delta_bytes_total: 900,
            full_bytes_total: 4096,
            chain_length_at_recovery: 2,
            snapshot_thread_stalls: 4,
            snapshot_sync_fallbacks: 1,
            ingest_stall_micros: 777,
            snapshot_stall_rate_per_sec: 0.25,
        });
        let text = format!("{r}");
        assert!(text.contains("durability: 3 checkpoints (2 deltas"));
        assert!(text.contains("4 stalls @ 0.25/s"));
        assert!(text.contains("1 restores (250 replayed, 1 torn, chain 2)"));
        let back: PipelineReport =
            serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(back.durability, r.durability);
    }

    #[test]
    fn transport_counters_render_and_round_trip() {
        let mut r = sample();
        assert!(!format!("{r}").contains("transport:"), "absent by default");
        r.transport = Some(TransportCounters {
            frames_sent: 42,
            frames_received: 7,
            bytes_sent: 1_000,
            bytes_received: 2_000,
            workers_spawned: 5,
            worker_restarts: 1,
            workers_killed: 1,
            lanes_migrated: 12,
            migration_micros: 2_500,
        });
        let text = format!("{r}");
        assert!(text.contains("transport: 42 frames out / 7 in"));
        assert!(text.contains("5 spawned (1 restarts, 1 killed)"));
        assert!(text.contains("12 lanes migrated in 2.500 ms"));
        let back: PipelineReport =
            serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(back.transport, r.transport);
    }

    #[test]
    fn overload_counters_render_conserve_and_round_trip() {
        let mut r = sample();
        assert!(!format!("{r}").contains("overload:"), "absent by default");
        let o = OverloadCounters {
            offered: 100,
            admitted: 80,
            shed: 15,
            quarantined: 5,
            shed_critical: 0,
            shed_important: 3,
            shed_chatter: 12,
            shed_evicted: 9,
            shed_refused: 6,
            backpressure_waits: 0,
            queue_high_water: 64,
            watermark_lag_max_millis: 1500,
        };
        assert!(o.conserved());
        assert!((o.shed_fraction() - 0.15).abs() < 1e-12);
        r.overload = Some(o);
        let text = format!("{r}");
        assert!(text
            .contains("overload: 100 offered = 80 admitted + 15 shed + 5 quarantined (conserved)"));
        assert!(text.contains("shed 0/3/12 crit/imp/chatter (9 evicted, 6 refused)"));
        let back: PipelineReport =
            serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(back.overload, r.overload);
        let unbalanced = OverloadCounters { admitted: 79, ..o };
        assert!(!unbalanced.conserved());
        assert!(format!("{}", {
            let mut r2 = sample();
            r2.overload = Some(unbalanced);
            r2
        })
        .contains("UNBALANCED"));
    }
}
