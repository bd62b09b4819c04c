//! The end-to-end analysis: from a scenario's observables to every table
//! and figure in the paper.
//!
//! [`Analysis::new`] runs the full pipeline once through the one driver,
//! [`crate::streaming::StreamAnalysis`]: the time-merged archive is fed
//! in [`BATCH`]-event batches, so each lane's match segments close at
//! its quiet gaps as the archive is read, exactly as a live stream's do.
//! The `table*`/`figure1` methods then derive each exhibit from the
//! resulting [`StreamOutput`]. Experiment binaries in `faultline-bench`
//! print these structures; integration tests assert on their fields.

use crate::error::AnalysisError;
use crate::flap::{detect_episodes, FlapIndex};
use crate::fp::{
    classify_ambiguous, classify_false_positives, AmbiguityCounts, FpReport, LinkStateTimeline,
};
use crate::isolation::{self, IsolationComparison, IsolationOutcome};
use crate::kernel::StreamOutput;
use crate::ks::{ks_two_sample, KsResult};
use crate::linktable::{LinkIx, LinkTable, Naming};
use crate::matching::{match_fraction, match_transitions_to_messages, TransitionMatchCounts};
use crate::observe::PipelineReport;
use crate::reconstruct::{AmbiguityStrategy, Failure};
use crate::stats::{metric_samples, Ecdf, MetricSamples, Summary};
use crate::streaming::{observed_stream, Stages, StreamAnalysis, StreamResult};
use crate::transitions::{LinkTransition, MessageFamily, ResolvedMessage};
use faultline_isis::listener::TransitionDirection;
use faultline_sim::ScenarioData;
use faultline_topology::link::{LinkClass, LinkId};
use faultline_topology::router::RouterClass;
use faultline_topology::time::{Duration, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Tunable analysis parameters, defaulted to the paper's choices.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// Transition/failure matching window (§3.4: 10 s, the knee).
    pub match_window: Duration,
    /// Both-end confirmation merge window for syslog.
    pub dedup_window: Duration,
    /// Flapping gap threshold (§4.1: 10 minutes).
    pub flap_gap: Duration,
    /// Padding applied around flap episodes when classifying.
    pub flap_pad: Duration,
    /// Long-failure verification threshold (§4.2: 24 h).
    pub long_threshold: Duration,
    /// Slack allowed when matching failures to tickets.
    pub ticket_slack: Duration,
    /// Short false-positive threshold (§4.3: 10 s).
    pub short_fp_threshold: Duration,
    /// Double-message interpretation (§4.3).
    pub strategy: AmbiguityStrategy,
    /// Retired scheduling knob; steers nothing (see
    /// [`ParallelismConfig`]). Not part of the paper.
    #[serde(default)]
    pub parallelism: ParallelismConfig,
    /// Quarantine horizon: messages and transitions stamped *after* this
    /// instant are diverted into
    /// [`crate::observe::RobustnessCounters`] instead of entering the
    /// state machines. Bounds the damage a badly skewed router clock can
    /// do. `None` (the default) disables the lane; the predicate is
    /// per-item and order-independent, so batch and streaming agree.
    #[serde(default)]
    pub quarantine_horizon: Option<Timestamp>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            match_window: Duration::from_secs(10),
            dedup_window: Duration::from_secs(10),
            flap_gap: Duration::from_secs(600),
            flap_pad: Duration::from_secs(30),
            long_threshold: Duration::from_hours(24),
            ticket_slack: Duration::from_hours(3),
            short_fp_threshold: Duration::from_secs(10),
            strategy: AmbiguityStrategy::PreviousState,
            parallelism: ParallelismConfig::default(),
            quarantine_horizon: None,
        }
    }
}

fn default_chunk_size() -> usize {
    16
}

/// The retired lane fan-out knob, kept as a compatibility shell.
///
/// It steers nothing: every lane is applied in place on the calling
/// thread, whatever the fields say (`tests/determinism.rs` holds a
/// `threads: 8, chunk_size: 3` config to the default's bytes). Its
/// fields, serde defaults and snapshot row stay because archived
/// configs and checkpoints carry it (`on_disk_format_is_pinned` pins
/// its bytes) and the benchmark's ledger still builds one. It goes with
/// the benchmark's per-thread ledger rows and the next checkpoint
/// format version (ROADMAP.md, item 7: the benchmark rework).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelismConfig {
    /// Once the lane worker count (`0` = one per core); ignored.
    #[serde(default)]
    pub threads: usize,
    /// Once the link groups a worker claimed at a time; ignored.
    #[serde(default = "default_chunk_size")]
    pub chunk_size: usize,
}

impl Default for ParallelismConfig {
    fn default() -> Self {
        ParallelismConfig {
            threads: 0,
            chunk_size: default_chunk_size(),
        }
    }
}

impl ParallelismConfig {
    /// The one-thread config.
    pub const SERIAL: ParallelismConfig = ParallelismConfig {
        threads: 1,
        chunk_size: 16,
    };

    /// A config with an explicit worker count and the default chunk size.
    pub fn with_threads(threads: usize) -> Self {
        ParallelismConfig {
            threads,
            ..ParallelismConfig::default()
        }
    }
}

/// The events per batch [`Analysis::run`] feeds its engine, the unit a
/// live collector serves: a lane's match segments close at its quiet
/// gaps as the archive is read (matching a segment is quadratic in its
/// failures; see the [`crate::streaming`] equivalence contract).
pub const BATCH: usize = 256;

/// The fully-run pipeline.
pub struct Analysis<'a> {
    /// The scenario under analysis.
    pub data: &'a ScenarioData,
    /// Parameters used.
    pub config: AnalysisConfig,
    /// Common naming layer.
    pub table: LinkTable,
    /// Analysis-index → topology-id translation (via unique /31s),
    /// indexed by `LinkIx`: `link_of_ix[ix.0 as usize]`.
    pub link_of_ix: Vec<Option<LinkId>>,
    /// Everything the kernel derived from the observables — the same
    /// comparable surface a flushed [`crate::streaming::StreamAnalysis`]
    /// produces, byte-identical for the same data and configuration.
    pub output: StreamOutput,
    /// Per-stage counters and wall-clock timings for this run.
    pub report: PipelineReport,
}

impl<'a> Analysis<'a> {
    /// Run the pipeline. Alias of [`Analysis::run`], kept for existing
    /// callers.
    pub fn new(data: &'a ScenarioData, config: AnalysisConfig) -> Self {
        Analysis::run(data, config)
    }

    /// Validate the configuration and input data, then run the
    /// pipeline. [`Analysis::run`] accepts anything and continues in
    /// degraded mode; this surface reports the conditions that would
    /// silently corrupt results — nonsensical window parameters, or
    /// archives violating the pipeline's sort-order contract — as typed
    /// [`AnalysisError`]s instead.
    pub fn try_run(data: &'a ScenarioData, config: AnalysisConfig) -> Result<Self, AnalysisError> {
        validate_inputs(data, &config)?;
        Ok(Analysis::run(data, config))
    }

    /// Run the full pipeline once: mine the naming layer, feed
    /// [`crate::streaming::scenario_event_stream`]'s merge, borrowed, to
    /// a [`crate::streaming::StreamAnalysis`] in [`BATCH`]-event batches
    /// and flush it. [`Analysis::report`] times the stages `link_table`,
    /// `classify` and `lane_apply` (each batch's two halves) and
    /// `collect`, and carries the engine's own counters.
    ///
    /// # Examples
    ///
    /// ```
    /// use faultline_core::{Analysis, AnalysisConfig};
    /// use faultline_sim::scenario::{run, ScenarioParams};
    ///
    /// let data = run(&ScenarioParams::tiny(7));
    /// let analysis = Analysis::run(&data, AnalysisConfig::default());
    /// assert!(analysis.table4().isis_failures > 0);
    /// // The run carries its own per-stage accounting.
    /// assert!(analysis.report.stage("classify").is_some());
    /// assert!(analysis.report.counters.syslog_ingested > 0);
    /// ```
    pub fn run(data: &'a ScenarioData, config: AnalysisConfig) -> Self {
        let started = Instant::now();
        let naming = Arc::new(Naming::mine(data));
        let mut engine =
            StreamAnalysis::with_naming(data, config.clone(), Arc::clone(&naming), started);
        for batch in observed_stream(data).chunks(BATCH) {
            engine.feed(batch.iter().copied());
        }
        let StreamResult { output, report } = engine.finish(Stages::Batch);
        // The engine was the naming layer's only other holder.
        let Naming { table, link_of_ix } = Arc::unwrap_or_clone(naming);
        Analysis {
            data,
            config,
            table,
            link_of_ix,
            output,
            report,
        }
    }

    /// Messages of one family.
    fn family(&self, family: MessageFamily) -> Vec<ResolvedMessage> {
        self.output
            .messages
            .iter()
            .filter(|m| m.family == family)
            .cloned()
            .collect()
    }

    /// Table 1: dataset summary.
    pub fn table1(&self) -> Table1 {
        let topo = &self.data.topology;
        Table1 {
            period_days: self.data.period_days,
            core_routers: topo.router_count(RouterClass::Core) as u64,
            cpe_routers: topo.router_count(RouterClass::Cpe) as u64,
            config_files: topo.routers().len() as u64,
            core_links: topo.link_count(LinkClass::Core) as u64,
            cpe_links: topo.link_count(LinkClass::Cpe) as u64,
            multi_link_pairs: topo.multi_link_pairs() as u64,
            syslog_adjacency_messages: self.output.resolve_stats.isis_resolved,
            syslog_lines_total: self.data.raw_syslog_lines as u64,
            isis_updates: self.data.lsps_flooded,
        }
    }

    /// Table 2: % of IS/IP-reachability transitions matching syslog
    /// messages of each family and direction.
    pub fn table2(&self) -> Table2 {
        let isis_msgs = self.family(MessageFamily::IsisAdjacency);
        let phys_msgs = self.family(MessageFamily::PhysicalMedia);
        let w = self.config.match_window;
        let cell = |trs: &[LinkTransition], msgs: &[ResolvedMessage], dir| {
            let (m, t) = match_fraction(trs, msgs, w, dir);
            if t == 0 {
                0.0
            } else {
                100.0 * m as f64 / t as f64
            }
        };
        use TransitionDirection::{Down, Up};
        Table2 {
            isis_down: (
                cell(&self.output.is_transitions, &isis_msgs, Down),
                cell(&self.output.ip_transitions, &isis_msgs, Down),
            ),
            isis_up: (
                cell(&self.output.is_transitions, &isis_msgs, Up),
                cell(&self.output.ip_transitions, &isis_msgs, Up),
            ),
            phys_down: (
                cell(&self.output.is_transitions, &phys_msgs, Down),
                cell(&self.output.ip_transitions, &phys_msgs, Down),
            ),
            phys_up: (
                cell(&self.output.is_transitions, &phys_msgs, Up),
                cell(&self.output.ip_transitions, &phys_msgs, Up),
            ),
        }
    }

    /// Table 3: IS-IS transitions matched by None/One/Both routers'
    /// syslog messages, plus the flapping share of unmatched transitions.
    pub fn table3(&self) -> Table3 {
        let isis_msgs = self.family(MessageFamily::IsisAdjacency);
        let (down, up) = match_transitions_to_messages(
            &self.output.is_transitions,
            &isis_msgs,
            self.config.match_window,
        );
        // Flapping share of unmatched transitions (§4.1's 67%/61%).
        let flaps = FlapIndex::new(
            &detect_episodes(&self.output.isis_recon.failures, self.config.flap_gap),
            self.config.flap_pad,
        );
        let mut unmatched_down_in_flap = 0u64;
        let mut unmatched_down = 0u64;
        let mut unmatched_up_in_flap = 0u64;
        let mut unmatched_up = 0u64;
        // Recompute per-transition outcomes to attribute flapping. (The
        // matcher consumes messages one-to-one; re-running on singleton
        // slices would change outcomes, so classify by nearest-message
        // distance instead: a transition is "unmatched" here if no message
        // of its direction lies within the window, which upper-bounds the
        // matcher's `none` count and tracks it closely in practice.)
        let mut by_key: HashMap<
            (LinkIx, TransitionDirection),
            Vec<faultline_topology::time::Timestamp>,
        > = HashMap::new();
        for m in &isis_msgs {
            by_key.entry((m.link, m.direction)).or_default().push(m.at);
        }
        for v in by_key.values_mut() {
            v.sort();
        }
        for t in &self.output.is_transitions {
            let near = by_key
                .get(&(t.link, t.direction))
                .map(|v| {
                    let i =
                        v.partition_point(|&at| at < t.at.saturating_sub(self.config.match_window));
                    v[i..]
                        .iter()
                        .take_while(|&&at| at <= t.at + self.config.match_window)
                        .next()
                        .is_some()
                })
                .unwrap_or(false);
            if !near {
                let in_flap = flaps.contains(t.link, t.at);
                match t.direction {
                    TransitionDirection::Down => {
                        unmatched_down += 1;
                        if in_flap {
                            unmatched_down_in_flap += 1;
                        }
                    }
                    TransitionDirection::Up => {
                        unmatched_up += 1;
                        if in_flap {
                            unmatched_up_in_flap += 1;
                        }
                    }
                }
            }
        }
        Table3 {
            down,
            up,
            unmatched_down_in_flap_pct: pct(unmatched_down_in_flap, unmatched_down),
            unmatched_up_in_flap_pct: pct(unmatched_up_in_flap, unmatched_up),
        }
    }

    /// Table 4: failure counts and downtime hours after sanitization.
    pub fn table4(&self) -> Table4 {
        let matching = &self.output.matching;
        let isis_downtime: f64 = self
            .output
            .isis_failures
            .iter()
            .map(|f| f.duration().as_hours_f64())
            .sum();
        let syslog_downtime: f64 = self
            .output
            .syslog_failures
            .iter()
            .map(|f| f.duration().as_hours_f64())
            .sum();
        // Overlap downtime: downtime common to *matched* failure pairs
        // (partial overlaps contribute nothing, mirroring the paper's
        // footnote separating partially-overlapping hours).
        let mut overlap_ms = 0u64;
        for &(i, j) in &matching.matched {
            let s = &self.output.syslog_failures[i];
            let g = &self.output.isis_failures[j];
            let lo = s.start.max(g.start);
            let hi = s.end.min(g.end);
            if hi > lo {
                overlap_ms += (hi - lo).as_millis();
            }
        }
        Table4 {
            isis_failures: self.output.isis_failures.len() as u64,
            syslog_failures: self.output.syslog_failures.len() as u64,
            overlap_failures: matching.matched.len() as u64,
            isis_downtime_hours: isis_downtime,
            syslog_downtime_hours: syslog_downtime,
            overlap_downtime_hours: overlap_ms as f64 / 3_600_000.0,
            syslog_long_removed: self.output.syslog_sanitize.long_removed,
            syslog_long_removed_hours: self.output.syslog_sanitize.long_removed_hours(),
        }
    }

    /// Per-class metric samples for one source.
    pub fn samples(&self, source: Source) -> HashMap<LinkClass, MetricSamples> {
        let failures = match source {
            Source::Isis => &self.output.isis_failures,
            Source::Syslog => &self.output.syslog_failures,
        };
        metric_samples(failures, &self.table)
    }

    /// Table 5: the four metric summaries × two classes × two sources.
    pub fn table5(&self) -> Table5 {
        let isis = self.samples(Source::Isis);
        let syslog = self.samples(Source::Syslog);
        Table5 {
            core_syslog: syslog[&LinkClass::Core].summaries(),
            core_isis: isis[&LinkClass::Core].summaries(),
            cpe_syslog: syslog[&LinkClass::Cpe].summaries(),
            cpe_isis: isis[&LinkClass::Cpe].summaries(),
        }
    }

    /// KS tests between the two sources for the three §4.2 metrics, per
    /// class.
    pub fn ks_tests(&self, class: LinkClass) -> KsSuite {
        let isis = &self.samples(Source::Isis)[&class];
        let syslog = &self.samples(Source::Syslog)[&class];
        KsSuite {
            failures_per_link: ks_two_sample(&syslog.failures_per_link, &isis.failures_per_link),
            failure_duration: ks_two_sample(
                &syslog.failure_duration_secs,
                &isis.failure_duration_secs,
            ),
            link_downtime: ks_two_sample(
                &syslog.downtime_hours_per_link,
                &isis.downtime_hours_per_link,
            ),
        }
    }

    /// Table 6: ambiguous double-message classification. Multi-link
    /// adjacency members are omitted, as everywhere in the paper's
    /// analysis: the IS-IS timeline cannot arbitrate them.
    pub fn table6(&self) -> (Table6, AmbiguityCounts) {
        let timeline = LinkStateTimeline::new(&self.output.is_transitions);
        let ambiguous: Vec<_> = self
            .output
            .syslog_recon
            .ambiguous
            .iter()
            .filter(|p| self.table.is_resolvable(p.link))
            .copied()
            .collect();
        let (_, counts) = classify_ambiguous(&ambiguous, &timeline, self.config.match_window);
        (
            Table6 {
                counts,
                total_ambiguous: ambiguous.len() as u64,
            },
            counts,
        )
    }

    /// §4.3 false-positive report: syslog failures with no IS-IS match.
    pub fn false_positives(&self) -> FpReport {
        let matching = &self.output.matching;
        let mut fps: Vec<Failure> = matching
            .left_only
            .iter()
            .chain(matching.partial.iter().map(|(i, _)| i))
            .map(|&i| self.output.syslog_failures[i])
            .collect();
        fps.sort_by_key(|f| (f.link, f.start));
        let flaps = FlapIndex::new(
            &detect_episodes(&self.output.isis_failures, self.config.flap_gap),
            self.config.flap_pad,
        );
        classify_false_positives(&fps, &flaps, self.config.short_fp_threshold)
    }

    /// Isolation outcomes for one source.
    pub fn isolation(&self, source: Source) -> IsolationOutcome {
        let failures = match source {
            Source::Isis => &self.output.isis_failures,
            Source::Syslog => &self.output.syslog_failures,
        };
        isolation::analyze(failures, &self.data.topology, &self.link_of_ix)
    }

    /// Table 7: isolation comparison.
    pub fn table7(&self) -> Table7 {
        let isis = self.isolation(Source::Isis);
        let syslog = self.isolation(Source::Syslog);
        let cmp = isolation::compare(&isis, &syslog);
        Table7 {
            isis_events: isis.event_count(),
            isis_sites: isis.sites_impacted(),
            isis_days: isis.downtime_days(),
            syslog_events: syslog.event_count(),
            syslog_sites: syslog.sites_impacted(),
            syslog_days: syslog.downtime_days(),
            intersection: cmp,
        }
    }

    /// §4.4 forensics: why each source missed isolating events the other
    /// saw, and the "egregious matches" whose durations wildly disagree.
    pub fn isolation_forensics(&self) -> IsolationForensics {
        let isis = self.isolation(Source::Isis);
        let syslog = self.isolation(Source::Syslog);
        let cmp = isolation::compare(&isis, &syslog);
        let ix_of_link: HashMap<LinkId, LinkIx> = (self.link_of_ix.iter().enumerate())
            .filter_map(|(ix, id)| Some(((*id)?, LinkIx(ix as u32))))
            .collect();

        let mut isis_only = [0u64; 3];
        let mut isis_only_days = [0f64; 3];
        for &i in &cmp.left_only_indices {
            let cause = isolation::classify_miss(
                &isis.events[i],
                &self.output.syslog_failures,
                &ix_of_link,
                self.config.match_window,
            );
            let slot = match cause {
                isolation::MissCause::SingleMessage => 0,
                isolation::MissCause::PartialOverlap => 1,
                isolation::MissCause::Unrelated => 2,
            };
            isis_only[slot] += 1;
            isis_only_days[slot] += isis.events[i].isolation_ms() as f64 / 86_400_000.0;
        }
        let mut syslog_only = [0u64; 3];
        for &j in &cmp.right_only_indices {
            let cause = isolation::classify_miss(
                &syslog.events[j],
                &self.output.isis_failures,
                &ix_of_link,
                self.config.match_window,
            );
            let slot = match cause {
                isolation::MissCause::SingleMessage => 0,
                isolation::MissCause::PartialOverlap => 1,
                isolation::MissCause::Unrelated => 2,
            };
            syslog_only[slot] += 1;
        }
        let egregious = isolation::egregious_matches(&isis, &syslog, &cmp, 20.0);
        IsolationForensics {
            isis_only,
            isis_only_days,
            syslog_only,
            egregious,
        }
    }

    /// Figure 1: the three CPE CDF pairs (syslog, IS-IS).
    pub fn figure1(&self) -> Figure1 {
        let isis = &self.samples(Source::Isis)[&LinkClass::Cpe];
        let syslog = &self.samples(Source::Syslog)[&LinkClass::Cpe];
        Figure1 {
            duration_secs: (
                Ecdf::new(syslog.failure_duration_secs.clone()),
                Ecdf::new(isis.failure_duration_secs.clone()),
            ),
            downtime_hours: (
                Ecdf::new(syslog.downtime_hours_per_link.clone()),
                Ecdf::new(isis.downtime_hours_per_link.clone()),
            ),
            tbf_hours: (
                Ecdf::new(syslog.time_between_hours.clone()),
                Ecdf::new(isis.time_between_hours.clone()),
            ),
        }
    }
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// Shared validation behind [`Analysis::try_run`] and the streaming
/// engine's `try_new`: reject configurations and archives that would
/// make the pipeline's results silently meaningless.
pub(crate) fn validate_inputs(
    data: &ScenarioData,
    config: &AnalysisConfig,
) -> Result<(), AnalysisError> {
    for (value, name) in [
        (config.match_window, "match_window"),
        (config.dedup_window, "dedup_window"),
        (config.flap_gap, "flap_gap"),
    ] {
        if value == Duration::ZERO {
            return Err(AnalysisError::InvalidConfig {
                what: format!("{name} is zero"),
            });
        }
    }
    if data.topology.links().is_empty() && !(data.syslog.is_empty() && data.transitions.is_empty())
    {
        return Err(AnalysisError::EmptyLinkTable);
    }
    if data
        .syslog
        .windows(2)
        .any(|w| w[0].event.at > w[1].event.at)
    {
        return Err(AnalysisError::UnsortedInput { dataset: "syslog" });
    }
    if data.transitions.windows(2).any(|w| w[0].at > w[1].at) {
        return Err(AnalysisError::UnsortedInput {
            dataset: "transitions",
        });
    }
    Ok(())
}

/// Which data source a derived quantity comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Source {
    /// The IS-IS listener.
    Isis,
    /// The syslog archive.
    Syslog,
}

/// Table 1 contents.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1 {
    /// Measurement period, days.
    pub period_days: f64,
    /// Core router count.
    pub core_routers: u64,
    /// CPE router count.
    pub cpe_routers: u64,
    /// Config files mined.
    pub config_files: u64,
    /// Core link count.
    pub core_links: u64,
    /// CPE link count.
    pub cpe_links: u64,
    /// Multi-link adjacency pairs.
    pub multi_link_pairs: u64,
    /// ADJCHANGE syslog messages (the paper's 47,371).
    pub syslog_adjacency_messages: u64,
    /// All syslog lines delivered.
    pub syslog_lines_total: u64,
    /// IS-IS updates received (the paper's 11,095,550).
    pub isis_updates: u64,
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 1: Summary of data used in the study")?;
        writeln!(f, "  Period             : {:.0} days", self.period_days)?;
        writeln!(
            f,
            "  Routers            : {} Core and {} CPE",
            self.core_routers, self.cpe_routers
        )?;
        writeln!(f, "  Router config files: {}", self.config_files)?;
        writeln!(
            f,
            "  IS-IS links        : {} Core and {} CPE ({} multi-link pairs)",
            self.core_links, self.cpe_links, self.multi_link_pairs
        )?;
        writeln!(
            f,
            "  Syslog messages    : {} ADJCHANGE ({} lines total)",
            self.syslog_adjacency_messages, self.syslog_lines_total
        )?;
        writeln!(f, "  IS-IS updates      : {}", self.isis_updates)
    }
}

/// Table 2 contents: `(vs IS reachability %, vs IP reachability %)`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Table2 {
    /// IS-IS adjacency Down messages.
    pub isis_down: (f64, f64),
    /// IS-IS adjacency Up messages.
    pub isis_up: (f64, f64),
    /// Physical media Down messages.
    pub phys_down: (f64, f64),
    /// Physical media Up messages.
    pub phys_up: (f64, f64),
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 2: % of state transitions matching syslog messages"
        )?;
        writeln!(
            f,
            "  {:<22} {:>14} {:>14}",
            "Syslog type", "IS reach", "IP reach"
        )?;
        for (label, (is_pct, ip_pct)) in [
            ("IS-IS Down", self.isis_down),
            ("IS-IS Up", self.isis_up),
            ("physical media Down", self.phys_down),
            ("physical media Up", self.phys_up),
        ] {
            writeln!(f, "  {label:<22} {is_pct:>13.0}% {ip_pct:>13.0}%")?;
        }
        Ok(())
    }
}

/// Table 3 contents.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Table3 {
    /// DOWN transition match counts.
    pub down: TransitionMatchCounts,
    /// UP transition match counts.
    pub up: TransitionMatchCounts,
    /// % of unmatched DOWNs inside flapping periods (§4.1: 67%).
    pub unmatched_down_in_flap_pct: f64,
    /// % of unmatched UPs inside flapping periods (§4.1: 61%).
    pub unmatched_up_in_flap_pct: f64,
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 3: IS-IS transitions by matching syslog messages")?;
        writeln!(f, "  {:<6} {:>14} {:>14} {:>14}", "", "None", "One", "Both")?;
        for (label, c) in [("DOWN", self.down), ("UP", self.up)] {
            let t = c.total().max(1);
            writeln!(
                f,
                "  {:<6} {:>7} {:>5.0}% {:>7} {:>5.0}% {:>7} {:>5.0}%",
                label,
                c.none,
                100.0 * c.none as f64 / t as f64,
                c.one,
                100.0 * c.one as f64 / t as f64,
                c.both,
                100.0 * c.both as f64 / t as f64,
            )?;
        }
        writeln!(
            f,
            "  unmatched in flapping: DOWN {:.0}%, UP {:.0}%",
            self.unmatched_down_in_flap_pct, self.unmatched_up_in_flap_pct
        )
    }
}

/// Table 4 contents.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Table4 {
    /// IS-IS failure count.
    pub isis_failures: u64,
    /// Syslog failure count.
    pub syslog_failures: u64,
    /// Matched failure count.
    pub overlap_failures: u64,
    /// IS-IS downtime, hours.
    pub isis_downtime_hours: f64,
    /// Syslog downtime, hours.
    pub syslog_downtime_hours: f64,
    /// Downtime present in both (interval intersection), hours.
    pub overlap_downtime_hours: f64,
    /// Long syslog failures removed by ticket verification.
    pub syslog_long_removed: u64,
    /// Hours of spurious downtime removed by ticket verification.
    pub syslog_long_removed_hours: f64,
}

impl fmt::Display for Table4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 4: failures and downtime after sanitization")?;
        writeln!(
            f,
            "  {:<18} {:>10} {:>10} {:>10}",
            "", "IS-IS", "Syslog", "Overlap"
        )?;
        writeln!(
            f,
            "  {:<18} {:>10} {:>10} {:>10}",
            "Failure count", self.isis_failures, self.syslog_failures, self.overlap_failures
        )?;
        writeln!(
            f,
            "  {:<18} {:>10.0} {:>10.0} {:>10.0}",
            "Downtime (hours)",
            self.isis_downtime_hours,
            self.syslog_downtime_hours,
            self.overlap_downtime_hours
        )?;
        writeln!(
            f,
            "  (ticket check removed {} long failures, {:.0} spurious hours)",
            self.syslog_long_removed, self.syslog_long_removed_hours
        )
    }
}

/// Table 5 contents: `[failures/link, duration, tbf, downtime]`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Table5 {
    /// Core links, syslog reconstruction.
    pub core_syslog: [Summary; 4],
    /// Core links, IS-IS.
    pub core_isis: [Summary; 4],
    /// CPE links, syslog reconstruction.
    pub cpe_syslog: [Summary; 4],
    /// CPE links, IS-IS.
    pub cpe_isis: [Summary; 4],
}

impl fmt::Display for Table5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 5: failure statistics (Core | CPE; Syslog vs IS-IS)"
        )?;
        let metrics = [
            "Annualized failures per link",
            "Failure duration (seconds)",
            "Time between failures (hours)",
            "Annualized link downtime (hours)",
        ];
        writeln!(
            f,
            "  {:<10} {:>9} {:>9} | {:>9} {:>9}",
            "", "Syslog", "IS-IS", "Syslog", "IS-IS"
        )?;
        for (m, label) in metrics.iter().enumerate() {
            writeln!(f, "  {label}")?;
            for (row, pick) in [("Median", 0usize), ("Average", 1), ("95%", 2)] {
                let get = |s: &Summary| match pick {
                    0 => s.median,
                    1 => s.mean,
                    _ => s.p95,
                };
                writeln!(
                    f,
                    "  {:<10} {:>9.1} {:>9.1} | {:>9.1} {:>9.1}",
                    row,
                    get(&self.core_syslog[m]),
                    get(&self.core_isis[m]),
                    get(&self.cpe_syslog[m]),
                    get(&self.cpe_isis[m]),
                )?;
            }
        }
        Ok(())
    }
}

/// Table 6 contents.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Table6 {
    /// Classified counts.
    pub counts: AmbiguityCounts,
    /// All ambiguous periods found.
    pub total_ambiguous: u64,
}

impl fmt::Display for Table6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 6: ambiguous state changes by cause")?;
        writeln!(f, "  {:<26} {:>8} {:>8}", "Cause", "Down", "Up")?;
        let c = &self.counts;
        writeln!(
            f,
            "  {:<26} {:>8} {:>8}",
            "Lost Message", c.down[0], c.up[0]
        )?;
        writeln!(
            f,
            "  {:<26} {:>8} {:>8}",
            "Spurious Retransmission", c.down[1], c.up[1]
        )?;
        writeln!(f, "  {:<26} {:>8} {:>8}", "Unknown", c.down[2], c.up[2])?;
        writeln!(
            f,
            "  {:<26} {:>8} {:>8}",
            "Total",
            c.down_total(),
            c.up_total()
        )
    }
}

/// Table 7 contents.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table7 {
    /// IS-IS isolating events.
    pub isis_events: u64,
    /// IS-IS distinct sites impacted.
    pub isis_sites: u64,
    /// IS-IS isolation downtime, days.
    pub isis_days: f64,
    /// Syslog isolating events.
    pub syslog_events: u64,
    /// Syslog distinct sites impacted.
    pub syslog_sites: u64,
    /// Syslog isolation downtime, days.
    pub syslog_days: f64,
    /// Cross-source comparison.
    pub intersection: IsolationComparison,
}

impl fmt::Display for Table7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 7: customer-isolating failure events")?;
        writeln!(
            f,
            "  {:<14} {:>10} {:>10} {:>12}",
            "Data source", "Events", "Sites", "Downtime (d)"
        )?;
        writeln!(
            f,
            "  {:<14} {:>10} {:>10} {:>12.1}",
            "IS-IS", self.isis_events, self.isis_sites, self.isis_days
        )?;
        writeln!(
            f,
            "  {:<14} {:>10} {:>10} {:>12.1}",
            "Syslog", self.syslog_events, self.syslog_sites, self.syslog_days
        )?;
        writeln!(
            f,
            "  {:<14} {:>10} {:>10} {:>12.1}",
            "Intersection",
            self.intersection.matched_events,
            self.intersection.common_sites,
            self.intersection.intersection_days
        )
    }
}

/// §4.4 forensics output: miss-cause counts indexed
/// `[single-message, partial-overlap, unrelated]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IsolationForensics {
    /// IS-IS-only isolating events by miss cause (paper: 82 / 99 / 218
    /// of 399).
    pub isis_only: [u64; 3],
    /// Isolation days carried by each IS-IS-only cause bucket (paper:
    /// 2.1 d for single-message, 0.7 d for partial).
    pub isis_only_days: [f64; 3],
    /// Syslog-only isolating events by miss cause (paper: 46 partial,
    /// 12 unrelated of 58).
    pub syslog_only: [u64; 3],
    /// Matched pairs with wildly disagreeing isolation durations (the
    /// paper found two).
    pub egregious: Vec<crate::isolation::EgregiousMatch>,
}

impl fmt::Display for IsolationForensics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Isolation forensics (§4.4)")?;
        writeln!(
            f,
            "  IS-IS-only events : {} single-message ({:.1} d), {} partial ({:.1} d), {} unrelated ({:.1} d)",
            self.isis_only[0],
            self.isis_only_days[0],
            self.isis_only[1],
            self.isis_only_days[1],
            self.isis_only[2],
            self.isis_only_days[2],
        )?;
        writeln!(
            f,
            "  syslog-only events: {} single-message, {} partial, {} unrelated",
            self.syslog_only[0], self.syslog_only[1], self.syslog_only[2],
        )?;
        writeln!(f, "  egregious matches : {}", self.egregious.len())?;
        for e in self.egregious.iter().take(5) {
            writeln!(
                f,
                "    IS-IS {:.1} h vs syslog {:.1} h",
                e.left_ms as f64 / 3_600_000.0,
                e.right_ms as f64 / 3_600_000.0
            )?;
        }
        Ok(())
    }
}

/// KS results for the three §4.2 metrics.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct KsSuite {
    /// Annualized failures per link.
    pub failures_per_link: KsResult,
    /// Failure duration.
    pub failure_duration: KsResult,
    /// Annualized link downtime.
    pub link_downtime: KsResult,
}

impl fmt::Display for KsSuite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Two-sample KS tests (syslog vs IS-IS)")?;
        for (label, r) in [
            ("failures per link", self.failures_per_link),
            ("failure duration", self.failure_duration),
            ("link downtime", self.link_downtime),
        ] {
            writeln!(
                f,
                "  {:<20} D = {:.4}  p = {:.4}  {}",
                label,
                r.statistic,
                r.p_value,
                if r.consistent_at(0.05) {
                    "consistent"
                } else {
                    "DISTINCT"
                }
            )?;
        }
        Ok(())
    }
}

/// Figure 1 contents: `(syslog, IS-IS)` ECDF pairs for CPE links.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure1 {
    /// (a) failure duration, seconds.
    pub duration_secs: (Ecdf, Ecdf),
    /// (b) annualized link downtime, hours.
    pub downtime_hours: (Ecdf, Ecdf),
    /// (c) time between failures, hours.
    pub tbf_hours: (Ecdf, Ecdf),
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_sim::scenario::{run, ScenarioParams};

    fn analysis(data: &ScenarioData) -> Analysis<'_> {
        Analysis::new(data, AnalysisConfig::default())
    }

    #[test]
    fn lossless_scenario_sources_agree_closely() {
        let data = run(&ScenarioParams::tiny(21).lossless());
        let a = analysis(&data);
        let t4 = a.table4();
        // With no loss, no spurious copies, and no listener outages, the
        // only syslog-only failures are the deliberately injected pseudo
        // events, and IS-IS-only failures are parallel-link members.
        assert!(t4.isis_failures > 0);
        assert!(t4.syslog_failures >= t4.overlap_failures);
        let match_rate = t4.overlap_failures as f64 / t4.isis_failures as f64;
        assert!(
            match_rate > 0.85,
            "lossless match rate {match_rate} (t4: {t4:?})"
        );
    }

    #[test]
    fn lossy_scenario_shows_paper_asymmetries() {
        // Crank the loss up so even a 30-day tiny scenario shows misses.
        let mut params = ScenarioParams::tiny(22);
        params.transport.base_loss = 0.3;
        params.transport.flap_pair_loss = 0.8;
        let data = run(&params);
        let a = analysis(&data);
        let t3 = a.table3();
        assert!(t3.down.total() > 0 && t3.up.total() > 0);
        // Some transitions must be missed, some double-matched.
        assert!(t3.down.none > 0 || t3.up.none > 0);
        assert!(t3.down.both > 0 || t3.up.both > 0);
        assert!(t3.down.one > 0 || t3.up.one > 0);
    }

    #[test]
    fn table2_orders_is_above_ip_for_adjacency_messages() {
        let data = run(&ScenarioParams::tiny(23));
        let a = analysis(&data);
        let t2 = a.table2();
        // ADJCHANGE messages track IS reachability much better than IP.
        assert!(
            t2.isis_down.0 > t2.isis_down.1,
            "IS match {} should exceed IP match {}",
            t2.isis_down.0,
            t2.isis_down.1
        );
    }

    #[test]
    fn table5_and_figure1_shapes() {
        let data = run(&ScenarioParams::tiny(24));
        let a = analysis(&data);
        let t5 = a.table5();
        // All summaries are populated.
        assert!(t5.cpe_isis[0].n > 0);
        assert!(t5.cpe_syslog[1].n > 0);
        let fig = a.figure1();
        assert!(!fig.duration_secs.0.is_empty());
        assert!(!fig.duration_secs.1.is_empty());
        assert!(!fig.downtime_hours.0.is_empty());
    }

    #[test]
    fn table6_classifies_everything() {
        let data = run(&ScenarioParams::tiny(25));
        let a = analysis(&data);
        let (t6, counts) = a.table6();
        assert_eq!(t6.total_ambiguous, counts.down_total() + counts.up_total());
    }

    #[test]
    fn table7_syslog_sees_fewer_or_equal_isolation() {
        // Across several seeds, syslog should usually miss isolation
        // downtime relative to IS-IS (it misses failures).
        let data = run(&ScenarioParams::tiny(26));
        let a = analysis(&data);
        let t7 = a.table7();
        // Intersection is bounded by both.
        assert!(t7.intersection.matched_events <= t7.isis_events.min(t7.syslog_events));
        assert!(t7.intersection.intersection_days <= t7.isis_days + 1e-9);
        assert!(t7.intersection.intersection_days <= t7.syslog_days + 1e-9);
    }

    #[test]
    fn displays_render() {
        let data = run(&ScenarioParams::tiny(27));
        let a = analysis(&data);
        // Smoke-test every Display implementation.
        let _ = format!("{}", a.table1());
        let _ = format!("{}", a.table2());
        let _ = format!("{}", a.table3());
        let _ = format!("{}", a.table4());
        let _ = format!("{}", a.table5());
        let _ = format!("{}", a.table6().0);
        let _ = format!("{}", a.table7());
        let _ = format!("{}", a.ks_tests(LinkClass::Cpe));
    }

    #[test]
    fn match_window_widening_monotone() {
        // A wider matching window can only match more failures.
        let data = run(&ScenarioParams::tiny(29));
        let mut prev = 0;
        for secs in [2u64, 5, 10, 30] {
            let config = AnalysisConfig {
                match_window: faultline_topology::time::Duration::from_secs(secs),
                ..AnalysisConfig::default()
            };
            let a = Analysis::new(&data, config);
            let matched = a.output.matching.matched.len();
            assert!(matched >= prev, "window {secs}s matched {matched} < {prev}");
            prev = matched;
        }
    }

    #[test]
    fn strategies_change_downtime_not_ambiguity_detection() {
        let data = run(&ScenarioParams::tiny(30));
        let mk = |s| {
            Analysis::new(
                &data,
                AnalysisConfig {
                    strategy: s,
                    ..AnalysisConfig::default()
                },
            )
        };
        let prev = mk(crate::reconstruct::AmbiguityStrategy::PreviousState);
        let down = mk(crate::reconstruct::AmbiguityStrategy::AssumeDown);
        let up = mk(crate::reconstruct::AmbiguityStrategy::AssumeUp);
        assert_eq!(
            prev.output.syslog_recon.ambiguous, down.output.syslog_recon.ambiguous,
            "ambiguity detection is strategy-independent"
        );
        let dt = |a: &Analysis<'_>| {
            a.output
                .syslog_failures
                .iter()
                .map(|f| f.duration().as_millis())
                .sum::<u64>()
        };
        assert!(
            dt(&down) >= dt(&up),
            "assume-down cannot report less downtime than assume-up"
        );
        let _ = prev;
    }

    #[test]
    fn forensics_counts_are_bounded_by_comparison() {
        let data = run(&ScenarioParams::tiny(31));
        let a = analysis(&data);
        let f = a.isolation_forensics();
        let t7 = a.table7();
        let isis_only: u64 = f.isis_only.iter().sum();
        let syslog_only: u64 = f.syslog_only.iter().sum();
        assert_eq!(isis_only, t7.intersection.left_only);
        assert_eq!(syslog_only, t7.intersection.right_only);
        let _ = format!("{f}");
    }

    #[test]
    fn report_has_stages_and_counters() {
        let data = run(&ScenarioParams::tiny(32));
        let a = analysis(&data);
        for stage in ["link_table", "classify", "lane_apply", "collect"] {
            assert!(a.report.stage(stage).is_some(), "missing stage {stage}");
        }
        assert_eq!(a.report.threads, 1);
        assert!(a.report.counters.syslog_ingested > 0);
        assert!(a.report.counters.isis_ingested > 0);
        assert!(a.report.counters.transitions_derived > 0);
        assert!(a.report.counters.failures_after_sanitize > 0);
        assert!(a.report.counters.failures_matched > 0);
        assert!(
            a.report.counters.failures_after_sanitize + a.report.counters.sanitize_dropped
                == a.report.counters.failures_reconstructed
        );
        let _ = format!("{}", a.report);
    }

    #[test]
    fn config_with_parallelism_deserializes_from_legacy_json() {
        // Configs serialized before the parallelism field existed must
        // still load (serde default fills it in).
        let json = serde_json::to_string(&AnalysisConfig::default()).unwrap();
        let mut value: serde_json::Value = serde_json::from_str(&json).unwrap();
        value.as_object_mut().unwrap().remove("parallelism");
        let config: AnalysisConfig = serde_json::from_value(value).unwrap();
        assert_eq!(config.parallelism, ParallelismConfig::default());
    }

    #[test]
    fn try_run_validates_config_and_sort_contract() {
        let mut data = run(&ScenarioParams::tiny(34));
        assert!(Analysis::try_run(&data, AnalysisConfig::default()).is_ok());
        let bad = AnalysisConfig {
            dedup_window: Duration::ZERO,
            ..AnalysisConfig::default()
        };
        assert!(matches!(
            Analysis::try_run(&data, bad).err(),
            Some(AnalysisError::InvalidConfig { .. })
        ));
        data.transitions.reverse();
        assert_eq!(
            Analysis::try_run(&data, AnalysisConfig::default()).err(),
            Some(AnalysisError::UnsortedInput {
                dataset: "transitions"
            })
        );
    }

    #[test]
    fn quarantine_horizon_diverts_and_accounts() {
        let data = run(&ScenarioParams::tiny(35));
        let clean = Analysis::run(&data, AnalysisConfig::default());
        assert_eq!(clean.report.robustness.total_quarantined(), 0);
        // A horizon before every event quarantines everything.
        let config = AnalysisConfig {
            quarantine_horizon: Some(Timestamp::EPOCH),
            ..AnalysisConfig::default()
        };
        let gated = Analysis::run(&data, config);
        let r = &gated.report.robustness;
        assert_eq!(r.quarantined_syslog, data.syslog.len() as u64);
        assert_eq!(r.quarantined_isis, data.transitions.len() as u64);
        assert!(gated.output.messages.is_empty());
        assert!(gated.output.isis_failures.is_empty());
        // Offered-event accounting is unchanged by quarantine.
        assert_eq!(
            gated.report.counters.syslog_ingested,
            clean.report.counters.syslog_ingested
        );
    }

    #[test]
    fn sanitization_removes_offline_spanning_failures() {
        let data = run(&ScenarioParams::tiny(28));
        let a = analysis(&data);
        if !data.offline_spans.is_empty() {
            for f in &a.output.isis_failures {
                for s in &data.offline_spans {
                    assert!(
                        f.end < s.from || f.start > s.to,
                        "failure {f:?} overlaps offline span {s:?}"
                    );
                }
            }
        }
    }
}
