//! Bounded-memory admission control and priority-aware load shedding in
//! front of the streaming engine — the overload-protection layer.
//!
//! Past its measured capacity, an unprotected collector grows without
//! bound: the ingest queue, the per-link lanes, and the snapshot hand-off
//! all buffer whatever arrives. [`AdmissionController`] puts a bounded
//! queue between arrival and the engine and makes the overflow behaviour
//! an explicit, configurable [`OverloadPolicy`]:
//!
//! - **[`OverloadPolicy::Block`]** — closed-loop backpressure. A full
//!   queue hands the event back to the caller ([`Offer::Blocked`]), who
//!   must drain before retrying. Nothing is ever lost; arrival slows to
//!   the service rate.
//! - **[`OverloadPolicy::Shed`]** — open-loop load shedding. A full
//!   queue sheds exactly one event per offer, chosen by a deterministic,
//!   seeded, priority-aware policy: IS-IS transitions
//!   ([`EventClass::Critical`]) outlive syslog link/adjacency DOWN/UP
//!   messages ([`EventClass::Important`]), which outlive line-protocol
//!   chatter ([`EventClass::Chatter`]). Within the lowest-priority class
//!   a seeded coin decides between evicting the oldest queued event and
//!   refusing the newcomer, so periodic bursts cannot phase-lock with
//!   the shedding decision — yet every decision is a pure function of
//!   `(seed, offer sequence)` and replays bit-for-bit.
//!
//! Every shed event is counted, by class and by mechanism, in
//! [`OverloadCounters`] (a section of
//! [`crate::observe::PipelineReport`]), and the ledger balances
//! **exactly**: once the queue is drained,
//! `admitted + shed + quarantined == offered` — no event is ever
//! unaccounted for, under any interleaving of offers and drains.
//!
//! Shedding happens *upstream* of classification, threading, and shard
//! partitioning, so the surviving stream — and therefore the flushed
//! [`crate::streaming::StreamOutput`] — is byte-identical for every
//! thread count and every cluster shard count (`tests/overload.rs` pins
//! this with a property test over threads × shards).
//!
//! [`run_overloaded`] and [`run_overloaded_cluster`] drive a whole
//! offered stream through the controller on a **simulated clock**
//! ([`SimSchedule`]): per tick, up to `offered_per_tick` events arrive
//! and up to `drained_per_tick` are served. Breaking points found this
//! way are machine-independent, which is what lets CI gate the capacity
//! headline (see `tests/capacity.rs`).

use crate::analysis::AnalysisConfig;
use crate::cluster::{run_cluster, ClusterConfig, ClusterResult};
use crate::error::{AnalysisError, TransportError};
use crate::observe::OverloadCounters;
use crate::streaming::{IngestSummary, StreamAnalysis, StreamEvent, StreamResult};
use faultline_sim::ScenarioData;
use faultline_syslog::message::LinkEventKind;
use faultline_topology::time::Timestamp;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Shedding priority of one offered event, highest first. The ordering
/// encodes the paper's finding: the IS-IS feed is the trustworthy
/// failure signal, syslog link/adjacency DOWN/UP messages corroborate
/// it, and line-protocol chatter is the first thing an overloaded
/// collector can afford to lose (resolution already skips it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EventClass {
    /// IS-IS listener transitions: the reference failure signal.
    Critical = 0,
    /// Syslog link and IS-IS adjacency DOWN/UP messages.
    Important = 1,
    /// Syslog line-protocol chatter.
    Chatter = 2,
}

impl EventClass {
    /// Classify one offered event for shedding priority.
    pub fn of(event: &StreamEvent) -> EventClass {
        match event {
            StreamEvent::Isis(_) => EventClass::Critical,
            StreamEvent::Syslog(m) => match m.event.kind {
                LinkEventKind::LineProtocol => EventClass::Chatter,
                LinkEventKind::Link | LinkEventKind::IsisAdjacency { .. } => EventClass::Important,
            },
        }
    }
}

/// What a full queue does with the next offered event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverloadPolicy {
    /// Closed loop: hand the event back ([`Offer::Blocked`]) and make
    /// the caller drain first. Lossless backpressure.
    Block,
    /// Open loop: shed exactly one event per overflowing offer, lowest
    /// [`EventClass`] first, seeded tie-break within a class.
    Shed,
}

/// Configuration of one [`AdmissionController`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Bounded ingest-queue capacity, events. The controller's memory
    /// contribution never exceeds this (clamped to at least 1).
    pub queue_capacity: usize,
    /// What happens when the queue is full.
    pub policy: OverloadPolicy,
    /// Seed for the within-class shedding tie-break. Two controllers
    /// with the same seed, config, and offer/drain sequence make
    /// identical decisions.
    pub seed: u64,
}

impl Default for AdmissionConfig {
    /// Blocking backpressure behind a 8192-event queue.
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: 8192,
            policy: OverloadPolicy::Block,
            seed: 0,
        }
    }
}

impl AdmissionConfig {
    /// A shedding controller with the given queue bound and seed.
    pub fn shedding(queue_capacity: usize, seed: u64) -> Self {
        AdmissionConfig {
            queue_capacity,
            policy: OverloadPolicy::Shed,
            seed,
        }
    }
}

/// What [`AdmissionController::offer`] did with one event.
#[derive(Debug)]
pub enum Offer {
    /// The event was enqueued. Under [`OverloadPolicy::Shed`] a
    /// lower-priority queued event may have been evicted (and counted)
    /// to make room.
    Enqueued,
    /// The event itself was shed (counted by class in
    /// [`OverloadCounters`]).
    Shed,
    /// Queue full under [`OverloadPolicy::Block`]: the event is handed
    /// back untouched and **not** counted as offered. Drain, then
    /// re-offer.
    Blocked(StreamEvent),
}

/// SplitMix64 finalizer over `(seed, sequence)` — the seeded, stateless
/// within-class tie-break. A pure function of its inputs, so shedding
/// decisions replay exactly.
fn tie_break(seed: u64, seq: u64) -> u64 {
    let mut z = seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The bounded-memory admission layer in front of a
/// [`StreamAnalysis`] (or a cluster of them). See the [module
/// docs](self) for the policy semantics and the conservation contract.
///
/// # Examples
///
/// ```
/// use faultline_core::admission::{AdmissionConfig, AdmissionController, Offer};
/// use faultline_core::scenario_event_stream;
/// use faultline_sim::scenario::{run, ScenarioParams};
///
/// let data = run(&ScenarioParams::tiny(7));
/// let events = scenario_event_stream(&data);
/// // A 4-event queue under the shedding policy: offers past capacity
/// // shed the lowest-priority resident (or the newcomer).
/// let mut ctl = AdmissionController::new(AdmissionConfig::shedding(4, 42));
/// for e in &events[..16.min(events.len())] {
///     match ctl.offer(e.clone()) {
///         Offer::Enqueued | Offer::Shed => {}
///         Offer::Blocked(_) => unreachable!("shed mode never blocks"),
///     }
/// }
/// let mut served = Vec::new();
/// ctl.drain(usize::MAX, &mut served);
/// let c = ctl.counters();
/// assert_eq!(c.offered, 16);
/// assert_eq!(c.shed + served.len() as u64, c.offered);
/// assert!(c.queue_high_water <= 4);
/// ```
pub struct AdmissionController {
    config: AdmissionConfig,
    /// One FIFO per [`EventClass`], entries `(offer seq, event)` in
    /// ascending seq. Global FIFO order is recovered at drain time by a
    /// three-way front comparison, and "oldest of the worst class" —
    /// the eviction victim — is a `pop_front`, so every queue operation
    /// is O(1).
    lanes: [VecDeque<(u64, StreamEvent)>; 3],
    queued: usize,
    seq: u64,
    counters: OverloadCounters,
    /// Newest timestamp offered — the arrival frontier.
    offered_frontier: Option<Timestamp>,
    /// Newest timestamp drained to the engine.
    delivered_frontier: Option<Timestamp>,
}

impl AdmissionController {
    /// A controller with an empty queue.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            config: AdmissionConfig {
                queue_capacity: config.queue_capacity.max(1),
                ..config
            },
            lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            queued: 0,
            seq: 0,
            counters: OverloadCounters::default(),
            offered_frontier: None,
            delivered_frontier: None,
        }
    }

    /// Events currently resident in the bounded queue.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Newest event timestamp offered so far — the arrival frontier the
    /// watermark lag is measured against.
    pub fn offered_frontier(&self) -> Option<Timestamp> {
        self.offered_frontier
    }

    /// The running overload ledger. `admitted` and `quarantined` grow as
    /// [`AdmissionController::note_engine`] reports engine outcomes;
    /// once the queue is empty the ledger balances exactly
    /// ([`OverloadCounters::conserved`]).
    pub fn counters(&self) -> OverloadCounters {
        self.counters
    }

    /// Offer one event. See [`Offer`] for the three outcomes; only
    /// [`Offer::Blocked`] leaves the event unconsumed (and uncounted).
    pub fn offer(&mut self, event: StreamEvent) -> Offer {
        if self.queued >= self.config.queue_capacity {
            match self.config.policy {
                OverloadPolicy::Block => {
                    self.counters.backpressure_waits += 1;
                    return Offer::Blocked(event);
                }
                OverloadPolicy::Shed => return self.offer_shedding(event),
            }
        }
        self.enqueue(event);
        Offer::Enqueued
    }

    /// The full-queue shedding decision: victim is the lowest-priority
    /// class present (the newcomer's class included). A strictly
    /// lowest-priority newcomer is refused; otherwise the oldest queued
    /// event of the worst class is evicted — except on a class tie,
    /// where the seeded coin picks between the two so periodic arrival
    /// patterns cannot systematically win (or lose) the queue.
    fn offer_shedding(&mut self, event: StreamEvent) -> Offer {
        self.seq += 1;
        self.counters.offered += 1;
        self.note_frontier(&event);
        let class = EventClass::of(&event);
        let worst_queued = (0..3usize)
            .rev()
            .find(|&c| !self.lanes[c].is_empty())
            .map(|c| c as u8);
        // Invariant: offer_shedding only runs with a non-empty queue.
        let worst_queued = worst_queued.expect("shedding requires a resident event");
        let evict_queued = match (class as u8).cmp(&worst_queued) {
            std::cmp::Ordering::Greater => false, // newcomer is the worst
            std::cmp::Ordering::Less => true,     // a queued event is worse
            std::cmp::Ordering::Equal => tie_break(self.config.seed, self.seq) & 1 == 0,
        };
        if evict_queued {
            // Invariant: worst_queued named a non-empty lane.
            let (_, victim) = self.lanes[worst_queued as usize]
                .pop_front()
                .expect("worst lane is non-empty");
            self.queued -= 1;
            self.count_shed(EventClass::of(&victim), true);
            self.lanes[class as usize].push_back((self.seq, event));
            self.queued += 1;
            self.note_queue_high_water();
            Offer::Enqueued
        } else {
            self.count_shed(class, false);
            Offer::Shed
        }
    }

    fn enqueue(&mut self, event: StreamEvent) {
        self.seq += 1;
        self.counters.offered += 1;
        self.note_frontier(&event);
        let class = EventClass::of(&event);
        self.lanes[class as usize].push_back((self.seq, event));
        self.queued += 1;
        self.note_queue_high_water();
    }

    fn note_frontier(&mut self, event: &StreamEvent) {
        let at = event.at();
        self.offered_frontier = Some(self.offered_frontier.map_or(at, |f| f.max(at)));
    }

    fn note_queue_high_water(&mut self) {
        self.counters.queue_high_water = self.counters.queue_high_water.max(self.queued as u64);
    }

    fn count_shed(&mut self, class: EventClass, evicted: bool) {
        self.counters.shed += 1;
        match class {
            EventClass::Critical => self.counters.shed_critical += 1,
            EventClass::Important => self.counters.shed_important += 1,
            EventClass::Chatter => self.counters.shed_chatter += 1,
        }
        if evicted {
            self.counters.shed_evicted += 1;
        } else {
            self.counters.shed_refused += 1;
        }
    }

    /// Pop up to `max` queued events in offer (FIFO) order into `out`;
    /// returns how many were popped. Updates the delivered frontier and
    /// the watermark-lag high water
    /// ([`OverloadCounters::watermark_lag_max_millis`]): the gap between
    /// what has *arrived* and what has been *served*.
    pub fn drain(&mut self, max: usize, out: &mut Vec<StreamEvent>) -> usize {
        let mut popped = 0;
        while popped < max {
            let next = (0..3usize)
                .filter_map(|c| self.lanes[c].front().map(|&(seq, _)| (seq, c)))
                .min();
            let Some((_, lane)) = next else { break };
            // Invariant: `next` came from a non-empty lane front.
            let (_, event) = self.lanes[lane].pop_front().expect("front exists");
            self.queued -= 1;
            let at = event.at();
            self.delivered_frontier = Some(self.delivered_frontier.map_or(at, |f| f.max(at)));
            out.push(event);
            popped += 1;
        }
        if let (Some(offered), Some(delivered)) = (self.offered_frontier, self.delivered_frontier) {
            if let Some(lag) = offered.checked_duration_since(delivered) {
                self.counters.watermark_lag_max_millis =
                    self.counters.watermark_lag_max_millis.max(lag.as_millis());
            }
        }
        popped
    }

    /// Fold one engine batch outcome into the ledger: accepted and late
    /// events were **admitted** (they reached the engine past the
    /// quarantine gate — late ones are sub-counted in
    /// [`crate::observe::StreamingCounters::late_events`]); quarantined
    /// events keep their own column so the conservation identity stays
    /// exact.
    pub fn note_engine(&mut self, summary: &IngestSummary) {
        self.counters.admitted += summary.accepted + summary.late;
        self.counters.quarantined += summary.quarantined;
    }
}

/// The simulated clock driving [`run_overloaded`]: per tick, up to
/// `offered_per_tick` events arrive and up to `drained_per_tick` are
/// served. The ratio of the two is the overload factor — offering at
/// twice the drain rate is a sustained 2× overload — and because no
/// wall clock is involved, every breaking point derived from a schedule
/// is machine-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimSchedule {
    /// Events arriving per tick (clamped to at least 1).
    pub offered_per_tick: usize,
    /// Service capacity: events drained to the engine per tick (clamped
    /// to at least 1, so a blocked offer always eventually proceeds).
    pub drained_per_tick: usize,
}

impl SimSchedule {
    /// A schedule offering `offered` and serving `drained` events per
    /// tick.
    pub fn new(offered: usize, drained: usize) -> Self {
        SimSchedule {
            offered_per_tick: offered.max(1),
            drained_per_tick: drained.max(1),
        }
    }
}

/// The simulated clock, once: offer `events` a tick's worth at a time
/// into a fresh controller, calling `serve` with it and the service
/// quantum on every blocked offer (then re-offering) and at the end of
/// every tick, then until the queue is empty. Returns the controller,
/// whose ledger is the run's.
fn run_ticks(
    events: &[StreamEvent],
    admission: &AdmissionConfig,
    schedule: SimSchedule,
    mut serve: impl FnMut(&mut AdmissionController, usize),
) -> AdmissionController {
    let SimSchedule {
        offered_per_tick,
        drained_per_tick,
    } = SimSchedule::new(schedule.offered_per_tick, schedule.drained_per_tick);
    let mut ctl = AdmissionController::new(*admission);
    for tick in events.chunks(offered_per_tick) {
        for event in tick {
            let mut event = event.clone();
            // Closed loop: serve one quantum, then re-offer.
            while let Offer::Blocked(back) = ctl.offer(event) {
                serve(&mut ctl, drained_per_tick);
                event = back;
            }
        }
        serve(&mut ctl, drained_per_tick);
    }
    // End of arrivals: serve out the residue at the service rate.
    while ctl.queued() > 0 {
        serve(&mut ctl, drained_per_tick);
    }
    ctl
}

/// Replay the admission queue alone (no engine) over a whole offered
/// stream on the simulated clock, returning the surviving events in
/// delivery order plus the shedding ledger (`admitted`/`quarantined`
/// still zero — the caller folds engine outcomes in). Because shedding
/// runs upstream of everything else, these survivors are **the**
/// degraded stream: feeding them to one engine, four threads, or any
/// shard count yields byte-identical output.
pub fn shed_survivors(
    events: &[StreamEvent],
    admission: &AdmissionConfig,
    schedule: SimSchedule,
) -> (Vec<StreamEvent>, OverloadCounters) {
    let mut survivors = Vec::with_capacity(events.len().min(admission.queue_capacity.max(1) * 4));
    let ctl = run_ticks(events, admission, schedule, |ctl, quantum| {
        ctl.drain(quantum, &mut survivors);
    });
    (survivors, ctl.counters())
}

/// Drive a whole offered stream through an [`AdmissionController`] into
/// a single [`StreamAnalysis`] on the simulated clock, and flush. The
/// returned report carries the overload ledger
/// ([`crate::observe::PipelineReport::overload`]) with the conservation
/// identity holding exactly, and the engine-side satellite counters
/// (watermark lag, arena high water) populated from the same run.
pub fn run_overloaded(
    data: &ScenarioData,
    config: AnalysisConfig,
    admission: &AdmissionConfig,
    schedule: SimSchedule,
    events: &[StreamEvent],
) -> Result<(StreamResult, OverloadCounters), AnalysisError> {
    let mut engine = StreamAnalysis::try_new(data, config)?;
    let mut batch = Vec::with_capacity(schedule.drained_per_tick.max(1));
    let ctl = run_ticks(events, admission, schedule, |ctl, quantum| {
        batch.clear();
        ctl.drain(quantum, &mut batch);
        if !batch.is_empty() {
            let summary = engine.ingest_batch(&batch);
            ctl.note_engine(&summary);
        }
        if let Some(frontier) = ctl.offered_frontier() {
            engine.note_arrival_frontier(frontier);
        }
    });
    let counters = ctl.counters();
    debug_assert!(counters.conserved(), "overload ledger must balance");
    let mut result = engine.flush();
    result.report.overload = Some(counters);
    Ok((result, counters))
}

/// [`run_overloaded`] for a sharded cluster: shedding runs upstream of
/// the partitioner (exactly where a front-door admission layer sits),
/// the surviving stream goes through [`run_cluster`], and the merged
/// report carries the same overload ledger a single-engine run of the
/// same schedule would produce — which is what makes shed-mode replay
/// shard-count-invariant.
pub fn run_overloaded_cluster(
    data: &ScenarioData,
    events: &[StreamEvent],
    cluster: &ClusterConfig,
    admission: &AdmissionConfig,
    schedule: SimSchedule,
) -> Result<(ClusterResult, OverloadCounters), TransportError> {
    let (survivors, mut counters) = shed_survivors(events, admission, schedule);
    let result = run_cluster(data, &survivors, cluster)?;
    let quarantined =
        result.report.robustness.quarantined_syslog + result.report.robustness.quarantined_isis;
    counters.quarantined = quarantined;
    counters.admitted = survivors.len() as u64 - quarantined;
    debug_assert!(counters.conserved(), "overload ledger must balance");
    let mut result = result;
    result.report.overload = Some(counters);
    Ok((result, counters))
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_isis::listener::{
        ReachabilityKind, Transition, TransitionDirection, TransitionSubject,
    };
    use faultline_syslog::message::{LinkEvent, SyslogMessage};
    use faultline_topology::osi::SystemId;
    use faultline_topology::router::RouterOs;

    fn syslog_event(at_ms: u64, kind: LinkEventKind) -> StreamEvent {
        StreamEvent::Syslog(SyslogMessage {
            seq: at_ms,
            event: LinkEvent {
                at: Timestamp::from_millis(at_ms),
                host: "r1".into(),
                interface: "ge-0/0/0".into(),
                kind,
                up: false,
            },
            os: RouterOs::Ios,
        })
    }

    fn isis_event(at_ms: u64) -> StreamEvent {
        StreamEvent::Isis(Transition {
            at: Timestamp::from_millis(at_ms),
            source: SystemId::from_index(1),
            kind: ReachabilityKind::IsReach,
            subject: TransitionSubject::Adjacency {
                neighbor: SystemId::from_index(2),
            },
            direction: TransitionDirection::Down,
        })
    }

    fn chatter(at_ms: u64) -> StreamEvent {
        syslog_event(at_ms, LinkEventKind::LineProtocol)
    }

    fn link(at_ms: u64) -> StreamEvent {
        syslog_event(at_ms, LinkEventKind::Link)
    }

    #[test]
    fn classes_rank_isis_above_updown_above_chatter() {
        assert_eq!(EventClass::of(&isis_event(1)), EventClass::Critical);
        assert_eq!(EventClass::of(&link(1)), EventClass::Important);
        assert_eq!(
            EventClass::of(&syslog_event(
                1,
                LinkEventKind::IsisAdjacency {
                    neighbor: "r2".into(),
                    detail: faultline_syslog::message::AdjChangeDetail::InterfaceDown,
                }
            )),
            EventClass::Important
        );
        assert_eq!(EventClass::of(&chatter(1)), EventClass::Chatter);
        assert!(EventClass::Critical < EventClass::Important);
        assert!(EventClass::Important < EventClass::Chatter);
    }

    #[test]
    fn block_policy_hands_the_event_back_uncounted() {
        let mut ctl = AdmissionController::new(AdmissionConfig {
            queue_capacity: 2,
            policy: OverloadPolicy::Block,
            seed: 0,
        });
        assert!(matches!(ctl.offer(chatter(1)), Offer::Enqueued));
        assert!(matches!(ctl.offer(chatter(2)), Offer::Enqueued));
        let Offer::Blocked(e) = ctl.offer(chatter(3)) else {
            panic!("full queue under Block must hand the event back");
        };
        let c = ctl.counters();
        assert_eq!(c.offered, 2, "a blocked offer is not an offered event");
        assert_eq!(c.backpressure_waits, 1);
        assert_eq!(c.shed, 0);
        // Drain one, re-offer: now it fits.
        let mut out = Vec::new();
        ctl.drain(1, &mut out);
        assert!(matches!(ctl.offer(e), Offer::Enqueued));
        assert_eq!(ctl.counters().offered, 3);
    }

    #[test]
    fn shed_evicts_chatter_before_updown_before_isis() {
        let mut ctl = AdmissionController::new(AdmissionConfig::shedding(2, 9));
        assert!(matches!(ctl.offer(chatter(1)), Offer::Enqueued));
        assert!(matches!(ctl.offer(chatter(2)), Offer::Enqueued));
        // Higher-priority newcomers always evict resident chatter.
        assert!(matches!(ctl.offer(link(3)), Offer::Enqueued));
        assert!(matches!(ctl.offer(isis_event(4)), Offer::Enqueued));
        let c = ctl.counters();
        assert_eq!(c.shed, 2);
        assert_eq!(c.shed_chatter, 2);
        assert_eq!(c.shed_evicted, 2);
        assert_eq!(c.shed_critical, 0);
        // With only critical+important resident, chatter itself is the
        // worst class: the newcomer is refused, nothing queued is shed.
        assert!(matches!(ctl.offer(chatter(5)), Offer::Shed));
        let c = ctl.counters();
        assert_eq!(c.shed_chatter, 3);
        assert_eq!(c.shed_refused, 1);
        assert_eq!(c.shed_critical + c.shed_important, 0);
        // The two survivors drain in offer order.
        let mut out = Vec::new();
        ctl.drain(usize::MAX, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(EventClass::of(&out[0]), EventClass::Important);
        assert_eq!(EventClass::of(&out[1]), EventClass::Critical);
    }

    #[test]
    fn drain_preserves_fifo_order_across_classes() {
        let mut ctl = AdmissionController::new(AdmissionConfig::shedding(8, 0));
        let offered = vec![
            chatter(1),
            isis_event(2),
            link(3),
            chatter(4),
            isis_event(5),
        ];
        for e in offered.clone() {
            ctl.offer(e);
        }
        let mut out = Vec::new();
        ctl.drain(usize::MAX, &mut out);
        let times: Vec<u64> = out.iter().map(|e| e.at().as_millis()).collect();
        assert_eq!(times, vec![1, 2, 3, 4, 5], "no shedding, exact FIFO");
    }

    #[test]
    fn shedding_is_deterministic_in_the_seed() {
        let stream: Vec<StreamEvent> = (0..500)
            .map(|i| match i % 5 {
                0 => isis_event(i * 10),
                1 | 2 => link(i * 10),
                _ => chatter(i * 10),
            })
            .collect();
        let schedule = SimSchedule::new(20, 7);
        let cfg = AdmissionConfig::shedding(16, 1234);
        let (a, ca) = shed_survivors(&stream, &cfg, schedule);
        let (b, cb) = shed_survivors(&stream, &cfg, schedule);
        assert_eq!(a, b);
        assert_eq!(ca, cb);
        // A different seed may pick different within-class victims but
        // never sheds a different *number* under the same schedule.
        let (c, cc) = shed_survivors(&stream, &AdmissionConfig::shedding(16, 99), schedule);
        assert_eq!(ca.shed, cc.shed);
        assert_eq!(ca.offered, cc.offered);
        assert_ne!(a, c, "seed changes within-class victims");
    }

    #[test]
    fn survivor_count_balances_against_shed() {
        let stream: Vec<StreamEvent> = (0..2_000).map(|i| chatter(i * 3)).collect();
        let (survivors, c) = shed_survivors(
            &stream,
            &AdmissionConfig::shedding(64, 5),
            SimSchedule::new(10, 4),
        );
        assert!(c.shed > 0, "2.5x overload must shed");
        assert_eq!(c.offered, 2_000);
        assert_eq!(survivors.len() as u64 + c.shed, c.offered);
        assert!(c.queue_high_water <= 64);
        assert!(c.watermark_lag_max_millis > 0, "a backlog implies lag");
    }

    #[test]
    fn block_policy_never_sheds_and_serves_everything() {
        let stream: Vec<StreamEvent> = (0..1_000).map(|i| link(i * 2)).collect();
        let (survivors, c) = shed_survivors(
            &stream,
            &AdmissionConfig {
                queue_capacity: 32,
                policy: OverloadPolicy::Block,
                seed: 0,
            },
            SimSchedule::new(50, 8),
        );
        assert_eq!(c.shed, 0);
        assert_eq!(survivors.len(), 1_000);
        assert!(c.backpressure_waits > 0, "6x overload must backpressure");
        assert!(c.queue_high_water <= 32);
    }
}
