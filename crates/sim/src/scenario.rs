//! End-to-end scenario runner.
//!
//! Turns a ground-truth failure history into the two contemporaneous
//! observable datasets the paper compares:
//!
//! * an **IS-IS transition log** — per-side failure detections update each
//!   router's advertised adjacency/prefix sets; every change originates an
//!   LSP that floods (with propagation delay) to the passive listener,
//!   which diffs it against the router's previous LSP;
//! * a **syslog archive** — the same detections emit `ADJCHANGE` /
//!   `%LINK` / `%LINEPROTO` messages at each router, which ride the lossy
//!   UDP transport to the central collector.
//!
//! Fidelity mechanisms (each traceable to a paper finding):
//!
//! * per-side detection skew: physical failures are detected near-
//!   simultaneously (carrier), protocol failures up to ~20 s apart
//!   (hold-timer expiry) — this is why only some IS-IS transitions match
//!   *both* routers' syslog messages (Table 3);
//! * adjacency re-establishment skew up to ~12 s (hello pacing), making
//!   UP transitions less often double-matched than DOWNs (Table 3);
//! * IP reachability floods on the LSP-generation timer: fast after quiet,
//!   slow (beyond the 10 s matching window) under backoff — why IP
//!   reachability matches syslog far less often than IS reachability
//!   (Table 2);
//! * syslog-only pseudo-events and carrier blips (§4.3, Table 2);
//! * listener outages with CSNP-style resync on return (§4.2's
//!   sanitization target).

use crate::chaos::{ChaosConfig, ChaosOutcome};
use crate::engine::EventQueue;
use crate::routers::RouterNode;
use crate::tickets::{TicketLog, TicketParams};
use crate::truth::{FailureCause, GroundTruth, PseudoKind};
use crate::workload::{LinkWindow, WorkloadParams};
use faultline_isis::listener::{Listener, ListenerStats, OfflineSpan, Transition};
use faultline_isis::lsp::Lsp;
use faultline_syslog::collector::Collector;
use faultline_syslog::delivery::{LossyTransport, TransportConfig, TransportStats};
use faultline_syslog::message::{AdjChangeDetail, LinkEvent, LinkEventKind, SyslogMessage};
use faultline_topology::generator::CenicParams;
use faultline_topology::link::LinkId;
use faultline_topology::osi::SystemId;
use faultline_topology::time::{Duration, Timestamp};
use faultline_topology::{RouterId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Detection/flooding timing model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimingParams {
    /// Maximum carrier-loss detection delay (physical failures).
    pub carrier_detect_max: Duration,
    /// Maximum extra detection delay on the second router for
    /// protocol-only failures (hold-timer skew).
    pub proto_down_skew_max: Duration,
    /// Handshake completion delay after link recovery (min, max).
    pub handshake: (Duration, Duration),
    /// Maximum extra re-establishment skew on the second router.
    pub up_skew_max: Duration,
    /// LSP flood propagation delay to the listener (min, max).
    pub flood_delay: (Duration, Duration),
    /// Probability an IP-reachability change rides the fast LSP timer.
    pub ip_fast_prob: f64,
    /// Fast LSP-generation delay range for prefix changes.
    pub ip_fast_delay: (Duration, Duration),
    /// Backoff LSP-generation delay range for prefix changes; the upper
    /// end exceeds the paper's 10 s matching window by design.
    pub ip_slow_delay: (Duration, Duration),
    /// Probability that a router emits a spurious reminder Down message
    /// while a sufficiently long failure is still in progress (§4.3:
    /// "99% of spurious down messages are reporting the same failure").
    pub spurious_down_prob: f64,
    /// Probability of a spurious reminder Up after a recovery.
    pub spurious_up_prob: f64,
    /// Delay range of a reminder after the original message.
    pub spurious_delay: (Duration, Duration),
    /// Probability that a *maintenance* outage is syslog-silent: the site
    /// is powered down or its management plane is out, so neither end's
    /// messages reach the collector, while IS-IS still records the
    /// withdrawal. This is the dominant reason syslog under-reports
    /// total downtime (§4.2: 934 fewer hours).
    pub silent_maintenance_prob: f64,
    /// Probability that a long (≥ `silent_threshold`) physical outage is
    /// syslog-silent.
    pub silent_long_prob: f64,
    /// Duration above which a physical outage can be syslog-silent.
    pub silent_threshold: Duration,
    /// Probability that one (random) endpoint logs nothing for a given
    /// failure — platform-dependent adjacency-logging gaps (IOS and
    /// IOS XR differ in when `ADJCHANGE` fires relative to interface
    /// events). This is the main source of Table 3's large "One" column.
    pub one_sided_prob: f64,
    /// Probability that one endpoint's Up message alone is suppressed
    /// (rate-limited during reconvergence); at most one side per failure,
    /// and never the only remaining reporter. Explains why UPs are
    /// single-matched more often than DOWNs (Table 3).
    pub one_sided_up_extra: f64,
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams {
            carrier_detect_max: Duration::from_millis(200),
            proto_down_skew_max: Duration::from_secs(9),
            handshake: (Duration::from_millis(500), Duration::from_millis(3_000)),
            up_skew_max: Duration::from_secs(8),
            flood_delay: (Duration::from_millis(50), Duration::from_millis(500)),
            ip_fast_prob: 0.55,
            ip_fast_delay: (Duration::from_millis(300), Duration::from_millis(6_000)),
            ip_slow_delay: (Duration::from_secs(12), Duration::from_secs(60)),
            spurious_down_prob: 0.03,
            spurious_up_prob: 0.0015,
            spurious_delay: (Duration::from_secs(12), Duration::from_secs(40)),
            silent_maintenance_prob: 0.6,
            silent_long_prob: 0.45,
            silent_threshold: Duration::from_hours(1),
            one_sided_prob: 0.32,
            one_sided_up_extra: 0.18,
        }
    }
}

/// Listener-outage model (§4.2: "periods when the IS-IS listener was
/// offline").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OutageParams {
    /// Number of outages across the period.
    pub count: u32,
    /// Log-uniform duration bounds.
    pub duration_range: (Duration, Duration),
}

impl Default for OutageParams {
    fn default() -> Self {
        OutageParams {
            count: 5,
            duration_range: (Duration::from_hours(2), Duration::from_hours(36)),
        }
    }
}

/// Everything needed to run one scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioParams {
    /// Topology generator parameters.
    pub topology: CenicParams,
    /// Failure workload parameters.
    pub workload: WorkloadParams,
    /// Syslog transport parameters.
    pub transport: TransportConfig,
    /// Trouble-ticket model.
    pub tickets: TicketParams,
    /// Detection/flooding timing.
    pub timing: TimingParams,
    /// Listener outages.
    pub outages: OutageParams,
    /// Periodic LSP refresh interval; `None` disables refresh floods
    /// (they carry no state changes, only volume — Table 1's 11 M updates).
    pub refresh_interval: Option<Duration>,
    /// When true every LSP is encoded to wire bytes and decoded by the
    /// listener (checksum verified); when false the decoded struct is
    /// handed over directly. Same observable results, ~2× faster.
    pub wire_fidelity: bool,
    /// Seed for the scenario-level randomness (skews, delays, outages).
    pub seed: u64,
    /// Post-transport fault injection on the collection path. The
    /// default is inert: chaos off takes the exact pre-chaos code path
    /// and produces byte-identical output.
    #[serde(default)]
    pub chaos: ChaosConfig,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        ScenarioParams {
            topology: CenicParams::default(),
            workload: WorkloadParams::default(),
            transport: TransportConfig::default(),
            tickets: TicketParams::default(),
            timing: TimingParams::default(),
            outages: OutageParams::default(),
            refresh_interval: None,
            // Every LSP is encoded to wire bytes and decoded (checksum
            // verified) by the listener; at the default scale this costs
            // ~0.2 s per run. Refresh-heavy runs (table1) disable it.
            wire_fidelity: true,
            seed: 0xFA017,
            chaos: ChaosConfig::default(),
        }
    }
}

impl ScenarioParams {
    /// A fast, small scenario for unit tests: tiny topology, 30 days,
    /// full wire fidelity, one listener outage.
    pub fn tiny(seed: u64) -> Self {
        ScenarioParams {
            topology: CenicParams::tiny(seed),
            workload: WorkloadParams {
                period_days: 30.0,
                seed: seed ^ 0xABCD,
                ..WorkloadParams::default()
            },
            transport: TransportConfig {
                seed: seed ^ 0x7777,
                ..TransportConfig::default()
            },
            outages: OutageParams {
                count: 1,
                duration_range: (Duration::from_hours(2), Duration::from_hours(8)),
            },
            wire_fidelity: true,
            seed,
            ..ScenarioParams::default()
        }
    }

    /// A scenario whose network dimensions are a fraction (or multiple)
    /// of the paper's CENIC deployment, for scaling benchmarks: `scale`
    /// multiplies every [`CenicParams`] dimension (clamped so the
    /// generator's invariants hold — at least a 3-router backbone ring,
    /// enough links to close it, one uplink per CPE router), and
    /// `period_days` sets the simulated measurement period.
    ///
    /// `sized(seed, 1.0, 389.0)` is the paper-scale network;
    /// `sized(seed, 0.25, 30.0)` is a quarter-size network observed for
    /// a month.
    pub fn sized(seed: u64, scale: f64, period_days: f64) -> Self {
        let dim = |paper: usize, floor: usize| -> usize {
            ((paper as f64 * scale).round() as usize).max(floor)
        };
        let core_routers = dim(60, 3);
        let cpe_routers = dim(175, 1);
        let customers = dim(130, 1).min(cpe_routers);
        ScenarioParams {
            topology: CenicParams {
                core_routers,
                cpe_routers,
                core_links: dim(84, core_routers),
                cpe_links: dim(215, cpe_routers),
                multi_link_pairs: dim(26, 0),
                customers,
                period_days,
                seed,
                ..CenicParams::default()
            },
            workload: WorkloadParams {
                period_days,
                seed: seed ^ 0xABCD,
                ..WorkloadParams::default()
            },
            transport: TransportConfig {
                seed: seed ^ 0x7777,
                ..TransportConfig::default()
            },
            seed,
            ..ScenarioParams::default()
        }
    }

    /// A deterministic, lossless variant of `self`: syslog transport
    /// delivers everything, no pseudo-events are injected by transport.
    /// With no loss, the two reconstructions must closely agree — the
    /// differential baseline used by integration tests.
    pub fn lossless(mut self) -> Self {
        self.transport = TransportConfig::lossless(self.transport.seed);
        self.outages.count = 0;
        self
    }
}

/// Everything a scenario run produces: the inputs the paper's analysis
/// pipeline receives, plus the ground truth for validation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioData {
    /// The network (serde note: call `topology.reindex()` after
    /// deserializing).
    pub topology: Topology,
    /// Ground truth (not available to the analysis in the paper; used here
    /// for validation and classifier oracles).
    pub truth: GroundTruth,
    /// Each link's active window (for annualization).
    pub link_windows: Vec<LinkWindow>,
    /// The listener's transition log (IS + IP reachability).
    pub transitions: Vec<Transition>,
    /// System-id → hostname map learned from hostname TLVs.
    pub hostnames: HashMap<SystemId, String>,
    /// Listener offline spans.
    pub offline_spans: Vec<OfflineSpan>,
    /// Parsed syslog messages, sorted by message-text timestamp.
    pub syslog: Vec<SyslogMessage>,
    /// Trouble-ticket archive.
    pub tickets: TicketLog,
    /// Raw line count at the collector (delivered messages).
    pub raw_syslog_lines: usize,
    /// Listener ingest statistics.
    pub listener_stats: ListenerStats,
    /// Transport statistics.
    pub transport_stats: TransportStats,
    /// Total LSPs flooded toward the listener (including refreshes).
    pub lsps_flooded: u64,
    /// Period length in days.
    pub period_days: f64,
    /// Chaos-layer outcome; present only when the scenario ran with
    /// fault injection enabled.
    #[serde(default)]
    pub chaos: Option<ChaosOutcome>,
}

impl ScenarioData {
    /// Serialize the scenario to JSON (the "archive" a real deployment
    /// would store: both observable datasets plus metadata, with ground
    /// truth attached for validation).
    pub fn save<W: std::io::Write>(&self, writer: W) -> std::io::Result<()> {
        serde_json::to_writer(writer, self).map_err(std::io::Error::other)
    }

    /// Load a scenario archive written by [`ScenarioData::save`],
    /// rebuilding the topology's derived indexes.
    pub fn load<R: std::io::Read>(reader: R) -> std::io::Result<ScenarioData> {
        let mut data: ScenarioData =
            serde_json::from_reader(reader).map_err(std::io::Error::other)?;
        data.topology.reindex();
        Ok(data)
    }
}

/// Simulation events.
enum Ev {
    /// One router detects its side of an adjacency change. `silent`
    /// suppresses the syslog message (powered-down site) but not the LSP.
    AdjChange {
        link: LinkId,
        side: u8,
        up: bool,
        detail: AdjChangeDetail,
        silent: bool,
    },
    /// One router's interface changes physical state.
    IfaceChange {
        link: LinkId,
        side: u8,
        up: bool,
        silent: bool,
    },
    /// The delayed application of an interface change to the advertised
    /// IP reachability (LSP-generation timer).
    PrefixAdvert {
        link: LinkId,
        side: u8,
        up: bool,
    },
    /// A syslog-only pseudo-event message (§4.3).
    Pseudo {
        link: LinkId,
        side: u8,
        up: bool,
        detail: AdjChangeDetail,
    },
    /// An LSP reaching the listener.
    LspArrival(LspPayload),
    /// Periodic LSP refresh.
    Refresh {
        router: u32,
    },
    /// Post-outage resync flood of one router's current LSP.
    Resync {
        router: u32,
    },
    /// Listener goes offline / comes back.
    Offline,
    Online,
}

enum LspPayload {
    Wire(Vec<u8>),
    Decoded(Box<Lsp>),
}

/// Run a scenario.
pub fn run(params: &ScenarioParams) -> ScenarioData {
    let topo = params.topology.generate();
    let truth = params.workload.generate(&topo);
    let tickets = TicketLog::generate(&truth, &params.tickets);
    let windows = params.workload.link_windows(&topo);
    let period = Duration::from_millis((params.workload.period_days * 86_400_000.0) as u64);
    let mut rng = StdRng::seed_from_u64(params.seed);
    let t = &params.timing;

    let mut nodes: Vec<RouterNode> = topo
        .routers()
        .iter()
        .map(|r| RouterNode::new(&topo, r.id))
        .collect();
    let mut listener = Listener::new();
    let mut transport = LossyTransport::new(params.transport.clone());
    let collector = Collector::new();
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut lsps_flooded: u64 = 0;
    // Per-router monotonic LSP arrival clamp (preserves seqno order).
    let mut last_arrival: Vec<Timestamp> = vec![Timestamp::EPOCH; nodes.len()];
    // Per-(link, side) monotonic prefix-advert clamp.
    let mut last_prefix: HashMap<(LinkId, u8), Timestamp> = HashMap::new();
    // Per-(link, side) LSP-generation style for the interface event in
    // progress: drawn at the Down, reused by the matching Up, so a
    // physical event's two prefix transitions are either both timely or
    // both ride the backoff timer (Table 2's ~55/45 split applies
    // per-event, not per-transition).
    let mut prefix_style_slow: HashMap<(LinkId, u8), bool> = HashMap::new();

    // ---- Schedule initial baseline floods --------------------------------
    for r in 0..nodes.len() {
        let at = Timestamp::from_millis(rng.random_range(0..10_000));
        queue.schedule(at, Ev::Resync { router: r as u32 });
    }

    // ---- Schedule refreshes ----------------------------------------------
    if let Some(interval) = params.refresh_interval {
        for r in 0..nodes.len() {
            let at = Timestamp::from_millis(rng.random_range(0..interval.as_millis().max(1)));
            queue.schedule(at, Ev::Refresh { router: r as u32 });
        }
    }

    // ---- Schedule listener outages ----------------------------------------
    {
        let mut spans: Vec<(Timestamp, Timestamp)> = Vec::new();
        let mut guard = 0;
        while spans.len() < params.outages.count as usize && guard < 10_000 {
            guard += 1;
            let (lo, hi) = params.outages.duration_range;
            let dur = Duration::from_millis(crate::dist::log_uniform(
                &mut rng,
                lo.as_millis().max(1) as f64,
                hi.as_millis().max(2) as f64,
            ) as u64);
            if dur.as_millis() + 60_000 >= period.as_millis() {
                continue;
            }
            let start = Timestamp::from_millis(
                rng.random_range(60_000..period.as_millis() - dur.as_millis()),
            );
            let end = start + dur;
            if spans
                .iter()
                .any(|&(s, e)| start <= e + Duration::HOUR && s <= end + Duration::HOUR)
            {
                continue;
            }
            spans.push((start, end));
        }
        for (s, e) in spans {
            queue.schedule(s, Ev::Offline);
            queue.schedule(e, Ev::Online);
            // CSNP-style resync burst right after the listener returns.
            for r in 0..nodes.len() {
                let at = e + Duration::from_millis(rng.random_range(100..10_000));
                queue.schedule(at, Ev::Resync { router: r as u32 });
            }
        }
    }

    // ---- Schedule failure detections per (link, side) ----------------------
    // Spans of scheduled adjacency messages per (link, side): a pseudo
    // event landing inside one would interleave nonsensically with the
    // real messages, so the pseudo loop below skips those.
    let mut adj_spans: HashMap<(LinkId, u8), Vec<(Timestamp, Timestamp)>> = HashMap::new();
    {
        // Group failures per link (truth is sorted by (link, start)).
        let mut idx = 0;
        while idx < truth.failures.len() {
            let link = truth.failures[idx].link;
            let mut end_idx = idx;
            while end_idx < truth.failures.len() && truth.failures[end_idx].link == link {
                end_idx += 1;
            }
            let fs = &truth.failures[idx..end_idx];
            let window = windows[link.0 as usize];
            let mut last_adj = [window.from; 2];
            let mut last_iface = [window.from; 2];
            for (i, f) in fs.iter().enumerate() {
                let next_start = fs.get(i + 1).map(|n| n.start).unwrap_or(window.to);
                let dur = f.duration();
                let physical =
                    matches!(f.cause, FailureCause::Physical | FailureCause::Maintenance);
                // Long outages can be syslog-silent (site powered down):
                // IS-IS still records the withdrawal via surviving LSPs.
                let silent = match f.cause {
                    FailureCause::Maintenance => rng.random::<f64>() < t.silent_maintenance_prob,
                    FailureCause::Physical if dur >= t.silent_threshold => {
                        rng.random::<f64>() < t.silent_long_prob
                    }
                    _ => false,
                };
                let first: u8 = rng.random_range(0..2);
                // Platform logging gaps: one random side may log nothing
                // for this failure; additionally, one side's Up alone may
                // be suppressed (never the only remaining reporter).
                let silent_side: Option<u8> =
                    (rng.random::<f64>() < t.one_sided_prob).then(|| rng.random_range(0..2));
                let up_silent_side: Option<u8> =
                    if silent_side.is_none() && rng.random::<f64>() < t.one_sided_up_extra {
                        Some(rng.random_range(0..2))
                    } else {
                        None
                    };
                let handshake = Duration::from_millis(
                    rng.random_range(t.handshake.0.as_millis()..=t.handshake.1.as_millis()),
                );
                for side in 0..2u8 {
                    let side_silent = silent || silent_side == Some(side);
                    let side_up_silent = side_silent || up_silent_side == Some(side);
                    let down_delay = if physical {
                        Duration::from_millis(
                            rng.random_range(20..=t.carrier_detect_max.as_millis().max(21)),
                        )
                    } else if side == first {
                        Duration::from_millis(rng.random_range(0..2_000))
                    } else {
                        let cap = t
                            .proto_down_skew_max
                            .as_millis()
                            .min(dur.as_millis() * 4 / 5)
                            .max(1);
                        Duration::from_millis(rng.random_range(0..=cap))
                    };
                    let detail = match f.cause {
                        FailureCause::Protocol => AdjChangeDetail::HoldTimeExpired,
                        _ => AdjChangeDetail::InterfaceDown,
                    };
                    // Clamp: after the previous up event, before recovery.
                    let down_t = (f.start + down_delay)
                        .max(last_adj[side as usize] + Duration::from_millis(50))
                        .min(
                            f.end
                                .saturating_sub(Duration::from_millis(100))
                                .max(f.start),
                        );
                    let up_extra = if side == first {
                        Duration::ZERO
                    } else {
                        Duration::from_millis(rng.random_range(0..=t.up_skew_max.as_millis()))
                    };
                    let up_t = (f.end + handshake + up_extra)
                        .min(next_start.saturating_sub(Duration::from_millis(100)))
                        .max(down_t + Duration::from_millis(50));
                    queue.schedule(
                        down_t,
                        Ev::AdjChange {
                            link,
                            side,
                            up: false,
                            detail,
                            silent: side_silent,
                        },
                    );
                    queue.schedule(
                        up_t,
                        Ev::AdjChange {
                            link,
                            side,
                            up: true,
                            detail: AdjChangeDetail::NewAdjacency,
                            silent: side_up_silent,
                        },
                    );
                    last_adj[side as usize] = up_t;
                    adj_spans
                        .entry((link, side))
                        .or_default()
                        .push((down_t, up_t));

                    // Spurious reminders: the router restates a persisting
                    // state some time after the original message (§4.3).
                    if !side_silent {
                        let (d_lo, d_hi) = t.spurious_delay;
                        if rng.random::<f64>() < t.spurious_down_prob
                            && dur > d_lo + Duration::from_secs(15)
                        {
                            let hi = d_hi.as_millis().min(dur.as_millis() * 4 / 5);
                            let delay = Duration::from_millis(
                                rng.random_range(d_lo.as_millis()..=hi.max(d_lo.as_millis() + 1)),
                            );
                            queue.schedule(
                                down_t + delay,
                                Ev::Pseudo {
                                    link,
                                    side,
                                    up: false,
                                    detail,
                                },
                            );
                        }
                        if rng.random::<f64>() < t.spurious_up_prob
                            && next_start
                                .checked_duration_since(up_t)
                                .is_some_and(|g| g > d_hi + Duration::from_secs(10))
                        {
                            let delay = Duration::from_millis(
                                rng.random_range(d_lo.as_millis()..=d_hi.as_millis()),
                            );
                            queue.schedule(
                                up_t + delay,
                                Ev::Pseudo {
                                    link,
                                    side,
                                    up: true,
                                    detail: AdjChangeDetail::NewAdjacency,
                                },
                            );
                        }
                    }

                    if physical {
                        let ifdown = (f.start
                            + Duration::from_millis(
                                rng.random_range(20..=t.carrier_detect_max.as_millis().max(21)),
                            ))
                        .max(last_iface[side as usize] + Duration::from_millis(50))
                        .min(
                            f.end
                                .saturating_sub(Duration::from_millis(100))
                                .max(f.start),
                        );
                        let ifup = (f.end
                            + Duration::from_millis(
                                rng.random_range(20..=t.carrier_detect_max.as_millis().max(21)),
                            ))
                        .min(next_start.saturating_sub(Duration::from_millis(100)))
                        .max(ifdown + Duration::from_millis(50));
                        queue.schedule(
                            ifdown,
                            Ev::IfaceChange {
                                link,
                                side,
                                up: false,
                                silent,
                            },
                        );
                        queue.schedule(
                            ifup,
                            Ev::IfaceChange {
                                link,
                                side,
                                up: true,
                                silent,
                            },
                        );
                        last_iface[side as usize] = ifup;
                    }
                }
            }
            idx = end_idx;
        }
    }

    // ---- Schedule carrier blips (both sides see carrier) --------------------
    {
        let mut last_blip_end: HashMap<LinkId, Timestamp> = HashMap::new();
        for b in &truth.blips {
            let prev = last_blip_end
                .get(&b.link)
                .copied()
                .unwrap_or(Timestamp::EPOCH);
            if b.at <= prev + Duration::SECOND {
                continue; // overlapping blips collapse
            }
            last_blip_end.insert(b.link, b.at + b.width);
            for side in 0..2u8 {
                let d1 = Duration::from_millis(rng.random_range(10..100));
                let d2 = Duration::from_millis(rng.random_range(10..100));
                queue.schedule(
                    b.at + d1,
                    Ev::IfaceChange {
                        link: b.link,
                        side,
                        up: false,
                        silent: false,
                    },
                );
                queue.schedule(
                    b.at + b.width + d2,
                    Ev::IfaceChange {
                        link: b.link,
                        side,
                        up: true,
                        silent: false,
                    },
                );
            }
        }
    }

    // ---- Schedule pseudo-events ----------------------------------------------
    {
        let margin = Duration::from_secs(2);
        // A pseudo event must not interleave with scheduled adjacency
        // messages on its own (link, side): the real Up can arrive well
        // after the ground-truth recovery (handshake + skew), and a Down
        // reminder wedged in between would corrupt the message stream in
        // a way real routers do not.
        let interleaves = |link: LinkId, side: u8, from: Timestamp, to: Timestamp| -> bool {
            let Some(spans) = adj_spans.get(&(link, side)) else {
                return false;
            };
            let idx = spans.partition_point(|&(_, up)| up + margin < from);
            spans[idx..]
                .iter()
                .take_while(|&&(down, _)| down <= to + margin)
                .next()
                .is_some()
        };
        let mut last_pseudo_end: HashMap<(LinkId, u8), Timestamp> = HashMap::new();
        for p in &truth.pseudo_events {
            let key = (p.link, p.side);
            let prev = last_pseudo_end
                .get(&key)
                .copied()
                .unwrap_or(Timestamp::EPOCH);
            if p.at <= prev + Duration::SECOND {
                continue;
            }
            if interleaves(p.link, p.side, p.at, p.at + p.width) {
                continue;
            }
            last_pseudo_end.insert(key, p.at + p.width);
            let detail = match p.kind {
                PseudoKind::AdjacencyReset => AdjChangeDetail::AdjacencyReset,
                PseudoKind::AbortedHandshake => AdjChangeDetail::HoldTimeExpired,
            };
            queue.schedule(
                p.at,
                Ev::Pseudo {
                    link: p.link,
                    side: p.side,
                    up: false,
                    detail,
                },
            );
            queue.schedule(
                p.at + p.width,
                Ev::Pseudo {
                    link: p.link,
                    side: p.side,
                    up: true,
                    detail: AdjChangeDetail::NewAdjacency,
                },
            );
        }
    }

    // ---- Helpers -------------------------------------------------------------
    let side_router = |link: LinkId, side: u8| -> RouterId {
        let l = topo.link(link);
        if side == 0 {
            l.a.router
        } else {
            l.b.router
        }
    };

    // ---- Main loop -------------------------------------------------------------
    let end_of_period = Timestamp::EPOCH + period;
    while let Some((now, ev)) = queue.pop() {
        if now > end_of_period + Duration::from_hours(1) {
            // Drain anything scheduled past the horizon (refresh chains).
            continue;
        }
        match ev {
            Ev::AdjChange {
                link,
                side,
                up,
                detail,
                silent,
            } => {
                let rid = side_router(link, side);
                let other = side_router(link, 1 - side);
                let neighbor = nodes[other.0 as usize].hostname.clone();
                let node = &mut nodes[rid.0 as usize];
                let changed = node.set_adjacency(link, up);
                // Router logs the ADJCHANGE regardless of whether the
                // advertised neighbor set changed (parallel links!) —
                // unless the site is syslog-silent for this outage.
                if !silent {
                    let iface = topo
                        .link(link)
                        .endpoint_on(rid)
                        .expect("side endpoint")
                        .interface
                        .clone();
                    let msg = SyslogMessage {
                        seq: node.next_syslog_seq(),
                        event: LinkEvent {
                            at: now,
                            host: node.hostname.clone(),
                            interface: iface,
                            kind: LinkEventKind::IsisAdjacency { neighbor, detail },
                            up,
                        },
                        os: node.os,
                    };
                    for d in transport.send(msg) {
                        collector.ingest(&d);
                    }
                }
                if changed {
                    flood(
                        &mut nodes[rid.0 as usize],
                        now,
                        &mut rng,
                        t,
                        &mut last_arrival[rid.0 as usize],
                        &mut queue,
                        params.wire_fidelity,
                        &mut lsps_flooded,
                    );
                }
            }
            Ev::IfaceChange {
                link,
                side,
                up,
                silent,
            } => {
                let rid = side_router(link, side);
                let node = &mut nodes[rid.0 as usize];
                let iface = topo
                    .link(link)
                    .endpoint_on(rid)
                    .expect("side endpoint")
                    .interface
                    .clone();
                if !silent {
                    for kind in [LinkEventKind::Link, LinkEventKind::LineProtocol] {
                        let msg = SyslogMessage {
                            seq: node.next_syslog_seq(),
                            event: LinkEvent {
                                at: now,
                                host: node.hostname.clone(),
                                interface: iface.clone(),
                                kind,
                                up,
                            },
                            os: node.os,
                        };
                        for d in transport.send(msg) {
                            collector.ingest(&d);
                        }
                    }
                }
                // The advertised prefix follows on the LSP-generation
                // timer: fast after quiet, slow under backoff. The style
                // is drawn once per down/up event pair.
                let key = (link, side);
                let slow = if up {
                    prefix_style_slow
                        .remove(&key)
                        .unwrap_or_else(|| rng.random::<f64>() >= t.ip_fast_prob)
                } else {
                    let s = rng.random::<f64>() >= t.ip_fast_prob;
                    prefix_style_slow.insert(key, s);
                    s
                };
                let delay = if slow {
                    Duration::from_millis(rng.random_range(
                        t.ip_slow_delay.0.as_millis()..=t.ip_slow_delay.1.as_millis(),
                    ))
                } else {
                    Duration::from_millis(rng.random_range(
                        t.ip_fast_delay.0.as_millis()..=t.ip_fast_delay.1.as_millis(),
                    ))
                };
                let at = (now + delay).max(
                    *last_prefix.get(&key).unwrap_or(&Timestamp::EPOCH) + Duration::from_millis(1),
                );
                last_prefix.insert(key, at);
                queue.schedule(at, Ev::PrefixAdvert { link, side, up });
            }
            Ev::PrefixAdvert { link, side, up } => {
                let rid = side_router(link, side);
                let changed = nodes[rid.0 as usize].set_prefix(link, up);
                if changed {
                    flood(
                        &mut nodes[rid.0 as usize],
                        now,
                        &mut rng,
                        t,
                        &mut last_arrival[rid.0 as usize],
                        &mut queue,
                        params.wire_fidelity,
                        &mut lsps_flooded,
                    );
                }
            }
            Ev::Pseudo {
                link,
                side,
                up,
                detail,
            } => {
                let rid = side_router(link, side);
                let other = side_router(link, 1 - side);
                let neighbor = nodes[other.0 as usize].hostname.clone();
                let node = &mut nodes[rid.0 as usize];
                let iface = topo
                    .link(link)
                    .endpoint_on(rid)
                    .expect("side endpoint")
                    .interface
                    .clone();
                let msg = SyslogMessage {
                    seq: node.next_syslog_seq(),
                    event: LinkEvent {
                        at: now,
                        host: node.hostname.clone(),
                        interface: iface,
                        kind: LinkEventKind::IsisAdjacency { neighbor, detail },
                        up,
                    },
                    os: node.os,
                };
                for d in transport.send(msg) {
                    collector.ingest(&d);
                }
                // No LSP: that is what makes these false positives.
            }
            Ev::Refresh { router } => {
                flood(
                    &mut nodes[router as usize],
                    now,
                    &mut rng,
                    t,
                    &mut last_arrival[router as usize],
                    &mut queue,
                    params.wire_fidelity,
                    &mut lsps_flooded,
                );
                if let Some(interval) = params.refresh_interval {
                    let jitter = interval.mul_f64(0.9 + 0.2 * rng.random::<f64>());
                    if now + jitter <= end_of_period {
                        queue.schedule(now + jitter, Ev::Refresh { router });
                    }
                }
            }
            Ev::Resync { router } => {
                flood(
                    &mut nodes[router as usize],
                    now,
                    &mut rng,
                    t,
                    &mut last_arrival[router as usize],
                    &mut queue,
                    params.wire_fidelity,
                    &mut lsps_flooded,
                );
            }
            Ev::LspArrival(payload) => match payload {
                LspPayload::Wire(bytes) => {
                    let _ = listener.receive_bytes(now, &bytes);
                }
                LspPayload::Decoded(lsp) => listener.receive(now, *lsp),
            },
            Ev::Offline => listener.go_offline(now),
            Ev::Online => listener.go_online(now),
        }
    }

    let listener_stats = listener.stats();
    let transport_stats = transport.stats();
    let hostnames = listener.hostnames().clone();
    let mut offline_spans = listener.offline_spans().to_vec();
    let mut transitions = listener.into_transitions();

    // Chaos layer: post-process the collection-path outputs. Gated so
    // that a disabled config takes the exact pre-chaos code path (same
    // calls, zero extra RNG draws) and stays byte-identical.
    let (syslog, raw_syslog_lines, chaos) = if params.chaos.enabled() {
        let mut records = collector.into_lines();
        let stats = params
            .chaos
            .apply(&mut records, &mut transitions, &mut offline_spans, period);
        let (events, parse_stats) = faultline_syslog::collector::parse_records(&records);
        (
            events,
            records.len(),
            Some(ChaosOutcome {
                config: params.chaos.clone(),
                stats,
                parse: parse_stats,
            }),
        )
    } else {
        (collector.parsed_messages(), collector.len(), None)
    };

    ScenarioData {
        topology: topo,
        truth,
        link_windows: windows,
        transitions,
        hostnames,
        offline_spans,
        syslog,
        tickets,
        raw_syslog_lines,
        listener_stats,
        transport_stats,
        lsps_flooded,
        period_days: params.workload.period_days,
        chaos,
    }
}

/// Originate the router's current LSP and schedule its arrival at the
/// listener, keeping per-router arrival order monotonic so sequence
/// numbers never arrive out of order.
#[allow(clippy::too_many_arguments)]
fn flood(
    node: &mut RouterNode,
    now: Timestamp,
    rng: &mut StdRng,
    t: &TimingParams,
    last_arrival: &mut Timestamp,
    queue: &mut EventQueue<Ev>,
    wire: bool,
    lsps_flooded: &mut u64,
) {
    let lsp = node.originate();
    let delay = Duration::from_millis(
        rng.random_range(t.flood_delay.0.as_millis()..=t.flood_delay.1.as_millis()),
    );
    let arrival = (now + delay).max(*last_arrival + Duration::from_millis(1));
    *last_arrival = arrival;
    *lsps_flooded += 1;
    let payload = if wire {
        LspPayload::Wire(lsp.encode())
    } else {
        LspPayload::Decoded(Box::new(lsp))
    };
    queue.schedule(arrival, Ev::LspArrival(payload));
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_isis::listener::{ReachabilityKind, TransitionDirection};

    #[test]
    fn tiny_scenario_runs_and_produces_both_views() {
        let data = run(&ScenarioParams::tiny(5));
        assert!(!data.truth.failures.is_empty());
        assert!(!data.transitions.is_empty(), "listener saw transitions");
        assert!(!data.syslog.is_empty(), "collector got messages");
        assert!(data.lsps_flooded > 0);
        // Every router should have been learned by hostname TLV.
        assert_eq!(data.hostnames.len(), data.topology.routers().len());
    }

    #[test]
    fn sized_scenario_scales_dimensions_and_runs() {
        let params = ScenarioParams::sized(9, 0.1, 10.0);
        // A tenth-scale network still satisfies the generator invariants.
        assert!(params.topology.core_routers >= 3);
        assert!(params.topology.core_links >= params.topology.core_routers);
        assert!(params.topology.cpe_links >= params.topology.cpe_routers);
        assert!(params.topology.customers <= params.topology.cpe_routers);
        assert_eq!(params.workload.period_days, 10.0);
        let data = run(&params);
        assert!(!data.transitions.is_empty());
        assert!(!data.syslog.is_empty());
        // Full scale reproduces the paper's dimensions.
        let paper = ScenarioParams::sized(9, 1.0, 389.0);
        assert_eq!(paper.topology.core_routers, 60);
        assert_eq!(paper.topology.cpe_links, 215);
    }

    #[test]
    fn deterministic_given_params() {
        let a = run(&ScenarioParams::tiny(9));
        let b = run(&ScenarioParams::tiny(9));
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.syslog, b.syslog);
        assert_eq!(a.raw_syslog_lines, b.raw_syslog_lines);
    }

    #[test]
    fn lossless_scenario_delivers_all_messages() {
        let data = run(&ScenarioParams::tiny(4).lossless());
        assert_eq!(data.transport_stats.offered, data.transport_stats.delivered);
        assert_eq!(data.transport_stats.spurious, 0);
        assert!(data.offline_spans.is_empty());
    }

    #[test]
    fn transitions_come_in_both_kinds_and_directions() {
        let data = run(&ScenarioParams::tiny(5));
        let has = |k: ReachabilityKind, d: TransitionDirection| {
            data.transitions
                .iter()
                .any(|t| t.kind == k && t.direction == d)
        };
        assert!(has(ReachabilityKind::IsReach, TransitionDirection::Down));
        assert!(has(ReachabilityKind::IsReach, TransitionDirection::Up));
        assert!(has(ReachabilityKind::IpReach, TransitionDirection::Down));
        assert!(has(ReachabilityKind::IpReach, TransitionDirection::Up));
    }

    #[test]
    fn pseudo_events_reach_syslog_but_not_listener() {
        let data = run(&ScenarioParams::tiny(6).lossless());
        // Count reset-detail syslog messages: they exist.
        let resets = data
            .syslog
            .iter()
            .filter(|m| {
                matches!(
                    &m.event.kind,
                    LinkEventKind::IsisAdjacency {
                        detail: AdjChangeDetail::AdjacencyReset,
                        ..
                    }
                )
            })
            .count();
        if data
            .truth
            .pseudo_events
            .iter()
            .any(|p| p.kind == PseudoKind::AdjacencyReset)
        {
            assert!(resets > 0, "adjacency resets must appear in syslog");
        }
    }

    #[test]
    fn syslog_sorted_by_text_timestamp() {
        let data = run(&ScenarioParams::tiny(7));
        for w in data.syslog.windows(2) {
            assert!(w[0].event.at <= w[1].event.at);
        }
    }

    #[test]
    fn offline_span_recorded() {
        let data = run(&ScenarioParams::tiny(8));
        assert_eq!(data.offline_spans.len(), 1);
        assert!(
            data.listener_stats.lsps_missed_offline > 0
                || data.offline_spans[0].from > Timestamp::EPOCH
        );
    }

    #[test]
    fn chaos_off_is_byte_identical_and_unreported() {
        let clean = run(&ScenarioParams::tiny(9));
        let mut p = ScenarioParams::tiny(9);
        // A non-default seed with every pathology off is still "off".
        p.chaos.seed = 1234;
        let off = run(&p);
        assert!(clean.chaos.is_none());
        assert!(off.chaos.is_none());
        assert_eq!(clean.syslog, off.syslog);
        assert_eq!(clean.transitions, off.transitions);
        assert_eq!(clean.raw_syslog_lines, off.raw_syslog_lines);
        assert_eq!(clean.offline_spans, off.offline_spans);
    }

    #[test]
    fn chaos_on_is_deterministic_and_balanced() {
        let mut p = ScenarioParams::tiny(9);
        p.chaos = crate::chaos::ChaosConfig::moderate(5);
        let a = run(&p);
        let b = run(&p);
        assert_eq!(a.syslog, b.syslog);
        assert_eq!(a.raw_syslog_lines, b.raw_syslog_lines);
        let outcome = a.chaos.expect("chaos ran");
        assert_eq!(Some(outcome.clone()), b.chaos);
        assert!(outcome.stats.is_balanced(), "{:?}", outcome.stats);
        assert_eq!(outcome.stats.lines_out, a.raw_syslog_lines as u64);
        assert_eq!(outcome.parse.lines, outcome.stats.lines_out);
        assert!(outcome.parse.is_balanced(), "{:?}", outcome.parse);
        // The injected listener outage joined the offline record.
        let clean = run(&ScenarioParams::tiny(9));
        assert_eq!(
            a.offline_spans.len(),
            clean.offline_spans.len() + outcome.stats.listener_outages_injected as usize
        );
    }

    #[test]
    fn refresh_floods_add_volume_not_transitions() {
        let mut p1 = ScenarioParams::tiny(11).lossless();
        p1.outages.count = 0;
        let base = run(&p1);
        let mut p2 = ScenarioParams::tiny(11).lossless();
        p2.outages.count = 0;
        p2.refresh_interval = Some(Duration::from_secs(900));
        let with_refresh = run(&p2);
        assert!(with_refresh.lsps_flooded > base.lsps_flooded * 3);
        // Refresh floods shift RNG draws (so exact timestamps differ), but
        // the multiset of state changes must be identical.
        let key = |ts: &[Transition]| {
            let mut v: Vec<_> = ts
                .iter()
                .map(|t| (t.source, t.kind, t.subject, t.direction))
                .collect();
            v.sort();
            v
        };
        assert_eq!(key(&base.transitions), key(&with_refresh.transitions));
    }
}
