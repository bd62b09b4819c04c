//! The lossy path from a router's syslog subsystem to the collector.
//!
//! §3.3: *"Because syslog messages are transmitted via UDP and the syslog
//! process runs with low priority, message generation and delivery is far
//! from certain."* Three mechanisms produce every syslog artifact the
//! paper reports:
//!
//! 1. **Base loss** — every message is independently dropped with a small
//!    probability (UDP on a congested path, collector overload).
//! 2. **Overload loss during flapping** — when an interface generates
//!    messages rapidly, the low-priority syslog process falls behind and
//!    sheds load in *bursts*: a failure's Down and its matching Up are
//!    usually dropped (or kept) together, because the queue overflows for
//!    stretches longer than a short flap cycle. The model makes this
//!    pair-fate explicit (`flap_pair_loss`), plus a small independent
//!    per-message component (`flap_msg_loss`). Pair-fate is why §4.1
//!    finds *"less than half of all syslog state transitions are
//!    matched"* during flapping while the delivered stream still mostly
//!    alternates Down/Up; the independent component is what occasionally
//!    orphans a Down — the paper's lost-message double-downs and the
//!    handful of multi-day false positives the ticket check removes
//!    (§4.2–4.3).
//! 3. **Spurious retransmission** — routers occasionally re-emit a
//!    message restating current link state (§4.3: 52% of double-downs).
//!
//! Delivery applies a small jitter; the *message text* timestamp (what
//! the analysis reads) is the router-local generation time.

use crate::message::{LinkEventKind, SyslogMessage};
use faultline_topology::interface::InterfaceName;
use faultline_topology::time::{Duration, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Tunable parameters of the lossy path.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransportConfig {
    /// Independent per-message drop probability in quiet conditions.
    pub base_loss: f64,
    /// Window over which messages about one interface are counted for
    /// overload detection.
    pub flap_window: Duration,
    /// Messages within the window at which the interface counts as
    /// flapping (overloaded).
    pub flap_threshold: usize,
    /// Probability, while overloaded, that a failure's Down+Up message
    /// pair is dropped together.
    pub flap_pair_loss: f64,
    /// Additional independent per-message drop probability while
    /// overloaded (orphans an occasional Down or Up).
    pub flap_msg_loss: f64,
    /// Maximum uniform delivery jitter added to the arrival time.
    pub jitter_max: Duration,
    /// Probability that a delivered state-change message is followed by a
    /// spurious retransmission restating the same state.
    pub spurious_prob: f64,
    /// Maximum delay of a spurious retransmission after the original.
    pub spurious_delay_max: Duration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            base_loss: 0.008,
            flap_window: Duration::from_secs(600),
            flap_threshold: 4,
            flap_pair_loss: 0.48,
            flap_msg_loss: 0.02,
            jitter_max: Duration::from_millis(400),
            // The scenario generates spurious reminders itself (it knows
            // failure durations, so reminders restate a *persisting*
            // state, as §4.3 observes); the transport-level mechanism
            // stays available for stress tests.
            spurious_prob: 0.0,
            spurious_delay_max: Duration::from_secs(45),
            seed: 0xfa71,
        }
    }
}

impl TransportConfig {
    /// A perfectly reliable transport (for differential tests: with no
    /// loss, syslog and IS-IS reconstructions must closely agree).
    pub fn lossless(seed: u64) -> Self {
        TransportConfig {
            base_loss: 0.0,
            flap_pair_loss: 0.0,
            flap_msg_loss: 0.0,
            jitter_max: Duration::ZERO,
            spurious_prob: 0.0,
            seed,
            ..TransportConfig::default()
        }
    }
}

/// A message delivered to the collector.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Delivery {
    /// Arrival time at the collector (generation time + jitter).
    pub arrived_at: Timestamp,
    /// The message (its embedded timestamp is the generation time).
    pub message: SyslogMessage,
    /// True if this copy is a spurious retransmission.
    pub spurious: bool,
}

/// Counters describing what the transport did; used to validate the
/// calibration targets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportStats {
    /// Messages offered by routers.
    pub offered: u64,
    /// Messages delivered (excluding spurious copies).
    pub delivered: u64,
    /// Messages dropped by independent quiet-time loss.
    pub dropped_random: u64,
    /// Messages dropped as part of a pair-fate overload drop.
    pub dropped_overload_pair: u64,
    /// Messages dropped by the independent overload component.
    pub dropped_overload_msg: u64,
    /// Spurious retransmissions generated.
    pub spurious: u64,
}

/// Overload bookkeeping families: ADJCHANGE and physical-media messages
/// queue in different logging subsystems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Family {
    Adjacency,
    Physical,
}

#[derive(Debug, Default)]
struct IfaceState {
    recent: VecDeque<Timestamp>,
    /// Fate drawn at the current state-run's first Down: `true` = the
    /// whole pair is dropped.
    pair_dropped: Option<bool>,
    last_was_down: bool,
}

/// The lossy router-to-collector path.
#[derive(Debug)]
pub struct LossyTransport {
    cfg: TransportConfig,
    rng: StdRng,
    ifaces: HashMap<(Arc<str>, InterfaceName, Family), IfaceState>,
    stats: TransportStats,
}

impl LossyTransport {
    /// Create a transport with the given configuration.
    pub fn new(cfg: TransportConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        LossyTransport {
            cfg,
            rng,
            ifaces: HashMap::new(),
            stats: TransportStats::default(),
        }
    }

    /// Offer one message from a router. Returns zero, one, or two
    /// deliveries (the second being a spurious retransmission, whose
    /// message text carries a later generation timestamp).
    pub fn send(&mut self, message: SyslogMessage) -> Vec<Delivery> {
        self.stats.offered += 1;
        let now = message.event.at;
        let family = match message.event.kind {
            LinkEventKind::IsisAdjacency { .. } => Family::Adjacency,
            LinkEventKind::Link | LinkEventKind::LineProtocol => Family::Physical,
        };
        let key = (
            message.event.host.clone(),
            message.event.interface.clone(),
            family,
        );
        let st = self.ifaces.entry(key).or_default();

        // Overload detection: sliding count of attempts per interface.
        while let Some(&front) = st.recent.front() {
            if now
                .checked_duration_since(front)
                .map(|d| d > self.cfg.flap_window)
                == Some(true)
            {
                st.recent.pop_front();
            } else {
                break;
            }
        }
        st.recent.push_back(now);
        let overloaded = st.recent.len() >= self.cfg.flap_threshold;

        // Pair-fate: a fresh Down (re-)draws the fate; Ups (and repeated
        // same-direction messages, e.g. %LINK + %LINEPROTO) inherit it.
        let is_down = !message.event.up;
        if is_down && !st.last_was_down {
            st.pair_dropped =
                Some(overloaded && self.rng.random::<f64>() < self.cfg.flap_pair_loss);
        }
        st.last_was_down = is_down;
        // An Up with no recorded fate (stream starts mid-failure) passes.
        let pair_dropped = *st.pair_dropped.get_or_insert(false);
        if pair_dropped {
            self.stats.dropped_overload_pair += 1;
            return Vec::new();
        }

        // Independent components.
        if overloaded
            && self.cfg.flap_msg_loss > 0.0
            && self.rng.random::<f64>() < self.cfg.flap_msg_loss
        {
            self.stats.dropped_overload_msg += 1;
            return Vec::new();
        }
        if self.cfg.base_loss > 0.0 && self.rng.random::<f64>() < self.cfg.base_loss {
            self.stats.dropped_random += 1;
            return Vec::new();
        }

        self.stats.delivered += 1;
        let jitter = Duration::from_millis(if self.cfg.jitter_max.as_millis() == 0 {
            0
        } else {
            self.rng.random_range(0..=self.cfg.jitter_max.as_millis())
        });
        let mut out = vec![Delivery {
            arrived_at: now + jitter,
            message: message.clone(),
            spurious: false,
        }];

        // Spurious retransmission: the router restates the same link state
        // a little later. A dropped spurious copy is observationally
        // identical to no spurious copy, so it is delivered directly.
        if self.cfg.spurious_prob > 0.0 && self.rng.random::<f64>() < self.cfg.spurious_prob {
            let delay = Duration::from_millis(
                self.rng
                    .random_range(1_000..=self.cfg.spurious_delay_max.as_millis().max(1_001)),
            );
            let mut copy = message;
            copy.event.at = now + delay;
            copy.seq += 1_000_000; // visibly out-of-band sequence number
            self.stats.spurious += 1;
            out.push(Delivery {
                arrived_at: copy.event.at + jitter,
                message: copy,
                spurious: true,
            });
        }
        out
    }

    /// Counters so far.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// The active configuration.
    pub fn config(&self) -> &TransportConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{LinkEvent, LinkEventKind};
    use faultline_topology::router::RouterOs;

    fn msg(host: &str, iface: u32, at_ms: u64, up: bool) -> SyslogMessage {
        SyslogMessage {
            seq: 1,
            event: LinkEvent {
                at: Timestamp::from_millis(at_ms),
                host: host.into(),
                interface: InterfaceName::gig(iface),
                kind: LinkEventKind::IsisAdjacency {
                    neighbor: "peer".into(),
                    detail: crate::message::AdjChangeDetail::HoldTimeExpired,
                },
                up,
            },
            os: RouterOs::Ios,
        }
    }

    #[test]
    fn lossless_transport_delivers_everything() {
        let mut t = LossyTransport::new(TransportConfig::lossless(1));
        for i in 0..1_000 {
            let d = t.send(msg("r1", 0, i * 1_000, i % 2 == 1));
            assert_eq!(d.len(), 1);
            assert!(!d[0].spurious);
            assert_eq!(d[0].arrived_at, Timestamp::from_millis(i * 1_000));
        }
        assert_eq!(t.stats().delivered, 1_000);
        assert_eq!(t.stats().offered, 1_000);
    }

    #[test]
    fn base_loss_rate_is_respected() {
        let cfg = TransportConfig {
            base_loss: 0.2,
            flap_pair_loss: 0.0,
            flap_msg_loss: 0.0,
            spurious_prob: 0.0,
            seed: 7,
            ..TransportConfig::default()
        };
        let mut t = LossyTransport::new(cfg);
        let mut delivered = 0;
        for i in 0..20_000u64 {
            if !t.send(msg("r1", 0, i * 300_000, i % 2 == 1)).is_empty() {
                delivered += 1;
            }
        }
        let rate = delivered as f64 / 20_000.0;
        assert!((rate - 0.8).abs() < 0.02, "delivery rate {rate}");
    }

    #[test]
    fn flap_overload_drops_whole_pairs() {
        let cfg = TransportConfig {
            base_loss: 0.0,
            flap_pair_loss: 0.6,
            flap_msg_loss: 0.0,
            spurious_prob: 0.0,
            seed: 3,
            ..TransportConfig::default()
        };
        let mut t = LossyTransport::new(cfg);
        // A rapid flap: down/up every 5 seconds for 10 minutes.
        let mut delivered = Vec::new();
        for i in 0..120u64 {
            let m = msg("r1", 0, i * 5_000, i % 2 == 1);
            if !t.send(m.clone()).is_empty() {
                delivered.push(m.event.up);
            }
        }
        assert!(
            delivered.len() < 100,
            "a good chunk of the burst dropped, got {}",
            delivered.len()
        );
        // Pair-fate: the delivered subsequence still alternates down/up.
        for w in delivered.windows(2) {
            assert_ne!(w[0], w[1], "delivered stream must alternate");
        }
        assert!(t.stats().dropped_overload_pair > 20);
        assert!(
            t.stats().dropped_overload_pair.is_multiple_of(2),
            "pairs drop whole"
        );
    }

    #[test]
    fn quiet_interfaces_see_no_overload() {
        let cfg = TransportConfig {
            base_loss: 0.0,
            spurious_prob: 0.0,
            seed: 5,
            ..TransportConfig::default()
        };
        let mut t = LossyTransport::new(cfg);
        // One failure pair every 10 minutes: never overloaded.
        for i in 0..500u64 {
            let d = t.send(msg("r1", 0, i * 600_000, i % 2 == 1));
            assert_eq!(d.len(), 1);
        }
        assert_eq!(t.stats().dropped_overload_pair, 0);
        assert_eq!(t.stats().dropped_overload_msg, 0);
    }

    #[test]
    fn overload_is_per_interface_and_family() {
        let cfg = TransportConfig {
            base_loss: 0.0,
            flap_pair_loss: 1.0,
            flap_msg_loss: 0.0,
            flap_threshold: 2,
            spurious_prob: 0.0,
            seed: 3,
            ..TransportConfig::default()
        };
        let mut t = LossyTransport::new(cfg);
        // Flap iface 0 into overload.
        for i in 0..10u64 {
            t.send(msg("r1", 0, i * 5_000, i % 2 == 1));
        }
        // Iface 1 and another router are unaffected.
        assert_eq!(t.send(msg("r1", 1, 51_000, false)).len(), 1);
        assert_eq!(t.send(msg("r2", 0, 52_000, false)).len(), 1);
        // A %LINK message about iface 0 is a different family: only its
        // own history counts.
        let phys = SyslogMessage {
            seq: 1,
            event: LinkEvent {
                at: Timestamp::from_millis(53_000),
                host: "r1".into(),
                interface: InterfaceName::gig(0),
                kind: LinkEventKind::Link,
                up: false,
            },
            os: RouterOs::Ios,
        };
        assert_eq!(t.send(phys).len(), 1);
    }

    #[test]
    fn flap_msg_loss_can_orphan_a_down() {
        let cfg = TransportConfig {
            base_loss: 0.0,
            flap_pair_loss: 0.0,
            flap_msg_loss: 0.5,
            flap_threshold: 2,
            spurious_prob: 0.0,
            seed: 9,
            ..TransportConfig::default()
        };
        let mut t = LossyTransport::new(cfg);
        let mut downs = 0;
        let mut ups = 0;
        for i in 0..2_000u64 {
            let m = msg("r1", 0, i * 5_000, i % 2 == 1);
            if !t.send(m.clone()).is_empty() {
                if m.event.up {
                    ups += 1;
                } else {
                    downs += 1;
                }
            }
        }
        // Independent loss breaks pair symmetry sometimes.
        assert_ne!(downs, ups, "independent overload loss orphans messages");
        assert!(t.stats().dropped_overload_msg > 300);
    }

    #[test]
    fn spurious_copies_restate_same_state() {
        let cfg = TransportConfig {
            base_loss: 0.0,
            flap_pair_loss: 0.0,
            flap_msg_loss: 0.0,
            spurious_prob: 1.0,
            jitter_max: Duration::ZERO,
            seed: 11,
            ..TransportConfig::default()
        };
        let mut t = LossyTransport::new(cfg);
        let original = msg("r1", 0, 1_000, false);
        let d = t.send(original.clone());
        assert_eq!(d.len(), 2);
        assert!(d[1].spurious);
        assert_eq!(d[1].message.event.up, original.event.up);
        assert!(d[1].message.event.at > original.event.at);
        assert_eq!(d[1].message.event.interface, original.event.interface);
        assert_eq!(t.stats().spurious, 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut t = LossyTransport::new(TransportConfig {
                seed: 99,
                ..TransportConfig::default()
            });
            let mut n = 0;
            for i in 0..5_000u64 {
                n += t.send(msg("r1", 0, i * 7_000, i % 2 == 1)).len();
            }
            n
        };
        assert_eq!(run(), run());
    }
}
