//! Syslog false positives and ambiguous-state-change classification
//! (§4.3, Table 6).
//!
//! A syslog failure with no IS-IS counterpart "seemingly did not impact
//! traffic" — a false positive. The paper finds 83% of them are ≤ 10 s
//! (connection resets and aborted handshakes) and nearly all of the long
//! ones fall inside flapping periods, when lost messages glue short
//! failures together.
//!
//! Ambiguous double up/down messages are diagnosed against the IS-IS
//! timeline: if both messages of the pair correspond to genuine IS-IS
//! transitions, a message in between was **lost**; if the repeat was sent
//! while the link was already in the asserted state, it was a **spurious
//! retransmission**; the rest are **unknown**.

use crate::flap::FlapIndex;
use crate::linktable::LinkIx;
use crate::reconstruct::{AmbiguousPeriod, Failure};
use crate::transitions::LinkTransition;
use faultline_isis::listener::TransitionDirection;
use faultline_topology::time::{Duration, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The longest false positive that counts as short (§4.3: ≤ 10 s, the
/// connection resets and aborted handshakes behind 83% of them).
pub const SHORT_FP_THRESHOLD: Duration = Duration::from_secs(10);

/// A queryable per-link state timeline built from link-level transitions.
#[derive(Debug, Clone, Default)]
pub struct LinkStateTimeline {
    by_link: HashMap<LinkIx, Vec<(Timestamp, TransitionDirection)>>,
}

impl LinkStateTimeline {
    /// Build from sorted link transitions.
    pub fn new(transitions: &[LinkTransition]) -> Self {
        let mut by_link: HashMap<LinkIx, Vec<(Timestamp, TransitionDirection)>> = HashMap::new();
        for t in transitions {
            by_link.entry(t.link).or_default().push((t.at, t.direction));
        }
        for v in by_link.values_mut() {
            v.sort_by_key(|&(at, _)| at);
        }
        LinkStateTimeline { by_link }
    }

    /// Link state at `t` (up before any transition).
    pub fn is_down_at(&self, link: LinkIx, t: Timestamp) -> bool {
        let Some(v) = self.by_link.get(&link) else {
            return false;
        };
        let idx = v.partition_point(|&(at, _)| at <= t);
        idx > 0 && v[idx - 1].1 == TransitionDirection::Down
    }

    /// Is there a transition of `dir` on `link` within `window` of `t`?
    pub fn has_transition_near(
        &self,
        link: LinkIx,
        t: Timestamp,
        dir: TransitionDirection,
        window: Duration,
    ) -> bool {
        let Some(v) = self.by_link.get(&link) else {
            return false;
        };
        let lo = t.saturating_sub(window);
        let start = v.partition_point(|&(at, _)| at < lo);
        v[start..]
            .iter()
            .take_while(|&&(at, _)| at <= t + window)
            .any(|&(_, d)| d == dir)
    }
}

/// Cause of an ambiguous double message (Table 6 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AmbiguityCause {
    /// An intervening opposite-direction message was lost: both messages
    /// of the pair reflect genuine IS-IS transitions.
    LostMessage,
    /// The repeat restates the state the link was already in per IS-IS.
    SpuriousRetransmission,
    /// Neither explanation fits.
    Unknown,
}

/// Table 6 cell counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AmbiguityCounts {
    /// Double-down periods by cause.
    pub down: [u64; 3],
    /// Double-up periods by cause.
    pub up: [u64; 3],
}

impl AmbiguityCounts {
    fn slot(cause: AmbiguityCause) -> usize {
        match cause {
            AmbiguityCause::LostMessage => 0,
            AmbiguityCause::SpuriousRetransmission => 1,
            AmbiguityCause::Unknown => 2,
        }
    }

    /// Total double-downs.
    pub fn down_total(&self) -> u64 {
        self.down.iter().sum()
    }

    /// Total double-ups.
    pub fn up_total(&self) -> u64 {
        self.up.iter().sum()
    }
}

/// Classify every ambiguous period against the IS-IS timeline.
pub fn classify_ambiguous(
    periods: &[AmbiguousPeriod],
    isis: &LinkStateTimeline,
    window: Duration,
) -> (Vec<(AmbiguousPeriod, AmbiguityCause)>, AmbiguityCounts) {
    let mut out = Vec::with_capacity(periods.len());
    let mut counts = AmbiguityCounts::default();
    for p in periods {
        let cause = classify_one(p, isis, window);
        match p.direction {
            TransitionDirection::Down => counts.down[AmbiguityCounts::slot(cause)] += 1,
            TransitionDirection::Up => counts.up[AmbiguityCounts::slot(cause)] += 1,
        }
        out.push((*p, cause));
    }
    (out, counts)
}

fn classify_one(p: &AmbiguousPeriod, isis: &LinkStateTimeline, window: Duration) -> AmbiguityCause {
    // Lost message: both syslog messages correspond to genuine IS-IS
    // transitions of their direction — meaning the opposite transition in
    // between went unreported by syslog.
    let first_real = isis.has_transition_near(p.link, p.first, p.direction, window);
    let second_real = isis.has_transition_near(p.link, p.second, p.direction, window);
    if first_real && second_real {
        return AmbiguityCause::LostMessage;
    }
    // Spurious retransmission: the repeat arrived while the link was
    // already in the asserted state. The state is probed shortly after
    // the message time because the listener's view lags the routers by
    // the LSP flood propagation delay.
    let grace = Duration::from_secs(2);
    let down_asserted = p.direction == TransitionDirection::Down;
    if isis.is_down_at(p.link, p.second + grace) == down_asserted
        || isis.is_down_at(p.link, p.second) == down_asserted
    {
        return AmbiguityCause::SpuriousRetransmission;
    }
    AmbiguityCause::Unknown
}

/// Classification of one syslog false positive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FalsePositive {
    /// The false-positive failure.
    pub failure: Failure,
    /// ≤ 10 s (paper: 83% of all FPs).
    pub short: bool,
    /// Falls inside a flapping period on its link.
    pub in_flap: bool,
}

/// Aggregate false-positive report (§4.3 numbers).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FpReport {
    /// All false positives.
    pub all: Vec<FalsePositive>,
    /// Count of short (≤ 10 s) FPs.
    pub short_count: u64,
    /// Downtime attributable to short FPs (ms).
    pub short_downtime_ms: u64,
    /// Count of long FPs.
    pub long_count: u64,
    /// Downtime attributable to long FPs (ms).
    pub long_downtime_ms: u64,
    /// Long FPs inside flapping periods.
    pub long_in_flap: u64,
}

/// Classify syslog-only failures (already determined by failure matching)
/// as short/long and in/out of flapping.
pub fn classify_false_positives(
    syslog_only: &[Failure],
    flaps: &FlapIndex,
    short_threshold: Duration,
) -> FpReport {
    let mut report = FpReport::default();
    for f in syslog_only {
        let short = f.duration() <= short_threshold;
        let in_flap = flaps.overlaps(f.link, f.start, f.end);
        report.all.push(FalsePositive {
            failure: *f,
            short,
            in_flap,
        });
        if short {
            report.short_count += 1;
            report.short_downtime_ms += f.duration().as_millis();
        } else {
            report.long_count += 1;
            report.long_downtime_ms += f.duration().as_millis();
            if in_flap {
                report.long_in_flap += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flap::{detect_episodes, FlapIndex};
    use TransitionDirection::{Down, Up};

    fn tr(link: u32, at: u64, dir: TransitionDirection) -> LinkTransition {
        LinkTransition {
            at: Timestamp::from_secs(at),
            link: LinkIx(link),
            direction: dir,
        }
    }

    fn amb(link: u32, first: u64, second: u64, dir: TransitionDirection) -> AmbiguousPeriod {
        AmbiguousPeriod {
            link: LinkIx(link),
            first: Timestamp::from_secs(first),
            second: Timestamp::from_secs(second),
            direction: dir,
        }
    }

    const W: Duration = Duration::from_secs(10);

    #[test]
    fn timeline_state_queries() {
        let tl = LinkStateTimeline::new(&[tr(0, 100, Down), tr(0, 200, Up)]);
        assert!(!tl.is_down_at(LinkIx(0), Timestamp::from_secs(50)));
        assert!(tl.is_down_at(LinkIx(0), Timestamp::from_secs(150)));
        assert!(!tl.is_down_at(LinkIx(0), Timestamp::from_secs(250)));
        assert!(!tl.is_down_at(LinkIx(1), Timestamp::from_secs(150)));
        assert!(tl.has_transition_near(LinkIx(0), Timestamp::from_secs(105), Down, W));
        assert!(!tl.has_transition_near(LinkIx(0), Timestamp::from_secs(130), Down, W));
    }

    #[test]
    fn lost_message_detected() {
        // IS-IS saw two failures: 100-150 and 300-350. Syslog lost the up
        // at 150 and the down's repeat lands at 300.
        let tl = LinkStateTimeline::new(&[
            tr(0, 100, Down),
            tr(0, 150, Up),
            tr(0, 300, Down),
            tr(0, 350, Up),
        ]);
        let (classified, counts) = classify_ambiguous(&[amb(0, 101, 302, Down)], &tl, W);
        assert_eq!(classified[0].1, AmbiguityCause::LostMessage);
        assert_eq!(counts.down, [1, 0, 0]);
    }

    #[test]
    fn spurious_retransmission_detected() {
        // IS-IS: one failure 100-400; syslog's second down at 250 restates
        // a state the link is already in.
        let tl = LinkStateTimeline::new(&[tr(0, 100, Down), tr(0, 400, Up)]);
        let (classified, counts) = classify_ambiguous(&[amb(0, 101, 250, Down)], &tl, W);
        assert_eq!(classified[0].1, AmbiguityCause::SpuriousRetransmission);
        assert_eq!(counts.down, [0, 1, 0]);
    }

    #[test]
    fn spurious_double_up_detected() {
        let tl = LinkStateTimeline::new(&[tr(0, 100, Down), tr(0, 150, Up)]);
        // Second up at 250: link is up per IS-IS → spurious.
        let (classified, counts) = classify_ambiguous(&[amb(0, 151, 250, Up)], &tl, W);
        assert_eq!(classified[0].1, AmbiguityCause::SpuriousRetransmission);
        assert_eq!(counts.up, [0, 1, 0]);
    }

    #[test]
    fn unknown_when_no_explanation() {
        // IS-IS shows the link up at the repeat, and no IS transition near
        // either message.
        let tl = LinkStateTimeline::new(&[]);
        let (classified, counts) = classify_ambiguous(&[amb(0, 100, 200, Down)], &tl, W);
        assert_eq!(classified[0].1, AmbiguityCause::Unknown);
        assert_eq!(counts.down, [0, 0, 1]);
        assert_eq!(counts.down_total(), 1);
        assert_eq!(counts.up_total(), 0);
    }

    #[test]
    fn fp_classification_short_long_flap() {
        let isis_failures = vec![
            Failure {
                link: LinkIx(0),
                start: Timestamp::from_secs(1_000),
                end: Timestamp::from_secs(1_010),
            },
            Failure {
                link: LinkIx(0),
                start: Timestamp::from_secs(1_100),
                end: Timestamp::from_secs(1_110),
            },
        ];
        let flaps = FlapIndex::new(
            &detect_episodes(&isis_failures, Duration::from_secs(600)),
            Duration::from_secs(10),
        );
        let fps = vec![
            Failure {
                link: LinkIx(0),
                start: Timestamp::from_secs(1_050),
                end: Timestamp::from_secs(1_052),
            }, // short, in flap
            Failure {
                link: LinkIx(1),
                start: Timestamp::from_secs(5_000),
                end: Timestamp::from_secs(9_000),
            }, // long, not in flap
        ];
        let report = classify_false_positives(&fps, &flaps, Duration::from_secs(10));
        assert_eq!(report.short_count, 1);
        assert_eq!(report.long_count, 1);
        assert_eq!(report.long_in_flap, 0);
        assert!(report.all[0].in_flap);
        assert_eq!(report.long_downtime_ms, 4_000_000);
    }
}
