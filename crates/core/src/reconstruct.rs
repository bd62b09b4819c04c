//! Failure reconstruction from per-link transition streams.
//!
//! A *failure* is a DOWN transition followed by an UP transition on the
//! same link (§4.1). For syslog, both endpoint routers report each
//! transition, so same-direction messages arriving close together are
//! first merged as confirmations of one transition (the kernel lane's
//! dedup). What remains should alternate Down/Up — but does
//! not always: §4.3 finds 461 down messages preceded by another down and
//! 202 ups preceded by another up. The link state between such *double*
//! messages is ambiguous (a message was lost, or the repeat was a spurious
//! reminder). [`AmbiguityStrategy`] selects among the paper's three
//! candidate interpretations; the paper's conclusion — keep the previous
//! state, i.e. treat the repeat as spurious — is the default.
//!
//! The state machines themselves live in [`crate::kernel`]
//! (`kernel::ReconLane` drives [`reconstruct`]); this module keeps the
//! whole-stream convenience surface and the result types.

use crate::kernel::ReconLane;
use crate::linktable::LinkIx;
use crate::transitions::LinkTransition;
use faultline_isis::listener::TransitionDirection;
use faultline_topology::time::{Duration, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A reconstructed failure interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Failure {
    /// The failed link.
    pub link: LinkIx,
    /// DOWN transition time.
    pub start: Timestamp,
    /// UP transition time.
    pub end: Timestamp,
}

impl Failure {
    /// Failure duration.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }

    /// Do two intervals overlap (closed intervals)?
    pub fn overlaps(&self, other: &Failure) -> bool {
        self.start <= other.end && other.start <= self.end
    }
}

/// A period between two same-direction messages, whose true link state is
/// ambiguous (§4.3, Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AmbiguousPeriod {
    /// The link in question.
    pub link: LinkIx,
    /// Time of the first message of the pair.
    pub first: Timestamp,
    /// Time of the repeated message.
    pub second: Timestamp,
    /// Direction both messages assert.
    pub direction: TransitionDirection,
}

/// How to interpret the ambiguous period between double messages. The
/// paper evaluates all three and finds `PreviousState` brings syslog
/// downtime closest to IS-IS downtime (§4.3).
///
/// # Examples
///
/// The choice only changes how much downtime an ambiguous span is
/// credited — ambiguity *detection* is strategy-independent:
///
/// ```
/// use faultline_core::reconstruct::{reconstruct, AmbiguityStrategy};
/// use faultline_core::transitions::LinkTransition;
/// use faultline_core::LinkIx;
/// use faultline_isis::listener::TransitionDirection::{Down, Up};
/// use faultline_topology::time::Timestamp;
///
/// // down@10, a second (double) down@40, up@60 on the same link.
/// let tr = |at, direction| LinkTransition {
///     at: Timestamp::from_secs(at), link: LinkIx(0), direction,
/// };
/// let stream = [tr(10, Down), tr(40, Down), tr(60, Up)];
///
/// // Paper's pick: the repeat is spurious, the failure spans 10..60.
/// let prev = reconstruct(&stream, AmbiguityStrategy::PreviousState);
/// assert_eq!(prev.total_downtime().as_secs(), 50);
///
/// // Assume-up: the span before the repeat was uptime; only 40..60 counts.
/// let up = reconstruct(&stream, AmbiguityStrategy::AssumeUp);
/// assert_eq!(up.total_downtime().as_secs(), 20);
///
/// // Both saw the same single ambiguous period.
/// assert_eq!(prev.ambiguous, up.ambiguous);
/// assert_eq!(prev.ambiguous.len(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AmbiguityStrategy {
    /// Treat the repeated message as a spurious retransmission; the link
    /// stays in the state the first message established. (Paper's pick.)
    #[default]
    PreviousState,
    /// Assume the link was down during the ambiguous period: a double-up's
    /// span is counted as downtime (the first up was premature).
    AssumeDown,
    /// Assume the link was up during the ambiguous period: a double-down
    /// restarts the failure at the second message (the first failure ended
    /// at an unknown earlier time and contributes no downtime).
    AssumeUp,
}

/// Output of reconstruction.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Reconstruction {
    /// Failures, sorted by `(link, start)`.
    pub failures: Vec<Failure>,
    /// Ambiguous periods encountered (for Table 6).
    pub ambiguous: Vec<AmbiguousPeriod>,
    /// DOWNs never followed by an UP (dropped, counted).
    pub unterminated: u32,
    /// UP transitions with no preceding DOWN at a stream boundary
    /// (ignored, counted).
    pub boundary_ups: u32,
}

impl Reconstruction {
    /// Total downtime across all failures.
    pub fn total_downtime(&self) -> Duration {
        self.failures
            .iter()
            .fold(Duration::ZERO, |acc, f| acc.saturating_add(f.duration()))
    }

    /// Failures on one link (slice of the sorted vector).
    pub fn failures_on(&self, link: LinkIx) -> impl Iterator<Item = &Failure> {
        self.failures.iter().filter(move |f| f.link == link)
    }
}

/// Reconstruct failures from an alternating-with-exceptions transition
/// stream. `transitions` must be sorted by time (both producers in this
/// crate emit sorted streams).
///
/// # Examples
///
/// ```
/// use faultline_core::reconstruct::{reconstruct, AmbiguityStrategy};
/// use faultline_core::transitions::LinkTransition;
/// use faultline_core::linktable::LinkIx;
/// use faultline_isis::listener::TransitionDirection::{Down, Up};
/// use faultline_topology::time::Timestamp;
///
/// let tr = |at, direction| LinkTransition {
///     at: Timestamp::from_secs(at), link: LinkIx(0), direction,
/// };
/// let r = reconstruct(&[tr(10, Down), tr(70, Up)], AmbiguityStrategy::PreviousState);
/// assert_eq!(r.failures.len(), 1);
/// assert_eq!(r.total_downtime().as_secs(), 60);
/// ```
pub fn reconstruct(transitions: &[LinkTransition], strategy: AmbiguityStrategy) -> Reconstruction {
    let mut lanes: BTreeMap<LinkIx, ReconLane> = BTreeMap::new();
    let mut out = Reconstruction::default();
    for t in transitions {
        let lane = lanes.entry(t.link).or_default();
        out.failures
            .extend(lane.step(t.link, t.at, t.direction, strategy, &mut out.ambiguous));
    }
    for lane in lanes.values_mut() {
        out.failures.extend(lane.pending.take());
        out.unterminated += lane.open.is_some() as u32;
        out.boundary_ups += lane.boundary_ups;
    }
    out.failures.sort_by_key(|f| (f.link, f.start));
    out.ambiguous.sort_by_key(|a| (a.link, a.first));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tr(link: u32, at: u64, dir: TransitionDirection) -> LinkTransition {
        LinkTransition {
            at: Timestamp::from_secs(at),
            link: LinkIx(link),
            direction: dir,
        }
    }
    use TransitionDirection::{Down, Up};

    #[test]
    fn simple_failure_reconstructed() {
        let r = reconstruct(
            &[tr(0, 10, Down), tr(0, 20, Up)],
            AmbiguityStrategy::default(),
        );
        assert_eq!(
            r.failures,
            vec![Failure {
                link: LinkIx(0),
                start: Timestamp::from_secs(10),
                end: Timestamp::from_secs(20)
            }]
        );
        assert!(r.ambiguous.is_empty());
        assert_eq!(r.total_downtime(), Duration::from_secs(10));
    }

    #[test]
    fn interleaved_links_tracked_independently() {
        let r = reconstruct(
            &[
                tr(0, 10, Down),
                tr(1, 12, Down),
                tr(0, 20, Up),
                tr(1, 30, Up),
            ],
            AmbiguityStrategy::default(),
        );
        assert_eq!(r.failures.len(), 2);
        assert_eq!(r.failures[0].link, LinkIx(0));
        assert_eq!(r.failures[1].duration(), Duration::from_secs(18));
    }

    #[test]
    fn double_down_previous_state_spans_whole_interval() {
        // down@10, down@40 (double), up@60 → one failure 10..60.
        let stream = [tr(0, 10, Down), tr(0, 40, Down), tr(0, 60, Up)];
        let r = reconstruct(&stream, AmbiguityStrategy::PreviousState);
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].start, Timestamp::from_secs(10));
        assert_eq!(r.failures[0].end, Timestamp::from_secs(60));
        assert_eq!(r.ambiguous.len(), 1);
        assert_eq!(r.ambiguous[0].direction, Down);
        assert_eq!(r.ambiguous[0].first, Timestamp::from_secs(10));
        assert_eq!(r.ambiguous[0].second, Timestamp::from_secs(40));
    }

    #[test]
    fn double_down_assume_up_restarts_failure() {
        let stream = [tr(0, 10, Down), tr(0, 40, Down), tr(0, 60, Up)];
        let r = reconstruct(&stream, AmbiguityStrategy::AssumeUp);
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].start, Timestamp::from_secs(40));
        assert_eq!(r.total_downtime(), Duration::from_secs(20));
    }

    #[test]
    fn double_up_assume_down_extends_failure() {
        // down@10, up@20, up@50 (double).
        let stream = [tr(0, 10, Down), tr(0, 20, Up), tr(0, 50, Up)];
        let prev = reconstruct(&stream, AmbiguityStrategy::PreviousState);
        assert_eq!(prev.total_downtime(), Duration::from_secs(10));
        let down = reconstruct(&stream, AmbiguityStrategy::AssumeDown);
        assert_eq!(down.total_downtime(), Duration::from_secs(40));
        assert_eq!(down.failures.len(), 1);
        assert_eq!(down.failures[0].end, Timestamp::from_secs(50));
        assert_eq!(prev.ambiguous, down.ambiguous);
    }

    #[test]
    fn unterminated_and_boundary_counted() {
        let r = reconstruct(
            &[tr(0, 5, Up), tr(1, 10, Down)],
            AmbiguityStrategy::default(),
        );
        assert!(r.failures.is_empty());
        assert_eq!(r.boundary_ups, 1);
        assert_eq!(r.unterminated, 1);
    }

    #[test]
    fn triple_down_records_two_ambiguities() {
        let stream = [
            tr(0, 10, Down),
            tr(0, 30, Down),
            tr(0, 50, Down),
            tr(0, 70, Up),
        ];
        let r = reconstruct(&stream, AmbiguityStrategy::PreviousState);
        assert_eq!(r.ambiguous.len(), 2);
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].duration(), Duration::from_secs(60));
    }
}
