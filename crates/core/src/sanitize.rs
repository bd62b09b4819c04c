//! Data sanitization (§4.2).
//!
//! Two steps precede every failure-level comparison in the paper:
//!
//! 1. **Listener-outage removal** — failures that overlap a period when
//!    the IS-IS listener was offline are removed from both datasets: the
//!    IS-IS view is blind there, so nothing can be compared.
//! 2. **Long-failure verification** — syslog failures exceeding 24 hours
//!    are checked against the operator's trouble tickets; unchronicled
//!    ones are spurious (typically a lost UP merging two failures across
//!    a quiet stretch) and are removed. In the paper this one step
//!    removes ~6,000 hours of phantom downtime, almost twice the
//!    network's real downtime.
//!
//! Each kernel lane applies both to every failure it finalizes
//! ([`crate::kernel`]); this module holds their counters.

use faultline_topology::time::Duration;
use serde::{Deserialize, Serialize};

/// How far a trouble ticket's opening and closing may each sit from a
/// long failure's start and end and still verify it (§4.2; the query is
/// `TicketLog::verifies`).
pub const TICKET_SLACK: Duration = Duration::from_hours(3);

/// What sanitization did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SanitizeReport {
    /// Failures removed for overlapping a listener outage.
    pub removed_offline: u64,
    /// Downtime removed with them (ms).
    pub removed_offline_ms: u64,
    /// Long failures that were checked against tickets.
    pub long_checked: u64,
    /// Long failures removed as unverified.
    pub long_removed: u64,
    /// Downtime removed as unverified (ms).
    pub long_removed_ms: u64,
}

impl SanitizeReport {
    /// Downtime removed by the ticket check, hours.
    pub fn long_removed_hours(&self) -> f64 {
        self.long_removed_ms as f64 / 3_600_000.0
    }

    /// Add another report's counts to this one.
    pub(crate) fn add(&mut self, other: &SanitizeReport) {
        self.removed_offline += other.removed_offline;
        self.removed_offline_ms += other.removed_offline_ms;
        self.long_checked += other.long_checked;
        self.long_removed += other.long_removed;
        self.long_removed_ms += other.long_removed_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use crate::kernel::{LaneCtx, LaneEvent, LinkLane};
    use crate::linktable::tests::resolvable_naming;
    use crate::linktable::LinkIx;
    use crate::reconstruct::Failure;
    use faultline_isis::listener::{OfflineSpan, TransitionDirection};
    use faultline_sim::tickets::{Ticket, TicketLog};
    use faultline_topology::link::LinkId;
    use faultline_topology::time::{Duration, Timestamp};

    /// The failures a kernel lane for `link` keeps after sanitizing, and
    /// its syslog-side counters, when it is fed a syslog DOWN and UP for
    /// each `(start, end)` in seconds.
    fn sanitized(
        link: u32,
        failures: &[(u64, u64)],
        offline: &[OfflineSpan],
        tickets: &TicketLog,
    ) -> (Vec<(u64, u64)>, SanitizeReport) {
        let config = AnalysisConfig::default();
        let naming = resolvable_naming((0..=link).map(|l| Some(LinkId(l))).collect());
        let ctx = LaneCtx {
            config: &config,
            offline,
            tickets,
            naming: &naming,
        };
        let mut lane = LinkLane::new(LinkIx(link));
        for &(start, end) in failures {
            for (at, direction) in [
                (start, TransitionDirection::Down),
                (end, TransitionDirection::Up),
            ] {
                let at = Timestamp::from_secs(at);
                lane.apply(
                    &LaneEvent {
                        at,
                        direction,
                        reach: None,
                    },
                    &ctx,
                );
            }
        }
        lane.finish(&ctx, &mut Vec::new());
        let secs = |f: &Failure| (f.start.as_secs(), f.end.as_secs());
        (
            lane.outbox.san_syslog.iter().map(secs).collect(),
            lane.syslog_sanitize,
        )
    }

    #[test]
    fn offline_overlap_removed() {
        let spans = [OfflineSpan {
            from: Timestamp::from_secs(100),
            to: Timestamp::from_secs(200),
        }];
        let (kept, report) = sanitized(
            0,
            &[
                (10, 50),   // before: kept
                (90, 110),  // straddles start: removed
                (120, 150), // inside: removed
                (190, 400), // straddles end: removed
                (500, 600), // after: kept
            ],
            &spans,
            &TicketLog::default(),
        );
        assert_eq!(kept, [(10, 50), (500, 600)]);
        assert_eq!(report.removed_offline, 3);
        assert_eq!(
            report.removed_offline_ms,
            Duration::from_secs(20 + 30 + 210).as_millis()
        );
    }

    #[test]
    fn no_spans_keep_everything() {
        let (kept, report) = sanitized(0, &[(0, 10)], &[], &TicketLog::default());
        assert_eq!(kept, [(0, 10)]);
        assert_eq!(report, SanitizeReport::default());
    }

    #[test]
    fn long_failures_verified_against_tickets() {
        let day = 86_400;
        let tickets = TicketLog {
            tickets: vec![Ticket {
                link: LinkId(1),
                opened: Timestamp::from_secs(0),
                closed: Timestamp::from_secs(2 * day),
                note: String::new(),
            }],
        };
        let mut report = SanitizeReport::default();
        let mut kept = Vec::new();
        for (link, failure) in [
            (0, (0, 100)),     // short: untouched
            (1, (0, 2 * day)), // long, ticketed
            (2, (0, 3 * day)), // long, unticketed: dropped
        ] {
            let (k, r) = sanitized(link, &[failure], &[], &tickets);
            kept.extend(k);
            report.add(&r);
        }
        assert_eq!(kept, [(0, 100), (0, 2 * day)]);
        assert_eq!(report.long_checked, 2);
        assert_eq!(report.long_removed, 1);
        assert_eq!(
            report.long_removed_ms,
            Duration::from_secs(3 * day).as_millis()
        );
    }

    #[test]
    fn threshold_is_exclusive() {
        let (kept, report) = sanitized(0, &[(0, 86_400)], &[], &TicketLog::default());
        assert_eq!(kept.len(), 1, "exactly-threshold failures are not checked");
        assert_eq!(report.long_checked, 0);
    }
}
