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

use crate::linktable::LinkIx;
use crate::reconstruct::Failure;
use faultline_isis::listener::OfflineSpan;
use faultline_topology::time::{Duration, Timestamp};
use serde::{Deserialize, Serialize};

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

/// Remove failures overlapping any listener offline span. The overlap
/// predicate is `kernel::overlaps_offline` — the same per-failure check
/// the unified kernel's lanes apply.
pub fn remove_offline_spanning(
    failures: Vec<Failure>,
    spans: &[OfflineSpan],
    report: &mut SanitizeReport,
) -> Vec<Failure> {
    if spans.is_empty() {
        return failures;
    }
    failures
        .into_iter()
        .filter(|f| {
            let overlapping = crate::kernel::overlaps_offline(f, spans);
            if overlapping {
                report.removed_offline += 1;
                report.removed_offline_ms += f.duration().as_millis();
            }
            !overlapping
        })
        .collect()
}

/// Verify failures longer than `threshold` with the `verify` oracle
/// (ticket lookup); drop unverified ones.
pub fn verify_long_failures(
    failures: Vec<Failure>,
    threshold: Duration,
    mut verify: impl FnMut(LinkIx, Timestamp, Timestamp) -> bool,
    report: &mut SanitizeReport,
) -> Vec<Failure> {
    failures
        .into_iter()
        .filter(|f| {
            if f.duration() <= threshold {
                return true;
            }
            report.long_checked += 1;
            if verify(f.link, f.start, f.end) {
                true
            } else {
                report.long_removed += 1;
                report.long_removed_ms += f.duration().as_millis();
                false
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fail(link: u32, start: u64, end: u64) -> Failure {
        Failure {
            link: LinkIx(link),
            start: Timestamp::from_secs(start),
            end: Timestamp::from_secs(end),
        }
    }

    #[test]
    fn offline_overlap_removed() {
        let spans = [OfflineSpan {
            from: Timestamp::from_secs(100),
            to: Timestamp::from_secs(200),
        }];
        let mut report = SanitizeReport::default();
        let kept = remove_offline_spanning(
            vec![
                fail(0, 10, 50),   // before: kept
                fail(0, 90, 110),  // straddles start: removed
                fail(0, 120, 150), // inside: removed
                fail(0, 190, 400), // straddles end: removed
                fail(0, 300, 400), // after: kept
            ],
            &spans,
            &mut report,
        );
        assert_eq!(kept.len(), 2);
        assert_eq!(report.removed_offline, 3);
        assert_eq!(
            report.removed_offline_ms,
            Duration::from_secs(20 + 30 + 210).as_millis()
        );
    }

    #[test]
    fn no_spans_is_identity() {
        let mut report = SanitizeReport::default();
        let fs = vec![fail(0, 0, 10)];
        let kept = remove_offline_spanning(fs.clone(), &[], &mut report);
        assert_eq!(kept, fs);
        assert_eq!(report.removed_offline, 0);
    }

    #[test]
    fn long_failures_verified_against_oracle() {
        let day = 86_400;
        let mut report = SanitizeReport::default();
        let kept = verify_long_failures(
            vec![
                fail(0, 0, 100),     // short: untouched
                fail(1, 0, 2 * day), // long, verified
                fail(2, 0, 3 * day), // long, unverified: dropped
            ],
            Duration::from_hours(24),
            |link, _, _| link == LinkIx(1),
            &mut report,
        );
        assert_eq!(kept.len(), 2);
        assert_eq!(report.long_checked, 2);
        assert_eq!(report.long_removed, 1);
        assert_eq!(
            report.long_removed_ms,
            Duration::from_secs(3 * day).as_millis()
        );
    }

    #[test]
    fn threshold_is_exclusive() {
        let mut report = SanitizeReport::default();
        let kept = verify_long_failures(
            vec![fail(0, 0, 86_400)], // exactly 24h
            Duration::from_hours(24),
            |_, _, _| false,
            &mut report,
        );
        assert_eq!(kept.len(), 1, "exactly-threshold failures are not checked");
        assert_eq!(report.long_checked, 0);
    }
}
