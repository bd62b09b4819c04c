//! Flapping detection.
//!
//! §4.1 (following the authors' earlier SIGCOMM work): two or more
//! consecutive failures on the same link separated by less than ten
//! minutes form a *flapping episode*. The paper finds the majority of
//! unmatched transitions (67% of DOWNs, 61% of UPs) occur during
//! flapping, and that less than half of syslog transitions are matched
//! during such periods — flapping is where syslog's fidelity collapses.

use crate::linktable::LinkIx;
use crate::reconstruct::Failure;
use faultline_topology::time::{Duration, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A detected flapping episode: a maximal run of ≥ 2 failures on one link
/// with inter-failure gaps below the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlapEpisode {
    /// The flapping link.
    pub link: LinkIx,
    /// Start of the first failure in the episode.
    pub from: Timestamp,
    /// End of the last failure in the episode.
    pub to: Timestamp,
    /// Number of failures in the episode.
    pub count: u32,
}

/// Detect flapping episodes in a failure set (sorted by `(link, start)`).
///
/// # Examples
///
/// ```
/// use faultline_core::flap::detect_episodes;
/// use faultline_core::{Failure, LinkIx};
/// use faultline_topology::time::{Duration, Timestamp};
///
/// let f = |s, e| Failure {
///     link: LinkIx(3),
///     start: Timestamp::from_secs(s),
///     end: Timestamp::from_secs(e),
/// };
/// // Three failures separated by under ten minutes: one episode.
/// let eps = detect_episodes(&[f(0, 10), f(100, 110), f(300, 320)], Duration::from_secs(600));
/// assert_eq!(eps.len(), 1);
/// assert_eq!(eps[0].count, 3);
/// ```
pub fn detect_episodes(failures: &[Failure], gap_threshold: Duration) -> Vec<FlapEpisode> {
    let mut episodes = Vec::new();
    let mut i = 0;
    while i < failures.len() {
        let link = failures[i].link;
        let mut j = i;
        // Extend the run while the next failure is on the same link and
        // starts within the threshold of the previous end.
        while j + 1 < failures.len()
            && failures[j + 1].link == link
            && failures[j + 1]
                .start
                .checked_duration_since(failures[j].end)
                .map(|g| g < gap_threshold)
                .unwrap_or(true)
        {
            j += 1;
        }
        if j > i {
            episodes.push(FlapEpisode {
                link,
                from: failures[i].start,
                to: failures[j].end,
                count: (j - i + 1) as u32,
            });
        }
        i = j + 1;
    }
    episodes
}

/// Query structure: is a given instant inside a flapping episode on a
/// given link? Built once, queried per transition/failure.
#[derive(Debug, Clone, Default)]
pub struct FlapIndex {
    by_link: HashMap<LinkIx, Vec<(Timestamp, Timestamp)>>,
}

impl FlapIndex {
    /// Build from detected episodes, padding each span by `pad` on both
    /// sides so transitions at episode edges still count as "during
    /// flapping".
    pub fn new(episodes: &[FlapEpisode], pad: Duration) -> Self {
        let mut by_link: HashMap<LinkIx, Vec<(Timestamp, Timestamp)>> = HashMap::new();
        for e in episodes {
            by_link
                .entry(e.link)
                .or_default()
                .push((e.from.saturating_sub(pad), e.to + pad));
        }
        for spans in by_link.values_mut() {
            spans.sort();
        }
        FlapIndex { by_link }
    }

    /// Is `(link, at)` inside (a padded) episode?
    pub fn contains(&self, link: LinkIx, at: Timestamp) -> bool {
        let Some(spans) = self.by_link.get(&link) else {
            return false;
        };
        // Binary search for the last span starting at or before `at`.
        let idx = spans.partition_point(|&(from, _)| from <= at);
        idx > 0 && spans[idx - 1].1 >= at
    }

    /// Does the interval `[start, end]` intersect any episode on `link`?
    pub fn overlaps(&self, link: LinkIx, start: Timestamp, end: Timestamp) -> bool {
        let Some(spans) = self.by_link.get(&link) else {
            return false;
        };
        spans.iter().any(|&(f, t)| f <= end && start <= t)
    }
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

    const TEN_MIN: Duration = Duration::from_secs(600);

    #[test]
    fn isolated_failures_are_not_episodes() {
        let fs = [fail(0, 0, 10), fail(0, 1000, 1010), fail(1, 5, 15)];
        assert!(detect_episodes(&fs, TEN_MIN).is_empty());
    }

    #[test]
    fn run_of_close_failures_is_one_episode() {
        let fs = [
            fail(0, 0, 10),
            fail(0, 100, 110),
            fail(0, 200, 210),
            fail(0, 2000, 2010), // > 10 min after 210? no: 2000-210=1790s > 600 ✓ separate
        ];
        let eps = detect_episodes(&fs, TEN_MIN);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].count, 3);
        assert_eq!(eps[0].from, Timestamp::from_secs(0));
        assert_eq!(eps[0].to, Timestamp::from_secs(210));
    }

    #[test]
    fn exact_threshold_gap_breaks_episode() {
        let fs = [fail(0, 0, 10), fail(0, 610, 620)];
        assert!(detect_episodes(&fs, TEN_MIN).is_empty(), "gap == threshold");
        let fs = [fail(0, 0, 10), fail(0, 609, 620)];
        assert_eq!(detect_episodes(&fs, TEN_MIN).len(), 1);
    }

    #[test]
    fn episodes_do_not_cross_links() {
        let fs = [fail(0, 0, 10), fail(1, 20, 30), fail(0, 40, 50)];
        // Sorted by (link, start) as contract requires.
        let mut sorted = fs.to_vec();
        sorted.sort_by_key(|f| (f.link, f.start));
        let eps = detect_episodes(&sorted, TEN_MIN);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].link, LinkIx(0));
        assert_eq!(eps[0].count, 2);
    }

    #[test]
    fn index_queries() {
        let fs = [fail(0, 100, 110), fail(0, 200, 210)];
        let eps = detect_episodes(&fs, TEN_MIN);
        let ix = FlapIndex::new(&eps, Duration::from_secs(10));
        assert!(ix.contains(LinkIx(0), Timestamp::from_secs(150)));
        assert!(ix.contains(LinkIx(0), Timestamp::from_secs(95)), "pad");
        assert!(!ix.contains(LinkIx(0), Timestamp::from_secs(500)));
        assert!(!ix.contains(LinkIx(1), Timestamp::from_secs(150)));
        assert!(ix.overlaps(
            LinkIx(0),
            Timestamp::from_secs(50),
            Timestamp::from_secs(95)
        ));
        assert!(!ix.overlaps(
            LinkIx(0),
            Timestamp::from_secs(300),
            Timestamp::from_secs(400)
        ));
    }

    #[test]
    fn overlapping_truth_pattern_from_paper_scale() {
        // A 12-failure flap burst, 30s apart.
        let fs: Vec<Failure> = (0..12).map(|i| fail(7, i * 40, i * 40 + 10)).collect();
        let eps = detect_episodes(&fs, TEN_MIN);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].count, 12);
    }
}
