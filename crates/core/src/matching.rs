//! Matching transitions and failures between the two data sources.
//!
//! §3.4: an IS-IS failure and a syslog failure match when they are on the
//! same link with start times within ten seconds and end times within ten
//! seconds; individual transitions match when they occur within ten
//! seconds of each other on the same link. Matching is one-to-one and
//! greedy-nearest: each item can participate in at most one match, and the
//! closest candidate wins — the discipline a flapping link needs, where
//! several same-direction transitions crowd inside one window.

use crate::intern::FastMap;
use crate::linktable::LinkIx;
use crate::reconstruct::Failure;
use crate::transitions::{LinkTransition, ResolvedMessage};
use faultline_isis::listener::TransitionDirection;
use faultline_topology::time::{Duration, Timestamp};
use serde::{Deserialize, Serialize};

/// Result of matching one IS-IS transition against the (up to two)
/// per-router syslog messages — the columns of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RouterMatch {
    /// No router's message matched.
    None,
    /// Exactly one router's message matched.
    One,
    /// Both routers' messages matched.
    Both,
}

/// Per-transition match outcomes for Table 3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransitionMatchCounts {
    /// Transitions with no matching message.
    pub none: u64,
    /// Transitions matched by one router's message.
    pub one: u64,
    /// Transitions matched by both routers' messages.
    pub both: u64,
}

impl TransitionMatchCounts {
    /// Total transitions.
    pub fn total(&self) -> u64 {
        self.none + self.one + self.both
    }
}

/// For each reference transition, count how many distinct reporting
/// routers contributed a matching syslog message within `window`
/// (Table 3). Each message is consumed by at most one transition.
///
/// `messages` must be limited to one family and sorted by time;
/// `transitions` sorted by time.
pub fn match_transitions_to_messages(
    transitions: &[LinkTransition],
    messages: &[ResolvedMessage],
    window: Duration,
) -> (TransitionMatchCounts, TransitionMatchCounts) {
    // Bucket messages per (link, direction): (time, reporting host,
    // consumed flag).
    type Candidate<'a> = (Timestamp, &'a str, bool);
    let mut buckets: FastMap<(LinkIx, TransitionDirection), Vec<Candidate<'_>>> =
        FastMap::default();
    for m in messages {
        buckets
            .entry((m.link, m.direction))
            .or_default()
            .push((m.at, m.host.as_ref(), false));
    }

    let mut down = TransitionMatchCounts::default();
    let mut up = TransitionMatchCounts::default();
    for t in transitions {
        let mut hosts: Vec<&str> = Vec::new();
        if let Some(cands) = buckets.get_mut(&(t.link, t.direction)) {
            // Greedy: take the nearest unconsumed message per distinct
            // host, up to two hosts.
            loop {
                let mut best: Option<(usize, Duration)> = None;
                for (i, (at, host, used)) in cands.iter().enumerate() {
                    if *used || hosts.contains(host) {
                        continue;
                    }
                    let d = at.abs_diff(t.at);
                    if d > window {
                        continue;
                    }
                    if best.map(|(_, bd)| d < bd).unwrap_or(true) {
                        best = Some((i, d));
                    }
                }
                match best {
                    Some((i, _)) if hosts.len() < 2 => {
                        cands[i].2 = true;
                        hosts.push(cands[i].1);
                    }
                    _ => break,
                }
            }
        }
        let counts = match t.direction {
            TransitionDirection::Down => &mut down,
            TransitionDirection::Up => &mut up,
        };
        match hosts.len() {
            0 => counts.none += 1,
            1 => counts.one += 1,
            _ => counts.both += 1,
        }
    }
    (down, up)
}

/// Fraction of reference transitions that have *any* matching message in
/// `messages` within `window` — the cells of Table 2. One-to-one greedy.
pub fn match_fraction(
    transitions: &[LinkTransition],
    messages: &[ResolvedMessage],
    window: Duration,
    direction: TransitionDirection,
) -> (u64, u64) {
    let mut buckets: FastMap<LinkIx, Vec<(Timestamp, bool)>> = FastMap::default();
    for m in messages {
        if m.direction == direction {
            buckets.entry(m.link).or_default().push((m.at, false));
        }
    }
    let mut matched = 0;
    let mut total = 0;
    for t in transitions {
        if t.direction != direction {
            continue;
        }
        total += 1;
        if let Some(cands) = buckets.get_mut(&t.link) {
            let mut best: Option<(usize, Duration)> = None;
            for (i, (at, used)) in cands.iter().enumerate() {
                if *used {
                    continue;
                }
                let d = at.abs_diff(t.at);
                if d <= window && best.map(|(_, bd)| d < bd).unwrap_or(true) {
                    best = Some((i, d));
                }
            }
            if let Some((i, _)) = best {
                cands[i].1 = true;
                matched += 1;
            }
        }
    }
    (matched, total)
}

/// How two failures relate across sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureRelation {
    /// Start and end both within the window: a match (§3.4).
    Matched,
    /// Intervals intersect but start/end do not align: a partial match
    /// (footnote 3 of the paper).
    Partial,
}

/// Result of matching two failure sets on the same link universe.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FailureMatching {
    /// `(left index, right index)` of matched pairs.
    pub matched: Vec<(usize, usize)>,
    /// `(left index, right index)` of partially overlapping, unmatched
    /// pairs (each side appears at most once).
    pub partial: Vec<(usize, usize)>,
    /// Left indices with no matched or partial partner.
    pub left_only: Vec<usize>,
    /// Right indices with no matched or partial partner.
    pub right_only: Vec<usize>,
}

impl FailureMatching {
    /// The matching with these pairs over `left_len` left and `right_len`
    /// right failures, in the matcher's own shape: pairs ascending in the
    /// left index, left/right-only the ascending complements.
    pub(crate) fn from_pairs(
        mut matched: Vec<(usize, usize)>,
        mut partial: Vec<(usize, usize)>,
        left_len: usize,
        right_len: usize,
    ) -> FailureMatching {
        matched.sort_by_key(|&(i, _)| i);
        partial.sort_by_key(|&(i, _)| i);
        let mut left_used = vec![false; left_len];
        let mut right_used = vec![false; right_len];
        for &(i, j) in matched.iter().chain(partial.iter()) {
            left_used[i] = true;
            right_used[j] = true;
        }
        FailureMatching {
            matched,
            partial,
            left_only: (0..left_len).filter(|&i| !left_used[i]).collect(),
            right_only: (0..right_len).filter(|&j| !right_used[j]).collect(),
        }
    }
}

/// Match two failure sets (both sorted by `(link, start)`): first exact
/// matches (start and end within `window`), then partial overlaps among
/// the leftovers.
///
/// # Examples
///
/// ```
/// use faultline_core::matching::match_failures;
/// use faultline_core::{Failure, LinkIx};
/// use faultline_topology::time::{Duration, Timestamp};
///
/// let f = |s, e| Failure {
///     link: LinkIx(0),
///     start: Timestamp::from_secs(s),
///     end: Timestamp::from_secs(e),
/// };
/// let m = match_failures(&[f(100, 200)], &[f(104, 195)], Duration::from_secs(10));
/// assert_eq!(m.matched, vec![(0, 0)]);
/// ```
pub fn match_failures(left: &[Failure], right: &[Failure], window: Duration) -> FailureMatching {
    let mut right_by_link: FastMap<LinkIx, Vec<usize>> = FastMap::default();
    for (j, f) in right.iter().enumerate() {
        right_by_link.entry(f.link).or_default().push(j);
    }
    let mut right_used = vec![false; right.len()];
    let mut left_state = vec![0u8; left.len()]; // 0 unmatched, 1 matched, 2 partial
    let mut right_state = vec![0u8; right.len()];
    let mut out = FailureMatching::default();

    // Pass 1: exact matches, nearest start wins.
    for (i, f) in left.iter().enumerate() {
        let Some(cands) = right_by_link.get(&f.link) else {
            continue;
        };
        let mut best: Option<(usize, Duration)> = None;
        for &j in cands {
            if right_used[j] {
                continue;
            }
            let g = &right[j];
            let ds = g.start.abs_diff(f.start);
            let de = g.end.abs_diff(f.end);
            if ds <= window && de <= window {
                let score = ds.saturating_add(de);
                if best.map(|(_, b)| score < b).unwrap_or(true) {
                    best = Some((j, score));
                }
            }
        }
        if let Some((j, _)) = best {
            right_used[j] = true;
            left_state[i] = 1;
            right_state[j] = 1;
            out.matched.push((i, j));
        }
    }

    // Pass 2: partial overlaps among the unmatched.
    for (i, f) in left.iter().enumerate() {
        if left_state[i] != 0 {
            continue;
        }
        let Some(cands) = right_by_link.get(&f.link) else {
            continue;
        };
        let mut best: Option<(usize, Duration)> = None;
        for &j in cands {
            if right_used[j] {
                continue;
            }
            let g = &right[j];
            if f.overlaps(g) {
                let score = g.start.abs_diff(f.start);
                if best.map(|(_, b)| score < b).unwrap_or(true) {
                    best = Some((j, score));
                }
            }
        }
        if let Some((j, _)) = best {
            right_used[j] = true;
            left_state[i] = 2;
            right_state[j] = 2;
            out.partial.push((i, j));
        }
    }

    out.left_only = (0..left.len()).filter(|&i| left_state[i] == 0).collect();
    out.right_only = (0..right.len()).filter(|&j| right_state[j] == 0).collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transitions::MessageFamily;
    use TransitionDirection::{Down, Up};

    fn tr(link: u32, at: u64, dir: TransitionDirection) -> LinkTransition {
        LinkTransition {
            at: Timestamp::from_secs(at),
            link: LinkIx(link),
            direction: dir,
        }
    }

    fn msg(link: u32, at: u64, dir: TransitionDirection, host: &str) -> ResolvedMessage {
        ResolvedMessage {
            at: Timestamp::from_secs(at),
            link: LinkIx(link),
            direction: dir,
            family: MessageFamily::IsisAdjacency,
            host: host.into(),
            detail: None,
        }
    }

    fn fail(link: u32, start: u64, end: u64) -> Failure {
        Failure {
            link: LinkIx(link),
            start: Timestamp::from_secs(start),
            end: Timestamp::from_secs(end),
        }
    }

    const W: Duration = Duration::from_secs(10);

    #[test]
    fn both_one_none_classification() {
        let transitions = [tr(0, 100, Down), tr(0, 200, Down), tr(0, 300, Down)];
        let messages = [
            msg(0, 102, Down, "a"),
            msg(0, 104, Down, "b"), // both match the first
            msg(0, 205, Down, "a"), // only one for the second
        ];
        let (down, up) = match_transitions_to_messages(&transitions, &messages, W);
        assert_eq!(down.both, 1);
        assert_eq!(down.one, 1);
        assert_eq!(down.none, 1);
        assert_eq!(up.total(), 0);
    }

    #[test]
    fn messages_consumed_once() {
        // Two transitions close together; one message: only one matches.
        let transitions = [tr(0, 100, Down), tr(0, 105, Down)];
        let messages = [msg(0, 102, Down, "a")];
        let (down, _) = match_transitions_to_messages(&transitions, &messages, W);
        assert_eq!(down.one, 1);
        assert_eq!(down.none, 1);
    }

    #[test]
    fn same_host_two_messages_counts_as_one_router() {
        let transitions = [tr(0, 100, Down)];
        let messages = [msg(0, 99, Down, "a"), msg(0, 101, Down, "a")];
        let (down, _) = match_transitions_to_messages(&transitions, &messages, W);
        assert_eq!(
            down.one, 1,
            "two messages from one router are One, not Both"
        );
    }

    #[test]
    fn direction_and_link_must_agree() {
        let transitions = [tr(0, 100, Down)];
        let messages = [msg(0, 100, Up, "a"), msg(1, 100, Down, "a")];
        let (down, _) = match_transitions_to_messages(&transitions, &messages, W);
        assert_eq!(down.none, 1);
    }

    #[test]
    fn match_fraction_counts() {
        let transitions = [tr(0, 100, Down), tr(0, 500, Down), tr(0, 900, Up)];
        let messages = [msg(0, 109, Down, "a"), msg(0, 905, Up, "b")];
        let (m, t) = match_fraction(&transitions, &messages, W, Down);
        assert_eq!((m, t), (1, 2));
        let (m, t) = match_fraction(&transitions, &messages, W, Up);
        assert_eq!((m, t), (1, 1));
    }

    #[test]
    fn failure_exact_match_requires_both_ends() {
        let left = [fail(0, 100, 200)];
        let right = [fail(0, 105, 300)]; // start aligns, end does not
        let m = match_failures(&left, &right, W);
        assert!(m.matched.is_empty());
        assert_eq!(m.partial, vec![(0, 0)]);
    }

    #[test]
    fn failure_matching_prefers_nearest() {
        let left = [fail(0, 100, 200)];
        let right = [fail(0, 92, 208), fail(0, 101, 201)];
        let m = match_failures(&left, &right, W);
        assert_eq!(m.matched, vec![(0, 1)]);
        assert_eq!(m.right_only, vec![0]);
    }

    #[test]
    fn disjoint_failures_unmatched() {
        let left = [fail(0, 100, 200)];
        let right = [fail(0, 300, 400), fail(1, 100, 200)];
        let m = match_failures(&left, &right, W);
        assert!(m.matched.is_empty() && m.partial.is_empty());
        assert_eq!(m.left_only, vec![0]);
        assert_eq!(m.right_only.len(), 2);
    }

    #[test]
    fn flapping_crowd_matches_one_to_one() {
        // Three rapid failures on each side, slightly offset.
        let left = [fail(0, 100, 110), fail(0, 130, 140), fail(0, 160, 170)];
        let right = [fail(0, 101, 111), fail(0, 131, 141), fail(0, 161, 171)];
        let m = match_failures(&left, &right, W);
        assert_eq!(m.matched.len(), 3);
        assert!(m.left_only.is_empty() && m.right_only.is_empty());
    }
}
