//! Matching transitions and failures between the two data sources.
//!
//! §3.4: an IS-IS failure and a syslog failure match when they are on the
//! same link with start times within ten seconds and end times within ten
//! seconds; individual transitions match when they occur within ten
//! seconds of each other on the same link. Every matcher here applies one
//! rule, `nearest`: taken in order, each item claims the unused
//! candidate on its link of lowest score (its distance), ties to the
//! lowest index — one-to-one and greedy-nearest, the discipline a
//! flapping link needs, where several same-direction transitions crowd
//! inside one window.

use crate::intern::FastMap;
use crate::linktable::LinkIx;
use crate::reconstruct::Failure;
use crate::transitions::{LinkTransition, ResolvedMessage};
use faultline_isis::listener::TransitionDirection;
use faultline_topology::time::{Duration, Timestamp};
use serde::{Deserialize, Serialize};

/// The matching rule: the unused candidate with the lowest `Some` score,
/// ties to the lowest index. `used` runs parallel to `cands`.
fn nearest<T>(cands: &[T], used: &[bool], score: impl Fn(&T) -> Option<Duration>) -> Option<usize> {
    let mut best: Option<(usize, Duration)> = None;
    for (i, c) in cands.iter().enumerate() {
        if used[i] {
            continue;
        }
        if let Some(s) = score(c) {
            if best.is_none_or(|(_, b)| s < b) {
                best = Some((i, s));
            }
        }
    }
    best.map(|(i, _)| i)
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
    // Bucket messages per (link, direction): (time, reporting host), and
    // the consumed flags.
    type Bucket<'a> = (Vec<(Timestamp, &'a str)>, Vec<bool>);
    let mut buckets: FastMap<(LinkIx, TransitionDirection), Bucket<'_>> = FastMap::default();
    for m in messages {
        let (cands, used) = buckets.entry((m.link, m.direction)).or_default();
        cands.push((m.at, m.host.as_ref()));
        used.push(false);
    }

    let mut down = TransitionMatchCounts::default();
    let mut up = TransitionMatchCounts::default();
    for t in transitions {
        let mut hosts: Vec<&str> = Vec::new();
        if let Some((cands, used)) = buckets.get_mut(&(t.link, t.direction)) {
            // Take the nearest unconsumed message per distinct host, up
            // to two hosts.
            while hosts.len() < 2 {
                let score = |&(at, host): &(Timestamp, &str)| {
                    let d = at.abs_diff(t.at);
                    (d <= window && !hosts.contains(&host)).then_some(d)
                };
                let Some(i) = nearest(cands, used, score) else {
                    break;
                };
                used[i] = true;
                hosts.push(cands[i].1);
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
    let mut buckets: FastMap<LinkIx, (Vec<Timestamp>, Vec<bool>)> = FastMap::default();
    for m in messages {
        if m.direction == direction {
            let (cands, used) = buckets.entry(m.link).or_default();
            cands.push(m.at);
            used.push(false);
        }
    }
    let mut matched = 0;
    let mut total = 0;
    for t in transitions {
        if t.direction != direction {
            continue;
        }
        total += 1;
        if let Some((cands, used)) = buckets.get_mut(&t.link) {
            let score = |at: &Timestamp| {
                let d = at.abs_diff(t.at);
                (d <= window).then_some(d)
            };
            if let Some(i) = nearest(cands, used, score) {
                used[i] = true;
                matched += 1;
            }
        }
    }
    (matched, total)
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
    /// Put these pairs over `left_len` left and `right_len` right
    /// failures in the matcher's own shape: pairs ascending in the left
    /// index, left/right-only the ascending complements.
    pub(crate) fn complete(&mut self, left_len: usize, right_len: usize) {
        self.matched.sort_by_key(|&(i, _)| i);
        self.partial.sort_by_key(|&(i, _)| i);
        let (matched, partial) = (&self.matched, &self.partial);
        let pairs = || matched.iter().chain(partial);
        self.left_only = unpaired(left_len, pairs().map(|&(i, _)| i));
        self.right_only = unpaired(right_len, pairs().map(|&(_, j)| j));
    }
}

/// The positions below `len` that `paired` (each at most once) does not
/// name, ascending, in the answer's one allocation (none if empty): a
/// mark bit per position first, then the answer, then the marks dropped.
fn unpaired(len: usize, paired: impl Iterator<Item = usize> + Clone) -> Vec<usize> {
    const BITS: usize = usize::BITS as usize;
    let unpaired = len.saturating_sub(paired.clone().count());
    if unpaired == 0 {
        return Vec::new();
    }
    let words = len.div_ceil(BITS);
    let mut only = Vec::with_capacity(words + unpaired);
    only.resize(words, 0);
    for i in paired {
        only[i / BITS] |= 1 << (i % BITS);
    }
    for i in 0..len {
        if only[i / BITS] & (1 << (i % BITS)) == 0 {
            only.push(i);
        }
    }
    only.drain(..words);
    only
}

/// Match one link's two failure lists: first exact matches (start and
/// end both within `window`, nearest `ds + de` wins), then partial
/// overlaps among the leftovers (nearest start wins), left failures
/// taken in index order. Pairs are pushed as positions offset by `base`;
/// `used` is scratch, reused from call to call.
pub(crate) fn match_link(
    left: &[Failure],
    right: &[Failure],
    window: Duration,
    used: &mut Vec<bool>,
    base: (usize, usize),
    matched: &mut Vec<(usize, usize)>,
    partial: &mut Vec<(usize, usize)>,
) {
    used.clear();
    used.resize(left.len() + right.len(), false);
    let (left_used, right_used) = used.split_at_mut(left.len());
    for (i, f) in left.iter().enumerate() {
        let exact = |g: &Failure| {
            let (ds, de) = (g.start.abs_diff(f.start), g.end.abs_diff(f.end));
            (ds <= window && de <= window).then(|| ds.saturating_add(de))
        };
        if let Some(j) = nearest(right, right_used, exact) {
            (left_used[i], right_used[j]) = (true, true);
            matched.push((base.0 + i, base.1 + j));
        }
    }
    for (i, f) in left.iter().enumerate() {
        if left_used[i] {
            continue;
        }
        let overlap = |g: &Failure| f.overlaps(g).then(|| g.start.abs_diff(f.start));
        if let Some(j) = nearest(right, right_used, overlap) {
            right_used[j] = true;
            partial.push((base.0 + i, base.1 + j));
        }
    }
}

/// Match two failure sets (both sorted by `(link, start)`) one link at a
/// time: per link, first exact matches (start and end within `window`),
/// then partial overlaps among the leftovers.
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
    debug_assert!(left.is_sorted_by_key(|f| f.link) && right.is_sorted_by_key(|f| f.link));
    let (mut m, mut used) = (FailureMatching::default(), Vec::new());
    let (mut i, mut j) = (0, 0);
    for run in left.chunk_by(|a, b| a.link == b.link) {
        let link = run[0].link;
        j += right[j..].partition_point(|g| g.link < link);
        let k = j + right[j..].partition_point(|g| g.link == link);
        match_link(
            run,
            &right[j..k],
            window,
            &mut used,
            (i, j),
            &mut m.matched,
            &mut m.partial,
        );
        (i, j) = (i + run.len(), k);
    }
    m.complete(left.len(), right.len());
    m
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
