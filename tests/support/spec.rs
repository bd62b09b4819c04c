//! The paper's rules, written a second time and naively, as the kernel's
//! oracle: stitching, the IS/IP both-ends merge and ±10 s matching (§3–4
//! of the paper, DESIGN.md §1 and §6).
//!
//! Nothing here comes from `faultline_core`. Links are named by the
//! canonical `(host1:port1, host2:port2)` string that mining the router
//! configs recovers, every lookup is a `BTreeMap`, every list a sorted
//! `Vec`, and each link's whole history is processed at once: no lanes,
//! no watermark, no segments, no interning. Quadratic is fine.
//!
//! The rules, as the paper states them:
//!
//! * **Naming (§3.4).** A syslog message names its link by the reporting
//!   router's `(hostname, interface)`. An IS-reachability change names
//!   it by the two routers' system IDs, read as hostnames through the
//!   Dynamic Hostname TLVs; if the two routers share more than one link
//!   (a multi-link adjacency), it names none. An IP-reachability change
//!   names it by its /31 prefix.
//! * **Syslog transitions.** Only the IS-IS adjacency messages
//!   (`%CLNS-5-ADJCHANGE`, `%ROUTING-ISIS-4-ADJCHANGE`) make the syslog
//!   trace. Both ends of a link log a change: a message in the same
//!   direction as the last one kept on its link, within 10 s of it, is
//!   the other end confirming it and is dropped, and it becomes the new
//!   reference point, so a chain of confirmations stays one transition.
//! * **Both-ends merge (IS-IS).** Each endpoint advertises the link in
//!   its own LSP. The link goes down when the first endpoint withdraws
//!   it and comes back up only once no endpoint withdraws it. A change
//!   that repeats an endpoint's current state carries no information
//!   and is ignored. An endpoint first seen advertises the link.
//! * **Stitching (§3.4, previous-state).** A DOWN opens a failure and
//!   the next UP closes it. A second DOWN while one is open keeps the
//!   first DOWN's time; an UP with nothing open is ignored; a failure
//!   still open when the history ends is dropped.
//! * **Matching (§3.4).** Two failures of one link match when both their
//!   starts and their ends lie within 10 s of each other; each syslog
//!   failure in start order takes the unmatched IS-IS failure nearest to
//!   it (the smallest sum of the two distances, the earliest on a tie).
//!   Syslog failures left over then pair with the unmatched IS-IS
//!   failure that overlaps them with the nearest start, as partial
//!   matches.

use faultline_isis::listener::{ReachabilityKind, TransitionDirection, TransitionSubject};
use faultline_sim::ScenarioData;
use faultline_syslog::message::LinkEventKind;
use faultline_topology::config::mine_topology;
use faultline_topology::osi::SystemId;
use faultline_topology::subnet::Subnet31;
use faultline_topology::time::{Duration, Timestamp};
use std::collections::BTreeMap;

/// The match window: ±10 s on both start and end.
pub const MATCH_WINDOW: Duration = Duration::from_secs(10);
/// Two messages this close in one direction on one link are one change
/// seen from both ends.
pub const CONFIRM_WINDOW: Duration = Duration::from_secs(10);

/// A link, by the name mining gives it.
pub type Link = String;
/// One link-level transition.
pub type Change = (Timestamp, TransitionDirection);
/// One failure: its DOWN time and its UP time.
pub type Span = (Timestamp, Timestamp);

/// What the spec derives from a scenario, per link. A link with nothing
/// in a map has no entry there.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Spec {
    /// Syslog adjacency changes left after the both-ends confirmation.
    pub syslog_transitions: BTreeMap<Link, Vec<Change>>,
    /// IS-reachability changes after the both-ends merge.
    pub is_transitions: BTreeMap<Link, Vec<Change>>,
    /// IP-reachability changes after the both-ends merge.
    pub ip_transitions: BTreeMap<Link, Vec<Change>>,
    /// Failures stitched from the syslog transitions.
    pub syslog_failures: BTreeMap<Link, Vec<Span>>,
    /// Failures stitched from the IS-reachability transitions.
    pub isis_failures: BTreeMap<Link, Vec<Span>>,
}

/// The names mining recovers: each link end's `(hostname, interface)`,
/// each router pair's links, each /31's link.
struct Names {
    by_end: BTreeMap<(String, String), Link>,
    by_pair: BTreeMap<(String, String), Vec<Link>>,
    by_subnet: BTreeMap<Subnet31, Link>,
    host_of: BTreeMap<SystemId, String>,
}

impl Names {
    fn mine(data: &ScenarioData) -> Names {
        let mut names = Names {
            by_end: BTreeMap::new(),
            by_pair: BTreeMap::new(),
            by_subnet: BTreeMap::new(),
            host_of: data
                .hostnames
                .iter()
                .map(|(id, h)| (*id, h.clone()))
                .collect(),
        };
        for l in mine_topology(&data.topology).links {
            let link = l.name.0.clone();
            let (ha, hb) = (l.a.0.clone(), l.b.0.clone());
            names
                .by_end
                .insert((ha.clone(), l.a.1.as_str().to_string()), link.clone());
            names
                .by_end
                .insert((hb.clone(), l.b.1.as_str().to_string()), link.clone());
            names
                .by_pair
                .entry(pair(ha, hb))
                .or_default()
                .push(link.clone());
            names.by_subnet.insert(l.subnet, link);
        }
        names
    }

    /// The one link between two routers, by system ID.
    fn between(&self, a: SystemId, b: SystemId) -> Option<&Link> {
        let key = pair(self.host_of.get(&a)?.clone(), self.host_of.get(&b)?.clone());
        match self.by_pair.get(&key)?.as_slice() {
            [link] => Some(link),
            _ => None,
        }
    }
}

fn pair(a: String, b: String) -> (String, String) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn direction(up: bool) -> TransitionDirection {
    if up {
        TransitionDirection::Up
    } else {
        TransitionDirection::Down
    }
}

/// Run the spec over a scenario's two traces.
pub fn spec(data: &ScenarioData) -> Spec {
    let names = Names::mine(data);
    let mut out = Spec::default();

    // The syslog trace: each link's adjacency messages in time order
    // (ties in archive order), less the other end's confirmations.
    let mut messages: BTreeMap<Link, Vec<Change>> = BTreeMap::new();
    let mut syslog: Vec<_> = data.syslog.iter().collect();
    syslog.sort_by_key(|m| m.event.at);
    for m in syslog {
        if !matches!(m.event.kind, LinkEventKind::IsisAdjacency { .. }) {
            continue;
        }
        let end = (
            m.event.host.to_string(),
            m.event.interface.as_str().to_string(),
        );
        if let Some(link) = names.by_end.get(&end) {
            let change = (m.event.at, direction(m.event.up));
            messages.entry(link.clone()).or_default().push(change);
        }
    }
    for (link, changes) in messages {
        let kept = confirmed_once(&changes);
        out.syslog_failures.insert(link.clone(), stitch(&kept));
        out.syslog_transitions.insert(link, kept);
    }

    // The IS-IS trace: each endpoint's changes per link and kind, in
    // listener order.
    let mut per_origin: BTreeMap<(ReachabilityKind, Link), Vec<(SystemId, Change)>> =
        BTreeMap::new();
    let mut transitions: Vec<_> = data.transitions.iter().collect();
    transitions.sort_by_key(|t| t.at);
    for t in transitions {
        let link = match (t.kind, &t.subject) {
            (ReachabilityKind::IsReach, TransitionSubject::Adjacency { neighbor }) => {
                names.between(t.source, *neighbor)
            }
            (ReachabilityKind::IpReach, TransitionSubject::Prefix { .. }) => {
                t.subject.as_subnet().and_then(|s| names.by_subnet.get(&s))
            }
            _ => None,
        };
        if let Some(link) = link {
            let change = (t.source, (t.at, t.direction));
            per_origin
                .entry((t.kind, link.clone()))
                .or_default()
                .push(change);
        }
    }
    for ((kind, link), changes) in per_origin {
        let merged = both_ends(&changes);
        match kind {
            ReachabilityKind::IsReach => {
                out.isis_failures.insert(link.clone(), stitch(&merged));
                out.is_transitions.insert(link, merged);
            }
            ReachabilityKind::IpReach => {
                out.ip_transitions.insert(link, merged);
            }
        }
    }
    out.syslog_failures.retain(|_, f| !f.is_empty());
    out.isis_failures.retain(|_, f| !f.is_empty());
    out.is_transitions.retain(|_, t| !t.is_empty());
    out.ip_transitions.retain(|_, t| !t.is_empty());
    out
}

/// One link's messages, each change kept once however many ends log it.
fn confirmed_once(messages: &[Change]) -> Vec<Change> {
    let mut kept = Vec::new();
    let mut reference: Option<Change> = None;
    for &(at, dir) in messages {
        let confirms = reference
            .is_some_and(|(last, last_dir)| last_dir == dir && at.abs_diff(last) <= CONFIRM_WINDOW);
        reference = Some((at, dir));
        if !confirms {
            kept.push((at, dir));
        }
    }
    kept
}

/// One link's per-endpoint changes, merged: down at the first
/// withdrawal, up once every endpoint advertises again.
fn both_ends(changes: &[(SystemId, Change)]) -> Vec<Change> {
    let mut advertises: BTreeMap<SystemId, bool> = BTreeMap::new();
    let mut merged = Vec::new();
    for &(origin, (at, dir)) in changes {
        let up = dir == TransitionDirection::Up;
        let state = advertises.entry(origin).or_insert(true);
        if *state == up {
            continue;
        }
        let link_was_up = advertises.values().all(|&adv| adv);
        advertises.insert(origin, up);
        let link_is_up = advertises.values().all(|&adv| adv);
        if link_was_up != link_is_up {
            merged.push((at, dir));
        }
    }
    merged
}

/// DOWN→UP failures under the previous-state reading.
fn stitch(changes: &[Change]) -> Vec<Span> {
    let mut failures = Vec::new();
    let mut open = None;
    for &(at, dir) in changes {
        match (dir, open) {
            (TransitionDirection::Down, None) => open = Some(at),
            (TransitionDirection::Up, Some(start)) => {
                failures.push((start, at));
                open = None;
            }
            // A second DOWN keeps the first; an UP with nothing open
            // says nothing.
            _ => {}
        }
    }
    failures
}

/// What matching one link's failures pairs up: `(syslog, IS-IS)` index
/// pairs into the two lists.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Pairs {
    /// Start and end each within the window.
    pub matched: Vec<(usize, usize)>,
    /// Overlapping, among what did not match.
    pub partial: Vec<(usize, usize)>,
}

/// Match one link's syslog failures against its IS-IS failures, both in
/// start order, over the link's whole history.
pub fn match_link(syslog: &[Span], isis: &[Span]) -> Pairs {
    let mut pairs = Pairs::default();
    let mut taken = vec![false; isis.len()];
    let mut paired = vec![false; syslog.len()];
    for (i, &(s, e)) in syslog.iter().enumerate() {
        let score = |&(gs, ge): &Span| {
            let (ds, de) = (gs.abs_diff(s), ge.abs_diff(e));
            (ds <= MATCH_WINDOW && de <= MATCH_WINDOW).then_some(ds + de)
        };
        if let Some(j) = nearest(isis, &taken, score) {
            taken[j] = true;
            paired[i] = true;
            pairs.matched.push((i, j));
        }
    }
    for (i, &(s, e)) in syslog.iter().enumerate() {
        if paired[i] {
            continue;
        }
        let score = |&(gs, ge): &Span| (gs <= e && s <= ge).then_some(gs.abs_diff(s));
        if let Some(j) = nearest(isis, &taken, score) {
            taken[j] = true;
            pairs.partial.push((i, j));
        }
    }
    pairs
}

/// The untaken candidate of lowest score, the earliest on a tie.
fn nearest(
    cands: &[Span],
    taken: &[bool],
    score: impl Fn(&Span) -> Option<Duration>,
) -> Option<usize> {
    (0..cands.len())
        .filter(|&j| !taken[j])
        .filter_map(|j| score(&cands[j]).map(|s| (s, j)))
        .min()
        .map(|(_, j)| j)
}
