//! Customer-isolation analysis (§4.4, Table 7).
//!
//! CENIC's product is customer connectivity, so the paper's high-level
//! metric is *customer isolation*: a customer is isolated while no
//! up-path exists from any of its CPE routers to the backbone. Because
//! sites are multi-homed and the backbone has rings, this requires
//! simultaneous state for several links — reconstruction error amplifies
//! here, which is the point of the comparison.
//!
//! An *event* is "one or more overlapping link failures": failures are
//! grouped into connected components of time overlap, and each component
//! is swept chronologically against the topology to find the intervals
//! each customer spends isolated.

use crate::linktable::LinkIx;
use crate::reconstruct::Failure;
use faultline_topology::customer::CustomerId;
use faultline_topology::graph::LinkStateView;
use faultline_topology::link::LinkId;
use faultline_topology::time::{Duration, Timestamp};
use faultline_topology::Topology;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One failure event (a maximal set of time-overlapping failures) that
/// isolated at least one customer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IsolatingEvent {
    /// Start of the earliest failure in the component.
    pub from: Timestamp,
    /// End of the latest failure in the component.
    pub to: Timestamp,
    /// Customers isolated at some point, with their isolation intervals.
    pub isolated: Vec<(CustomerId, Vec<(Timestamp, Timestamp)>)>,
    /// The (deduplicated, sorted) links whose failures form the event.
    pub links: Vec<LinkId>,
}

impl IsolatingEvent {
    /// Total isolation time across customers (the paper's "downtime"
    /// for Table 7 sums per-customer isolation).
    pub fn isolation_ms(&self) -> u64 {
        self.isolated
            .iter()
            .flat_map(|(_, spans)| spans.iter())
            .map(|(a, b)| (*b - *a).as_millis())
            .sum()
    }
}

/// Result of the isolation sweep for one data source.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IsolationOutcome {
    /// Events that isolated at least one customer.
    pub events: Vec<IsolatingEvent>,
    /// Total number of failure components examined (isolating or not).
    pub components: u64,
}

impl IsolationOutcome {
    /// Table 7: number of isolating events.
    pub fn event_count(&self) -> u64 {
        self.events.len() as u64
    }

    /// Table 7: distinct customers impacted.
    pub fn sites_impacted(&self) -> u64 {
        let mut set: Vec<CustomerId> = self
            .events
            .iter()
            .flat_map(|e| e.isolated.iter().map(|(c, _)| *c))
            .collect();
        set.sort();
        set.dedup();
        set.len() as u64
    }

    /// Table 7: total isolation downtime in days.
    pub fn downtime_days(&self) -> f64 {
        let ms: u64 = self.events.iter().map(|e| e.isolation_ms()).sum();
        ms as f64 / 86_400_000.0
    }

    /// Per-customer isolation intervals across all events, sorted.
    pub fn per_customer(&self) -> HashMap<CustomerId, Vec<(Timestamp, Timestamp)>> {
        let mut map: HashMap<CustomerId, Vec<(Timestamp, Timestamp)>> = HashMap::new();
        for e in &self.events {
            for (c, spans) in &e.isolated {
                map.entry(*c).or_default().extend(spans.iter().copied());
            }
        }
        for spans in map.values_mut() {
            spans.sort();
        }
        map
    }
}

/// The separation below which consecutive failures belong to the same
/// outage *event*: failures within one IGP convergence/flap cycle of each
/// other describe one operational incident, not many (a flapping access
/// link is one event per episode burst, not thirty). Isolation *downtime*
/// is unaffected: the sweep still sees the up-gaps inside an event.
pub const EVENT_TOLERANCE: Duration = Duration::from_secs(60);

/// Run the isolation sweep.
///
/// * `failures` — one source's sanitized failure set;
/// * `topo` — the reconstructed topology (links + customers);
/// * `link_of_ix` — translation from analysis link indices to topology
///   link ids, indexed by `LinkIx` (built by the caller by matching
///   subnets).
///
/// Failures separated by at most [`EVENT_TOLERANCE`] join the same event
/// component.
pub fn analyze(
    failures: &[Failure],
    topo: &Topology,
    link_of_ix: &[Option<LinkId>],
) -> IsolationOutcome {
    // Sort by start time to form overlap components.
    let mut sorted: Vec<&Failure> = failures.iter().collect();
    sorted.sort_by_key(|f| (f.start, f.end));

    let mut outcome = IsolationOutcome::default();
    let mut comp: Vec<&Failure> = Vec::new();
    let mut comp_end = Timestamp::EPOCH;
    for f in sorted {
        if comp.is_empty() || f.start <= comp_end + EVENT_TOLERANCE {
            comp_end = comp_end.max(f.end);
            comp.push(f);
        } else {
            sweep_component(&comp, topo, link_of_ix, &mut outcome);
            comp.clear();
            comp.push(f);
            comp_end = f.end;
        }
    }
    if !comp.is_empty() {
        sweep_component(&comp, topo, link_of_ix, &mut outcome);
    }
    outcome
}

fn sweep_component(
    comp: &[&Failure],
    topo: &Topology,
    link_of_ix: &[Option<LinkId>],
    outcome: &mut IsolationOutcome,
) {
    outcome.components += 1;
    // Resolve links; unmapped links (not in the mined inventory's
    // topology view) are skipped.
    let mut points: Vec<(Timestamp, LinkId, bool)> = Vec::new(); // (t, link, down?)
    let mut links: Vec<LinkId> = Vec::new();
    for f in comp {
        if let Some(lid) = link_of_ix.get(f.link.0 as usize).copied().flatten() {
            points.push((f.start, lid, true));
            points.push((f.end, lid, false));
            links.push(lid);
        }
    }
    if points.is_empty() {
        return;
    }
    points.sort_by_key(|&(t, l, down)| (t, l, !down));
    links.sort();
    links.dedup();

    let mut view = LinkStateView::all_up(topo);
    // Only customers near the failed links can possibly be isolated.
    let candidates = view.customers_touching(&links);
    if candidates.is_empty() {
        return;
    }
    let mut open: HashMap<CustomerId, Timestamp> = HashMap::new();
    let mut spans: HashMap<CustomerId, Vec<(Timestamp, Timestamp)>> = HashMap::new();
    // Overlapping failures on one link must keep it down until the last
    // one ends, so track a per-link depth on top of the boolean view.
    let mut depth: HashMap<LinkId, i32> = HashMap::new();

    let mut i = 0;
    while i < points.len() {
        let t = points[i].0;
        // Apply every change at this instant before evaluating.
        while i < points.len() && points[i].0 == t {
            let (_, lid, down) = points[i];
            let d = depth.entry(lid).or_insert(0);
            if down {
                *d += 1;
                if *d == 1 {
                    view.set_down(lid);
                }
            } else {
                *d -= 1;
                if *d <= 0 {
                    view.set_up(lid);
                }
            }
            i += 1;
        }
        for &c in &candidates {
            if view.is_isolated(c) {
                // Already-open spans keep their original start.
                open.entry(c).or_insert(t);
            } else if let Some(from) = open.remove(&c) {
                if t > from {
                    spans.entry(c).or_default().push((from, t));
                }
            }
        }
    }
    // All failures in the component have ended; nothing stays open past
    // the last change point.
    if let Some(&(last_t, _, _)) = points.last() {
        for (c, from) in open {
            if last_t > from {
                spans.entry(c).or_default().push((from, last_t));
            }
        }
    }

    if !spans.is_empty() {
        let mut isolated: Vec<_> = spans.into_iter().collect();
        isolated.sort_by_key(|(c, _)| *c);
        // Spans exist only when change points did, so the component is
        // non-empty here; bail rather than assert if that ever changes.
        let (Some(from), Some(to)) = (
            comp.iter().map(|f| f.start).min(),
            comp.iter().map(|f| f.end).max(),
        ) else {
            return;
        };
        outcome.events.push(IsolatingEvent {
            from,
            to,
            isolated,
            links,
        });
    }
}

/// Comparison of two sources' isolation outcomes (Table 7's rows plus the
/// §4.4 breakdown).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IsolationComparison {
    /// Events matched between the sources (overlapping spans sharing an
    /// isolated customer).
    pub matched_events: u64,
    /// Left(=IS-IS)-only events.
    pub left_only: u64,
    /// Right(=syslog)-only events.
    pub right_only: u64,
    /// Sites impacted in both sources.
    pub common_sites: u64,
    /// Per-customer isolation downtime present in both sources
    /// (interval intersection), days.
    pub intersection_days: f64,
    /// `(left event index, right event index)` of the matched pairs.
    pub matched_pairs: Vec<(usize, usize)>,
    /// Left event indices with no match.
    pub left_only_indices: Vec<usize>,
    /// Right event indices with no match.
    pub right_only_indices: Vec<usize>,
}

/// Compare two isolation outcomes.
pub fn compare(left: &IsolationOutcome, right: &IsolationOutcome) -> IsolationComparison {
    let mut used = vec![false; right.events.len()];
    let mut matched_pairs = Vec::new();
    let mut left_only_indices = Vec::new();
    for (i, le) in left.events.iter().enumerate() {
        let l_customers: Vec<CustomerId> = le.isolated.iter().map(|(c, _)| *c).collect();
        let found = right.events.iter().enumerate().find(|(j, re)| {
            !used[*j]
                && le.from <= re.to
                && re.from <= le.to
                && re.isolated.iter().any(|(c, _)| l_customers.contains(c))
        });
        if let Some((j, _)) = found {
            used[j] = true;
            matched_pairs.push((i, j));
        } else {
            left_only_indices.push(i);
        }
    }
    let right_only_indices: Vec<usize> = (0..right.events.len()).filter(|&j| !used[j]).collect();
    let matched = matched_pairs.len() as u64;

    let l_sites = left.per_customer();
    let r_sites = right.per_customer();
    let common_sites = l_sites.keys().filter(|c| r_sites.contains_key(c)).count() as u64;

    // Interval intersection per customer.
    let mut intersection_ms: u64 = 0;
    for (c, l_spans) in &l_sites {
        let Some(r_spans) = r_sites.get(c) else {
            continue;
        };
        intersection_ms += intersect_spans(l_spans, r_spans)
            .iter()
            .map(|(a, b)| (*b - *a).as_millis())
            .sum::<u64>();
    }

    IsolationComparison {
        matched_events: matched,
        left_only: left.event_count() - matched,
        right_only: right.event_count() - matched,
        common_sites,
        intersection_days: intersection_ms as f64 / 86_400_000.0,
        matched_pairs,
        left_only_indices,
        right_only_indices,
    }
}

/// Why one source missed an isolating event the other saw (§4.4's
/// breakdown of the 399 IS-IS-only and 58 syslog-only events).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MissCause {
    /// The other source has a failure on the event's links that matches
    /// one boundary (start or end) within the window but not the other —
    /// a single lost state-change message.
    SingleMessage,
    /// The other source has failures intersecting the event but matching
    /// neither boundary.
    PartialOverlap,
    /// The other source has nothing related on the affected links.
    Unrelated,
}

/// Classify why `event` (from one source) is absent from the other
/// source's failure set.
pub fn classify_miss(
    event: &IsolatingEvent,
    other_failures: &[Failure],
    ix_of_link: &HashMap<LinkId, LinkIx>,
    window: Duration,
) -> MissCause {
    let links: Vec<LinkIx> = event
        .links
        .iter()
        .filter_map(|l| ix_of_link.get(l).copied())
        .collect();
    let related: Vec<&Failure> = other_failures
        .iter()
        .filter(|f| {
            links.contains(&f.link) && f.start <= event.to + window && event.from <= f.end + window
        })
        .collect();
    if related.is_empty() {
        return MissCause::Unrelated;
    }
    let one_boundary = related.iter().any(|f| {
        let start_near = f.start.abs_diff(event.from) <= window;
        let end_near = f.end.abs_diff(event.to) <= window;
        start_near != end_near
    });
    if one_boundary {
        MissCause::SingleMessage
    } else {
        MissCause::PartialOverlap
    }
}

/// An "egregious match" (§4.4): a matched event pair whose isolation
/// durations disagree wildly — e.g. the paper's site isolated 7 hours
/// that syslog detected nine seconds before recovery, and the site
/// syslog believed isolated 17 hours that was actually down <1 minute.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EgregiousMatch {
    /// Left event index.
    pub left: usize,
    /// Right event index.
    pub right: usize,
    /// Left isolation milliseconds.
    pub left_ms: u64,
    /// Right isolation milliseconds.
    pub right_ms: u64,
}

/// Find matched pairs whose isolation durations differ by more than
/// `factor` (and by at least one minute absolute, to skip noise).
pub fn egregious_matches(
    left: &IsolationOutcome,
    right: &IsolationOutcome,
    cmp: &IsolationComparison,
    factor: f64,
) -> Vec<EgregiousMatch> {
    let mut out = Vec::new();
    for &(i, j) in &cmp.matched_pairs {
        let l = left.events[i].isolation_ms();
        let r = right.events[j].isolation_ms();
        let (hi, lo) = (l.max(r), l.min(r));
        if hi >= 60_000 && (lo == 0 || hi as f64 / lo.max(1) as f64 > factor) {
            out.push(EgregiousMatch {
                left: i,
                right: j,
                left_ms: l,
                right_ms: r,
            });
        }
    }
    out
}

/// Intersect two sorted interval lists.
pub fn intersect_spans(
    a: &[(Timestamp, Timestamp)],
    b: &[(Timestamp, Timestamp)],
) -> Vec<(Timestamp, Timestamp)> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            out.push((lo, hi));
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Total length of a span list.
pub fn spans_duration(spans: &[(Timestamp, Timestamp)]) -> Duration {
    Duration::from_millis(spans.iter().map(|(a, b)| (*b - *a).as_millis()).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_topology::generator::CenicParams;
    use faultline_topology::router::RouterClass;

    /// Build a mapping assuming LinkIx(i) == LinkId(i) (true when the
    /// table is built from the same topology; tests construct failures
    /// directly in topology order).
    fn identity_map(topo: &Topology) -> Vec<Option<LinkId>> {
        (0..topo.links().len() as u32)
            .map(|i| Some(LinkId(i)))
            .collect()
    }

    fn fail(link: u32, start: u64, end: u64) -> Failure {
        Failure {
            link: LinkIx(link),
            start: Timestamp::from_secs(start),
            end: Timestamp::from_secs(end),
        }
    }

    /// Find a single-homed customer and its access link in the topology.
    fn vulnerable_customer(topo: &Topology) -> Option<(CustomerId, LinkId)> {
        for c in topo.customers() {
            if c.cpe_routers.len() != 1 {
                continue;
            }
            let r = c.cpe_routers[0];
            let links = topo.links_of(r);
            if links.len() == 1 {
                return Some((c.id, links[0]));
            }
        }
        None
    }

    #[test]
    fn single_link_failure_isolates_single_homed_customer() {
        let topo = CenicParams::default().generate();
        let (cust, link) = vulnerable_customer(&topo).expect("some single-homed site");
        let failures = vec![fail(link.0, 100, 400)];
        let out = analyze(&failures, &topo, &identity_map(&topo));
        assert_eq!(out.event_count(), 1);
        assert_eq!(out.sites_impacted(), 1);
        let e = &out.events[0];
        assert_eq!(e.isolated[0].0, cust);
        assert_eq!(e.isolation_ms(), 300_000);
        assert!((out.downtime_days() - 300.0 / 86_400.0).abs() < 1e-9);
    }

    #[test]
    fn core_ring_failure_does_not_isolate() {
        let topo = CenicParams::default().generate();
        // Fail one backbone ring link: the ring reroutes.
        let core_link = topo
            .links()
            .iter()
            .find(|l| {
                topo.router(l.a.router).class == RouterClass::Core
                    && topo.router(l.b.router).class == RouterClass::Core
            })
            .unwrap();
        let failures = vec![fail(core_link.id.0, 100, 200)];
        let out = analyze(&failures, &topo, &identity_map(&topo));
        assert_eq!(out.event_count(), 0);
        assert_eq!(out.components, 1);
    }

    #[test]
    fn overlapping_failures_form_one_event() {
        let topo = CenicParams::default().generate();
        let (_, link) = vulnerable_customer(&topo).expect("single-homed site");
        // Two overlapping failures on the same link: one component.
        let failures = vec![fail(link.0, 100, 300), fail(link.0, 200, 500)];
        let out = analyze(&failures, &topo, &identity_map(&topo));
        assert_eq!(out.components, 1);
        assert_eq!(out.event_count(), 1);
        // Isolation spans the union 100..500.
        assert_eq!(out.events[0].isolation_ms(), 400_000);
    }

    #[test]
    fn disjoint_failures_form_separate_events() {
        let topo = CenicParams::default().generate();
        let (_, link) = vulnerable_customer(&topo).expect("single-homed site");
        let failures = vec![fail(link.0, 100, 200), fail(link.0, 10_000, 10_100)];
        let out = analyze(&failures, &topo, &identity_map(&topo));
        assert_eq!(out.components, 2);
        assert_eq!(out.event_count(), 2);
    }

    #[test]
    fn comparison_matches_shared_events() {
        let topo = CenicParams::default().generate();
        let (_, link) = vulnerable_customer(&topo).expect("single-homed site");
        let map = identity_map(&topo);
        let left = analyze(&[fail(link.0, 100, 400)], &topo, &map);
        // Right source sees the failure slightly shifted, plus a phantom.
        let right = analyze(
            &[fail(link.0, 103, 395), fail(link.0, 50_000, 50_060)],
            &topo,
            &map,
        );
        let cmp = compare(&left, &right);
        assert_eq!(cmp.matched_events, 1);
        assert_eq!(cmp.left_only, 0);
        assert_eq!(cmp.right_only, 1);
        assert_eq!(cmp.common_sites, 1);
        // Intersection: 103..395 = 292 s.
        assert!((cmp.intersection_days - 292.0 / 86_400.0).abs() < 1e-9);
    }

    #[test]
    fn span_intersection_math() {
        let a = [(Timestamp::from_secs(0), Timestamp::from_secs(100))];
        let b = [
            (Timestamp::from_secs(10), Timestamp::from_secs(20)),
            (Timestamp::from_secs(90), Timestamp::from_secs(150)),
        ];
        let x = intersect_spans(&a, &b);
        assert_eq!(
            x,
            vec![
                (Timestamp::from_secs(10), Timestamp::from_secs(20)),
                (Timestamp::from_secs(90), Timestamp::from_secs(100)),
            ]
        );
        assert_eq!(spans_duration(&x), Duration::from_secs(20));
    }
}
