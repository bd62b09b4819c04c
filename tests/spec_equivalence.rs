//! The kernel against the executable specification (`support/spec.rs`):
//! the paper's stitching, both-ends merge and ±10 s matching written a
//! second time, with none of the kernel's machinery.
//!
//! Every differential tier elsewhere checks one driver against another;
//! this one checks the algorithm. Over `tiny(7)`, `tiny(42)` and the
//! three chaos presets it compares, link by link:
//!
//! * the syslog transitions left after the both-ends confirmation, and
//!   the IS- and IP-reachability transitions after the both-ends merge;
//! * both reconstructions' failures, before sanitizing;
//! * the matched and partial pairs: the spec's matcher, run over the
//!   kernel's own sanitized lists (sanitizing is the spec's next slice),
//!   one link's whole history at once, against the kernel's pairs, which
//!   it finds one quiet-gap segment at a time.
//!
//! A scenario's stamps are milliseconds, so a failure pair lands exactly
//! on the window's edge almost never; a property over one link's lists
//! with whole-second stamps crowded into a minute holds the kernel's
//! matcher to the spec's where equal scores and edge distances are
//! common.
//!
//! Links are compared by the name mining gives them, so the kernel's
//! dense link indices never reach the spec.

#[path = "support/spec.rs"]
mod spec;

use faultline_core::matching::match_failures;
use faultline_core::transitions::LinkTransition;
use faultline_core::{linktable, Analysis, AnalysisConfig, Failure, LinkIx};
use faultline_sim::chaos::ChaosConfig;
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_topology::time::Timestamp;
use proptest::prelude::*;
use spec::{Change, Link, Span};
use std::collections::BTreeMap;

fn by_link<T, R>(
    rows: &[T],
    name: impl Fn(LinkIx) -> Link,
    key: impl Fn(&T) -> (LinkIx, R),
) -> BTreeMap<Link, Vec<R>> {
    let mut out: BTreeMap<Link, Vec<R>> = BTreeMap::new();
    for row in rows {
        let (link, value) = key(row);
        out.entry(name(link)).or_default().push(value);
    }
    out
}

fn changes(rows: &[LinkTransition], name: impl Fn(LinkIx) -> Link) -> BTreeMap<Link, Vec<Change>> {
    by_link(rows, name, |t| (t.link, (t.at, t.direction)))
}

fn spans(rows: &[Failure], name: impl Fn(LinkIx) -> Link) -> BTreeMap<Link, Vec<Span>> {
    by_link(rows, name, |f| (f.link, (f.start, f.end)))
}

/// The first link on which two per-link maps disagree, for the message.
fn first_difference<V: PartialEq + std::fmt::Debug>(
    spec: &BTreeMap<Link, V>,
    kernel: &BTreeMap<Link, V>,
) -> String {
    let links = spec.keys().chain(kernel.keys());
    links
        .filter(|l| spec.get(*l) != kernel.get(*l))
        .map(|l| format!("{l}: spec {:?}, kernel {:?}", spec.get(l), kernel.get(l)))
        .next()
        .unwrap_or_default()
}

/// `(start of its run, the run)` of each link in a list sorted by link.
fn runs(failures: &[Failure]) -> BTreeMap<LinkIx, (usize, Vec<Span>)> {
    let mut out: BTreeMap<LinkIx, (usize, Vec<Span>)> = BTreeMap::new();
    for (i, f) in failures.iter().enumerate() {
        out.entry(f.link)
            .or_insert((i, Vec::new()))
            .1
            .push((f.start, f.end));
    }
    out
}

/// The spec's pairs over the kernel's sanitized lists, as indices into
/// those lists: `(matched, partial)`, each sorted.
type IndexPairs = Vec<(usize, usize)>;

fn spec_pairs(syslog: &[Failure], isis: &[Failure]) -> (IndexPairs, IndexPairs) {
    let (left, right) = (runs(syslog), runs(isis));
    let (mut matched, mut partial) = (Vec::new(), Vec::new());
    let empty = (0, Vec::new());
    for (link, (base_l, l)) in &left {
        let (base_r, r) = right.get(link).unwrap_or(&empty);
        let pairs = spec::match_link(l, r);
        let global = |&(i, j): &(usize, usize)| (base_l + i, base_r + j);
        matched.extend(pairs.matched.iter().map(global));
        partial.extend(pairs.partial.iter().map(global));
    }
    matched.sort_unstable();
    partial.sort_unstable();
    (matched, partial)
}

fn sorted(mut pairs: IndexPairs) -> IndexPairs {
    pairs.sort_unstable();
    pairs
}

fn check(name: &str, params: ScenarioParams) {
    let data = run(&params);
    let config = AnalysisConfig::default();
    assert_eq!(config.match_window, spec::MATCH_WINDOW);
    assert_eq!(faultline_core::kernel::DEDUP_WINDOW, spec::CONFIRM_WINDOW);
    let out = Analysis::run(&data, config).output;
    let table = linktable::from_scenario(&data);
    let link = |ix: LinkIx| table.name(ix).0.clone();
    let spec = spec::spec(&data);

    let compared = [
        (
            "syslog transitions",
            changes(&out.syslog_transitions, link),
            &spec.syslog_transitions,
        ),
        (
            "IS-reachability transitions",
            changes(&out.is_transitions, link),
            &spec.is_transitions,
        ),
        (
            "IP-reachability transitions",
            changes(&out.ip_transitions, link),
            &spec.ip_transitions,
        ),
    ];
    for (what, kernel, spec) in &compared {
        assert!(!spec.is_empty(), "{name}: the spec found no {what}");
        assert!(
            kernel == *spec,
            "{name}: {what} differ; first at {}",
            first_difference(spec, kernel)
        );
    }
    for (what, kernel, spec) in [
        (
            "syslog failures",
            spans(&out.syslog_recon.failures, link),
            &spec.syslog_failures,
        ),
        (
            "IS-IS failures",
            spans(&out.isis_recon.failures, link),
            &spec.isis_failures,
        ),
    ] {
        assert!(!spec.is_empty(), "{name}: the spec found no {what}");
        assert!(
            kernel == *spec,
            "{name}: {what} differ; first at {}",
            first_difference(spec, &kernel)
        );
    }

    let (matched, partial) = spec_pairs(&out.syslog_failures, &out.isis_failures);
    assert!(!matched.is_empty(), "{name}: nothing matched");
    assert_eq!(
        sorted(out.matching.matched.clone()),
        matched,
        "{name}: matched pairs differ"
    );
    assert_eq!(
        sorted(out.matching.partial.clone()),
        partial,
        "{name}: partial pairs differ"
    );
}

#[test]
fn clean_scenarios_follow_the_spec() {
    check("tiny(7)", ScenarioParams::tiny(7));
    check("tiny(42)", ScenarioParams::tiny(42));
}

#[test]
fn chaotic_scenarios_follow_the_spec() {
    for (name, chaos) in [
        ("mild", ChaosConfig::mild(7)),
        ("moderate", ChaosConfig::moderate(7)),
        ("severe", ChaosConfig::severe(7)),
    ] {
        let mut params = ScenarioParams::tiny(7);
        params.chaos = chaos;
        check(name, params);
    }
}

/// The spec's matcher on its own: the window's edges are inclusive, and
/// a pair nearer in sum wins over an earlier one.
#[test]
fn the_spec_matcher_reads_the_window_inclusively() {
    let t = Timestamp::from_secs;
    let syslog = [(t(100), t(200))];
    let pairs = spec::match_link(&syslog, &[(t(110), t(190))]);
    assert_eq!(pairs.matched, vec![(0, 0)]);
    let pairs = spec::match_link(&syslog, &[(t(111), t(200))]);
    assert_eq!((pairs.matched, pairs.partial), (vec![], vec![(0, 0)]));
    let pairs = spec::match_link(&syslog, &[(t(95), t(205)), (t(101), t(201))]);
    assert_eq!(pairs.matched, vec![(0, 1)]);
}

/// One link's failures in start order, on whole seconds, gaps and
/// lengths under 20 s.
fn one_link(n: usize) -> impl Strategy<Value = Vec<Span>> {
    proptest::collection::vec((0u64..20, 0u64..20), 0..n).prop_map(|v| {
        let mut at = 0;
        v.into_iter()
            .map(|(gap, len)| {
                let start = at + gap;
                at = start + len;
                (Timestamp::from_secs(start), Timestamp::from_secs(at))
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn the_kernel_matcher_is_the_spec_on_one_link(
        (syslog, isis) in (one_link(12), one_link(12)),
    ) {
        let failures = |spans: &[Span]| -> Vec<Failure> {
            let link = LinkIx(0);
            spans.iter().map(|&(start, end)| Failure { link, start, end }).collect()
        };
        let kernel = match_failures(&failures(&syslog), &failures(&isis), spec::MATCH_WINDOW);
        let spec = spec::match_link(&syslog, &isis);
        prop_assert_eq!(sorted(kernel.matched), spec.matched);
        prop_assert_eq!(sorted(kernel.partial), sorted(spec.partial));
    }
}
