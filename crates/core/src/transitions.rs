//! The link-level records both sources are reduced to.
//!
//! **Syslog side.** Each `ADJCHANGE` message names its reporting router
//! and local interface, which the mined config inventory maps to a link;
//! `%LINK` messages resolve the same way into the *physical media*
//! family compared in Table 2, and `%LINEPROTO` messages are counted and
//! set aside. Each resolved message is a [`ResolvedMessage`], counted in
//! [`SyslogResolveStats`].
//!
//! **IS-IS side.** The listener emits per-origin withdrawals and
//! re-advertisements. A link is "up as long as the adjacency or IP space
//! is listed in the appropriate LSP packets" (§3.4) — both endpoints'
//! advertisements are ANDed, so a link-level DOWN fires on the first
//! endpoint's withdrawal and an UP only once both ends re-advertise,
//! separately for IS reachability (adjacency pairs; multi-link
//! adjacencies unresolvable, hence excluded and counted) and IP
//! reachability (unique /31s). Each emitted [`LinkTransition`] is
//! counted in [`IsisMergeStats`].
//!
//! The rules themselves live once, in [`crate::kernel`]: its classifier
//! resolves every event to a link and its per-link lanes run the dedup
//! and both-ends merge. This module holds the records they produce.

use crate::linktable::LinkIx;
use faultline_isis::listener::TransitionDirection;
use faultline_syslog::message::AdjChangeDetail;
use faultline_topology::time::Timestamp;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A link-level state transition (the unit both sources are reduced to).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkTransition {
    /// When it was observed.
    pub at: Timestamp,
    /// Which link.
    pub link: LinkIx,
    /// DOWN (withdrawn) or UP ((re-)advertised).
    pub direction: TransitionDirection,
}

/// Which syslog message family a resolved message belongs to (the two
/// row groups of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MessageFamily {
    /// `%CLNS-5-ADJCHANGE` / `%ROUTING-ISIS-4-ADJCHANGE`.
    IsisAdjacency,
    /// `%LINK-3-UPDOWN` (physical media).
    PhysicalMedia,
}

/// A syslog message resolved to a link.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResolvedMessage {
    /// Message-text timestamp.
    pub at: Timestamp,
    /// Resolved link.
    pub link: LinkIx,
    /// Up or Down.
    pub direction: TransitionDirection,
    /// Message family.
    pub family: MessageFamily,
    /// Reporting router's hostname (distinguishes the two ends for
    /// Table 3's None/One/Both accounting). A shared handle into the
    /// link table's interner — cloning is a refcount bump, and it
    /// serializes as a plain string exactly like the owned `String` it
    /// replaced.
    pub host: Arc<str>,
    /// ADJCHANGE reason text, when present.
    pub detail: Option<AdjChangeDetail>,
}

/// Counters from syslog resolution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyslogResolveStats {
    /// ADJCHANGE messages resolved.
    pub isis_resolved: u64,
    /// `%LINK` messages resolved.
    pub physical_resolved: u64,
    /// `%LINEPROTO` messages (redundant with `%LINK`; parsed, counted,
    /// not used for matching).
    pub lineproto_skipped: u64,
    /// Messages whose `(host, interface)` is not in the mined inventory
    /// (configs missing from the archive — the paper must tolerate them).
    pub unresolved: u64,
}

/// Counters from the IS-IS link-level merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IsisMergeStats {
    /// Raw transitions consumed.
    pub raw: u64,
    /// Raw transitions that could not be resolved to a unique link because
    /// the router pair has a multi-link adjacency (IS reachability only).
    pub unresolvable_multilink: u64,
    /// Raw transitions naming routers/prefixes absent from the inventory.
    pub unknown: u64,
    /// Raw transitions inconsistent with tracked state (e.g. an UP for an
    /// endpoint already advertising — typically the echo of a change the
    /// listener slept through).
    pub inconsistent: u64,
    /// Link-level transitions emitted.
    pub emitted: u64,
}

impl SyslogResolveStats {
    /// Add another engine's counts to this one.
    pub(crate) fn add(&mut self, other: &SyslogResolveStats) {
        self.isis_resolved += other.isis_resolved;
        self.physical_resolved += other.physical_resolved;
        self.lineproto_skipped += other.lineproto_skipped;
        self.unresolved += other.unresolved;
    }
}

impl IsisMergeStats {
    /// Add another engine's counts to this one.
    pub(crate) fn add(&mut self, other: &IsisMergeStats) {
        self.raw += other.raw;
        self.unresolvable_multilink += other.unresolvable_multilink;
        self.unknown += other.unknown;
        self.inconsistent += other.inconsistent;
        self.emitted += other.emitted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use crate::streaming::{scenario_event_stream, StreamAnalysis, StreamOutput};
    use faultline_sim::scenario::{run, ScenarioParams};
    use std::collections::HashMap;

    /// A lossless tiny scenario's whole stream through one engine, and
    /// the number of links it mined.
    fn resolved() -> (StreamOutput, usize) {
        let data = run(&ScenarioParams::tiny(3).lossless());
        let mut engine = StreamAnalysis::new(&data, AnalysisConfig::default());
        engine.ingest_batch(&scenario_event_stream(&data));
        let links = crate::linktable::from_scenario(&data).len();
        (engine.flush().output, links)
    }

    /// Link-level transitions must alternate DOWN, UP, DOWN… per link.
    fn assert_alternate(transitions: &[LinkTransition]) {
        let mut state: HashMap<LinkIx, TransitionDirection> = HashMap::new();
        for t in transitions {
            match state.insert(t.link, t.direction) {
                Some(prev) => assert_ne!(prev, t.direction, "link {:?} repeats", t.link),
                None => assert_eq!(
                    t.direction,
                    TransitionDirection::Down,
                    "first event is DOWN"
                ),
            }
        }
    }

    #[test]
    fn syslog_resolution_covers_everything_in_lossless_run() {
        let (out, _) = resolved();
        let stats = out.resolve_stats;
        assert_eq!(stats.unresolved, 0, "all interfaces mined");
        assert!(stats.isis_resolved > 0);
        assert!(!out.messages.is_empty());
        // Sorted by time.
        for w in out.messages.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn lineproto_messages_are_skipped_not_unresolved() {
        let (out, _) = resolved();
        // Physical failures emit both %LINK and %LINEPROTO; the latter are
        // counted separately.
        let stats = out.resolve_stats;
        assert_eq!(stats.physical_resolved, stats.lineproto_skipped);
    }

    #[test]
    fn is_transitions_alternate_per_link() {
        let (out, _) = resolved();
        assert!(out.is_stats.emitted > 0);
        assert_alternate(&out.is_transitions);
    }

    #[test]
    fn ip_transitions_alternate_per_link() {
        let (out, _) = resolved();
        assert!(out.ip_stats.emitted > 0);
        assert_eq!(
            out.ip_stats.unresolvable_multilink, 0,
            "/31s are always unique"
        );
        assert_alternate(&out.ip_transitions);
    }

    #[test]
    fn multilink_transitions_counted_when_present() {
        // Any IS transition on a multi-link pair is excluded, not
        // misassigned: every raw transition is either emitted as a link
        // event, merged away (second-side withdrawal), or excluded for a
        // counted reason.
        let (out, _) = resolved();
        let stats = out.is_stats;
        assert!(
            stats.raw
                >= stats.emitted
                    + stats.unresolvable_multilink
                    + stats.unknown
                    + stats.inconsistent
        );
        assert_eq!(stats.unknown, 0, "all routers are in the mined inventory");
    }

    #[test]
    fn down_then_up_counts_balance_roughly() {
        let (out, links) = resolved();
        let count = |d| {
            out.is_transitions
                .iter()
                .filter(|t| t.direction == d)
                .count()
        };
        let (downs, ups) = (
            count(TransitionDirection::Down),
            count(TransitionDirection::Up),
        );
        // Ups can lag downs by at most the number of links (open failures
        // at period end).
        assert!(downs >= ups);
        assert!(downs - ups <= links);
    }
}
