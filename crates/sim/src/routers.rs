//! Per-router IS-IS origination state.
//!
//! Each simulated router tracks, per incident link, whether it currently
//! *advertises* the adjacency (Extended IS Reachability) and the link's
//! /31 (Extended IP Reachability). Whenever either set changes — or the
//! periodic refresh timer fires — the router originates a new LSP with an
//! incremented sequence number, exactly what the listener ingests.
//!
//! Two deliberate fidelity points:
//!
//! * **Parallel links collapse in IS reachability.** A router with two
//!   links to the same neighbor advertises that neighbor while *any* of
//!   them is up, so the listener cannot see single-member failures of
//!   multi-link adjacencies (§3.4's reason for excluding them).
//! * **IP state is independent of adjacency state.** A protocol-only
//!   failure withdraws the adjacency but keeps the /31 advertised
//!   (connected interface); a physical failure withdraws both. This is
//!   what makes Table 2's IS/IP comparison non-trivial.

use faultline_isis::lsp::Lsp;
use faultline_isis::tlv::{IpReachEntry, IsReachEntry};
use faultline_topology::link::LinkId;
use faultline_topology::osi::SystemId;
use faultline_topology::router::{RouterId, RouterOs};
use faultline_topology::subnet::Subnet31;
use faultline_topology::Topology;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One link's advertisement state as seen from one router.
#[derive(Debug, Clone)]
struct LinkAdvert {
    neighbor: SystemId,
    subnet: Subnet31,
    metric: u32,
    /// Adjacency currently advertised (IS reachability).
    adj_up: bool,
    /// /31 currently advertised (IP reachability).
    prefix_up: bool,
}

/// A simulated router's origination state.
#[derive(Debug, Clone)]
pub struct RouterNode {
    /// Topology id.
    pub id: RouterId,
    /// IS-IS system id.
    pub system_id: SystemId,
    /// Hostname advertised in the Dynamic Hostname TLV and used in syslog,
    /// shared by every message this router (or a neighbor) logs about it.
    pub hostname: Arc<str>,
    /// OS family (selects the syslog grammar).
    pub os: RouterOs,
    links: BTreeMap<LinkId, LinkAdvert>,
    sequence: u32,
    /// Next syslog sequence number (`service sequence-numbers`).
    pub syslog_seq: u64,
}

impl RouterNode {
    /// Build the node from the topology with everything advertised.
    pub fn new(topo: &Topology, id: RouterId) -> Self {
        let r = topo.router(id);
        let mut links = BTreeMap::new();
        for &lid in topo.links_of(id) {
            let l = topo.link(lid);
            let neighbor_id = l.other_end(id).expect("incident link");
            links.insert(
                lid,
                LinkAdvert {
                    neighbor: topo.router(neighbor_id).system_id,
                    subnet: l.subnet,
                    metric: l.metric,
                    adj_up: true,
                    prefix_up: true,
                },
            );
        }
        RouterNode {
            id,
            system_id: r.system_id,
            hostname: r.hostname.as_str().into(),
            os: r.os,
            links,
            sequence: 0,
            syslog_seq: 0,
        }
    }

    /// Set the adjacency advertisement for one link. Returns `true` if the
    /// *advertised neighbor set* changed (parallel links can absorb a
    /// single-member change).
    pub fn set_adjacency(&mut self, link: LinkId, up: bool) -> bool {
        let before = self.neighbor_set();
        if let Some(a) = self.links.get_mut(&link) {
            a.adj_up = up;
        }
        before != self.neighbor_set()
    }

    /// Set the /31 advertisement for one link. Returns `true` if it
    /// changed (each link has a unique subnet, so no collapsing here).
    pub fn set_prefix(&mut self, link: LinkId, up: bool) -> bool {
        match self.links.get_mut(&link) {
            Some(a) if a.prefix_up != up => {
                a.prefix_up = up;
                true
            }
            _ => false,
        }
    }

    /// Current advertised neighbor set (deduplicated, as TLV 22 diffing
    /// sees it).
    fn neighbor_set(&self) -> Vec<SystemId> {
        let mut v: Vec<SystemId> = self
            .links
            .values()
            .filter(|a| a.adj_up)
            .map(|a| a.neighbor)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Originate a fresh LSP reflecting current advertised state,
    /// incrementing the sequence number.
    pub fn originate(&mut self) -> Lsp {
        self.sequence += 1;
        let mut is_entries: Vec<IsReachEntry> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        let mut ip_entries: Vec<IpReachEntry> = Vec::new();
        for a in self.links.values() {
            if a.adj_up && seen.insert(a.neighbor) {
                is_entries.push(IsReachEntry {
                    neighbor: a.neighbor,
                    pseudonode: 0,
                    metric: a.metric,
                });
            }
            if a.prefix_up {
                ip_entries.push(IpReachEntry::for_subnet(a.subnet, a.metric));
            }
        }
        Lsp::originate(
            self.system_id,
            self.sequence,
            &self.hostname,
            &is_entries,
            &ip_entries,
        )
    }

    /// Current sequence number (of the last originated LSP).
    pub fn sequence(&self) -> u32 {
        self.sequence
    }

    /// Take the next syslog sequence number.
    pub fn next_syslog_seq(&mut self) -> u64 {
        self.syslog_seq += 1;
        self.syslog_seq
    }

    /// The neighbor system id on a given incident link.
    pub fn neighbor_on(&self, link: LinkId) -> Option<SystemId> {
        self.links.get(&link).map(|a| a.neighbor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_topology::generator::CenicParams;
    use faultline_topology::link::LinkClass;

    #[test]
    fn initial_lsp_advertises_everything() {
        let topo = CenicParams::tiny(3).generate();
        let mut node = RouterNode::new(&topo, RouterId(0));
        let lsp = node.originate();
        assert_eq!(lsp.sequence, 1);
        assert_eq!(
            lsp.hostname(),
            Some(topo.router(RouterId(0)).hostname.as_str())
        );
        assert_eq!(lsp.ip_prefixes().len(), topo.links_of(RouterId(0)).len());
        // Neighbor entries may be fewer than links (parallel links).
        assert!(lsp.is_neighbors().len() <= topo.links_of(RouterId(0)).len());
        assert!(!lsp.is_neighbors().is_empty());
    }

    #[test]
    fn adjacency_withdrawal_changes_neighbor_set() {
        let topo = CenicParams::tiny(3).generate();
        // Find a router with a non-parallel link.
        let link = topo
            .links()
            .iter()
            .find(|l| l.parallel_group.is_none())
            .unwrap();
        let mut node = RouterNode::new(&topo, link.a.router);
        assert!(node.set_adjacency(link.id, false));
        assert!(node.set_adjacency(link.id, true));
    }

    #[test]
    fn parallel_links_absorb_single_failures() {
        let topo = CenicParams::default().generate();
        let parallel = topo
            .links()
            .iter()
            .find(|l| l.parallel_group.is_some())
            .expect("default topology has multi-link pairs");
        let twin = topo
            .links()
            .iter()
            .find(|l| l.id != parallel.id && l.parallel_group == parallel.parallel_group)
            .expect("parallel group has two members");
        let mut node = RouterNode::new(&topo, parallel.a.router);
        // One member down: neighbor still advertised.
        assert!(!node.set_adjacency(parallel.id, false));
        // Second member down: now the neighbor disappears.
        assert!(node.set_adjacency(twin.id, false));
        // Prefixes, by contrast, always change individually.
        assert!(node.set_prefix(parallel.id, false));
        assert!(node.set_prefix(twin.id, false));
    }

    #[test]
    fn prefix_setting_is_idempotent() {
        let topo = CenicParams::tiny(3).generate();
        let link = topo.links()[0].id;
        let mut node = RouterNode::new(&topo, topo.links()[0].a.router);
        assert!(node.set_prefix(link, false));
        assert!(!node.set_prefix(link, false), "no-op must report no change");
        assert!(node.set_prefix(link, true));
    }

    #[test]
    fn sequence_increments_per_origination() {
        let topo = CenicParams::tiny(3).generate();
        let mut node = RouterNode::new(&topo, RouterId(1));
        assert_eq!(node.originate().sequence, 1);
        assert_eq!(node.originate().sequence, 2);
        assert_eq!(node.sequence(), 2);
    }

    #[test]
    fn lsp_reflects_withdrawals() {
        let topo = CenicParams::tiny(3).generate();
        let link = topo
            .links()
            .iter()
            .find(|l| l.parallel_group.is_none() && l.class == LinkClass::Cpe)
            .unwrap();
        let mut node = RouterNode::new(&topo, link.a.router);
        let before = node.originate();
        node.set_adjacency(link.id, false);
        node.set_prefix(link.id, false);
        let after = node.originate();
        assert_eq!(before.is_neighbors().len() - 1, after.is_neighbors().len());
        assert_eq!(before.ip_prefixes().len() - 1, after.ip_prefixes().len());
        let withdrawn = node.neighbor_on(link.id).unwrap();
        assert!(
            !after.is_neighbors().iter().any(|e| e.neighbor == withdrawn)
                || topo.links_between(link.a.router, link.b.router).len() > 1
        );
    }
}
