//! The common naming layer (§3.4).
//!
//! Syslog identifies a link end by `(hostname, interface)`; IS-IS LSPs
//! identify routers by system ID, adjacencies by system-ID pairs, and
//! links (uniquely, thanks to CENIC's /31 numbering) by prefix. Neither
//! can be compared directly, so the paper maps both onto the link names
//! recovered by mining router configuration files. [`LinkTable`] is that
//! mapping, built from a [`MinedInventory`] plus the listener's
//! hostname-TLV map.

use crate::intern::{FastMap, Sym, SymbolTable};
use faultline_sim::ScenarioData;
use faultline_topology::config::MinedInventory;
use faultline_topology::interface::InterfaceName;
use faultline_topology::link::{LinkClass, LinkId, LinkName};
use faultline_topology::osi::SystemId;
use faultline_topology::subnet::Subnet31;
use faultline_topology::time::Timestamp;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Dense index of a link within a [`LinkTable`]. Distinct from the
/// topology's `LinkId`: the analysis only knows what mining recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkIx(pub u32);

/// The resolution layer joining both data sources.
///
/// Internally every hostname and interface name is interned into the
/// table's [`SymbolTable`]; all resolution maps are keyed on dense
/// [`Sym`] pairs hashed with the kernel's fast hasher, so a lookup never
/// allocates. Interning order is deterministic (link endpoints in
/// inventory order, then hostnames in system-ID order), which makes the
/// id assignment reproducible for a given scenario — the property the
/// streaming checkpoint/restore path relies on when it rebuilds the
/// table instead of persisting it.
#[derive(Debug, Clone, Default)]
pub struct LinkTable {
    names: Vec<LinkName>,
    classes: Vec<LinkClass>,
    /// Active window per link (provisioning history from the config
    /// archive), used to annualize per-link rates.
    windows: Vec<(Timestamp, Timestamp)>,
    /// Interner for every hostname and interface name the table knows.
    symbols: SymbolTable,
    by_iface: FastMap<(Sym, Sym), LinkIx>,
    by_subnet: FastMap<Subnet31, LinkIx>,
    /// Every link, grouped by endpoint host pair, each group in ascending
    /// index order.
    pair_links: Vec<LinkIx>,
    /// Canonical endpoint host pair per link — the interned key the
    /// cluster partitioner hashes ([`Self::shard_key`]).
    pair_keys: Vec<(Sym, Sym)>,
    host_of_sysid: FastMap<SystemId, Sym>,
    /// Precomputed [`Self::by_sysid_pair`] answers as ranges of
    /// `pair_links`: one probe on the IS-reachability hot path instead of
    /// two sysid resolutions plus a host-pair probe.
    by_sysid: FastMap<(SystemId, SystemId), (u32, u32)>,
    /// False for members of multi-link adjacencies.
    resolvable: Vec<bool>,
}

impl LinkTable {
    /// Build from a mined inventory, a system-ID → hostname map (from
    /// Dynamic Hostname TLVs), and per-link active windows.
    ///
    /// A link's class is inferred from its hostnames: an endpoint whose
    /// hostname starts with `cust` is customer-premises equipment, making
    /// the link a CPE link; otherwise it is a Core link.
    pub fn new(
        inventory: &MinedInventory,
        hostnames: &HashMap<SystemId, String>,
        windows: impl Fn(&LinkName) -> (Timestamp, Timestamp),
    ) -> Self {
        let links = inventory.links.iter().map(|l| {
            let ends = [(&*l.a.0, l.a.1.as_str()), (&*l.b.0, l.b.1.as_str())];
            (l.name.clone(), ends, l.subnet)
        });
        Self::build(links, hostnames, |name, _| windows(name))
    }

    /// [`LinkTable::new`] over mined links as `(name, both ends' (hostname,
    /// interface), subnet)`, with each link's window asked for by its name
    /// and subnet, in index order.
    fn build<'a>(
        links: impl ExactSizeIterator<Item = (LinkName, [(&'a str, &'a str); 2], Subnet31)>,
        hostnames: &HashMap<SystemId, String>,
        mut windows: impl FnMut(&LinkName, Subnet31) -> (Timestamp, Timestamp),
    ) -> Self {
        let n = links.len();
        let mut t = LinkTable {
            names: Vec::with_capacity(n),
            classes: Vec::with_capacity(n),
            windows: Vec::with_capacity(n),
            by_iface: FastMap::with_capacity_and_hasher(2 * n, Default::default()),
            by_subnet: FastMap::with_capacity_and_hasher(n, Default::default()),
            by_sysid: FastMap::with_capacity_and_hasher(n, Default::default()),
            pair_keys: Vec::with_capacity(n),
            ..LinkTable::default()
        };
        for (i, (name, [(ha, ia), (hb, ib)], subnet)) in links.enumerate() {
            let ix = LinkIx(i as u32);
            let is_cpe = ha.starts_with("cust") || hb.starts_with("cust");
            t.classes.push(if is_cpe {
                LinkClass::Cpe
            } else {
                LinkClass::Core
            });
            t.windows.push(windows(&name, subnet));
            let host_a = t.symbols.intern(ha);
            let iface_a = t.symbols.intern(ia);
            let host_b = t.symbols.intern(hb);
            let iface_b = t.symbols.intern(ib);
            t.by_iface.insert((host_a, iface_a), ix);
            t.by_iface.insert((host_b, iface_b), ix);
            t.by_subnet.insert(subnet, ix);
            t.pair_keys.push(Self::pair_key(host_a, host_b));
            t.names.push(name);
        }
        // Hostname TLVs in system-ID order: `hostnames` is a `HashMap`,
        // whose iteration order must never leak into id assignment.
        let mut tlv: Vec<(SystemId, &String)> = hostnames.iter().map(|(k, v)| (*k, v)).collect();
        tlv.sort_by_key(|&(id, _)| id);
        // Which system IDs claim each hostname — more than one when
        // duplicate hostname TLVs name one router twice — as a sorted
        // multimap.
        let mut claims: Vec<(Sym, SystemId)> = Vec::with_capacity(tlv.len());
        t.host_of_sysid = FastMap::with_capacity_and_hasher(tlv.len(), Default::default());
        for (id, host) in tlv {
            let sym = t.symbols.intern(host);
            t.host_of_sysid.insert(id, sym);
            claims.push((sym, id));
        }
        claims.sort_unstable();
        let claimed = |sym: Sym| {
            let from = claims.partition_point(|&(s, _)| s < sym);
            let to = claims.partition_point(|&(s, _)| s <= sym);
            &claims[from..to]
        };
        t.resolvable = vec![true; n];
        t.pair_links = t.iter().collect();
        t.pair_links
            .sort_unstable_by_key(|&ix| (t.pair_keys[ix.0 as usize], ix));
        // Flatten sysid-pair resolution into one probe: cross every pair
        // of system IDs claiming the pair's two hostnames.
        let mut from = 0;
        for members in t
            .pair_links
            .chunk_by(|x, y| t.pair_keys[x.0 as usize] == t.pair_keys[y.0 as usize])
        {
            let range = (from, from + members.len() as u32);
            from = range.1;
            if members.len() > 1 {
                for &m in members {
                    t.resolvable[m.0 as usize] = false;
                }
            }
            let (ha, hb) = t.pair_keys[members[0].0 as usize];
            for &(_, sa) in claimed(ha) {
                for &(_, sb) in claimed(hb) {
                    let key = if sa <= sb { (sa, sb) } else { (sb, sa) };
                    t.by_sysid.insert(key, range);
                }
            }
        }
        t
    }

    /// Canonical unordered-pair key: the smaller id first. Allocation-free
    /// (the pre-interning version built two fresh `String`s per call) and
    /// partition-equivalent to ordering by hostname, since every insert
    /// and lookup canonicalizes the same way.
    fn pair_key(a: Sym, b: Sym) -> (Sym, Sym) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if mining recovered nothing.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Canonical name of a link.
    pub fn name(&self, ix: LinkIx) -> &LinkName {
        &self.names[ix.0 as usize]
    }

    /// Core or CPE.
    pub fn class(&self, ix: LinkIx) -> LinkClass {
        self.classes[ix.0 as usize]
    }

    /// Active window of a link.
    pub fn window(&self, ix: LinkIx) -> (Timestamp, Timestamp) {
        self.windows[ix.0 as usize]
    }

    /// Active years of a link (annualization denominator, Table 5).
    pub fn years(&self, ix: LinkIx) -> f64 {
        let (from, to) = self.windows[ix.0 as usize];
        (to - from).as_years_f64()
    }

    /// Resolve a syslog-side key. Allocation-free: both strings are
    /// looked up in the interner and the map is keyed on the resulting
    /// id pair.
    pub fn by_interface(&self, host: &str, iface: &InterfaceName) -> Option<LinkIx> {
        self.by_interface_sym(host, iface).map(|(ix, _)| ix)
    }

    /// Resolve a syslog-side key, also returning the interned host
    /// symbol so callers can keep a shared handle to the hostname
    /// (via [`SymbolTable::shared`]) without cloning it.
    pub fn by_interface_sym(&self, host: &str, iface: &InterfaceName) -> Option<(LinkIx, Sym)> {
        let h = self.symbols.lookup(host)?;
        let i = self.symbols.lookup(iface.as_str())?;
        self.by_iface.get(&(h, i)).map(|&ix| (ix, h))
    }

    /// Resolve an IP-reachability-side key.
    pub fn by_subnet(&self, subnet: Subnet31) -> Option<LinkIx> {
        self.by_subnet.get(&subnet).copied()
    }

    /// Resolve an IS-reachability-side key: the links between two routers
    /// identified by system ID. More than one entry is a *multi-link
    /// adjacency* — unresolvable from IS reachability alone (§3.4).
    pub fn by_sysid_pair(&self, a: SystemId, b: SystemId) -> &[LinkIx] {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.by_sysid.get(&key).map_or(&[], |&(from, to)| {
            &self.pair_links[from as usize..to as usize]
        })
    }

    /// Hostname for a system ID (learned from hostname TLVs).
    pub fn hostname(&self, sysid: SystemId) -> Option<&str> {
        self.host_of_sysid
            .get(&sysid)
            .map(|&s| self.symbols.resolve(s))
    }

    /// The table's interner over every hostname and interface name it
    /// knows. Lets callers resolve or share [`Sym`]s handed out by
    /// [`LinkTable::by_interface_sym`].
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// All link indices.
    pub fn iter(&self) -> impl Iterator<Item = LinkIx> + '_ {
        (0..self.names.len() as u32).map(LinkIx)
    }

    /// Links whose state IS reachability can resolve (i.e. not part of a
    /// multi-link adjacency). The paper omits multi-link members, ~20% of
    /// physical links.
    pub fn is_resolvable(&self, ix: LinkIx) -> bool {
        self.resolvable[ix.0 as usize]
    }

    /// Number of multi-link router pairs.
    pub fn multi_link_pairs(&self) -> usize {
        let key = |ix: &LinkIx| self.pair_keys[ix.0 as usize];
        (self.pair_links.chunk_by(|x, y| key(x) == key(y)))
            .filter(|v| v.len() > 1)
            .count()
    }

    /// The interned `(Sym, Sym)` key the cluster partitioner hashes for
    /// a link: the canonical (smaller-id-first) pair of its endpoint
    /// hostnames. Every member of a multi-link adjacency shares the same
    /// key, so parallel links — and the IS-reachability events that can
    /// only be resolved to the *pair* — always land on the same shard.
    /// Interning is deterministic per scenario, so the key (and therefore
    /// the shard assignment) is stable across processes.
    pub fn shard_key(&self, ix: LinkIx) -> (Sym, Sym) {
        self.pair_keys[ix.0 as usize]
    }
}

/// Build the standard `LinkTable` for a simulated scenario: render the
/// config archive from the topology, mine it, and attach the listener's
/// hostname map and the per-link windows.
///
/// # Examples
///
/// ```
/// use faultline_core::linktable::from_scenario;
/// use faultline_sim::scenario::{run, ScenarioParams};
///
/// let data = run(&ScenarioParams::tiny(3));
/// let table = from_scenario(&data);
/// assert_eq!(table.len(), data.topology.links().len());
///
/// // Every topology link resolves through its unique /31 subnet to the
/// // same canonical name the config archive records.
/// let link = &data.topology.links()[0];
/// let ix = table.by_subnet(link.subnet).expect("mined");
/// assert_eq!(table.name(ix), &data.topology.link_name(link.id));
/// ```
pub fn from_scenario(data: &ScenarioData) -> LinkTable {
    Naming::mine(data).table
}

/// The naming layer a run resolves through: the mined [`LinkTable`] plus
/// the join from its indices to the topology's own link ids. A run builds
/// it once and every kernel it starts in this process shares it behind
/// one `Arc`.
#[derive(Debug, Clone)]
pub(crate) struct Naming {
    pub(crate) table: LinkTable,
    /// Analysis-index → topology-id translation (via unique /31s),
    /// indexed by `LinkIx`.
    pub(crate) link_of_ix: Vec<Option<LinkId>>,
}

impl Naming {
    /// Render the scenario's config archive, mine it, and join each mined
    /// link to the topology link numbered from the same /31 — which gives
    /// both its window and its topology id in one walk. A mined link with
    /// no such topology link is active over the whole period.
    pub(crate) fn mine(data: &ScenarioData) -> Naming {
        let mut archive = faultline_topology::config::mine_archive(&data.topology);
        let mined = archive.drain_links();
        let links = data.topology.links();
        let mut by_subnet: FastMap<Subnet31, LinkId> =
            FastMap::with_capacity_and_hasher(links.len(), Default::default());
        for l in links {
            by_subnet.insert(l.subnet, l.id);
        }
        let period = (
            Timestamp::EPOCH,
            Timestamp::from_millis((data.period_days * 86_400_000.0) as u64),
        );
        let mut link_of_ix = Vec::with_capacity(mined.len());
        let table = LinkTable::build(mined, &data.hostnames, |_, subnet| {
            let id = by_subnet.get(&subnet).copied();
            link_of_ix.push(id);
            let Some(id) = id else {
                return period;
            };
            data.link_windows
                .get(id.0 as usize)
                .map_or(period, |w| (w.from, w.to))
        });
        Naming { table, link_of_ix }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A naming layer of one resolvable, nameless link per topology id
    /// given: what a lane reads of its link, without a scenario.
    pub(crate) fn resolvable_naming(link_of_ix: Vec<Option<LinkId>>) -> Naming {
        let table = LinkTable {
            resolvable: vec![true; link_of_ix.len()],
            ..LinkTable::default()
        };
        Naming { table, link_of_ix }
    }
    use faultline_sim::scenario::{run, ScenarioParams};
    use faultline_topology::config::mine_topology;
    use faultline_topology::generator::CenicParams;

    fn table_for(seed: u64) -> (faultline_topology::Topology, LinkTable) {
        let topo = CenicParams::tiny(seed).generate();
        let inventory = mine_topology(&topo);
        let hostnames: HashMap<SystemId, String> = topo
            .routers()
            .iter()
            .map(|r| (r.system_id, r.hostname.clone()))
            .collect();
        let table = LinkTable::new(&inventory, &hostnames, |_| {
            (Timestamp::EPOCH, Timestamp::from_secs(86_400 * 365))
        });
        (topo, table)
    }

    #[test]
    fn covers_all_mined_links() {
        let (topo, table) = table_for(3);
        assert_eq!(table.len(), topo.links().len());
        assert!(!table.is_empty());
    }

    #[test]
    fn interface_resolution_matches_topology() {
        let (topo, table) = table_for(3);
        for l in topo.links() {
            for ep in [&l.a, &l.b] {
                let host = &topo.router(ep.router).hostname;
                let ix = table
                    .by_interface(host, &ep.interface)
                    .unwrap_or_else(|| panic!("unresolved {host}:{}", ep.interface));
                assert_eq!(table.name(ix), &topo.link_name(l.id));
            }
        }
    }

    #[test]
    fn subnet_resolution_matches_topology() {
        let (topo, table) = table_for(4);
        for l in topo.links() {
            let ix = table.by_subnet(l.subnet).expect("subnet resolvable");
            assert_eq!(table.name(ix), &topo.link_name(l.id));
        }
    }

    #[test]
    fn sysid_pair_resolution_and_multilink() {
        let (topo, table) = table_for(5);
        assert_eq!(table.multi_link_pairs(), topo.multi_link_pairs());
        for l in topo.links() {
            let sa = topo.router(l.a.router).system_id;
            let sb = topo.router(l.b.router).system_id;
            let links = table.by_sysid_pair(sa, sb);
            assert_eq!(
                links.len(),
                topo.links_between(l.a.router, l.b.router).len()
            );
        }
    }

    #[test]
    fn class_inferred_from_hostnames() {
        let (topo, table) = table_for(6);
        for l in topo.links() {
            let name = topo.link_name(l.id);
            let ix = table.by_subnet(l.subnet).unwrap();
            assert_eq!(table.class(ix), l.class, "misclassified {name}");
        }
    }

    #[test]
    fn resolvability_excludes_parallel_members() {
        let (topo, table) = table_for(7);
        let mut unresolvable = 0;
        for ix in table.iter() {
            if !table.is_resolvable(ix) {
                unresolvable += 1;
            }
        }
        let expected: usize = topo
            .links()
            .iter()
            .filter(|l| l.parallel_group.is_some())
            .count();
        assert_eq!(unresolvable, expected);
    }

    #[test]
    fn from_scenario_builds_consistent_table() {
        let data = run(&ScenarioParams::tiny(3));
        let table = from_scenario(&data);
        assert_eq!(table.len(), data.topology.links().len());
        // Windows must mirror the scenario's.
        for (i, w) in data.link_windows.iter().enumerate() {
            let name = data
                .topology
                .link_name(faultline_topology::link::LinkId(i as u32));
            let ix = table
                .iter()
                .find(|&ix| table.name(ix).to_string() == name.to_string())
                .unwrap();
            assert_eq!(table.window(ix), (w.from, w.to));
        }
    }

    #[test]
    fn unknown_keys_resolve_to_nothing() {
        let (_, table) = table_for(8);
        assert!(table
            .by_interface("nonexistent", &InterfaceName::gig(0))
            .is_none());
        assert!(table
            .by_sysid_pair(SystemId::from_index(9999), SystemId::from_index(9998))
            .is_empty());
    }
}
