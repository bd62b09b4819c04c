//! The link table is built once per run and cheaper than it used to be:
//! windows and the topology join are found by /31, the host-pair groups
//! are not cloned per system-ID pair, mining groups interfaces with one
//! sort, and configs render their fixed text without the formatter. None
//! of that may move a bit of the table.
//!
//! `mod reference` keeps the build as it was — `from_scenario`,
//! `LinkTable::new` and the resolution methods, `mine` and
//! `render_config` — verbatim apart from paths. Every answer the public
//! API gives must be the same from both, over tiny seeds × the chaos
//! presets (clean, mild, moderate), hostname maps with missing and
//! doubly claimed names, and one scenario at ten times the paper's links.

use faultline_core::linktable::{from_scenario, LinkTable};
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_sim::{ChaosConfig, ScenarioData};
use faultline_topology::config::render_config;
use faultline_topology::interface::InterfaceName;
use faultline_topology::osi::SystemId;
use faultline_topology::subnet::Subnet31;
use std::net::Ipv4Addr;

mod reference {
    use faultline_core::intern::{FastMap, Sym, SymbolTable};
    use faultline_core::linktable::LinkIx;
    use faultline_topology::config::{parse_config, MinedInterface, MinedInventory, MinedLink};
    use faultline_topology::interface::InterfaceName;
    use faultline_topology::link::{LinkClass, LinkName};
    use faultline_topology::osi::SystemId;
    use faultline_topology::subnet::Subnet31;
    use faultline_topology::time::Timestamp;
    use faultline_topology::Topology;
    use std::collections::HashMap;
    use std::fmt::Write as _;

    pub fn render_config(topo: &Topology, router: faultline_topology::router::RouterId) -> String {
        let r = topo.router(router);
        let mut out = String::new();
        writeln!(out, "!").unwrap();
        writeln!(out, "! {} running configuration", r.hostname).unwrap();
        writeln!(out, "!").unwrap();
        writeln!(out, "hostname {}", r.hostname).unwrap();
        writeln!(out, "!").unwrap();
        writeln!(out, "router isis cenic").unwrap();
        writeln!(out, " net {}", r.net()).unwrap();
        writeln!(out, " is-type level-2-only").unwrap();
        writeln!(out, "!").unwrap();

        for &lid in topo.links_of(router) {
            let link = topo.link(lid);
            let local = link
                .endpoint_on(router)
                .expect("links_of returns incident links");
            let remote_router = link
                .other_end(router)
                .expect("links_of returns incident links");
            let remote = link
                .endpoint_on(remote_router)
                .expect("other end is an endpoint");
            let remote_name = &topo.router(remote_router).hostname;
            let local_key = (r.hostname.as_str(), local.interface.as_str());
            let remote_key = (remote_name.as_str(), remote.interface.as_str());
            let addr = if local_key <= remote_key {
                link.subnet.low()
            } else {
                link.subnet.high()
            };
            writeln!(out, "interface {}", local.interface).unwrap();
            writeln!(
                out,
                " description {} to {} {}",
                r.hostname, remote_name, remote.interface
            )
            .unwrap();
            writeln!(out, " ip address {} {}", addr, Subnet31::netmask()).unwrap();
            writeln!(out, " ip router isis cenic").unwrap();
            writeln!(out, " isis metric {}", link.metric).unwrap();
            writeln!(out, "!").unwrap();
        }
        out
    }

    pub fn render_archive(topo: &Topology) -> HashMap<String, String> {
        topo.routers()
            .iter()
            .map(|r| (r.hostname.clone(), render_config(topo, r.id)))
            .collect()
    }

    pub fn mine<'a>(configs: impl IntoIterator<Item = &'a str>) -> MinedInventory {
        let mut by_subnet: HashMap<Subnet31, Vec<MinedInterface>> = HashMap::new();
        let mut system_ids = HashMap::new();
        for text in configs {
            let (hostname, net, ifaces) = parse_config(text);
            if let (Some(h), Some(n)) = (&hostname, net) {
                system_ids.insert(h.clone(), n.system_id);
            }
            for i in ifaces {
                by_subnet.entry(i.subnet).or_default().push(i);
            }
        }

        let mut links = Vec::new();
        let mut unpaired = Vec::new();
        let mut subnets: Vec<_> = by_subnet.into_iter().collect();
        subnets.sort_by_key(|(s, _)| *s);
        for (subnet, mut ifaces) in subnets {
            match ifaces.len() {
                2 => {
                    ifaces.sort_by(|x, y| {
                        (&x.hostname, x.interface.as_str())
                            .cmp(&(&y.hostname, y.interface.as_str()))
                    });
                    let (i1, i2) = (ifaces.remove(0), ifaces.remove(0));
                    let name = LinkName::new(
                        &i1.hostname,
                        i1.interface.as_str(),
                        &i2.hostname,
                        i2.interface.as_str(),
                    );
                    links.push(MinedLink {
                        name,
                        a: (i1.hostname, i1.interface),
                        b: (i2.hostname, i2.interface),
                        subnet,
                    });
                }
                _ => unpaired.extend(ifaces),
            }
        }
        links.sort_by(|a, b| a.name.cmp(&b.name));
        MinedInventory {
            links,
            system_ids,
            unpaired,
        }
    }

    pub fn mine_topology(topo: &Topology) -> MinedInventory {
        let archive = render_archive(topo);
        mine(archive.values().map(String::as_str))
    }

    #[derive(Debug, Clone, Default)]
    pub struct LinkTable {
        names: Vec<LinkName>,
        classes: Vec<LinkClass>,
        windows: Vec<(Timestamp, Timestamp)>,
        symbols: SymbolTable,
        by_iface: FastMap<(Sym, Sym), LinkIx>,
        by_subnet: FastMap<Subnet31, LinkIx>,
        by_hostpair: FastMap<(Sym, Sym), Vec<LinkIx>>,
        pair_keys: Vec<(Sym, Sym)>,
        host_of_sysid: FastMap<SystemId, Sym>,
        by_sysid: FastMap<(SystemId, SystemId), Vec<LinkIx>>,
        resolvable: Vec<bool>,
    }

    impl LinkTable {
        pub fn new(
            inventory: &MinedInventory,
            hostnames: &HashMap<SystemId, String>,
            windows: impl Fn(&LinkName) -> (Timestamp, Timestamp),
        ) -> Self {
            let mut t = LinkTable::default();
            for (i, l) in inventory.links.iter().enumerate() {
                let ix = LinkIx(i as u32);
                t.names.push(l.name.clone());
                let is_cpe = l.a.0.starts_with("cust") || l.b.0.starts_with("cust");
                t.classes.push(if is_cpe {
                    LinkClass::Cpe
                } else {
                    LinkClass::Core
                });
                t.windows.push(windows(&l.name));
                let host_a = t.symbols.intern(&l.a.0);
                let iface_a = t.symbols.intern(l.a.1.as_str());
                let host_b = t.symbols.intern(&l.b.0);
                let iface_b = t.symbols.intern(l.b.1.as_str());
                t.by_iface.insert((host_a, iface_a), ix);
                t.by_iface.insert((host_b, iface_b), ix);
                t.by_subnet.insert(l.subnet, ix);
                let pair = Self::pair_key(host_a, host_b);
                t.pair_keys.push(pair);
                t.by_hostpair.entry(pair).or_default().push(ix);
            }
            let mut tlv: Vec<(SystemId, &String)> =
                hostnames.iter().map(|(k, v)| (*k, v)).collect();
            tlv.sort_by_key(|&(id, _)| id);
            for (id, host) in tlv {
                let sym = t.symbols.intern(host);
                t.host_of_sysid.insert(id, sym);
            }
            t.resolvable = vec![true; t.names.len()];
            for members in t.by_hostpair.values() {
                if members.len() > 1 {
                    for &m in members {
                        t.resolvable[m.0 as usize] = false;
                    }
                }
            }
            let mut sysids_of_sym: FastMap<Sym, Vec<SystemId>> = FastMap::default();
            for (&id, &sym) in &t.host_of_sysid {
                sysids_of_sym.entry(sym).or_default().push(id);
            }
            for (&(ha, hb), links) in &t.by_hostpair {
                let (Some(sas), Some(sbs)) = (sysids_of_sym.get(&ha), sysids_of_sym.get(&hb))
                else {
                    continue;
                };
                for &sa in sas {
                    for &sb in sbs {
                        let key = if sa <= sb { (sa, sb) } else { (sb, sa) };
                        t.by_sysid.insert(key, links.clone());
                    }
                }
            }
            t
        }

        fn pair_key(a: Sym, b: Sym) -> (Sym, Sym) {
            if a <= b {
                (a, b)
            } else {
                (b, a)
            }
        }

        pub fn len(&self) -> usize {
            self.names.len()
        }

        pub fn name(&self, ix: LinkIx) -> &LinkName {
            &self.names[ix.0 as usize]
        }

        pub fn class(&self, ix: LinkIx) -> LinkClass {
            self.classes[ix.0 as usize]
        }

        pub fn window(&self, ix: LinkIx) -> (Timestamp, Timestamp) {
            self.windows[ix.0 as usize]
        }

        pub fn by_interface(&self, host: &str, iface: &InterfaceName) -> Option<LinkIx> {
            let h = self.symbols.lookup(host)?;
            let i = self.symbols.lookup(iface.as_str())?;
            self.by_iface.get(&(h, i)).copied()
        }

        pub fn by_subnet(&self, subnet: Subnet31) -> Option<LinkIx> {
            self.by_subnet.get(&subnet).copied()
        }

        pub fn by_sysid_pair(&self, a: SystemId, b: SystemId) -> &[LinkIx] {
            let key = if a <= b { (a, b) } else { (b, a) };
            self.by_sysid.get(&key).map(Vec::as_slice).unwrap_or(&[])
        }

        pub fn hostname(&self, sysid: SystemId) -> Option<&str> {
            self.host_of_sysid
                .get(&sysid)
                .map(|&s| self.symbols.resolve(s))
        }

        pub fn symbols(&self) -> &SymbolTable {
            &self.symbols
        }

        pub fn is_resolvable(&self, ix: LinkIx) -> bool {
            self.resolvable[ix.0 as usize]
        }

        pub fn multi_link_pairs(&self) -> usize {
            self.by_hostpair.values().filter(|v| v.len() > 1).count()
        }

        pub fn shard_key(&self, ix: LinkIx) -> (Sym, Sym) {
            self.pair_keys[ix.0 as usize]
        }
    }

    pub fn from_scenario(data: &faultline_sim::ScenarioData) -> LinkTable {
        let inventory = mine_topology(&data.topology);
        // Windows are keyed by canonical name; build the lookup from the
        // topology's own names.
        let mut window_of: HashMap<String, (Timestamp, Timestamp)> = HashMap::new();
        for (i, w) in data.link_windows.iter().enumerate() {
            let name = data
                .topology
                .link_name(faultline_topology::link::LinkId(i as u32));
            window_of.insert(name.to_string(), (w.from, w.to));
        }
        let period_end = Timestamp::from_millis((data.period_days * 86_400_000.0) as u64);
        LinkTable::new(&inventory, &data.hostnames, |name| {
            window_of
                .get(&name.to_string())
                .copied()
                .unwrap_or((Timestamp::EPOCH, period_end))
        })
    }
}

/// Every answer the public API gives, from both builds.
fn assert_same_table(data: &ScenarioData, what: &str) {
    let built: LinkTable = from_scenario(data);
    let want = reference::from_scenario(data);
    assert_eq!(built.len(), want.len(), "{what}: link count");
    for ix in built.iter() {
        assert_eq!(built.name(ix), want.name(ix), "{what}: name of {ix:?}");
        assert_eq!(built.class(ix), want.class(ix), "{what}: class of {ix:?}");
        assert_eq!(
            built.window(ix),
            want.window(ix),
            "{what}: window of {ix:?}"
        );
        assert_eq!(
            built.shard_key(ix),
            want.shard_key(ix),
            "{what}: shard key of {ix:?}"
        );
        assert_eq!(
            built.is_resolvable(ix),
            want.is_resolvable(ix),
            "{what}: resolvability of {ix:?}"
        );
    }
    assert_eq!(
        built.multi_link_pairs(),
        want.multi_link_pairs(),
        "{what}: multi-link pairs"
    );
    assert!(
        built.symbols() == want.symbols(),
        "{what}: symbol tables differ"
    );

    let topo = &data.topology;
    for r in topo.routers() {
        assert_eq!(
            render_config(topo, r.id),
            reference::render_config(topo, r.id),
            "{what}: config of {}",
            r.hostname
        );
    }
    let foreign = Subnet31::new(Ipv4Addr::new(203, 0, 113, 0));
    for subnet in topo.links().iter().map(|l| l.subnet).chain([foreign]) {
        assert_eq!(
            built.by_subnet(subnet),
            want.by_subnet(subnet),
            "{what}: by_subnet({subnet})"
        );
    }
    let mut endpoints: Vec<(String, InterfaceName)> = topo
        .links()
        .iter()
        .flat_map(|l| [&l.a, &l.b])
        .map(|ep| {
            (
                topo.router(ep.router).hostname.clone(),
                ep.interface.clone(),
            )
        })
        .collect();
    endpoints.push(("nonexistent".to_string(), InterfaceName::gig(0)));
    if let Some((host, _)) = endpoints.first().cloned() {
        endpoints.push((host, InterfaceName::from("Loopback0")));
    }
    for (host, iface) in &endpoints {
        assert_eq!(
            built.by_interface(host, iface),
            want.by_interface(host, iface),
            "{what}: by_interface({host}, {iface})"
        );
    }

    // Every system ID either side could know: the topology's and the
    // listener's (which chaos can leave short or let two IDs claim one
    // name), plus one nobody advertised.
    let mut sysids: Vec<SystemId> = topo.routers().iter().map(|r| r.system_id).collect();
    sysids.extend(data.hostnames.keys().copied());
    sysids.push(SystemId::from_index(999_999));
    sysids.sort();
    sysids.dedup();
    for &id in &sysids {
        assert_eq!(
            built.hostname(id),
            want.hostname(id),
            "{what}: hostname({id})"
        );
    }
    let mut pairs: Vec<(SystemId, SystemId)> = topo
        .links()
        .iter()
        .map(|l| {
            (
                topo.router(l.a.router).system_id,
                topo.router(l.b.router).system_id,
            )
        })
        .flat_map(|(a, b)| [(a, b), (b, a), (a, a)])
        .collect();
    if sysids.len() <= 64 {
        for &a in &sysids {
            pairs.extend(sysids.iter().map(|&b| (a, b)));
        }
    } else {
        pairs.extend(sysids.windows(2).map(|w| (w[0], w[1])));
    }
    for (a, b) in pairs {
        assert_eq!(
            built.by_sysid_pair(a, b),
            want.by_sysid_pair(a, b),
            "{what}: by_sysid_pair({a}, {b})"
        );
    }
}

#[test]
fn tiny_scenarios_build_the_reference_table_under_every_chaos_preset() {
    for seed in [1u64, 3, 7, 11, 42] {
        for preset in ["clean", "mild", "moderate"] {
            let mut params = ScenarioParams::tiny(seed);
            params.chaos = match preset {
                "mild" => ChaosConfig::mild(seed * 31),
                "moderate" => ChaosConfig::moderate(seed * 31),
                _ => ChaosConfig::default(),
            };
            assert_same_table(&run(&params), &format!("seed {seed}, {preset}"));
        }
    }
}

/// The listener's hostname map is the one input a scenario always gets
/// right. A real one can miss a router's hostname TLV or hear two system
/// IDs claim one name; the sysid-pair answers must cross every claim.
#[test]
fn missing_and_doubly_claimed_hostnames_build_the_reference_table() {
    for seed in [3u64, 11] {
        let mut data = run(&ScenarioParams::tiny(seed));
        let routers = data.topology.routers();
        let (r0, r1, r2, r3) = (&routers[0], &routers[1], &routers[2], &routers[3]);
        let mut hostnames = data.hostnames.clone();
        hostnames.remove(&r0.system_id);
        hostnames.insert(r1.system_id, r2.hostname.clone());
        hostnames.insert(SystemId::from_index(999_998), r3.hostname.clone());
        data.hostnames = hostnames;
        assert_same_table(&data, &format!("seed {seed}, perturbed hostnames"));
    }
}

#[test]
fn a_tenfold_scenario_builds_the_reference_table() {
    let data = run(&ScenarioParams::sized(5, 10.0, 2.0));
    assert!(data.topology.links().len() > 2_000);
    assert_same_table(&data, "sized(5, 10.0, 2.0)");
}
