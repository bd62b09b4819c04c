//! Cisco-IOS-style configuration rendering and mining.
//!
//! The paper never receives a topology database from the operator; it
//! *mines* an archive of 11,623 router configuration files to learn which
//! interfaces exist, which /31 each is numbered from, and therefore which
//! interface pairs form links (§3.4). The reproduction does the same: the
//! simulator renders a config per router with [`render_config`], and the
//! analysis pipeline reconstructs the link inventory with [`mine`] —
//! pairing interfaces through their shared /31 subnets — rather than
//! peeking at the generator's ground-truth topology.

use crate::interface::InterfaceName;
use crate::link::LinkName;
use crate::osi::{Net, SystemId};
use crate::subnet::Subnet31;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

/// Render the running-config of one router in the topology.
///
/// The output is a simplified but syntactically faithful IOS-style config:
/// `hostname`, a `router isis` stanza carrying the NET, and one `interface`
/// stanza per link endpoint with description, /31 address, and IS-IS
/// activation.
pub fn render_config(topo: &Topology, router: crate::router::RouterId) -> String {
    let r = topo.router(router);
    let links = topo.links_of(router);
    // Fixed text goes in with `push_str`; only the addresses, the NET and
    // the metric go through the formatter.
    let mut out = String::with_capacity(160 + 200 * links.len());
    for part in [
        "!\n! ",
        &r.hostname,
        " running configuration\n!\nhostname ",
        &r.hostname,
        "\n!\nrouter isis cenic\n",
    ] {
        out.push_str(part);
    }
    writeln!(out, " net {}", r.net()).unwrap();
    out.push_str(" is-type level-2-only\n!\n");

    for &lid in links {
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
        // The even /31 address goes to the endpoint with the lexically
        // smaller (hostname, interface); the odd one to the other. Both
        // renderer and miner rely only on subnet membership, so the rule
        // just needs to be consistent.
        let local_key = (r.hostname.as_str(), local.interface.as_str());
        let remote_key = (remote_name.as_str(), remote.interface.as_str());
        let addr = if local_key <= remote_key {
            link.subnet.low()
        } else {
            link.subnet.high()
        };
        for part in [
            "interface ",
            local.interface.as_str(),
            "\n description ",
            &r.hostname,
            " to ",
            remote_name,
            " ",
            remote.interface.as_str(),
            "\n",
        ] {
            out.push_str(part);
        }
        writeln!(out, " ip address {} {}", addr, Subnet31::netmask()).unwrap();
        out.push_str(" ip router isis cenic\n");
        writeln!(out, " isis metric {}", link.metric).unwrap();
        out.push_str("!\n");
    }
    out
}

/// Render every router's config, keyed by hostname — the "archive of
/// configuration files" the miner consumes.
pub fn render_archive(topo: &Topology) -> HashMap<String, String> {
    topo.routers()
        .iter()
        .map(|r| (r.hostname.clone(), render_config(topo, r.id)))
        .collect()
}

/// One interface record recovered from a config file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MinedInterface {
    /// Hostname of the router the config belongs to.
    pub hostname: String,
    /// Interface name.
    pub interface: InterfaceName,
    /// Configured address.
    pub address: Ipv4Addr,
    /// The /31 the address lives in.
    pub subnet: Subnet31,
    /// IS-IS metric, if configured.
    pub metric: Option<u32>,
}

/// One link recovered by pairing two interface records through a shared
/// /31.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MinedLink {
    /// Canonical §3.4 name.
    pub name: LinkName,
    /// First endpoint, `(hostname, interface)`, lexically smaller.
    pub a: (String, InterfaceName),
    /// Second endpoint.
    pub b: (String, InterfaceName),
    /// The shared /31.
    pub subnet: Subnet31,
}

/// The full inventory mined from a config archive: the common naming layer
/// both the syslog and IS-IS pipelines resolve into.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MinedInventory {
    /// All recovered links.
    pub links: Vec<MinedLink>,
    /// Hostname → system ID, from the `net` statements.
    pub system_ids: HashMap<String, SystemId>,
    /// Interfaces that had an address but no /31 partner in the archive
    /// (e.g. links to devices whose configs are missing). The paper's
    /// pipeline must tolerate these.
    pub unpaired: Vec<MinedInterface>,
}

impl MinedInventory {
    /// System ID → hostname (inverse of the `net` map).
    pub fn hostname_of_sysid(&self) -> HashMap<SystemId, String> {
        self.system_ids
            .iter()
            .map(|(h, s)| (*s, h.clone()))
            .collect()
    }

    /// `(hostname, interface) → index into links`.
    pub fn link_of_interface(&self) -> HashMap<(String, InterfaceName), usize> {
        let mut map = HashMap::new();
        for (i, l) in self.links.iter().enumerate() {
            map.insert((l.a.0.clone(), l.a.1.clone()), i);
            map.insert((l.b.0.clone(), l.b.1.clone()), i);
        }
        map
    }

    /// `/31 subnet → index into links`.
    pub fn link_of_subnet(&self) -> HashMap<Subnet31, usize> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (l.subnet, i))
            .collect()
    }

    /// Unordered hostname pair → indices of all parallel links between the
    /// two routers.
    pub fn links_between_hostnames(&self) -> HashMap<(String, String), Vec<usize>> {
        let mut map: HashMap<(String, String), Vec<usize>> = HashMap::new();
        for (i, l) in self.links.iter().enumerate() {
            let key = if l.a.0 <= l.b.0 {
                (l.a.0.clone(), l.b.0.clone())
            } else {
                (l.b.0.clone(), l.a.0.clone())
            };
            map.entry(key).or_default().push(i);
        }
        map
    }
}

/// Parse a single config file into its hostname, NET, and interface
/// records. Lines that don't match the expected grammar are skipped, as a
/// real miner must tolerate the full richness of production configs.
pub fn parse_config(text: &str) -> (Option<String>, Option<Net>, Vec<MinedInterface>) {
    let mut hostname: Option<String> = None;
    let mut net: Option<Net> = None;
    let mut interfaces = Vec::new();
    let mut current_iface: Option<InterfaceName> = None;
    let mut current_metric: Option<u32> = None;
    let mut current_addr: Option<Ipv4Addr> = None;

    let flush = |iface: &mut Option<InterfaceName>,
                 addr: &mut Option<Ipv4Addr>,
                 metric: &mut Option<u32>,
                 hostname: &Option<String>,
                 out: &mut Vec<MinedInterface>| {
        if let (Some(i), Some(a)) = (iface.take(), addr.take()) {
            if let Some(h) = hostname {
                out.push(MinedInterface {
                    hostname: h.clone(),
                    interface: i,
                    address: a,
                    subnet: Subnet31::containing(a),
                    metric: metric.take(),
                });
            }
        }
        *iface = None;
        *addr = None;
        *metric = None;
    };

    for raw in text.lines() {
        let line = raw.trim_end();
        if let Some(rest) = line.strip_prefix("hostname ") {
            hostname = Some(rest.trim().to_string());
        } else if let Some(rest) = line.trim_start().strip_prefix("net ") {
            net = rest.trim().parse::<Net>().ok();
        } else if let Some(rest) = line.strip_prefix("interface ") {
            flush(
                &mut current_iface,
                &mut current_addr,
                &mut current_metric,
                &hostname,
                &mut interfaces,
            );
            current_iface = Some(InterfaceName::expand(rest.trim()));
        } else if let Some(rest) = line.trim_start().strip_prefix("ip address ") {
            // "ip address A.B.C.D 255.255.255.254"
            let mut it = rest.split_whitespace();
            if let (Some(addr), Some(mask)) = (it.next(), it.next()) {
                if mask == "255.255.255.254" {
                    current_addr = addr.parse().ok();
                }
            }
        } else if let Some(rest) = line.trim_start().strip_prefix("isis metric ") {
            current_metric = rest.trim().parse().ok();
        } else if line == "!" {
            flush(
                &mut current_iface,
                &mut current_addr,
                &mut current_metric,
                &hostname,
                &mut interfaces,
            );
        }
    }
    flush(
        &mut current_iface,
        &mut current_addr,
        &mut current_metric,
        &hostname,
        &mut interfaces,
    );
    (hostname, net, interfaces)
}

/// Mine a config archive into a link inventory by pairing interfaces that
/// share a /31 subnet.
pub fn mine<'a>(configs: impl IntoIterator<Item = &'a str>) -> MinedInventory {
    let mut ifaces: Vec<MinedInterface> = Vec::new();
    let mut system_ids = HashMap::new();
    for text in configs {
        let (hostname, net, parsed) = parse_config(text);
        if let (Some(h), Some(n)) = (hostname, net) {
            system_ids.insert(h, n.system_id);
        }
        ifaces.extend(parsed);
    }

    // Group by subnet, in subnet order and, within a subnet, in archive
    // order — deterministic regardless of how the archive was iterated.
    let mut order: Vec<(Subnet31, usize)> = ifaces
        .iter()
        .enumerate()
        .map(|(i, iface)| (iface.subnet, i))
        .collect();
    order.sort_unstable();
    let mut links = Vec::with_capacity(order.len() / 2);
    let mut unpaired = Vec::new();
    for group in order.chunk_by(|x, y| x.0 == y.0) {
        if let [(subnet, i), (_, j)] = *group {
            let (mut i1, mut i2) = (
                take_interface(&mut ifaces[i]),
                take_interface(&mut ifaces[j]),
            );
            if (&i2.hostname, i2.interface.as_str()) < (&i1.hostname, i1.interface.as_str()) {
                std::mem::swap(&mut i1, &mut i2);
            }
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
        } else {
            unpaired.extend(group.iter().map(|&(_, i)| take_interface(&mut ifaces[i])));
        }
    }
    links.sort_by(|a, b| a.name.cmp(&b.name));
    MinedInventory {
        links,
        system_ids,
        unpaired,
    }
}

/// Move an interface record out of `slot`, leaving empty strings behind.
fn take_interface(slot: &mut MinedInterface) -> MinedInterface {
    MinedInterface {
        hostname: std::mem::take(&mut slot.hostname),
        interface: InterfaceName(std::mem::take(&mut slot.interface.0)),
        ..*slot
    }
}

/// Mine the archive rendered from a topology (convenience for tests and
/// the simulator).
pub fn mine_topology(topo: &Topology) -> MinedInventory {
    let archive = render_archive(topo);
    mine(archive.values().map(String::as_str))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::CenicParams;

    #[test]
    fn mined_inventory_matches_generated_topology() {
        let topo = CenicParams::default().generate();
        let mined = mine_topology(&topo);
        assert_eq!(mined.links.len(), topo.links().len());
        assert!(mined.unpaired.is_empty());
        // Every mined link name must exist in the true topology and vice
        // versa.
        let truth: std::collections::HashSet<String> = (0..topo.links().len())
            .map(|i| topo.link_name(crate::link::LinkId(i as u32)).to_string())
            .collect();
        for l in &mined.links {
            assert!(truth.contains(&l.name.to_string()), "ghost link {}", l.name);
        }
    }

    #[test]
    fn mined_system_ids_match() {
        let topo = CenicParams::tiny(3).generate();
        let mined = mine_topology(&topo);
        for r in topo.routers() {
            assert_eq!(mined.system_ids.get(&r.hostname), Some(&r.system_id));
        }
    }

    #[test]
    fn parse_config_extracts_fields() {
        let cfg = "\
hostname lab-r1
!
router isis cenic
 net 49.0001.0100.0000.0001.00
!
interface TenGigE0/0/0/0
 description lab-r1 to lab-r2 TenGigE0/0/0/0
 ip address 10.0.0.0 255.255.255.254
 ip router isis cenic
 isis metric 10
!
";
        let (h, net, ifaces) = parse_config(cfg);
        assert_eq!(h.as_deref(), Some("lab-r1"));
        assert_eq!(net.unwrap().system_id, SystemId::from_index(1));
        assert_eq!(ifaces.len(), 1);
        assert_eq!(ifaces[0].metric, Some(10));
        assert_eq!(ifaces[0].subnet.to_string(), "10.0.0.0/31");
    }

    #[test]
    fn miner_skips_non_p2p_interfaces() {
        let cfg = "\
hostname lab-r1
!
interface Loopback0
 ip address 10.255.0.1 255.255.255.255
!
interface GigabitEthernet0/0
 ip address 10.0.0.0 255.255.255.254
!
";
        let (_, _, ifaces) = parse_config(cfg);
        assert_eq!(ifaces.len(), 1, "loopback /32 must be ignored");
    }

    #[test]
    fn missing_partner_goes_to_unpaired() {
        let cfg = "\
hostname lonely
!
interface GigabitEthernet0/0
 ip address 10.0.0.0 255.255.255.254
!
";
        let mined = mine([cfg]);
        assert!(mined.links.is_empty());
        assert_eq!(mined.unpaired.len(), 1);
    }

    #[test]
    fn lookup_maps_cover_all_links() {
        let topo = CenicParams::tiny(5).generate();
        let mined = mine_topology(&topo);
        let by_iface = mined.link_of_interface();
        let by_subnet = mined.link_of_subnet();
        assert_eq!(by_subnet.len(), mined.links.len());
        assert_eq!(by_iface.len(), mined.links.len() * 2);
    }

    #[test]
    fn parallel_links_mined_as_distinct() {
        let topo = CenicParams::default().generate();
        let mined = mine_topology(&topo);
        let between = mined.links_between_hostnames();
        let multi = between.values().filter(|v| v.len() > 1).count();
        assert_eq!(multi, topo.multi_link_pairs());
    }

    #[test]
    fn addresses_consistent_between_ends() {
        // Each endpoint must get a distinct address within the shared /31.
        let topo = CenicParams::tiny(8).generate();
        let archive = render_archive(&topo);
        let mut seen: HashMap<Ipv4Addr, String> = HashMap::new();
        for (host, cfg) in &archive {
            let (_, _, ifaces) = parse_config(cfg);
            for i in ifaces {
                if let Some(prev) = seen.insert(i.address, host.clone()) {
                    panic!("address {} used by both {} and {}", i.address, prev, host);
                }
            }
        }
    }
}
