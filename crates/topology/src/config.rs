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
    let mut out = String::new();
    render_config_into(topo, router, &mut out);
    out
}

/// [`render_config`], appended to `out`, which can carry its allocation
/// from one config to the next.
fn render_config_into(topo: &Topology, router: crate::router::RouterId, out: &mut String) {
    let r = topo.router(router);
    let links = topo.links_of(router);
    // Fixed text goes in with `push_str`, numbers through `push_decimal`;
    // only the NET goes through the formatter.
    out.reserve(160 + 200 * links.len());
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
            "\n ip address ",
        ] {
            out.push_str(part);
        }
        for (k, octet) in addr.octets().into_iter().enumerate() {
            out.push_str(if k == 0 { "" } else { "." });
            push_decimal(out, octet.into());
        }
        out.push_str(" 255.255.255.254\n ip router isis cenic\n isis metric ");
        push_decimal(out, link.metric);
        out.push_str("\n!\n");
    }
}

/// Append `v` in decimal, as `Display` writes it.
fn push_decimal(out: &mut String, mut v: u32) {
    let mut digits = [0u8; 10];
    let mut from = digits.len();
    loop {
        from -= 1;
        digits[from] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[from..]).expect("ASCII digits"));
}

/// Render every router's config, keyed by hostname — the "archive of
/// configuration files" [`mine`] consumes. ([`mine_archive`] renders and
/// mines one config at a time instead.)
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
    let mut interfaces = Vec::new();
    let (hostname, net) = walk_config(text, |hostname, interface, address, metric| {
        interfaces.push(MinedInterface {
            hostname: hostname.to_string(),
            interface: InterfaceName::expand(interface),
            address,
            subnet: Subnet31::containing(address),
            metric,
        })
    });
    (hostname.map(str::to_string), net, interfaces)
}

/// The grammar walk behind [`parse_config`] and [`mine`]: returns the
/// config's hostname and NET, and hands `found` each interface that has a
/// /31 address (its name as written, possibly abbreviated), with the
/// hostname in force where its stanza ends.
fn walk_config<'t>(
    text: &'t str,
    mut found: impl FnMut(&'t str, &'t str, Ipv4Addr, Option<u32>),
) -> (Option<&'t str>, Option<Net>) {
    let mut hostname: Option<&str> = None;
    let mut net: Option<Net> = None;
    let mut iface: Option<&str> = None;
    let mut metric: Option<u32> = None;
    let mut addr: Option<Ipv4Addr> = None;
    // The lines as `str::lines` cuts them, found by a byte scan, which
    // costs less than `lines` on lines this short.
    let mut rest = text;
    let lines = std::iter::from_fn(|| {
        if rest.is_empty() {
            return None;
        }
        let end = rest.bytes().position(|b| b == b'\n').unwrap_or(rest.len());
        let line = &rest[..end];
        rest = rest.get(end + 1..).unwrap_or("");
        Some(line)
    });
    // A final `!` ends the last stanza. Lines are told apart by their
    // first non-blank byte; `hostname`, `interface` and `!` must start in
    // column 0.
    for raw in lines.chain(["!"]) {
        let line = raw.trim_end();
        let body = line.trim_start();
        match body.as_bytes().first() {
            Some(b'h') => {
                if let Some(rest) = line.strip_prefix("hostname ") {
                    hostname = Some(rest.trim());
                }
            }
            Some(b'n') => {
                if let Some(rest) = body.strip_prefix("net ") {
                    net = rest.trim().parse::<Net>().ok();
                }
            }
            Some(b'!' | b'i') if line == "!" || line.starts_with("interface ") => {
                if let (Some(i), Some(a), Some(h)) = (iface.take(), addr, hostname) {
                    found(h, i, a, metric);
                }
                iface = line.strip_prefix("interface ").map(str::trim);
                (addr, metric) = (None, None);
            }
            Some(b'i') => {
                if let Some(rest) = body.strip_prefix("ip address ") {
                    // "ip address A.B.C.D 255.255.255.254"
                    let mut it = rest.split_whitespace();
                    if let (Some(addr_text), Some(mask)) = (it.next(), it.next()) {
                        if mask == "255.255.255.254" {
                            addr = addr_text.parse().ok();
                        }
                    }
                } else if let Some(rest) = body.strip_prefix("isis metric ") {
                    metric = rest.trim().parse().ok();
                }
            }
            _ => {}
        }
    }
    (hostname, net)
}

/// Mine a config archive into a link inventory by pairing interfaces that
/// share a /31 subnet.
pub fn mine<'a>(configs: impl IntoIterator<Item = &'a str>) -> MinedInventory {
    let mut archive = MinedArchive::default();
    for text in configs {
        archive.add(text);
    }
    archive.pair().into_inventory()
}

/// Mine the archive rendered from a topology (convenience for tests and
/// the simulator).
pub fn mine_topology(topo: &Topology) -> MinedInventory {
    mine_archive(topo).into_inventory()
}

/// Mine the archive rendered from a topology, keeping its records in a
/// [`MinedArchive`]: each router's config is rendered into one reused
/// buffer and mined as it comes, in router order.
pub fn mine_archive(topo: &Topology) -> MinedArchive {
    let mut archive = MinedArchive {
        ifaces: Vec::with_capacity(2 * topo.links().len()),
        ..MinedArchive::default()
    };
    let mut config = String::new();
    for r in topo.routers() {
        config.clear();
        render_config_into(topo, r.id, &mut config);
        archive.add(&config);
    }
    archive.pair()
}

/// A byte range of [`MinedArchive`]'s name buffer.
type Span = (u32, u32);

/// One end of a mined link: its hostname and interface name.
type End = (Span, Span);

/// A mined config archive whose records have not been copied out: every
/// hostname and interface name is stored once, back to back in one
/// buffer, and each record names its strings by range. A consumer that
/// only reads the names — the analysis interning them — walks
/// [`MinedArchive::drain_links`]; [`MinedArchive::into_inventory`] copies
/// every record out into a [`MinedInventory`].
#[derive(Debug, Default)]
pub struct MinedArchive {
    /// Hostnames and interface names (expanded), back to back.
    names: String,
    /// `(host, system ID)` of each config with both, in archive order.
    nets: Vec<(Span, SystemId)>,
    /// Every interface with a /31 address, in archive order, until
    /// [`MinedArchive::pair`] pairs them: `(host, interface, address,
    /// metric)`.
    ifaces: Vec<(Span, Span, Ipv4Addr, Option<u32>)>,
    /// The paired links in name order: name, both ends' `(host,
    /// interface)`, subnet.
    links: Vec<(LinkName, [End; 2], Subnet31)>,
    /// Interfaces with no /31 partner, in subnet then archive order.
    unpaired: Vec<(Span, Span, Ipv4Addr, Subnet31, Option<u32>)>,
}

impl MinedArchive {
    fn name(&self, (from, to): Span) -> &str {
        &self.names[from as usize..to as usize]
    }

    /// Append `parts` to the name buffer as one name.
    fn push_name(&mut self, parts: [&str; 2]) -> Span {
        let end = |names: &String| u32::try_from(names.len()).expect("names under 4 GiB");
        let from = end(&self.names);
        parts.iter().for_each(|p| self.names.push_str(p));
        (from, end(&self.names))
    }

    /// Walk one config into the archive.
    fn add(&mut self, text: &str) {
        let mut host = None;
        let (hostname, net) = walk_config(text, |h, interface, address, metric| {
            let host = self.host(&mut host, h);
            let interface = self.push_name(InterfaceName::expansion(interface));
            self.ifaces.push((host, interface, address, metric));
        });
        if let (Some(h), Some(n)) = (hostname, net) {
            let host = self.host(&mut host, h);
            self.nets.push((host, n.system_id));
        }
    }

    /// The range of hostname `h` in the config being walked: `last`, the
    /// one stored for it before, or a new one if a `hostname` line renamed
    /// the router.
    fn host(&mut self, last: &mut Option<Span>, h: &str) -> Span {
        match *last {
            Some(span) if self.name(span) == h => span,
            _ => *last.insert(self.push_name([h, ""])),
        }
    }

    /// Pair the walked interfaces through their /31s.
    fn pair(mut self) -> Self {
        // Group by subnet, in subnet order and, within a subnet, in archive
        // order — deterministic regardless of how the archive was iterated.
        let mut order: Vec<(Subnet31, usize)> = (self.ifaces.iter().enumerate())
            .map(|(i, iface)| (Subnet31::containing(iface.2), i))
            .collect();
        order.sort_unstable();
        self.links.reserve(order.len() / 2);
        for group in order.chunk_by(|x, y| x.0 == y.0) {
            if let [(subnet, i), (_, j)] = *group {
                let end = |k: usize| -> End { (self.ifaces[k].0, self.ifaces[k].1) };
                let text = |(h, i): End| (self.name(h), self.name(i));
                let (a, b) = if text(end(j)) < text(end(i)) {
                    (end(j), end(i))
                } else {
                    (end(i), end(j))
                };
                let ((ha, ia), (hb, ib)) = (text(a), text(b));
                let name = LinkName::new(ha, ia, hb, ib);
                self.links.push((name, [a, b], subnet));
            } else {
                for &(subnet, i) in group {
                    let (host, interface, address, metric) = self.ifaces[i];
                    (self.unpaired).push((host, interface, address, subnet, metric));
                }
            }
        }
        self.links.sort_by(|a, b| a.0.cmp(&b.0));
        self.ifaces = Vec::new();
        self
    }

    /// The mined links in name order, each with both ends' `(hostname,
    /// interface)`, moving each name out.
    pub fn drain_links(
        &mut self,
    ) -> impl ExactSizeIterator<Item = (LinkName, [(&str, &str); 2], Subnet31)> + '_ {
        let names = &self.names;
        let name = move |(from, to): Span| &names[from as usize..to as usize];
        (self.links.drain(..))
            .map(move |(link, ends, subnet)| (link, ends.map(|(h, i)| (name(h), name(i))), subnet))
    }

    /// Copy every record out into an inventory.
    pub fn into_inventory(mut self) -> MinedInventory {
        let links = (self.drain_links())
            .map(|(name, [(ha, ia), (hb, ib)], subnet)| MinedLink {
                name,
                a: (ha.to_string(), InterfaceName::from(ia)),
                b: (hb.to_string(), InterfaceName::from(ib)),
                subnet,
            })
            .collect();
        let unpaired = (self.unpaired.iter())
            .map(
                |&(host, interface, address, subnet, metric)| MinedInterface {
                    hostname: self.name(host).to_string(),
                    interface: InterfaceName::from(self.name(interface)),
                    address,
                    subnet,
                    metric,
                },
            )
            .collect();
        // Later configs win a hostname they share with an earlier one.
        let system_ids = (self.nets.iter())
            .map(|&(host, id)| (self.name(host).to_string(), id))
            .collect();
        MinedInventory {
            links,
            system_ids,
            unpaired,
        }
    }
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
    fn parse_config_keeps_the_grammar_at_the_edges() {
        // CRLF endings, a blank line, no final newline; an interface
        // before any hostname, an indented `interface` (not a stanza), a
        // non-/31 mask, and a stanza ended only by the next one.
        let cfg = "interface Gi0/1\r\n ip address 10.0.0.2 255.255.255.254\r\n!\r\n\
                   hostname  lab-r2 \r\n  net 49.0001.0100.0000.0002.00\r\n\
                   \x20interface Te0/0/0/1\r\n ip address 10.0.0.4 255.255.255.254\r\n!\r\n\r\n\
                   interface Te0/0/0/2\r\n ip address 10.0.0.6 255.255.255.0\r\n isis metric 7\r\n\
                   interface Loopback0\r\n isis metric 5\r\n ip address 10.0.0.8 255.255.255.254";
        let (h, net, ifaces) = parse_config(cfg);
        assert_eq!(h.as_deref(), Some("lab-r2"));
        assert_eq!(net.unwrap().system_id, SystemId::from_index(2));
        assert_eq!(
            ifaces,
            [MinedInterface {
                hostname: "lab-r2".into(),
                interface: InterfaceName::from("Loopback0"),
                address: Ipv4Addr::new(10, 0, 0, 8),
                subnet: Subnet31::containing(Ipv4Addr::new(10, 0, 0, 8)),
                metric: Some(5),
            }]
        );
        assert_eq!(parse_config(""), (None, None, Vec::new()));
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
