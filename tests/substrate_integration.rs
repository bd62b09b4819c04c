//! Cross-crate substrate integration: the wire formats, the config
//! miner, and the naming layer must compose exactly.

use faultline_core::linktable::LinkTable;
use faultline_isis::listener::Listener;
use faultline_isis::lsp::Lsp;
use faultline_isis::tlv::{IpReachEntry, IsReachEntry};
use faultline_syslog::parse::{parse_line, Parsed};
use faultline_topology::config::{mine, render_archive};
use faultline_topology::generator::CenicParams;
use faultline_topology::osi::SystemId;
use faultline_topology::time::Timestamp;
use std::collections::HashMap;

/// Render a full CENIC-scale config archive, mine it, and build the
/// LinkTable: every topology link must resolve through every key space.
#[test]
fn mined_table_resolves_all_key_spaces() {
    let topo = CenicParams::default().generate();
    let archive = render_archive(&topo);
    assert_eq!(archive.len(), 235);
    let inventory = mine(archive.values().map(String::as_str));
    assert_eq!(inventory.links.len(), topo.links().len());

    let hostnames: HashMap<SystemId, String> = topo
        .routers()
        .iter()
        .map(|r| (r.system_id, r.hostname.clone()))
        .collect();
    let table = LinkTable::new(&inventory, &hostnames, |_| {
        (Timestamp::EPOCH, Timestamp::from_secs(86_400))
    });

    for l in topo.links() {
        // Syslog key space.
        for ep in [&l.a, &l.b] {
            let host = &topo.router(ep.router).hostname;
            assert!(table.by_interface(host, &ep.interface).is_some());
        }
        // IP reachability key space.
        assert!(table.by_subnet(l.subnet).is_some());
        // IS reachability key space.
        let sa = topo.router(l.a.router).system_id;
        let sb = topo.router(l.b.router).system_id;
        assert!(!table.by_sysid_pair(sa, sb).is_empty());
    }
}

/// Every router in a generated topology can originate an LSP that
/// round-trips the wire codec and lands in a listener.
#[test]
fn all_routers_lsps_round_trip() {
    let topo = CenicParams::tiny(42).generate();
    let mut listener = Listener::new();
    for r in topo.routers() {
        let neighbors: Vec<IsReachEntry> = topo
            .links_of(r.id)
            .iter()
            .map(|&lid| {
                let l = topo.link(lid);
                IsReachEntry {
                    neighbor: topo.router(l.other_end(r.id).unwrap()).system_id,
                    pseudonode: 0,
                    metric: l.metric,
                }
            })
            .collect();
        let prefixes: Vec<IpReachEntry> = topo
            .links_of(r.id)
            .iter()
            .map(|&lid| IpReachEntry::for_subnet(topo.link(lid).subnet, 10))
            .collect();
        let lsp = Lsp::originate(r.system_id, 1, &r.hostname, &neighbors, &prefixes);
        let wire = lsp.encode();
        let back = Lsp::decode(&wire).expect("round trip");
        assert_eq!(back, lsp);
        listener.receive_bytes(Timestamp::EPOCH, &wire).unwrap();
    }
    // Baselines only: no transitions, all hostnames learned.
    assert!(listener.transitions().is_empty());
    assert_eq!(listener.hostnames().len(), topo.routers().len());
}

/// The syslog grammar produced for any router/interface in a generated
/// topology parses back to the same structured event.
#[test]
fn syslog_grammar_round_trips_for_all_routers() {
    use faultline_syslog::message::{AdjChangeDetail, LinkEvent, LinkEventKind, SyslogMessage};
    let topo = CenicParams::tiny(9).generate();
    let mut count = 0;
    for l in topo.links() {
        for (ep, other) in [(&l.a, &l.b), (&l.b, &l.a)] {
            let r = topo.router(ep.router);
            let msg = SyslogMessage {
                seq: 1,
                event: LinkEvent {
                    at: Timestamp::from_millis(123_456_789),
                    host: r.hostname.as_str().into(),
                    interface: ep.interface.clone(),
                    kind: LinkEventKind::IsisAdjacency {
                        neighbor: topo.router(other.router).hostname.as_str().into(),
                        detail: AdjChangeDetail::HoldTimeExpired,
                    },
                    up: false,
                },
                os: r.os,
            };
            match parse_line(&msg.render()) {
                Parsed::Event(back) => assert_eq!(back, msg),
                other => panic!("unparsed: {other:?}"),
            }
            count += 1;
        }
    }
    assert_eq!(count, topo.links().len() * 2);
}
