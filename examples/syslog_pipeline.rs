//! Syslog substrate walkthrough: render Cisco-style messages, push them
//! through the lossy transport into the collector, parse the archive
//! back, and reconstruct failures under the paper's three ambiguity
//! strategies (§4.3).
//!
//! ```sh
//! cargo run --example syslog_pipeline
//! ```

use faultline_core::linktable::LinkIx;
use faultline_core::reconstruct::{reconstruct, AmbiguityStrategy};
use faultline_core::transitions::LinkTransition;
use faultline_isis::listener::TransitionDirection;
use faultline_syslog::collector::Collector;
use faultline_syslog::delivery::{LossyTransport, TransportConfig};
use faultline_syslog::message::{AdjChangeDetail, LinkEvent, LinkEventKind, SyslogMessage};
use faultline_topology::interface::InterfaceName;
use faultline_topology::router::RouterOs;
use faultline_topology::time::Timestamp;

fn adjchange(at_secs: u64, up: bool, host: &str, os: RouterOs) -> SyslogMessage {
    SyslogMessage {
        seq: at_secs,
        event: LinkEvent {
            at: Timestamp::from_secs(at_secs),
            host: host.into(),
            interface: InterfaceName::ten_gig(3),
            kind: LinkEventKind::IsisAdjacency {
                neighbor: "sac-agg-01".into(),
                detail: if up {
                    AdjChangeDetail::NewAdjacency
                } else {
                    AdjChangeDetail::HoldTimeExpired
                },
            },
            up,
        },
        os,
    }
}

fn main() {
    // 1. Render: both OS grammars.
    let ios = adjchange(100, false, "lax-agg-05", RouterOs::Ios);
    let xr = adjchange(100, false, "lax-agg-01", RouterOs::IosXr);
    println!("IOS   : {}", ios.render());
    println!("IOS XR: {}", xr.render());

    // 2. Transport + collector: a flap burst gets rate-limited.
    let collector = Collector::new();
    let mut transport = LossyTransport::new(TransportConfig {
        seed: 42,
        ..TransportConfig::default()
    });
    for i in 0..40u64 {
        let m = adjchange(1_000 + i * 8, i % 2 == 1, "lax-agg-05", RouterOs::Ios);
        for d in transport.send(m) {
            collector.ingest(&d);
        }
    }
    let stats = transport.stats();
    println!(
        "\nflap burst: {} offered, {} delivered, {} dropped in overload",
        stats.offered,
        stats.delivered,
        stats.dropped_overload_pair + stats.dropped_overload_msg
    );

    // 3. Parse the archive back into structured events.
    let messages = collector.parsed_messages();
    println!("collector parsed {} messages back", messages.len());

    // 4. Reconstruct failures with each ambiguity strategy over a stream
    //    containing a double-down (a lost Up between t=200 and t=260).
    let stream = vec![
        LinkTransition {
            at: Timestamp::from_secs(200),
            link: LinkIx(0),
            direction: TransitionDirection::Down,
        },
        LinkTransition {
            at: Timestamp::from_secs(260),
            link: LinkIx(0),
            direction: TransitionDirection::Down, // double!
        },
        LinkTransition {
            at: Timestamp::from_secs(290),
            link: LinkIx(0),
            direction: TransitionDirection::Up,
        },
    ];
    println!("\nambiguous double-down, per strategy:");
    for (name, s) in [
        ("previous-state", AmbiguityStrategy::PreviousState),
        ("assume-down", AmbiguityStrategy::AssumeDown),
        ("assume-up", AmbiguityStrategy::AssumeUp),
    ] {
        let r = reconstruct(&stream, s);
        println!(
            "  {name:<15} -> {} failure(s), {} s downtime, {} ambiguous period(s)",
            r.failures.len(),
            r.total_downtime().as_secs(),
            r.ambiguous.len()
        );
    }
}
