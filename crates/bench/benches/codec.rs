//! Wire-codec performance: LSP and syslog encode/decode throughput.
//!
//! A production listener drains millions of LSPs (Table 1: 11 M updates
//! over 13 months, with multi-kHz bursts during flap storms), so the
//! codecs must be comfortably faster than the network can flood.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use faultline_isis::checksum::{fletcher_compute, fletcher_verify};
use faultline_isis::lsp::Lsp;
use faultline_isis::tlv::{IpReachEntry, IsReachEntry};
use faultline_syslog::caltime;
use faultline_syslog::message::{AdjChangeDetail, LinkEvent, LinkEventKind, SyslogMessage};
use faultline_syslog::parse::{parse_bytes, parse_line};
use faultline_topology::interface::InterfaceName;
use faultline_topology::osi::SystemId;
use faultline_topology::router::RouterOs;
use faultline_topology::time::Timestamp;
use std::net::Ipv4Addr;

fn sample_lsp(neighbors: usize) -> Lsp {
    let is: Vec<IsReachEntry> = (0..neighbors as u32)
        .map(|i| IsReachEntry {
            neighbor: SystemId::from_index(i + 2),
            pseudonode: 0,
            metric: 10,
        })
        .collect();
    let ip: Vec<IpReachEntry> = (0..neighbors as u32)
        .map(|i| IpReachEntry {
            metric: 10,
            prefix: Ipv4Addr::from(u32::from(Ipv4Addr::new(137, 164, 0, 0)) + i * 2),
            prefix_len: 31,
        })
        .collect();
    Lsp::originate(SystemId::from_index(1), 7, "lax-agg-01", &is, &ip)
}

fn sample_msg() -> SyslogMessage {
    SyslogMessage {
        seq: 287,
        event: LinkEvent {
            at: Timestamp::from_millis(86_400_123),
            host: "lax-agg-01".into(),
            interface: InterfaceName::ten_gig(3),
            kind: LinkEventKind::IsisAdjacency {
                neighbor: "sac-agg-01".into(),
                detail: AdjChangeDetail::HoldTimeExpired,
            },
            up: false,
        },
        os: RouterOs::IosXr,
    }
}

fn bench_lsp(c: &mut Criterion) {
    let mut g = c.benchmark_group("lsp");
    for n in [4usize, 16, 64] {
        let lsp = sample_lsp(n);
        let wire = lsp.encode();
        g.throughput(Throughput::Bytes(wire.len() as u64));
        g.bench_function(format!("encode/{n}"), |b| {
            b.iter(|| black_box(&lsp).encode())
        });
        g.bench_function(format!("decode/{n}"), |b| {
            b.iter(|| Lsp::decode(black_box(&wire)).unwrap())
        });
    }
    g.finish();
}

fn bench_checksum(c: &mut Criterion) {
    let mut g = c.benchmark_group("fletcher");
    for len in [64usize, 512, 1400] {
        let mut buf = vec![0xA5u8; len];
        let ck = fletcher_compute(&buf, 12);
        buf[12] = (ck >> 8) as u8;
        buf[13] = (ck & 0xff) as u8;
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(format!("compute/{len}"), |b| {
            b.iter(|| fletcher_compute(black_box(&buf), 12))
        });
        g.bench_function(format!("verify/{len}"), |b| {
            b.iter(|| fletcher_verify(black_box(&buf), 12))
        });
    }
    g.finish();
}

fn bench_syslog(c: &mut Criterion) {
    let msg = sample_msg();
    let line = msg.render();
    let mut g = c.benchmark_group("syslog");
    g.throughput(Throughput::Bytes(line.len() as u64));
    g.bench_function("render", |b| b.iter(|| black_box(&msg).render()));
    g.bench_function("parse", |b| b.iter(|| parse_line(black_box(&line))));
    // Four archive lines in five are not link events: the walk that
    // rejects one is the collector's common case.
    let noise = format!(
        "<189>4242: lax-agg-01: {}: %SEC-6-IPACCESSLOGP: list 101 denied tcp \
         10.1.2.3(4242) -> 10.3.2.1(22), 1 packet",
        caltime::render(msg.event.at)
    );
    g.throughput(Throughput::Bytes(noise.len() as u64));
    g.bench_function("parse_bytes/irrelevant", |b| {
        b.iter(|| parse_bytes(black_box(noise.as_bytes())))
    });
    g.finish();

    let ts = Timestamp::from_millis(123_456_789);
    let text = caltime::render(ts);
    let mut g = c.benchmark_group("caltime");
    g.bench_function("render", |b| b.iter(|| caltime::render(black_box(ts))));
    g.bench_function("parse", |b| b.iter(|| caltime::parse(black_box(&text))));
    g.bench_function("parse_bytes", |b| {
        b.iter(|| caltime::parse_bytes(black_box(text.as_bytes())))
    });
    g.finish();
}

criterion_group!(benches, bench_lsp, bench_checksum, bench_syslog);
criterion_main!(benches);
