//! The block-shared parallel parse is the serial parse.
//!
//! [`parse_chunked`] cuts an archive into blocks of [`MIN_CHUNK_LINES`]
//! that the calling thread and its helpers claim from one counter, and
//! makes every owned event on the calling thread, in block order;
//! [`parse_records`] runs it with one thread per CPU and then sorts by
//! `(time, host, seq)`. Both must give exactly what the serial
//! [`parse_archive_stats_bytes`] pass gives — the same events, in the
//! same order, ties included, with the same balanced stats — however
//! many threads share the blocks and wherever the archive ends.
//!
//! The archive spans more than five blocks and mixes every kind of line
//! a collector sees: studied events of all four families, irrelevant
//! mnemonics, malformed lines (truncated, garbage, bad fields), lines
//! that are not UTF-8, and duplicated deliveries whose `(time, host,
//! seq)` ties only arrival order breaks.
//!
//! A counting allocator (per thread, like `alloc_contract.rs`) holds the
//! memory rule: the owned strings are made on the calling thread, and
//! the result carries no spare capacity.

use faultline_syslog::collector::{parse_chunked, parse_records, LogRecord, MIN_CHUNK_LINES};
use faultline_syslog::message::{AdjChangeDetail, LinkEvent, LinkEventKind, SyslogMessage};
use faultline_syslog::parse::parse_archive_stats_bytes;
use faultline_topology::interface::InterfaceName;
use faultline_topology::router::RouterOs;
use faultline_topology::time::Timestamp;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A small deterministic generator (xorshift64*), so the archive is the
/// same on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn event(rng: &mut Rng) -> SyslogMessage {
    let os = if rng.below(2) == 0 {
        RouterOs::Ios
    } else {
        RouterOs::IosXr
    };
    let kind = match rng.below(3) {
        0 => LinkEventKind::Link,
        1 => LinkEventKind::LineProtocol,
        _ => LinkEventKind::IsisAdjacency {
            neighbor: format!("core-{}", rng.below(9)).into(),
            detail: AdjChangeDetail::HoldTimeExpired,
        },
    };
    SyslogMessage {
        // Few hosts, coarse stamps and small sequence numbers, so equal
        // `(time, host, seq)` keys turn up on their own as well.
        seq: rng.below(4),
        event: LinkEvent {
            at: Timestamp::from_millis(86_400_000 + rng.below(200) * 1_000),
            host: format!("agg-{}", rng.below(5)).into(),
            interface: InterfaceName::gig(rng.below(4) as u32),
            kind,
            up: rng.below(2) == 0,
        },
        os,
    }
}

/// The raw lines, in arrival order, and the arrival time of each.
fn archive() -> Vec<(u64, Vec<u8>)> {
    let mut rng = Rng(0x5eed_cafe_f00d_0001);
    let mut lines = Vec::new();
    while lines.len() < 5 * MIN_CHUNK_LINES + 1_234 {
        let arrived = rng.below(50_000);
        let line: Vec<u8> = match rng.below(10) {
            0..=2 => event(&mut rng).render().into_bytes(),
            // A duplicated delivery: the same key, a different state, so
            // the order of the tie shows in the output.
            3 => {
                let first = event(&mut rng);
                let mut second = first.clone();
                second.event.up = !first.event.up;
                lines.push((arrived, first.render().into_bytes()));
                second.render().into_bytes()
            }
            4..=5 => {
                b"<189>7: agg-1: Oct 21 2010 01:02:03.004: %SYS-5-CONFIG_I: Configured".to_vec()
            }
            6 => {
                let mut line = event(&mut rng).render().into_bytes();
                line.truncate(rng.below(line.len() as u64) as usize);
                line
            }
            7 => b"garbage \x00 with no framing".to_vec(),
            // Not UTF-8: a bad byte in the host, and one in the body.
            8 => {
                let mut line = event(&mut rng).render().into_bytes();
                let host = line.iter().position(|&b| b == b':').expect("seq") + 2;
                line[host] = 0xff;
                line
            }
            _ => {
                let mut line = event(&mut rng).render().into_bytes();
                let last = line.len() - 1;
                line[last] = 0xc3;
                line
            }
        };
        lines.push((arrived, line));
    }
    lines
}

/// The archive's lines, borrowed.
fn lines(archive: &[(u64, Vec<u8>)]) -> Vec<&[u8]> {
    archive.iter().map(|(_, line)| line.as_slice()).collect()
}

#[test]
fn every_thread_count_and_archive_length_is_the_serial_pass() {
    const B: usize = MIN_CHUNK_LINES;
    let archive = archive();
    let lines = lines(&archive);
    assert!(lines.len() >= 5 * B + 17, "the archive spans six blocks");
    assert!(lines.iter().any(|l| std::str::from_utf8(l).is_err()));
    let (events, stats) = parse_archive_stats_bytes(lines.iter().copied());
    assert!(stats.is_balanced());
    assert!(stats.events > 0 && stats.irrelevant > 0 && stats.malformed > 0);
    for len in [0, 1, B - 1, B, B + 1, 2 * B, 5 * B + 17, lines.len()] {
        let short = &lines[..len];
        let (expected, expected_stats) = parse_archive_stats_bytes(short.iter().copied());
        for threads in [1, 2, 3, 8] {
            let (got, got_stats) = parse_chunked(short, threads);
            assert_eq!(
                got_stats, expected_stats,
                "{len} lines, {threads} threads: stats"
            );
            assert!(
                got == expected,
                "{len} lines, {threads} threads: events differ from the serial pass"
            );
        }
    }
    // No thread count is too few or too many.
    for threads in [0, 64] {
        assert!(parse_chunked(&lines, threads) == (events.clone(), stats));
    }
}

/// The owned strings of a parsed event: host and interface, plus the
/// neighbor of an adjacency change, one `Arc<str>` each.
fn strings(m: &SyslogMessage) -> u64 {
    match m.event.kind {
        LinkEventKind::IsisAdjacency { .. } => 3,
        LinkEventKind::Link | LinkEventKind::LineProtocol => 2,
    }
}

#[test]
fn the_calling_thread_makes_every_owned_string_and_no_spare_capacity() {
    let archive = archive();
    let lines = lines(&archive);
    let (expected, _) = parse_archive_stats_bytes(lines.iter().copied());
    let owned: u64 = expected.iter().map(strings).sum();
    let blocks = lines.len().div_ceil(MIN_CHUNK_LINES) as u64;
    assert!(blocks >= 6);
    // On one thread, the calling thread allocates everything: the owned
    // strings, plus per block a handful of steps growing its borrowed
    // list and one `reserve_exact` of the result.
    let (alone, (events, _)) = allocations(|| parse_chunked(&lines, 1));
    assert!(events == expected);
    assert_eq!(
        events.capacity(),
        events.len(),
        "one thread: spare capacity"
    );
    assert!(
        (owned..=owned + 16 * blocks).contains(&alone),
        "one thread: {alone} allocations for {owned} owned strings"
    );
    // With helpers, it still makes every owned string — a string made on
    // a helper would take the count below `owned` — and only what
    // starting the helpers costs is added.
    for threads in [2, 3, 8] {
        for _ in 0..5 {
            let (shared, (events, _)) = allocations(|| parse_chunked(&lines, threads));
            assert!(events == expected);
            assert_eq!(
                events.capacity(),
                events.len(),
                "{threads} threads: spare capacity"
            );
            assert!(
                (owned..=alone + 32 * threads as u64).contains(&shared),
                "{threads} threads: {shared} allocations on the calling thread, \
                 {owned} owned strings, {alone} on one thread"
            );
        }
    }
}

#[test]
fn parse_records_is_the_serial_reference_ties_included() {
    let records: Vec<LogRecord> = archive()
        .into_iter()
        .map(|(arrived, line)| LogRecord {
            arrived_at: Timestamp::from_millis(arrived),
            // A collector stores text: a line that is not UTF-8 arrives
            // with its bad bytes replaced.
            line: String::from_utf8_lossy(&line).into_owned(),
        })
        .collect();
    let mut by_arrival: Vec<&LogRecord> = records.iter().collect();
    by_arrival.sort_by_key(|r| r.arrived_at);
    let (mut expected, expected_stats) =
        parse_archive_stats_bytes(by_arrival.iter().map(|r| r.line.as_bytes()));
    let key = |m: &SyslogMessage| (m.event.at, m.event.host.clone(), m.seq);
    expected.sort_by_key(key);
    let ties = expected
        .windows(2)
        .filter(|w| key(&w[0]) == key(&w[1]) && w[0] != w[1])
        .count();
    assert!(ties > 100, "only {ties} distinguishable ties");

    let (events, stats) = parse_records(&records);
    assert!(stats.is_balanced());
    assert_eq!(stats, expected_stats);
    assert!(stats.lines as usize >= 3 * MIN_CHUNK_LINES);
    assert_eq!(stats.events, events.len() as u64);
    assert!(
        events == expected,
        "parse_records differs from the serial reference"
    );
}
