//! The block-shared parallel parse is the serial parse.
//!
//! [`parse_chunked`] cuts an archive into blocks of [`MIN_CHUNK_LINES`]
//! that the calling thread and its helpers claim from one counter; each
//! thread makes the owned events of the blocks it claims, and the calling
//! thread appends the blocks in order. [`parse_records`] runs it with one
//! thread per CPU, over the records where they lie if they are in arrival
//! order and over a sorted list of them if not, and then sorts by
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
//! memory rule: a thread makes each distinct string once, every event of
//! a block naming it shares that allocation, and the result carries no
//! spare capacity.

use faultline_syslog::collector::{parse_chunked, parse_records, LogRecord, MIN_CHUNK_LINES};
use faultline_syslog::message::{AdjChangeDetail, LinkEvent, LinkEventKind, SyslogMessage};
use faultline_syslog::parse::{
    parse_archive_stats_bytes, parse_bytes, LinkEventKindRef, ParseOutcomeRef,
};
use faultline_topology::interface::InterfaceName;
use faultline_topology::router::RouterOs;
use faultline_topology::time::Timestamp;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

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

/// The distinct strings on the wire among the archive's events: host and
/// neighbor names (one map), interface texts (another), as a parsing
/// thread keys them.
fn distinct_strings(lines: &[&[u8]]) -> u64 {
    let (mut names, mut interfaces) = (HashSet::new(), HashSet::new());
    for line in lines {
        if let ParseOutcomeRef::Event(m) = parse_bytes(line) {
            names.insert(m.host);
            interfaces.insert(m.interface);
            if let LinkEventKindRef::IsisAdjacency { neighbor, .. } = m.kind {
                names.insert(neighbor);
            }
        }
    }
    (names.len() + interfaces.len()) as u64
}

/// Which block each event of the serial pass came from.
fn event_blocks(lines: &[&[u8]]) -> Vec<usize> {
    let event = |line: &&[u8]| matches!(parse_bytes(line), ParseOutcomeRef::Event(_));
    (lines.iter().enumerate())
        .filter(|(_, line)| event(line))
        .map(|(at, _)| at / MIN_CHUNK_LINES)
        .collect()
}

/// Within each block, events naming the same host, interface or neighbor
/// hold the same allocation.
fn shares_within_blocks(events: &[SyslogMessage], blocks: &[usize]) -> bool {
    let mut first: HashMap<(usize, String), Arc<str>> = HashMap::new();
    let mut same = |block: usize, s: &Arc<str>| {
        let first = first
            .entry((block, s.to_string()))
            .or_insert_with(|| Arc::clone(s));
        Arc::ptr_eq(first, s)
    };
    events.iter().zip(blocks).all(|(m, &block)| {
        let neighbor = match &m.event.kind {
            LinkEventKind::IsisAdjacency { neighbor, .. } => same(block, neighbor),
            LinkEventKind::Link | LinkEventKind::LineProtocol => true,
        };
        same(block, &m.event.host) && same(block, &m.event.interface.0) && neighbor
    })
}

#[test]
fn each_thread_makes_a_string_once_and_the_result_has_no_spare_capacity() {
    let archive = archive();
    let lines = lines(&archive);
    let (expected, _) = parse_archive_stats_bytes(lines.iter().copied());
    let distinct = distinct_strings(&lines);
    let blocks = event_blocks(&lines);
    let block_count = lines.len().div_ceil(MIN_CHUNK_LINES) as u64;
    assert!(block_count >= 6);
    assert!(
        distinct < expected.len() as u64 / 10,
        "{distinct} distinct strings"
    );
    // On one thread, the calling thread allocates everything: each
    // distinct string once, plus per block its events' list growing and
    // shrinking to fit, plus a fixed few (the block and result lists,
    // the string maps' growth).
    let (alone, (events, _)) = allocations(|| parse_chunked(&lines, 1));
    assert!(events == expected);
    assert!(
        (distinct..=distinct + 16 * block_count + 32).contains(&alone),
        "one thread: {alone} allocations for {distinct} distinct strings"
    );
    let host = &events[0].event.host;
    assert!(
        events
            .iter()
            .filter(|m| m.event.host == *host)
            .all(|m| Arc::ptr_eq(&m.event.host, host)),
        "one thread: one allocation per host"
    );
    for threads in [1, 2, 3, 8] {
        for _ in 0..3 {
            let (events, _) = parse_chunked(&lines, threads);
            assert!(events == expected);
            assert_eq!(
                events.capacity(),
                events.len(),
                "{threads} threads: spare capacity"
            );
            assert!(
                shares_within_blocks(&events, &blocks),
                "{threads} threads: a block holds two copies of one string"
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

    // As stored (out of arrival order), and already in arrival order as
    // a collector's `into_lines` hands them over, which is parsed in
    // place: the same answer.
    let in_order: Vec<LogRecord> = by_arrival.iter().map(|&r| r.clone()).collect();
    assert!(!records.is_sorted_by_key(|r| r.arrived_at));
    for (order, records) in [("stored", &records), ("arrival", &in_order)] {
        let (events, stats) = parse_records(records);
        assert!(stats.is_balanced());
        assert_eq!(stats, expected_stats, "{order} order");
        assert!(stats.lines as usize >= 3 * MIN_CHUNK_LINES);
        assert_eq!(stats.events, events.len() as u64);
        assert!(
            events == expected,
            "{order} order: parse_records differs from the serial reference"
        );
    }
}
