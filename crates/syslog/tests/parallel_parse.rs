//! The chunked parallel parse is the serial parse.
//!
//! [`parse_chunked`] classifies contiguous chunks of an archive on
//! threads of their own and makes every owned event on the calling
//! thread, in chunk order; [`parse_records`] runs it with one chunk per
//! CPU and then sorts by `(time, host, seq)`. Both must give exactly
//! what the serial [`parse_archive_stats_bytes`] pass gives — the same
//! events, in the same order, ties included, with the same balanced
//! stats — however the archive is cut.
//!
//! The archive spans several chunks of [`MIN_CHUNK_LINES`] and mixes
//! every kind of line a collector sees: studied events of all four
//! families, irrelevant mnemonics, malformed lines (truncated, garbage,
//! bad fields), lines that are not UTF-8, and duplicated deliveries whose
//! `(time, host, seq)` ties only arrival order breaks.

use faultline_syslog::collector::{parse_chunked, parse_records, LogRecord, MIN_CHUNK_LINES};
use faultline_syslog::message::{AdjChangeDetail, LinkEvent, LinkEventKind, SyslogMessage};
use faultline_syslog::parse::parse_archive_stats_bytes;
use faultline_topology::interface::InterfaceName;
use faultline_topology::router::RouterOs;
use faultline_topology::time::Timestamp;

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
            neighbor: format!("core-{}", rng.below(9)),
            detail: AdjChangeDetail::HoldTimeExpired,
        },
    };
    SyslogMessage {
        // Few hosts, coarse stamps and small sequence numbers, so equal
        // `(time, host, seq)` keys turn up on their own as well.
        seq: rng.below(4),
        event: LinkEvent {
            at: Timestamp::from_millis(86_400_000 + rng.below(200) * 1_000),
            host: format!("agg-{}", rng.below(5)),
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

#[test]
fn every_chunking_is_the_serial_pass() {
    let archive = archive();
    let lines: Vec<&[u8]> = archive.iter().map(|(_, line)| line.as_slice()).collect();
    assert!(
        lines.len() >= 3 * MIN_CHUNK_LINES,
        "the archive spans three chunks"
    );
    assert!(lines.iter().any(|l| std::str::from_utf8(l).is_err()));
    let (events, stats) = parse_archive_stats_bytes(lines.iter().copied());
    assert!(stats.is_balanced());
    assert!(stats.events > 0 && stats.irrelevant > 0 && stats.malformed > 0);
    for chunks in [0, 1, 2, 3, 4, 5, 7, 64] {
        let (got, got_stats) = parse_chunked(&lines, chunks);
        assert_eq!(got_stats, stats, "{chunks} chunks: stats");
        assert!(
            got == events,
            "{chunks} chunks: events differ from the serial pass"
        );
    }
    // Below two chunks' worth of lines there is one chunk, however many
    // are asked for.
    let short = &lines[..2 * MIN_CHUNK_LINES - 1];
    let (events, stats) = parse_archive_stats_bytes(short.iter().copied());
    assert_eq!(parse_chunked(short, 8), (events, stats));
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
