//! The central logging server (§3.3).
//!
//! Every router in the network sends its syslog stream here. The collector
//! stores raw rendered lines in arrival order — exactly what the paper's
//! analysis is given — and can replay them sorted by the *message text*
//! timestamp, which is what the reconstruction pipeline keys on.
//!
//! The collector is thread-safe (`parking_lot::Mutex`) so benchmark
//! drivers can shard simulation across threads while funneling into one
//! log, mirroring the single central facility CENIC runs.

use crate::delivery::Delivery;
use crate::message::SyslogMessage;
use crate::parse::{parse_bytes, ParseOutcomeRef, ParseStats, SyslogMessageRef};
use faultline_topology::time::Timestamp;
use parking_lot::Mutex;

/// One stored log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Arrival time at the collector.
    pub arrived_at: Timestamp,
    /// The raw line as received.
    pub line: String,
}

/// The central syslog server.
#[derive(Debug, Default)]
pub struct Collector {
    records: Mutex<Vec<LogRecord>>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one delivery from the transport.
    pub fn ingest(&self, delivery: &Delivery) {
        self.records.lock().push(LogRecord {
            arrived_at: delivery.arrived_at,
            line: delivery.message.render(),
        });
    }

    /// Ingest a raw line (e.g. unrelated messages mixed into the feed).
    pub fn ingest_raw(&self, arrived_at: Timestamp, line: String) {
        self.records.lock().push(LogRecord { arrived_at, line });
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// True if nothing has arrived.
    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }

    /// Drain all records sorted by arrival time (stable on ties).
    pub fn into_lines(self) -> Vec<LogRecord> {
        let mut records = self.records.into_inner();
        records.sort_by_key(|r| r.arrived_at);
        records
    }

    /// Parse everything received back into structured messages, sorted by
    /// the timestamp embedded in the message text (the paper's pipeline
    /// sorts on text timestamps, not arrival order).
    pub fn parsed_messages(&self) -> Vec<SyslogMessage> {
        let records = self.records.lock();
        let (events, _) = parse_records(&records);
        events
    }
}

/// Parse a collector archive in the **canonical replay order**: records
/// are first put in arrival order (stable, so simultaneous arrivals keep
/// their ingest order), parsed in that order, and the resulting events
/// are then stable-sorted by `(text timestamp, host, seq)`.
///
/// The two-step order makes the tiebreak for identical sort keys
/// *explicit*: when clock skew or duplicated delivery produces two
/// messages with the same text timestamp, host, and sequence number,
/// they replay in arrival order — deterministically — instead of relying
/// on whatever order the records happened to be stored in.
///
/// The arrival-ordered lines are parsed by [`parse_chunked`] with one
/// chunk per CPU that [`std::thread::available_parallelism`] reports:
/// the result is that of the serial
/// [`crate::parse::parse_archive_stats_bytes`] pass over them.
pub fn parse_records(records: &[LogRecord]) -> (Vec<SyslogMessage>, ParseStats) {
    let mut order: Vec<&LogRecord> = records.iter().collect();
    order.sort_by_key(|r| r.arrived_at);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (mut events, stats) = parse_chunked(&order, cpus);
    events.sort_by(|a, b| {
        (a.event.at, &a.event.host, a.seq).cmp(&(b.event.at, &b.event.host, b.seq))
    });
    (events, stats)
}

impl AsRef<[u8]> for LogRecord {
    /// The raw line's bytes, as the parser reads them.
    fn as_ref(&self) -> &[u8] {
        self.line.as_bytes()
    }
}

/// The fewest lines [`parse_chunked`] gives a thread of its own: a chunk
/// this short parses in about a millisecond, so an archive with fewer
/// than twice as many lines is parsed as one chunk, on the calling
/// thread.
pub const MIN_CHUNK_LINES: usize = 4096;

/// [`crate::parse::parse_archive_stats_bytes`] over `lines`, split into
/// at most `chunks` contiguous chunks of at least [`MIN_CHUNK_LINES`]
/// lines each and classified in parallel: the same events in the same
/// order, and the same stats.
///
/// Each chunk but the first is classified with [`parse_bytes`] on a
/// scoped thread of its own, the first on the calling thread; a chunk
/// keeps only the borrowed view of each event it finds. The calling
/// thread then makes every owned [`SyslogMessage`], in chunk order, and
/// sums the chunks' stats with [`ParseStats::add`]. Owned strings are
/// thus allocated by one thread only: made on the chunk threads, they
/// raised peak memory on every benchmark workload measured, by up to
/// 9 MB (PERFORMANCE.md, "The archive pass on both CPUs").
pub fn parse_chunked<L: AsRef<[u8]> + Sync>(
    lines: &[L],
    chunks: usize,
) -> (Vec<SyslogMessage>, ParseStats) {
    let chunks = chunks.min(lines.len() / MIN_CHUNK_LINES).max(1);
    let mut parts = lines.chunks(lines.len().div_ceil(chunks).max(1));
    let first = parts.next().unwrap_or_default();
    let parsed: Vec<_> = std::thread::scope(|s| {
        let rest: Vec<_> = parts.map(|part| s.spawn(move || classify(part))).collect();
        let first = classify(first);
        let rest = rest.into_iter().map(|h| h.join().expect("a parse thread"));
        std::iter::once(first).chain(rest).collect()
    });
    let mut events = Vec::with_capacity(parsed.iter().map(|(found, _)| found.len()).sum());
    let mut stats = ParseStats::default();
    for (found, part) in &parsed {
        events.extend(found.iter().map(SyslogMessageRef::to_owned));
        stats.add(part);
    }
    (events, stats)
}

/// One chunk's pass: each line's outcome counted, each event's borrowed
/// view kept.
fn classify<L: AsRef<[u8]>>(chunk: &[L]) -> (Vec<SyslogMessageRef<'_>>, ParseStats) {
    let mut stats = ParseStats::default();
    let mut found = Vec::new();
    for line in chunk {
        let outcome = parse_bytes(line.as_ref());
        stats.note_ref(&outcome);
        if let ParseOutcomeRef::Event(m) = outcome {
            found.push(m);
        }
    }
    (found, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delivery::{LossyTransport, TransportConfig};
    use crate::message::{LinkEvent, LinkEventKind};
    use faultline_topology::interface::InterfaceName;
    use faultline_topology::router::RouterOs;

    fn msg(host: &str, at_ms: u64) -> SyslogMessage {
        SyslogMessage {
            seq: 1,
            event: LinkEvent {
                at: Timestamp::from_millis(at_ms),
                host: host.into(),
                interface: InterfaceName::gig(0),
                kind: LinkEventKind::Link,
                up: false,
            },
            os: RouterOs::Ios,
        }
    }

    #[test]
    fn ingest_and_parse_round_trip() {
        let collector = Collector::new();
        let mut transport = LossyTransport::new(TransportConfig::lossless(1));
        for d in transport.send(msg("r1", 5_000)) {
            collector.ingest(&d);
        }
        for d in transport.send(msg("r2", 1_000)) {
            collector.ingest(&d);
        }
        let parsed = collector.parsed_messages();
        assert_eq!(parsed.len(), 2);
        // Sorted by text timestamp: r2 first.
        assert_eq!(parsed[0].event.host, "r2");
    }

    #[test]
    fn raw_noise_is_tolerated() {
        let collector = Collector::new();
        collector.ingest_raw(Timestamp::EPOCH, "not a syslog line".into());
        collector.ingest_raw(
            Timestamp::EPOCH,
            "<189>9: h: Oct 21 2010 00:00:00.000: %SYS-5-CONFIG_I: console".into(),
        );
        assert_eq!(collector.len(), 2);
        assert!(collector.parsed_messages().is_empty());
    }

    #[test]
    fn into_lines_sorted_by_arrival() {
        let collector = Collector::new();
        collector.ingest_raw(Timestamp::from_secs(10), "b".into());
        collector.ingest_raw(Timestamp::from_secs(5), "a".into());
        let lines = collector.into_lines();
        assert_eq!(lines[0].line, "a");
        assert_eq!(lines[1].line, "b");
    }

    #[test]
    fn identical_text_timestamps_replay_in_arrival_order() {
        // Two *identical* messages (same text timestamp, host, seq — the
        // signature of a chaos-duplicated delivery) plus one skewed copy
        // arriving first: the sort key ties, so only the arrival-order
        // tiebreak makes the replay deterministic.
        let line_a = msg("r1", 5_000).render();
        let line_b = msg("r1", 5_000).render();
        let forward = Collector::new();
        forward.ingest_raw(Timestamp::from_secs(9), line_a.clone());
        forward.ingest_raw(Timestamp::from_secs(7), line_b.clone());
        let backward = Collector::new();
        backward.ingest_raw(Timestamp::from_secs(7), line_b);
        backward.ingest_raw(Timestamp::from_secs(9), line_a);
        assert_eq!(forward.parsed_messages(), backward.parsed_messages());

        let records = vec![
            LogRecord {
                arrived_at: Timestamp::from_secs(9),
                line: msg("r1", 5_000).render(),
            },
            LogRecord {
                arrived_at: Timestamp::from_secs(7),
                line: msg("r2", 5_000).render(),
            },
        ];
        let (events, stats) = parse_records(&records);
        assert_eq!(events.len(), 2);
        // Equal text timestamps: host breaks the tie, not arrival.
        assert_eq!(events[0].event.host, "r1");
        assert!(stats.is_balanced());
    }

    #[test]
    fn concurrent_ingest_is_safe() {
        use std::sync::Arc;
        let collector = Arc::new(Collector::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let c = Arc::clone(&collector);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        c.ingest_raw(Timestamp::from_millis(t * 1000 + i), format!("{t}-{i}"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(collector.len(), 400);
    }
}
