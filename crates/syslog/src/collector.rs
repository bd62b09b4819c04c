//! The central logging server (§3.3).
//!
//! Every router in the network sends its syslog stream here. The collector
//! stores raw rendered lines in arrival order — exactly what the paper's
//! analysis is given — and can replay them sorted by the *message text*
//! timestamp, which is what the reconstruction pipeline keys on.
//!
//! The collector is thread-safe (a `std::sync::Mutex` whose lock
//! ignores poisoning) so benchmark drivers can shard simulation across
//! threads while funneling into one log, mirroring the single central
//! facility CENIC runs.

use crate::delivery::Delivery;
use crate::message::{LinkEvent, LinkEventKind, SyslogMessage};
use crate::parse::{parse_bytes, LinkEventKindRef, ParseOutcomeRef, ParseStats, SyslogMessageRef};
use faultline_topology::interface::InterfaceName;
use faultline_topology::time::Timestamp;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

    /// The stored records, locked; a poisoned lock still yields them.
    fn records(&self) -> MutexGuard<'_, Vec<LogRecord>> {
        self.records.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Ingest one delivery from the transport.
    pub fn ingest(&self, delivery: &Delivery) {
        self.records().push(LogRecord {
            arrived_at: delivery.arrived_at,
            line: delivery.message.render(),
        });
    }

    /// Ingest a raw line (e.g. unrelated messages mixed into the feed).
    pub fn ingest_raw(&self, arrived_at: Timestamp, line: String) {
        self.records().push(LogRecord { arrived_at, line });
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records().len()
    }

    /// True if nothing has arrived.
    pub fn is_empty(&self) -> bool {
        self.records().is_empty()
    }

    /// Drain all records sorted by arrival time (stable on ties).
    pub fn into_lines(self) -> Vec<LogRecord> {
        let mut records = self
            .records
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        records.sort_by_key(|r| r.arrived_at);
        records
    }

    /// Parse everything received back into structured messages, sorted by
    /// the timestamp embedded in the message text (the paper's pipeline
    /// sorts on text timestamps, not arrival order).
    pub fn parsed_messages(&self) -> Vec<SyslogMessage> {
        let records = self.records();
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
/// Records already in arrival order — a collector's own
/// [`Collector::into_lines`] order — are parsed where they lie; only an
/// archive out of order is first given a sorted list of references. Its
/// lines are parsed by [`parse_chunked`] in blocks of
/// [`MIN_CHUNK_LINES`], shared among as many threads as
/// [`std::thread::available_parallelism`] reports: the result is that of
/// the serial [`crate::parse::parse_archive_stats_bytes`] pass over them.
/// Events that come out of the parse already in `(text timestamp, host,
/// seq)` order are not sorted again.
pub fn parse_records(records: &[LogRecord]) -> (Vec<SyslogMessage>, ParseStats) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (mut events, stats) = if records.is_sorted_by_key(|r| r.arrived_at) {
        parse_chunked(records, cpus)
    } else {
        let mut order: Vec<&LogRecord> = records.iter().collect();
        order.sort_by_key(|r| r.arrived_at);
        parse_chunked(&order, cpus)
    };
    if !events.is_sorted_by_key(replay_key) {
        events.sort_by(|a, b| replay_key(a).cmp(&replay_key(b)));
    }
    (events, stats)
}

/// The order [`parse_records`] replays events in.
fn replay_key(m: &SyslogMessage) -> (Timestamp, &Arc<str>, u64) {
    (m.event.at, &m.event.host, m.seq)
}

impl AsRef<[u8]> for LogRecord {
    /// The raw line's bytes, as the parser reads them.
    fn as_ref(&self) -> &[u8] {
        self.line.as_bytes()
    }
}

/// The lines in one block of [`parse_chunked`], the unit a thread claims:
/// a block this long classifies in about a millisecond. It also sets how
/// many threads a parse may use — one per full block — so an archive of
/// fewer than twice as many lines is parsed on the calling thread alone.
pub const MIN_CHUNK_LINES: usize = 4096;

/// A finished block: its owned events and the stats of its lines.
type Block = (Vec<SyslogMessage>, ParseStats);

/// [`crate::parse::parse_archive_stats_bytes`] over `lines`, on up to
/// `threads` threads: the same events in the same order, and the same
/// stats.
///
/// The lines are cut into contiguous blocks of [`MIN_CHUNK_LINES`], and
/// the calling thread and `min(threads, lines / MIN_CHUNK_LINES) − 1`
/// scoped helpers claim blocks from one shared counter. Each thread
/// classifies a block's lines with [`parse_bytes`] and makes each event's
/// owned [`SyslogMessage`] as soon as it classifies it, while the line is
/// still in its cache. Its strings come from the thread's own map of
/// shared `Arc<str>`s, keyed by their text on the wire: a thread makes one
/// string per distinct host or neighbor name and one per distinct
/// interface (in its expanded form), not two or three per event, and
/// every event naming it holds a refcount. Once every block is claimed,
/// the calling thread joins the helpers and appends the finished blocks,
/// in block order, to one vector of exactly the events' length, summing
/// their stats with [`ParseStats::add`].
///
/// Memory: against converting every event on the calling thread, with
/// two or three fresh strings each, the benchmark's `batch_archive`
/// (≈ 67k events in ≈ 335k lines) read `syslog.parse.allocs_per_line`
/// 0.486 → 0.004 and a median `peak_rss_mb` of 127.9 → 119.1 MB, lower
/// on 12 of 12 pairs (PERFORMANCE.md, "The archive parse owns its events
/// where it classifies them"). The result has no spare capacity.
pub fn parse_chunked<L: AsRef<[u8]> + Sync>(
    lines: &[L],
    threads: usize,
) -> (Vec<SyslogMessage>, ParseStats) {
    let helpers = threads.min(lines.len() / MIN_CHUNK_LINES).max(1) - 1;
    let blocks: Vec<&[L]> = lines.chunks(MIN_CHUNK_LINES).collect();
    let finished: Vec<Mutex<Option<Block>>> = blocks.iter().map(|_| Mutex::new(None)).collect();
    let claimed = AtomicUsize::new(0);
    let work = || {
        let mut strings = Strings::default();
        loop {
            // Relaxed: the counter only hands out indices; a block's
            // result is published through its mutex.
            let at = claimed.fetch_add(1, Ordering::Relaxed);
            let Some(block) = blocks.get(at) else {
                break;
            };
            let done = strings.parse(block);
            *finished[at].lock().unwrap_or_else(PoisonError::into_inner) = Some(done);
        }
    };
    std::thread::scope(|s| {
        for _ in 0..helpers {
            s.spawn(work);
        }
        work();
    });
    let parts: Vec<Block> = finished
        .into_iter()
        .map(|slot| {
            let slot = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            slot.expect("every block is finished once the helpers are joined")
        })
        .collect();
    let mut events = Vec::with_capacity(parts.iter().map(|(part, _)| part.len()).sum());
    let mut stats = ParseStats::default();
    for (mut part, part_stats) in parts {
        events.append(&mut part);
        stats.add(&part_stats);
    }
    (events, stats)
}

/// One thread's owned strings, keyed by their text on the wire: each
/// distinct host or neighbor name and each distinct interface (expanded,
/// see [`InterfaceName::expand`]) is made once, as the `Arc<str>` every
/// event naming it shares. The maps keep the standard library's keyed
/// hasher: their keys are text read off the wire.
#[derive(Default)]
struct Strings<'a> {
    names: HashMap<&'a str, Arc<str>>,
    interfaces: HashMap<&'a str, InterfaceName>,
}

impl<'a> Strings<'a> {
    /// One block's pass: each line's outcome counted, each event owned
    /// as soon as it is classified.
    fn parse<L: AsRef<[u8]>>(&mut self, block: &'a [L]) -> Block {
        let mut stats = ParseStats::default();
        let mut events = Vec::new();
        for line in block {
            let outcome = parse_bytes(line.as_ref());
            stats.note_ref(&outcome);
            if let ParseOutcomeRef::Event(m) = outcome {
                events.push(self.own(&m));
            }
        }
        // The block waits for the others; it holds no spare capacity
        // meanwhile.
        events.shrink_to_fit();
        (events, stats)
    }

    fn name(&mut self, text: &'a str) -> Arc<str> {
        Arc::clone(self.names.entry(text).or_insert_with(|| text.into()))
    }

    /// [`SyslogMessageRef::to_owned`], from this thread's strings.
    fn own(&mut self, m: &SyslogMessageRef<'a>) -> SyslogMessage {
        let interface = (self.interfaces.entry(m.interface))
            .or_insert_with(|| InterfaceName::expand(m.interface))
            .clone();
        let kind = match m.kind {
            LinkEventKindRef::IsisAdjacency { neighbor, detail } => LinkEventKind::IsisAdjacency {
                neighbor: self.name(neighbor),
                detail,
            },
            LinkEventKindRef::Link => LinkEventKind::Link,
            LinkEventKindRef::LineProtocol => LinkEventKind::LineProtocol,
        };
        SyslogMessage {
            seq: m.seq,
            event: LinkEvent {
                at: m.at,
                host: self.name(m.host),
                interface,
                kind,
                up: m.up,
            },
            os: m.os,
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::delivery::{LossyTransport, TransportConfig};
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
        assert_eq!(&*parsed[0].event.host, "r2");
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
        assert_eq!(&*events[0].event.host, "r1");
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
