//! The journal's allocation contract, pinned as a count.
//!
//! A journal record is one envelope around one codec row, built in a
//! buffer the writer keeps, so journaling an event costs the heap
//! nothing; replaying one costs exactly the event's own strings. With a
//! counting allocator (machine independent, like
//! `crates/syslog/tests/alloc_contract.rs`):
//!
//! * after warm-up, `DurableStream::ingest` with `checkpoint_interval: 0`
//!   allocates exactly what the bare engine's `ingest` of the same event
//!   does — 0 allocations for the journal;
//! * reading a record back the way replay does — one envelope read into
//!   a reused buffer, one `codec::decode_record` — allocates exactly the
//!   event's own strings, one `Arc<str>` each.

use faultline_core::codec::decode_record;
use faultline_core::envelope::Format;
use faultline_core::recovery::{DurabilityPolicy, DurableStream};
use faultline_core::{scenario_event_stream, AnalysisConfig, StreamAnalysis};
use faultline_sim::scenario::{run, ScenarioParams};
use std::path::PathBuf;

#[path = "../crates/syslog/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, CountingAlloc};

#[path = "support/event_strings.rs"]
mod event_strings;
use event_strings::strings;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The journal record's envelope, restated so the test does not lean on
/// the code it measures.
const JOURNAL: Format = Format {
    magic: *b"FLJR",
    version: 2,
    max_len: 1 << 16,
    kinds: &[1],
};

const WARM_UP: usize = 8;

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "faultline-journal-alloc-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn journal_only(events: usize) -> DurabilityPolicy {
    DurabilityPolicy {
        checkpoint_interval: 0,
        segment_max_records: events as u64 + 1,
        ..DurabilityPolicy::default()
    }
}

#[test]
fn journaling_an_event_allocates_nothing() {
    let data = run(&ScenarioParams::tiny(42));
    let events = scenario_event_stream(&data);
    let tmp = TempDir::new("ingest");
    let config = AnalysisConfig::default();
    let mut durable =
        DurableStream::create(&tmp.0, &data, config.clone(), journal_only(events.len())).unwrap();
    let mut bare = StreamAnalysis::new(&data, config);
    for e in &events[..WARM_UP] {
        durable.ingest(e).unwrap();
        bare.ingest(e);
    }
    for (i, e) in events.iter().enumerate().skip(WARM_UP) {
        let (engine, _) = allocations(|| bare.ingest(e));
        let (journaled, _) = allocations(|| durable.ingest(e).unwrap());
        assert_eq!(journaled, engine, "event {i}: the journal allocated");
    }
    assert_eq!(durable.counters().journal_records, events.len() as u64);
}

#[test]
fn replaying_a_record_allocates_exactly_its_event() {
    let data = run(&ScenarioParams::tiny(42));
    let events = scenario_event_stream(&data);
    let tmp = TempDir::new("replay");
    let mut durable = DurableStream::create(
        &tmp.0,
        &data,
        AnalysisConfig::default(),
        journal_only(events.len()),
    )
    .unwrap();
    for e in &events {
        durable.ingest(e).unwrap();
    }
    drop(durable);
    let segment = std::fs::read(tmp.0.join("journal/seg-000000000001.jl")).unwrap();

    // Warm-up: one pass grows the reused buffer to the largest record.
    let mut body = Vec::new();
    let mut rest = segment.as_slice();
    while JOURNAL.read(&mut rest, &mut body).is_ok() {}

    let mut rest = segment.as_slice();
    let mut with_strings = 0;
    for (i, event) in events.iter().enumerate() {
        let own = strings(event);
        let (read, record) = allocations(|| {
            JOURNAL.read(&mut rest, &mut body).unwrap();
            decode_record(&body).unwrap()
        });
        assert_eq!(record, (i as u64 + 1, event.clone()));
        assert_eq!(read, own, "record {}", i + 1);
        with_strings += usize::from(own > 0);
    }
    assert!(rest.is_empty(), "every record was read");
    assert!(with_strings > 100, "the stream carries syslog messages");
}
