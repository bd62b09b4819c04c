//! The streaming engine's ingest allocation contract, pinned as a count.
//!
//! Every lane is applied in place on the calling thread, so a
//! per-thread counting allocator (the one `journal_alloc.rs` uses, shared
//! with `crates/syslog/tests/alloc_contract.rs`) sees every allocation
//! `StreamAnalysis::ingest` and `ingest_batch` make: lane creation, lane
//! growth, the answer log, the grouping arena. The count is machine independent, so
//! it is pinned exactly over `ScenarioParams::tiny(7)` one event at a
//! time and at micro-batches of 256 and 4096 events.
//!
//! A change that moves a count re-pins it here and states why in the
//! change's notes. Construction (`StreamAnalysis::new`) and `flush` are
//! outside the count: the contract is the per-event path.

use faultline_core::{
    scenario_event_stream, AnalysisConfig, ParallelismConfig, StreamAnalysis, StreamEvent,
};
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_sim::ScenarioData;

#[path = "../crates/syslog/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made on this thread while `events` are fed to a fresh
/// engine in micro-batches of `chunk` (`ingest`, one event at a time,
/// for a chunk of 1).
fn ingest_allocations(
    data: &ScenarioData,
    events: &[StreamEvent],
    config: AnalysisConfig,
    chunk: usize,
) -> u64 {
    let mut engine = StreamAnalysis::new(data, config);
    let (count, ()) = allocations(|| {
        if chunk == 1 {
            events.iter().for_each(|e| {
                engine.ingest(e);
            });
        } else {
            events.chunks(chunk).for_each(|c| {
                engine.ingest_batch(c);
            });
        }
    });
    assert_eq!(engine.events_ingested(), events.len() as u64);
    count
}

#[test]
fn ingest_allocations_are_pinned() {
    let data = run(&ScenarioParams::tiny(7));
    let events = scenario_event_stream(&data);
    let got: Vec<(usize, u64)> = [1usize, 256, 4096]
        .into_iter()
        .map(|chunk| {
            let n = ingest_allocations(&data, &events, AnalysisConfig::default(), chunk);
            (chunk, n)
        })
        .collect();
    assert_eq!(got, [(1, PINNED[0]), (256, PINNED[1]), (4096, PINNED[2])]);
}

/// The retired fan-out knob cannot move work off the calling thread: a
/// config asking for eight workers allocates exactly what the default
/// does, on this thread.
#[test]
fn the_parallelism_shell_keeps_every_allocation_on_the_calling_thread() {
    let data = run(&ScenarioParams::tiny(7));
    let events = scenario_event_stream(&data);
    let shell = AnalysisConfig {
        parallelism: ParallelismConfig {
            threads: 8,
            chunk_size: 3,
        },
        ..AnalysisConfig::default()
    };
    for chunk in [256usize, 4096] {
        assert_eq!(
            ingest_allocations(&data, &events, shell.clone(), chunk),
            ingest_allocations(&data, &events, AnalysisConfig::default(), chunk),
            "chunk {chunk}"
        );
    }
}

/// Calling-thread allocations one event at a time and at micro-batches
/// of 256 and 4096. A segment close matches its one link's two lists in
/// place, with the kernel's reused used-flag scratch, and writes its
/// pairs straight into the lane's outbox: it allocates nothing once that
/// scratch and the outbox have grown (the general matcher it replaced
/// built a map, three state vectors and the leftover lists per close,
/// 280 / 420 / 404).
const PINNED: [u64; 3] = [216, 292, 310];
