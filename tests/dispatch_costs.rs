//! The cluster dispatcher's costs, pinned as exact counts.
//!
//! `run_cluster` mines the naming layer once, classifies every event
//! once, at the dispatcher, and sends each shard only its lane rows.
//! Three things that change are measured:
//!
//! * what one naming-layer build (`linktable::from_scenario`) allocates,
//!   on `ScenarioParams::tiny(7)` and on the `wide` topology
//!   (`ScenarioParams::sized(42, 10.0, 1.0)`), pinned exactly — the
//!   build renders, mines and interns deterministically, so the count is
//!   a function of the scenario;
//!
//! and over `tiny(7)` with two workers:
//!
//! * what crosses the subprocess wire: `frames_sent` and `bytes_sent`
//!   (the `Hello`s, the row frames and the `Flush`es — every byte of
//!   them is a function of the scenario), pinned exactly;
//! * what the dispatcher allocates on an in-process run, counted on the
//!   calling thread only with the counting allocator the other
//!   allocation contracts share. The dispatcher classifies events in
//!   place and hands shards rows of plain data, so the count does not
//!   grow with the stream: the whole stream costs only a few more
//!   allocations than its first half (the growth of the front's message
//!   log), where cloning each event's strings for a shard cost several
//!   per syslog message. That count is bounded, not pinned: a few of its
//!   allocations depend on thread timing, not on the code — the
//!   standard library's channel allocates to register the dispatcher as
//!   a waiter the first time it blocks on a worker's answer, and whether
//!   it blocks depends on how far the worker got, so five runs of the
//!   same stream spread over three or four values.
//!
//! The wire and build pins live in `tests/golden/dispatch_costs.json`. A change that
//! moves one re-blesses it with the reason, which the file keeps:
//! `FAULTLINE_BLESS="<why the counts moved>" cargo test --test dispatch_costs`.

use faultline_core::cluster::{run_cluster, ClusterConfig, SubprocessOptions, Workers};
use faultline_core::transport::ScenarioSpec;
use faultline_core::{linktable, scenario_event_stream, Analysis, AnalysisConfig, StreamEvent};
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_sim::ScenarioData;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

#[path = "../crates/syslog/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What the golden file holds: the counts, and why they last moved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pins {
    reason: String,
    subprocess_frames_sent: u64,
    subprocess_bytes_sent: u64,
    naming_build_allocations_tiny: u64,
    naming_build_allocations_wide: u64,
}

/// Workers in every run this file measures.
const WORKERS: u32 = 2;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/dispatch_costs.json")
}

/// Allocations the calling thread makes over one two-worker in-process
/// run of `events`; the workers' threads are not counted.
fn dispatcher_allocations(data: &ScenarioData, events: &[StreamEvent]) -> u64 {
    let cfg = ClusterConfig::new(WORKERS);
    let (count, result) = allocations(|| run_cluster(data, events, &cfg).expect("cluster run"));
    assert_eq!(
        result.report.streaming.unwrap().events_ingested,
        events.len() as u64
    );
    count
}

/// Allocations one naming-layer build over `data` makes.
fn naming_build_allocations(data: &ScenarioData) -> u64 {
    allocations(|| linktable::from_scenario(data)).0
}

/// Every count this file pins, measured now.
fn measure() -> Pins {
    let params = ScenarioParams::tiny(7);
    let data = run(&params);
    let wide = run(&ScenarioParams::sized(42, 10.0, 1.0));
    let events = scenario_event_stream(&data);

    let cfg = ClusterConfig {
        workers: Workers::Subprocess(SubprocessOptions {
            worker_bin: PathBuf::from(env!("CARGO_BIN_EXE_faultline-shard-worker")),
            scenario: ScenarioSpec::Params(Box::new(params)),
        }),
        ..ClusterConfig::new(WORKERS)
    };
    let result = run_cluster(&data, &events, &cfg).expect("subprocess cluster run");
    assert_eq!(
        serde_json::to_string(&result.output).unwrap(),
        serde_json::to_string(&Analysis::run(&data, AnalysisConfig::default()).output).unwrap(),
    );
    let wire = result.report.transport.expect("transport ledger");
    Pins {
        reason: String::new(),
        subprocess_frames_sent: wire.frames_sent,
        subprocess_bytes_sent: wire.bytes_sent,
        naming_build_allocations_tiny: naming_build_allocations(&data),
        naming_build_allocations_wide: naming_build_allocations(&wide),
    }
}

/// The wire counts and, with them in the same file, the naming-layer
/// build's allocation counts.
#[test]
fn subprocess_wire_costs_are_pinned() {
    let mut got = measure();
    if let Some(reason) = std::env::var_os("FAULTLINE_BLESS").filter(|v| v != "0") {
        got.reason = reason.to_string_lossy().into_owned();
        assert!(
            got.reason.len() > 1,
            "re-bless with the reason the counts moved: FAULTLINE_BLESS=\"<why>\""
        );
        let text = serde_json::to_string_pretty(&got).unwrap();
        std::fs::write(golden_path(), text + "\n").expect("write the pins");
    }
    let text = std::fs::read_to_string(golden_path()).expect("tests/golden/dispatch_costs.json");
    let pinned: Pins = serde_json::from_str(&text).expect("the pins parse");
    got.reason.clone_from(&pinned.reason);
    assert_eq!(
        got, pinned,
        "a count moved; if on purpose, re-bless with the reason (see the module docs)"
    );
}

/// The dispatcher's allocations do not grow with the stream: the second
/// half of it costs fewer than one allocation per 20 events, timing
/// jitter included (the fewest of five runs over the whole stream
/// against the most of five over its first half).
#[test]
fn dispatcher_allocations_do_not_grow_per_event() {
    let data = run(&ScenarioParams::tiny(7));
    let events = scenario_event_stream(&data);
    let runs = |events: &[StreamEvent]| -> Vec<u64> {
        (0..5)
            .map(|_| dispatcher_allocations(&data, events))
            .collect()
    };
    let whole = *runs(&events).iter().max().unwrap();
    let half = *runs(&events[..events.len() / 2]).iter().min().unwrap();
    let second_half = (events.len() - events.len() / 2) as u64;
    assert!(
        whole.saturating_sub(half) * 20 < second_half,
        "{whole} allocations over the stream, {half} over its first half ({second_half} events apart)"
    );
}
