//! The JSON read path's allocation contract, pinned as a count.
//!
//! Reading pulls a value out of the text; nothing stands between the two.
//! A `Value` tree in the middle costs one allocation per string, per
//! object key and per container of the document — 5,693 for the tiny
//! scenario's answer, 1.38 M a pass for the benchmark's two — and the
//! value's own on top. So, with a counting allocator (machine
//! independent, like `crates/syslog/tests/alloc_contract.rs`):
//!
//! * `from_str::<StreamEvent>` of a journal event allocates exactly the
//!   event's own strings, one `Arc<str>` each — which a clone shares, so
//!   cloning and dropping an event allocates nothing;
//! * `from_str::<StreamOutput>` of an answer allocates what
//!   `output.clone()` does, plus one per resolved message (its host is an
//!   `Arc<str>`, which a clone shares and a reader must make), plus what
//!   growing each vector costs when its length is not known up front.

use faultline_core::{scenario_event_stream, AnalysisConfig, StreamAnalysis, StreamEvent};
use faultline_sim::scenario::{run, ScenarioParams};

#[path = "../crates/syslog/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, CountingAlloc};

#[path = "support/event_strings.rs"]
mod event_strings;
use event_strings::strings;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_journal_event_costs_exactly_its_own_strings() {
    let data = run(&ScenarioParams::tiny(42));
    let events = scenario_event_stream(&data);
    let mut with_strings = 0;
    for event in &events {
        let text = serde_json::to_string(event).unwrap();
        let own = strings(event);
        let (read, back) = allocations(|| serde_json::from_str::<StreamEvent>(&text).unwrap());
        assert_eq!(&back, event);
        assert_eq!(read, own, "{text}");
        with_strings += usize::from(own > 0);
    }
    assert!(with_strings > 100, "the stream carries syslog messages");
}

#[test]
fn cloning_and_dropping_an_event_allocates_nothing() {
    let data = run(&ScenarioParams::tiny(42));
    let events = scenario_event_stream(&data);
    let syslog = events.iter().filter(|e| strings(e) > 0).count();
    assert!(syslog > 100, "the stream carries syslog messages");
    for event in &events {
        let (n, ()) = allocations(|| drop(event.clone()));
        assert_eq!(n, 0, "{event:?}");
    }
}

#[test]
fn an_answer_costs_its_clone_plus_its_shared_hosts_plus_vector_growth() {
    let data = run(&ScenarioParams::tiny(42));
    let mut analysis = StreamAnalysis::new(&data, AnalysisConfig::default());
    analysis.ingest_batch(&scenario_event_stream(&data));
    let output = analysis.flush().output;
    let text = serde_json::to_string(&output).unwrap();

    let (cloned, _) = allocations(|| output.clone());
    let (read, back) =
        allocations(|| serde_json::from_str::<faultline_core::StreamOutput>(&text).unwrap());
    assert_eq!(serde_json::to_string(&back).unwrap(), text);
    let hosts = output.messages.len() as u64;
    assert!(hosts > 100, "the answer carries resolved messages");
    // Fourteen vectors of a few hundred elements at most, each doubling
    // from four: 41 regrowths as measured, a constant with headroom here.
    const GROWTH: u64 = 96;
    assert!(
        read <= cloned + hosts + GROWTH,
        "read {read}, clone {cloned}, hosts {hosts}"
    );
    // The same text through a tree, for scale: the contract has room for
    // growth and none for this.
    let (tree, _) = allocations(|| serde_json::from_str::<serde_json::Value>(&text).unwrap());
    assert!(
        tree > 10 * (cloned + hosts + GROWTH),
        "tree {tree}, contract {}",
        cloned + hosts + GROWTH
    );
}
