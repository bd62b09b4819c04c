//! The JSON write path's allocation contract, pinned as a count.
//!
//! The writer streams a value into one byte buffer: nothing per record,
//! per string or per number stands between the value and its text. So,
//! with a counting allocator (machine independent, like
//! `tests/json_read_alloc.rs`), `serde_json::to_string` of the tiny
//! scenario's answer allocates exactly the buffer's growth steps: the
//! first 128 bytes, then one reallocation per doubling until the text
//! fits. A per-record allocation entering the writer adds hundreds.

use faultline_core::{Analysis, AnalysisConfig};
use faultline_sim::scenario::{run, ScenarioParams};

#[path = "../crates/syslog/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The buffer's allocations for a text of `len` bytes: the first 128
/// bytes, then one per doubling.
fn growth_steps(len: usize) -> u64 {
    1 + u64::from(len.div_ceil(128).next_power_of_two().trailing_zeros())
}

#[test]
fn writing_the_answer_allocates_only_the_buffer_growth() {
    let data = run(&ScenarioParams::tiny(42));
    let output = Analysis::run(&data, AnalysisConfig::default()).output;
    assert!(
        output.messages.len() > 100,
        "the answer carries resolved messages"
    );

    let (compact, text) = allocations(|| serde_json::to_string(&output).unwrap());
    assert_eq!(compact, growth_steps(text.len()), "{} bytes", text.len());
    // 54,927 bytes fit in 128 · 2⁹: the first buffer and nine doublings.
    assert_eq!((text.len(), compact), (54_927, 10));

    let (pretty, text) = allocations(|| serde_json::to_string_pretty(&output).unwrap());
    assert_eq!(pretty, growth_steps(text.len()), "{} bytes", text.len());
}
