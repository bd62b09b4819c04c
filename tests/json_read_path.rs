//! One JSON read path, checked on the values the system really reads.
//!
//! `serde_json::from_str::<T>(s)` pulls `T` straight out of the text;
//! `serde_json::from_value::<T>(tree)` pulls it out of a `Value` tree, and
//! `from_str::<Value>(s)` builds that tree from the same text events. A
//! worker reads its `Hello`, the dispatcher its `Ready` and
//! `Fatal` messages and the report inside a flushed answer the first way;
//! tools and tests read the second. (The dispatcher no longer reads a
//! `Flushed` answer as JSON — its output crosses the wire as codec rows,
//! and snapshots and journal records are rows too — but every one of
//! these types keeps its JSON form, which `tests/snapshot_rows.rs` uses as
//! its oracle.) For every type that reaches a file or a frame the two must
//! agree — both `Ok` and re-rendering to the same bytes, or both `Err` — on
//! the clean text, truncated, with a bit flipped, with fields reordered,
//! one duplicated, an unknown one inserted. The battery itself is
//! `vendor/serde/tests/support/differential.rs`, which also runs it on
//! every derive shape; a failure prints its seed and offset, because the
//! vendored `proptest` does not shrink.

#[path = "../vendor/serde/tests/support/differential.rs"]
mod differential;

use faultline_core::transport::{ScenarioSpec, ShardMsg, WorkerOutput, WorkerSpec};
use faultline_core::{scenario_event_stream, AnalysisConfig, StreamAnalysis};
use faultline_sim::scenario::{run, ScenarioParams};
use serde::{Deserialize, Serialize};

/// The battery on `x`'s own rendering. Unless the document `has_maps`
/// (where a key is data), every object in it is a struct or an enum's
/// one-key wrapper: order and repetition must never cost the value, and
/// an unknown field only inside a wrapper, which it makes two-keyed.
/// Returns the objects edited and how many took an unknown field.
fn both_reads_agree<T: Serialize + Deserialize>(what: &str, x: &T, has_maps: bool) -> [usize; 2] {
    let clean = serde_json::to_string(x).unwrap();
    let edits = differential::check::<T>(what, &clean, clean.len() as u64);
    if !has_maps {
        assert_eq!(
            edits.survived[..2],
            [edits.objects; 2],
            "{what}: reordered or duplicated fields were refused"
        );
    }
    [edits.objects, edits.survived[2]]
}

#[test]
fn every_read_type_reads_the_same_from_text_and_from_a_tree() {
    let data = run(&ScenarioParams::tiny(42));
    let events = scenario_event_stream(&data);
    let mut totals = [0, 0];
    let mut tally = |[objects, took_unknown]: [usize; 2]| {
        totals[0] += objects;
        totals[1] += took_unknown;
    };
    tally(both_reads_agree("ScenarioData", &data, true));
    for (i, event) in events.iter().enumerate().step_by(16) {
        tally(both_reads_agree(&format!("StreamEvent #{i}"), event, false));
    }

    let mut analysis = StreamAnalysis::new(&data, AnalysisConfig::default());
    let (first, rest) = events.split_at(events.len() / 2);
    let (second, last) = rest.split_at(rest.len() / 2);
    analysis.ingest_batch(first);
    tally(both_reads_agree(
        "StreamCheckpoint",
        &analysis.checkpoint(),
        false,
    ));
    analysis.mark_clean();
    analysis.ingest_batch(second);
    tally(both_reads_agree(
        "StreamDelta",
        &analysis.checkpoint_delta(),
        false,
    ));

    analysis.ingest_batch(last);
    let result = analysis.flush();
    tally(both_reads_agree("PipelineReport", &result.report, false));
    let answer = WorkerOutput {
        output: result.output,
        report: result.report,
    };
    tally(both_reads_agree("WorkerOutput", &answer, false));

    // Every message with a JSON form (`Events` travels only as a binary
    // codec run and `Flushed` only as codec rows, but `Flushed` keeps its
    // JSON form for tools and as the rows' oracle).
    let messages = [
        (
            ShardMsg::Hello(Box::new(WorkerSpec::new(
                AnalysisConfig::default(),
                ScenarioSpec::Inline(Box::new(data.clone())),
            ))),
            true,
        ),
        (
            ShardMsg::Hello(Box::new(WorkerSpec::new(
                AnalysisConfig::default(),
                ScenarioSpec::Params(Box::new(ScenarioParams::tiny(3))),
            ))),
            false,
        ),
        (ShardMsg::Ready(Default::default()), false),
        (ShardMsg::Flush, false),
        (ShardMsg::Flushed(Box::new(answer)), false),
        (
            ShardMsg::Fatal {
                detail: "shard 3: journal \"dir\"\nvanished\u{1}".to_string(),
            },
            false,
        ),
    ];
    for (msg, has_maps) in &messages {
        tally(both_reads_agree(msg.kind(), msg, *has_maps));
    }
    let [objects, took_unknown] = totals;
    assert!(
        took_unknown * 2 > objects,
        "most objects are structs, which skip a field they do not know: {took_unknown} of {objects}"
    );
}
