//! One JSON write path, checked on the values the system really writes.
//!
//! `serde_json::to_string(x)` streams `x` straight into the text sink;
//! `serde_json::to_value(x)` builds a tree through the other sink, and
//! rendering that tree replays it into the first. The journal verifies a
//! record by reading its event and rendering it again (`parse_record`),
//! and tools and tests hold snapshots and answers as trees, so the two
//! routes must give the same bytes for every type that reaches a file or
//! a frame: snapshots, deltas, journal events, reports, scenario archives
//! and every JSON shard message. (`tests/json_read_path.rs` is the same
//! check for the way back in.)

use faultline_core::transport::{ScenarioSpec, ShardMsg, WorkerOutput, WorkerSpec};
use faultline_core::{scenario_event_stream, AnalysisConfig, StreamAnalysis};
use faultline_sim::scenario::{run, ScenarioParams};
use serde::{Deserialize, Serialize};

/// Direct and via-tree renderings agree, compact and pretty, and the text
/// read back — as a bare tree, and as the type, which is the journal's
/// check — renders the same bytes again.
fn same_bytes_both_ways<T: Serialize + Deserialize>(what: &str, x: &T) {
    let tree = serde_json::to_value(x).unwrap();
    let compact = serde_json::to_string(x).unwrap();
    assert_eq!(
        compact,
        serde_json::to_string(&tree).unwrap(),
        "{what}: compact"
    );
    assert_eq!(
        serde_json::to_string_pretty(x).unwrap(),
        serde_json::to_string_pretty(&tree).unwrap(),
        "{what}: pretty"
    );
    let parsed: serde_json::Value = serde_json::from_str(&compact).unwrap();
    assert_eq!(
        serde_json::to_string(&parsed).unwrap(),
        compact,
        "{what}: parsed tree"
    );
    let back: T = serde_json::from_str(&compact).unwrap_or_else(|e| panic!("{what} parses: {e}"));
    assert_eq!(
        serde_json::to_string(&back).unwrap(),
        compact,
        "{what}: re-rendered"
    );
}

#[test]
fn every_written_type_renders_the_same_directly_and_through_a_tree() {
    let data = run(&ScenarioParams::tiny(42));
    let events = scenario_event_stream(&data);
    assert!(events.len() > 500, "the tiny scenario has a real stream");
    same_bytes_both_ways("ScenarioData", &data);
    for (i, event) in events.iter().enumerate() {
        same_bytes_both_ways(&format!("StreamEvent #{i}"), event);
    }

    let mut analysis = StreamAnalysis::new(&data, AnalysisConfig::default());
    let (first, rest) = events.split_at(events.len() / 2);
    let (second, last) = rest.split_at(rest.len() / 2);
    analysis.ingest_batch(first);
    same_bytes_both_ways("StreamCheckpoint", &analysis.checkpoint());
    analysis.mark_clean();
    analysis.ingest_batch(second);
    let delta = analysis.checkpoint_delta();
    same_bytes_both_ways("StreamDelta", &delta);
    assert!(
        serde_json::to_string(&delta).unwrap().len() > 1_000,
        "the delta carries dirty lanes"
    );

    analysis.ingest_batch(last);
    let result = analysis.flush();
    same_bytes_both_ways("StreamOutput", &result.output);
    same_bytes_both_ways("PipelineReport", &result.report);

    // Every message that crosses the shard wire as JSON (`Events` is a
    // binary codec run and never does).
    let messages = [
        ShardMsg::Hello(Box::new(WorkerSpec::new(
            AnalysisConfig::default(),
            ScenarioSpec::Inline(Box::new(data.clone())),
        ))),
        ShardMsg::Hello(Box::new(WorkerSpec::new(
            AnalysisConfig::default(),
            ScenarioSpec::Params(Box::new(ScenarioParams::tiny(3))),
        ))),
        ShardMsg::Ready(Default::default()),
        ShardMsg::Flush,
        ShardMsg::Flushed(Box::new(WorkerOutput {
            output: result.output,
            report: result.report,
        })),
        ShardMsg::Fatal {
            detail: "shard 3: journal \"dir\"\nvanished\u{1}".to_string(),
        },
    ];
    for msg in &messages {
        same_bytes_both_ways(msg.kind(), msg);
    }
}
