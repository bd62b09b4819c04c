//! Streaming-driver behavior tests: watermark discipline, admission
//! accounting, checkpoint/restore, and the chunking-invisibility corner
//! cases — exercised through the public API. The exhaustive
//! batch-vs-stream differential grid lives in
//! `tests/stream_equivalence.rs`; these tests pin the driver shell's own
//! contracts (offered-event counters, late handling, ingest summaries).

use faultline_core::{
    scenario_event_stream, AmbiguityStrategy, Analysis, AnalysisConfig, AnalysisError,
    IngestOutcome, IngestSummary, StreamAnalysis, StreamCheckpoint,
};
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_topology::time::Duration;

fn batch_json(data: &faultline_sim::ScenarioData, config: &AnalysisConfig) -> String {
    let analysis = Analysis::run(data, config.clone());
    serde_json::to_string(&analysis.output).unwrap()
}

fn outputs_for(seed: u64, chunk: usize) -> (String, String) {
    let data = run(&ScenarioParams::tiny(seed));
    let config = AnalysisConfig::default();
    let batch = batch_json(&data, &config);

    let events = scenario_event_stream(&data);
    let mut stream = StreamAnalysis::new(&data, config);
    if chunk == 0 {
        for e in &events {
            stream.ingest(e);
        }
    } else {
        for c in events.chunks(chunk) {
            stream.ingest_batch(c);
        }
    }
    let result = stream.flush();
    let stream_json = serde_json::to_string(&result.output).unwrap();
    (batch, stream_json)
}

#[test]
fn event_stream_is_time_sorted_and_complete() {
    let data = run(&ScenarioParams::tiny(5));
    let events = scenario_event_stream(&data);
    assert_eq!(events.len(), data.syslog.len() + data.transitions.len());
    for w in events.windows(2) {
        assert!(w[0].at() <= w[1].at());
    }
}

#[test]
fn one_at_a_time_equals_batch() {
    let (batch, stream) = outputs_for(3, 0);
    assert_eq!(batch, stream);
}

#[test]
fn micro_batches_equal_batch() {
    let (batch, stream) = outputs_for(3, 64);
    assert_eq!(batch, stream);
}

#[test]
fn single_all_encompassing_batch_equals_batch() {
    let (batch, stream) = outputs_for(4, usize::MAX);
    assert_eq!(batch, stream);
}

#[test]
fn watermark_tracks_event_time_and_state_drains() {
    let data = run(&ScenarioParams::tiny(6));
    let events = scenario_event_stream(&data);
    let mut stream = StreamAnalysis::new(&data, AnalysisConfig::default());
    assert!(stream.watermark().is_none());
    for c in events.chunks(128) {
        stream.ingest_batch(c);
    }
    assert_eq!(stream.watermark(), Some(events.last().unwrap().at()));
    let hwm_events = stream.events_ingested();
    assert_eq!(hwm_events, events.len() as u64);
    let result = stream.flush();
    let s = result.report.streaming.expect("streaming counters");
    assert_eq!(s.events_ingested, events.len() as u64);
    assert!(s.segments_closed > 0, "quiet gaps must drain segments");
    assert!(s.open_state_high_water > 0);
    assert_eq!(s.late_events, 0, "scenario stream is in order");
}

#[test]
fn quarantine_horizon_matches_batch_and_is_accounted() {
    let data = run(&ScenarioParams::tiny(11));
    let events = scenario_event_stream(&data);
    // A horizon in the middle of the observation period quarantines a
    // real, nonzero share of both sources.
    let mid = events[events.len() / 2].at();
    let config = AnalysisConfig {
        quarantine_horizon: Some(mid),
        ..AnalysisConfig::default()
    };
    let batch = Analysis::run(&data, config.clone());
    assert!(batch.report.robustness.total_quarantined() > 0);
    let batch_json = serde_json::to_string(&batch.output).unwrap();

    let mut stream = StreamAnalysis::try_new(&data, config).expect("valid inputs");
    for c in events.chunks(57) {
        stream.ingest_batch(c);
    }
    let result = stream.flush();
    let stream_json = serde_json::to_string(&result.output).unwrap();
    assert_eq!(batch_json, stream_json);
    assert_eq!(result.report.robustness, batch.report.robustness);
    // Quarantined events are still offered events: the headline
    // ingest counter covers the whole archive on both sides.
    assert_eq!(
        result.output.counters.syslog_ingested,
        data.syslog.len() as u64
    );
}

#[test]
fn try_new_rejects_bad_config_and_unsorted_input() {
    let mut data = run(&ScenarioParams::tiny(12));
    let zero_window = AnalysisConfig {
        match_window: Duration::ZERO,
        ..AnalysisConfig::default()
    };
    assert!(matches!(
        StreamAnalysis::try_new(&data, zero_window).err(),
        Some(AnalysisError::InvalidConfig { .. })
    ));
    assert!(StreamAnalysis::try_new(&data, AnalysisConfig::default()).is_ok());
    data.syslog.reverse();
    assert_eq!(
        StreamAnalysis::try_new(&data, AnalysisConfig::default()).err(),
        Some(AnalysisError::UnsortedInput { dataset: "syslog" })
    );
}

#[test]
fn late_events_are_counted_and_dropped_never_regressing_the_watermark() {
    let data = run(&ScenarioParams::tiny(7));
    let events = scenario_event_stream(&data);
    let mut stream = StreamAnalysis::new(&data, AnalysisConfig::default());
    // Feed an in-order prefix, then re-offer an earlier event.
    let cut = events.len() / 2;
    for e in &events[..cut] {
        assert_eq!(stream.ingest(e), IngestOutcome::Accepted);
    }
    let w = stream.watermark().expect("prefix advanced the watermark");
    let late = events
        .iter()
        .find(|e| e.at() < w)
        .expect("prefix spans more than one timestamp");
    assert_eq!(stream.ingest(late), IngestOutcome::Late);
    assert_eq!(stream.watermark(), Some(w), "watermark must not regress");
    let offered = stream.events_ingested();
    assert_eq!(offered, cut as u64 + 1, "late events are still offered");
    // The batch path counts it identically.
    let summary = stream.ingest_batch(std::slice::from_ref(late));
    assert_eq!(summary.late, 1);
    assert_eq!(stream.watermark(), Some(w));
    let result = stream.flush();
    let s = result.report.streaming.expect("streaming counters");
    assert_eq!(s.late_events, 2);
}

#[test]
fn ingest_batch_summary_accounts_every_event() {
    let data = run(&ScenarioParams::tiny(11));
    let events = scenario_event_stream(&data);
    let mid = events[events.len() / 2].at();
    let config = AnalysisConfig {
        quarantine_horizon: Some(mid),
        ..AnalysisConfig::default()
    };
    let mut stream = StreamAnalysis::new(&data, config);
    let mut total = IngestSummary::default();
    for c in events.chunks(43) {
        let s = stream.ingest_batch(c);
        total.accepted += s.accepted;
        total.quarantined += s.quarantined;
        total.late += s.late;
    }
    assert_eq!(
        total.accepted + total.quarantined + total.late,
        events.len() as u64
    );
    assert!(total.quarantined > 0, "mid-stream horizon quarantines");
    assert_eq!(total.late, 0, "scenario stream is in order");
    assert_eq!(stream.events_ingested(), events.len() as u64);
}

#[test]
fn checkpoint_restore_at_any_cut_equals_uninterrupted() {
    let data = run(&ScenarioParams::tiny(3));
    let config = AnalysisConfig::default();
    let events = scenario_event_stream(&data);

    let mut uninterrupted = StreamAnalysis::new(&data, config.clone());
    for e in &events {
        uninterrupted.ingest(e);
    }
    let reference = serde_json::to_string(&uninterrupted.flush().output).unwrap();

    for cut in [1usize, events.len() / 3, events.len() / 2, events.len() - 1] {
        let mut first = StreamAnalysis::new(&data, config.clone());
        for e in &events[..cut] {
            first.ingest(e);
        }
        let ckpt = first.checkpoint();
        assert_eq!(ckpt.seq(), cut as u64);
        drop(first); // the "crash"

        // Round-trip through JSON: what recovery actually reloads.
        let bytes = serde_json::to_string(&ckpt).unwrap();
        let reloaded: StreamCheckpoint = serde_json::from_str(&bytes).unwrap();
        let mut second = StreamAnalysis::restore(&data, reloaded).expect("valid checkpoint");
        assert_eq!(second.events_ingested(), cut as u64);
        for e in &events[cut..] {
            second.ingest(e);
        }
        let resumed = serde_json::to_string(&second.flush().output).unwrap();
        assert_eq!(reference, resumed, "cut at {cut}");
    }
}

/// A snapshot stores primary state only. The JSON of a checkpoint and
/// a delta names none of the values a restore derives — a merge's down count, a lane's link id, multi-link status
/// and segment end, the open-item count, the merge halves of the
/// tallies' merge stats.
#[test]
fn snapshots_store_no_derived_value() {
    let data = run(&ScenarioParams::tiny(7));
    let events = scenario_event_stream(&data);
    let cut = events.len() / 3;
    let mut first = StreamAnalysis::new(&data, AnalysisConfig::default());
    for e in &events[..cut] {
        first.ingest(e);
    }
    assert!(first.open_state() > 0, "the cut holds open items");
    let checkpoint = first.checkpoint();
    let delta = first.checkpoint_delta();

    let tallies = |json: &str| {
        let value: serde_json::Value = serde_json::from_str(json).unwrap();
        serde_json::to_string(&value["tallies"]).unwrap()
    };
    for (what, json) in [
        ("checkpoint", serde_json::to_string(&checkpoint).unwrap()),
        ("delta", serde_json::to_string(&delta).unwrap()),
    ] {
        for field in [
            "down_count",
            "link_id",
            "resolvable",
            "seg_max_end",
            "open_items",
        ] {
            let key = format!("\"{field}\":");
            assert!(!json.contains(&key), "the {what} stores {field}");
        }
        let tallies = tallies(&json);
        assert!(tallies.contains("\"open_items_hwm\":"), "{tallies}");
        for field in ["inconsistent", "emitted"] {
            assert!(
                !tallies.contains(field),
                "the {what}'s tallies store {field}"
            );
        }
    }
}

/// A restore derives the open-item count from the lanes it restores: a
/// checkpoint that stores no such count resumes with the count and the
/// high-water mark of a run that never stopped.
#[test]
fn restore_derives_open_items_from_the_lanes() {
    let data = run(&ScenarioParams::tiny(7));
    let config = AnalysisConfig::default();
    let events = scenario_event_stream(&data);
    let mut uninterrupted = StreamAnalysis::new(&data, config.clone());
    for e in &events {
        uninterrupted.ingest(e);
    }
    let reference = uninterrupted.flush();

    let cut = events.len() / 3;
    let mut first = StreamAnalysis::new(&data, config);
    for e in &events[..cut] {
        first.ingest(e);
    }
    let open = first.open_state();
    assert!(open > 0, "the cut holds open items");
    let json = serde_json::to_string(&first.checkpoint()).unwrap();
    assert!(!json.contains("\"open_items\":"), "{json}");
    let restored: StreamCheckpoint = serde_json::from_str(&json).unwrap();

    let mut second = StreamAnalysis::restore(&data, restored).expect("valid config");
    assert_eq!(second.open_state(), open);
    for e in &events[cut..] {
        second.ingest(e);
    }
    let resumed = second.flush();
    assert_eq!(
        serde_json::to_string(&reference.output).unwrap(),
        serde_json::to_string(&resumed.output).unwrap()
    );
    let high_water = |r: &faultline_core::StreamResult| {
        r.report.streaming.as_ref().unwrap().open_state_high_water
    };
    assert_eq!(high_water(&resumed), high_water(&reference));
}

/// Whether any merge in a snapshot's JSON holds a withdrawn origin: an
/// `advertised` entry whose flag is false.
fn holds_withdrawn_origin(value: &serde_json::Value) -> bool {
    match value {
        serde_json::Value::Object(map) => map.iter().any(|(key, v)| {
            let withdrawn = key == "advertised"
                && v.as_array().is_some_and(|origins| {
                    origins
                        .iter()
                        .filter_map(|o| o.as_array().and_then(|pair| pair.get(1)))
                        .any(|flag| flag.as_bool() == Some(false))
                });
            withdrawn || holds_withdrawn_origin(v)
        }),
        serde_json::Value::Array(items) => items.iter().any(holds_withdrawn_origin),
        _ => false,
    }
}

/// A restore derives each both-ends merge's down count from its
/// origins' advertisements: a checkpoint that holds a withdrawn origin
/// and stores no down count resumes to the bytes of a run that never
/// stopped.
#[test]
fn restore_derives_down_counts_from_the_advertisements() {
    let data = run(&ScenarioParams::tiny(7));
    let config = AnalysisConfig::default();
    let events = scenario_event_stream(&data);
    let mut uninterrupted = StreamAnalysis::new(&data, config.clone());
    for e in &events {
        uninterrupted.ingest(e);
    }
    let reference = uninterrupted.flush();

    let cut = events.len() / 3;
    let mut first = StreamAnalysis::new(&data, config);
    for e in &events[..cut] {
        first.ingest(e);
    }
    let json = serde_json::to_string(&first.checkpoint()).unwrap();
    assert!(!json.contains("\"down_count\":"), "{json}");
    let value: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert!(
        holds_withdrawn_origin(&value),
        "the cut holds a withdrawn origin"
    );
    let restored: StreamCheckpoint = serde_json::from_value(value).unwrap();

    let mut second = StreamAnalysis::restore(&data, restored).expect("valid config");
    for e in &events[cut..] {
        second.ingest(e);
    }
    assert_eq!(
        serde_json::to_string(&reference.output).unwrap(),
        serde_json::to_string(&second.flush().output).unwrap()
    );
}

#[test]
fn checkpoint_bytes_are_deterministic() {
    let data = run(&ScenarioParams::tiny(8));
    let events = scenario_event_stream(&data);
    let mut stream = StreamAnalysis::new(&data, AnalysisConfig::default());
    for e in &events[..events.len() / 2] {
        stream.ingest(e);
    }
    let a = serde_json::to_string(&stream.checkpoint()).unwrap();
    let b = serde_json::to_string(&stream.checkpoint()).unwrap();
    assert_eq!(a, b, "same state must serialize to the same bytes");
}

#[test]
fn all_strategies_stay_equivalent() {
    let data = run(&ScenarioParams::tiny(9));
    for strategy in [
        AmbiguityStrategy::PreviousState,
        AmbiguityStrategy::AssumeDown,
        AmbiguityStrategy::AssumeUp,
    ] {
        let config = AnalysisConfig {
            strategy,
            ..AnalysisConfig::default()
        };
        let expected = batch_json(&data, &config);
        let mut stream = StreamAnalysis::new(&data, config);
        for c in scenario_event_stream(&data).chunks(33) {
            stream.ingest_batch(c);
        }
        let stream_json = serde_json::to_string(&stream.flush().output).unwrap();
        assert_eq!(expected, stream_json, "{strategy:?}");
    }
}
