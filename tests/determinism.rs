//! Reproducibility contract: everything in the pipeline is a pure
//! function of its seeds. Re-running a scenario and its analysis must
//! yield byte-identical results; changing any seed must change them.

use faultline_core::{
    run_cluster, scenario_event_stream, Analysis, AnalysisConfig, ClusterConfig, ParallelismConfig,
    StreamAnalysis,
};
use faultline_sim::scenario::{run, ScenarioParams};

fn fingerprint(params: &ScenarioParams) -> String {
    let data = run(params);
    fingerprint_with(&Analysis::new(&data, AnalysisConfig::default()))
}

fn fingerprint_with(a: &Analysis<'_>) -> String {
    let t4 = a.table4();
    let t3 = a.table3();
    let (t6, _) = a.table6();
    format!(
        "{}|{}|{}|{:.3}|{:.3}|{}|{}|{}|{}",
        t4.isis_failures,
        t4.syslog_failures,
        t4.overlap_failures,
        t4.isis_downtime_hours,
        t4.syslog_downtime_hours,
        t3.down.none,
        t3.up.both,
        t6.total_ambiguous,
        a.data.raw_syslog_lines,
    )
}

#[test]
fn same_seed_same_results() {
    let params = ScenarioParams::tiny(301);
    assert_eq!(fingerprint(&params), fingerprint(&params));
}

/// `ParallelismConfig` is a compatibility shell: lanes apply on the
/// calling thread whatever it says. A config asking for eight threads in
/// chunks of three gives the default config's bytes on every driver —
/// batch, streaming at micro-batches of 1, 256 and 4096, and a 2-shard
/// cluster — and its reports say the lane work used one thread.
#[test]
fn thread_count_does_not_change_results() {
    let data = run(&ScenarioParams::tiny(305));
    let events = scenario_event_stream(&data);
    let shell = AnalysisConfig {
        parallelism: ParallelismConfig {
            threads: 8,
            chunk_size: 3,
        },
        ..AnalysisConfig::default()
    };
    let answers = |config: &AnalysisConfig| {
        let batch = Analysis::run(&data, config.clone());
        assert_eq!(batch.report.threads, 1);
        let mut got = vec![serde_json::to_string(&batch.output).unwrap()];
        for chunk in [1usize, 256, 4096] {
            let mut stream = StreamAnalysis::new(&data, config.clone());
            for c in events.chunks(chunk) {
                stream.ingest_batch(c);
            }
            let result = stream.flush();
            assert_eq!(result.report.threads, 1, "chunk {chunk}");
            got.push(serde_json::to_string(&result.output).unwrap());
        }
        let cluster = ClusterConfig {
            analysis: config.clone(),
            ..ClusterConfig::new(2)
        };
        let result = run_cluster(&data, &events, &cluster).expect("valid cluster run");
        assert_eq!(result.report.threads, 1);
        got.push(serde_json::to_string(&result.output).unwrap());
        got
    };
    let default = answers(&AnalysisConfig::default());
    assert!(default.iter().all(|json| *json == default[0]));
    assert_eq!(answers(&shell), default);
}

#[test]
fn workload_seed_changes_results() {
    let a = ScenarioParams::tiny(302);
    let mut b = ScenarioParams::tiny(302);
    b.workload.seed ^= 1;
    assert_ne!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn transport_seed_changes_syslog_only() {
    let a = ScenarioParams::tiny(303);
    let mut b = ScenarioParams::tiny(303);
    b.transport.seed ^= 1;
    let da = run(&a);
    let db = run(&b);
    // IS-IS view identical; syslog view differs... the scenario RNG is
    // shared, so only the transport decisions change.
    assert_eq!(da.transitions, db.transitions);
    assert_ne!(da.raw_syslog_lines, db.raw_syslog_lines);
}

#[test]
fn topology_seed_changes_everything() {
    let a = ScenarioParams::tiny(304);
    let mut b = ScenarioParams::tiny(304);
    b.topology.seed ^= 1;
    assert_ne!(fingerprint(&a), fingerprint(&b));
}
