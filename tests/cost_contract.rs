//! The cost contract: what each layer of each workload shape costs,
//! pinned as exact counts.
//!
//! The benchmark (`benchmark/`, `BENCHMARK.json`) times six workload
//! shapes; this test counts them. Each shape runs once over
//! `ScenarioParams::tiny(7)` and once over the paper's network for a
//! week (`ScenarioParams::sized(42, 1.0, 7.0)`, 2,040 events), and every
//! layer it crosses is pinned by three counts over the run's events:
//!
//! * `allocations` — `alloc` + `realloc` calls on the calling thread,
//!   with the counting allocator the other allocation contracts share;
//! * `alloc_bytes` — the bytes those calls asked for;
//! * `peak_live` — the most bytes the layer held live at once on the
//!   calling thread, above what the thread held when the layer began;
//! * `retained` — the live bytes the layer left behind: what it holds at
//!   its end minus what it held at its start (what it returns counts);
//! * `bytes_out` — the bytes the layer wrote to disk or sent to a
//!   worker (0 for a layer that does neither).
//!
//! Each is a total over the row's `events`, so a per-event figure is
//! exact as a quotient. A layer measured in several spans (one per
//! ingest unit, say) sums its counts and its `retained`, and its
//! `peak_live` is the high-water of its own running total: the bytes it
//! kept in earlier spans plus the peak of a later one. The shapes:
//!
//! * `batch_archive` — the syslog half rendered to a raw archive with
//!   four irrelevant lines after every event line, parsed
//!   (`collector::parse_records`), analyzed (`Analysis::run`) and
//!   exported as JSON. The mid-size archive has 7,040 lines, under two
//!   parse blocks, so the parse starts no helper thread and every owned
//!   string is made on the calling thread. The parse's cost leaves out
//!   its one `available_parallelism` probe, which reads the machine's
//!   cgroup files (measured alone just before, and subtracted).
//! * `stream_live` — a blocking admission queue in front of the
//!   streaming engine, in units of 256 events.
//! * `durable_stream` — every event journaled, with a full snapshot at
//!   half the stream and a delta 5% of the stream later, both written
//!   with `checkpoint_now`, on this thread.
//! * `crash_recover` — the same run dropped at 90% of the stream, then
//!   recovered (restore the full + delta chain, replay the journal
//!   tail, write the compaction snapshot), fed the rest and finished.
//! * `cluster_wide` — two shards: the naming build, the partition
//!   (`cluster::partition_events`), each shard's engine over its
//!   substream and `cluster::merge_outputs`, all on this thread; and a
//!   real in-process `run_cluster`, which sends no byte.
//! * `cluster_subprocess` — `run_cluster` over two
//!   `faultline-shard-worker` processes: the bytes the dispatcher sends.
//!
//! Every answer is checked byte for byte against `Analysis::run`.
//!
//! **Left out, because they depend on thread timing or the machine, not
//! on the code** (a `null` in the golden file):
//!
//! * the dispatcher's allocations and live bytes on both cluster runs. The standard
//!   library's channel allocates to register the dispatcher as a waiter
//!   when it blocks on a worker, and whether it blocks depends on how
//!   far the worker got (`tests/dispatch_costs.rs` bounds them instead);
//!   spawning a worker process also copies the environment. The live
//!   bytes are not the dispatcher's alone either: the blocks a worker
//!   thread allocates and the dispatcher frees move its total.
//! * the snapshot writer thread: a cadence snapshot is captured here but
//!   encoded and written there, and whether one falls back to this
//!   thread (`snapshot_sync_fallbacks`) depends on the writer's timing.
//!   That is why the durable shapes run with `checkpoint_interval: 0`
//!   and write their snapshots with `checkpoint_now`.
//! * `bytes_received`: a shard's answer carries its report, whose wall
//!   timings are rendered as numbers of varying width.
//!
//! Among the pins are the two snapshot sizes at the mid-size cut, the
//! `bytes_out` of `core.recovery.checkpoint` and `core.recovery.delta`;
//! the test also asserts the delta at least five times smaller.
//!
//! The same pins hold in debug and release builds. A change that moves
//! a count re-blesses the file with the reason, which the file keeps:
//! `FAULTLINE_BLESS="<why the counts moved>" cargo test --test cost_contract`.
//! The counts assume narration is off (`FAULTLINE_TRACE`, `RUST_LOG`).

use faultline_core::admission::{AdmissionConfig, AdmissionController, Offer};
use faultline_core::cluster::{
    merge_outputs, partition_events, run_cluster, ClusterConfig, SubprocessOptions, Workers,
};
use faultline_core::transport::ScenarioSpec;
use faultline_core::{
    linktable, scenario_event_stream, Analysis, AnalysisConfig, DurabilityPolicy, DurableStream,
    IngestOutcome, StreamAnalysis, StreamEvent, StreamOutput,
};
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_sim::ScenarioData;
use faultline_syslog::caltime;
use faultline_syslog::collector::{parse_records, LogRecord};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

// `allocations`, the call count alone, serves the other contracts.
#[allow(dead_code)]
#[path = "../crates/syslog/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{cost, Cost, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Events per ingest unit, as in the benchmark.
const UNIT: usize = 256;
/// Irrelevant archive lines after every event line, as in the benchmark.
const NOISE_PER_EVENT: usize = 4;
/// Shards in both cluster shapes.
const SHARDS: u32 = 2;
/// The mid-size scenario's name in the pins.
const MID: &str = "sized(42, 1.0, 7.0)";

/// What the golden file holds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pins {
    /// Why the counts last moved.
    reason: String,
    rows: Vec<Row>,
}

/// One layer of one shape over one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Row {
    scenario: String,
    shape: String,
    layer: String,
    events: u64,
    /// `None`: depends on thread timing (see the module docs).
    allocations: Option<u64>,
    alloc_bytes: Option<u64>,
    peak_live: Option<u64>,
    retained: Option<i64>,
    bytes_out: u64,
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cost_contract.json")
}

/// A scratch directory whose path has the same length on every run,
/// relative to the package root, so what a durable layer allocates for
/// its paths does not depend on where the machine keeps temporary files.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let dir = PathBuf::from(format!("target/cost-contract-{:010}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The scenario under one shape's passes, and what every pass must give.
struct Input {
    name: &'static str,
    params: ScenarioParams,
    data: ScenarioData,
    events: Vec<StreamEvent>,
    reference: String,
}

impl Input {
    fn new(name: &'static str, params: ScenarioParams) -> Input {
        let data = run(&params);
        let events = scenario_event_stream(&data);
        let reference = answer(&Analysis::run(&data, AnalysisConfig::default()).output);
        Input {
            name,
            params,
            data,
            events,
            reference,
        }
    }

    fn check(&self, shape: &str, output: &StreamOutput) {
        assert!(
            answer(output) == self.reference,
            "{}: {shape} differs from Analysis::run",
            self.name
        );
    }
}

fn answer(output: &StreamOutput) -> String {
    serde_json::to_string(output).expect("the answer serializes")
}

/// One layer's row before it is named: the layer, its calling-thread
/// cost (`None` when thread timing decides it), its bytes out.
type Layer = (&'static str, Option<Cost>, u64);

/// Two spans of one layer, `a` then `b`.
fn sum(a: Cost, b: Cost) -> Cost {
    Cost {
        allocations: a.allocations + b.allocations,
        bytes: a.bytes + b.bytes,
        peak_live: a
            .peak_live
            .max((a.retained + b.peak_live as i64).max(0) as u64),
        retained: a.retained + b.retained,
    }
}

/// Well-formed Cisco messages with mnemonics the study ignores.
const NOISE_BODIES: [&str; 4] = [
    "%SYS-5-CONFIG_I: Configured from console by admin on vty0 (10.0.0.1)",
    "%BGP-5-ADJCHANGE: neighbor 10.255.0.2 Up",
    "%ENVMON-4-FAN_LOW_RPM: Fan 2 service recommended",
    "%NTP-6-PEERREACH: Peer 10.0.0.9 is reachable",
];

/// The syslog half as the collector's raw archive, with
/// `NOISE_PER_EVENT` irrelevant lines after every event line.
fn raw_archive(data: &ScenarioData) -> Vec<LogRecord> {
    let mut records = Vec::new();
    for (i, msg) in data.syslog.iter().enumerate() {
        records.push(LogRecord {
            arrived_at: msg.event.at,
            line: msg.render(),
        });
        for (k, body) in NOISE_BODIES.iter().enumerate().take(NOISE_PER_EVENT) {
            records.push(LogRecord {
                arrived_at: msg.event.at,
                line: format!(
                    "<189>{}: {}: {}: {body}",
                    i * NOISE_PER_EVENT + k,
                    msg.event.host,
                    caltime::render(msg.event.at)
                ),
            });
        }
    }
    records
}

fn batch_archive(input: &Input) -> Vec<Layer> {
    let records = raw_archive(&input.data);
    assert!(records.len() < 2 * faultline_syslog::collector::MIN_CHUNK_LINES);
    let (probe, _) = cost(std::thread::available_parallelism);
    let (parse, (messages, stats)) = cost(|| parse_records(&records));
    assert_eq!(stats.malformed, 0);
    // The probe's transient buffers are freed long before the parse's
    // peak, which is left as measured.
    let parse = Cost {
        allocations: parse.allocations - probe.allocations,
        bytes: parse.bytes - probe.bytes,
        retained: parse.retained - probe.retained,
        ..parse
    };
    let data = ScenarioData {
        syslog: messages,
        ..input.data.clone()
    };
    let (analysis, a) = cost(|| Analysis::run(&data, AnalysisConfig::default()));
    let (export, json) = cost(|| answer(&a.output));
    assert!(json == input.reference, "{}: batch_archive", input.name);
    vec![
        ("syslog.parse", Some(parse), 0),
        ("core.analysis", Some(analysis), 0),
        ("core.export", Some(export), json.len() as u64),
    ]
}

fn stream_live(input: &Input) -> Vec<Layer> {
    let mut ctl = AdmissionController::new(AdmissionConfig::default());
    let (new, mut engine) = cost(|| StreamAnalysis::new(&input.data, AnalysisConfig::default()));
    let (mut admission, mut ingest) = (Cost::default(), Cost::default());
    let mut served = Vec::with_capacity(UNIT);
    for chunk in input.events.chunks(UNIT) {
        // `offer` takes the event by value; the copy is the load
        // generator's, outside the count.
        let staged: Vec<StreamEvent> = chunk.to_vec();
        let (spent, ()) = cost(|| {
            for event in staged {
                assert!(matches!(ctl.offer(event), Offer::Enqueued));
            }
            served.clear();
            ctl.drain(UNIT, &mut served);
        });
        admission = sum(admission, spent);
        let (spent, summary) = cost(|| engine.ingest_batch(&served));
        ingest = sum(ingest, spent);
        ctl.note_engine(&summary);
    }
    assert_eq!(ctl.queued(), 0);
    let (flush, result) = cost(|| engine.flush());
    input.check("stream_live", &result.output);
    vec![
        ("core.streaming.new", Some(new), 0),
        ("core.admission", Some(admission), 0),
        ("core.streaming.ingest", Some(ingest), 0),
        ("core.streaming.flush", Some(flush), 0),
    ]
}

/// Inline snapshots only: the writer thread never starts.
fn inline_policy() -> DurabilityPolicy {
    DurabilityPolicy {
        checkpoint_interval: 0,
        ..DurabilityPolicy::default()
    }
}

/// Where the full snapshot and the delta are written, and where the
/// crashed run stops.
fn cuts(events: usize) -> (usize, usize, usize) {
    (events / 2, events / 2 + events / 20, events * 9 / 10)
}

/// Journal `events`; the cost, and the journal bytes appended.
fn ingest_durably(durable: &mut DurableStream, events: &[StreamEvent]) -> (Cost, u64) {
    let before = durable.counters().journal_bytes;
    let (spent, ()) = cost(|| {
        for event in events {
            let outcome = durable.ingest(event).expect("journaled ingest");
            assert!(matches!(outcome, IngestOutcome::Accepted));
        }
    });
    (spent, durable.counters().journal_bytes - before)
}

fn durable_stream(input: &Input, dir: &Path) -> Vec<Layer> {
    let (full_at, delta_at, _) = cuts(input.events.len());
    let events = &input.events;
    let (create, durable) = cost(|| {
        DurableStream::create(dir, &input.data, AnalysisConfig::default(), inline_policy())
    });
    let mut durable = durable.expect("create");
    let (head, head_bytes) = ingest_durably(&mut durable, &events[..full_at]);
    let (full, ()) = cost(|| durable.checkpoint_now().expect("full checkpoint"));
    let (middle, middle_bytes) = ingest_durably(&mut durable, &events[full_at..delta_at]);
    let (delta, ()) = cost(|| durable.checkpoint_now().expect("delta"));
    let (tail, tail_bytes) = ingest_durably(&mut durable, &events[delta_at..]);
    let c = durable.counters();
    assert_eq!((c.checkpoints_written, c.deltas_written), (2, 1));
    let (finish, result) = cost(|| durable.finish());
    input.check("durable_stream", &result.output);
    let after = result.report.durability.expect("durability counters");
    vec![
        ("core.recovery.create", Some(create), 0),
        (
            "core.recovery.ingest",
            Some(sum(sum(head, middle), tail)),
            head_bytes + middle_bytes + tail_bytes,
        ),
        ("core.recovery.checkpoint", Some(full), c.full_bytes_total),
        ("core.recovery.delta", Some(delta), c.delta_bytes_total),
        (
            "core.recovery.finish",
            Some(finish),
            after.journal_bytes - c.journal_bytes,
        ),
    ]
}

fn crash_recover(input: &Input, dir: &Path) -> Vec<Layer> {
    let (full_at, delta_at, crash_at) = cuts(input.events.len());
    let events = &input.events;
    let config = AnalysisConfig::default();
    {
        let mut durable =
            DurableStream::create(dir, &input.data, config.clone(), inline_policy()).unwrap();
        ingest_durably(&mut durable, &events[..full_at]);
        durable.checkpoint_now().unwrap();
        ingest_durably(&mut durable, &events[full_at..delta_at]);
        durable.checkpoint_now().unwrap();
        ingest_durably(&mut durable, &events[delta_at..crash_at]);
        // Dropped without `finish`: what a killed collector leaves.
    }
    let (recover, recovered) =
        cost(|| DurableStream::recover(dir, &input.data, config, inline_policy()));
    let (mut durable, report) = recovered.expect("recover");
    assert_eq!(report.resumed_at_seq, crash_at as u64);
    assert_eq!(report.chain_length, 1, "restored the full + delta chain");
    assert!(report.compacted);
    let c = durable.counters();
    let (ingest, journal_bytes) = ingest_durably(&mut durable, &events[crash_at..]);
    let journal = durable.counters().journal_bytes;
    let (finish, result) = cost(|| durable.finish());
    input.check("crash_recover", &result.output);
    let after = result.report.durability.expect("durability counters");
    vec![
        (
            "core.recovery.recover",
            Some(recover),
            c.full_bytes_total + c.delta_bytes_total,
        ),
        ("core.recovery.ingest", Some(ingest), journal_bytes),
        (
            "core.recovery.finish",
            Some(finish),
            after.journal_bytes - journal,
        ),
    ]
}

fn cluster_wide(input: &Input) -> Vec<Layer> {
    let (build, table) = cost(|| linktable::from_scenario(&input.data));
    let (partition, substreams) = cost(|| partition_events(&table, &input.events, SHARDS));
    let mut shards = Cost::default();
    let mut outputs = Vec::new();
    for substream in &substreams {
        let (spent, output) = cost(|| {
            let mut engine = StreamAnalysis::new(&input.data, AnalysisConfig::default());
            substream.chunks(UNIT).for_each(|unit| {
                engine.ingest_batch(unit);
            });
            engine.flush().output
        });
        shards = sum(shards, spent);
        outputs.push(output);
    }
    let (merge, merged) = cost(|| merge_outputs(outputs));
    input.check("cluster_wide (partitioned)", &merged);

    let result = run_cluster(&input.data, &input.events, &ClusterConfig::new(SHARDS))
        .expect("in-process cluster run");
    input.check("cluster_wide", &result.output);
    let sent = result.report.transport.map_or(0, |t| t.bytes_sent);
    vec![
        ("core.linktable.build", Some(build), 0),
        ("core.cluster.partition", Some(partition), 0),
        ("core.cluster.shards", Some(shards), 0),
        ("core.cluster.merge", Some(merge), 0),
        ("core.cluster.dispatch", None, sent),
    ]
}

fn cluster_subprocess(input: &Input) -> Vec<Layer> {
    let cfg = ClusterConfig {
        workers: Workers::Subprocess(SubprocessOptions {
            worker_bin: PathBuf::from(env!("CARGO_BIN_EXE_faultline-shard-worker")),
            scenario: ScenarioSpec::Params(Box::new(input.params.clone())),
        }),
        ..ClusterConfig::new(SHARDS)
    };
    let result = run_cluster(&input.data, &input.events, &cfg).expect("subprocess cluster run");
    input.check("cluster_subprocess", &result.output);
    let wire = result.report.transport.expect("transport ledger");
    vec![("core.transport", None, wire.bytes_sent)]
}

/// Every count this file pins, measured now.
fn measure() -> Pins {
    let scratch = Scratch::new();
    let mut rows = Vec::new();
    for (i, (name, params)) in [
        ("tiny(7)", ScenarioParams::tiny(7)),
        (MID, ScenarioParams::sized(42, 1.0, 7.0)),
    ]
    .into_iter()
    .enumerate()
    {
        let input = Input::new(name, params);
        let shapes = [
            ("batch_archive", batch_archive(&input)),
            ("stream_live", stream_live(&input)),
            (
                "durable_stream",
                durable_stream(&input, &scratch.0.join(format!("{i}-durable"))),
            ),
            (
                "crash_recover",
                crash_recover(&input, &scratch.0.join(format!("{i}-crashed"))),
            ),
            ("cluster_wide", cluster_wide(&input)),
            ("cluster_subprocess", cluster_subprocess(&input)),
        ];
        for (shape, layers) in shapes {
            for (layer, spent, bytes_out) in layers {
                rows.push(Row {
                    scenario: name.to_string(),
                    shape: shape.to_string(),
                    layer: layer.to_string(),
                    events: input.events.len() as u64,
                    allocations: spent.map(|c| c.allocations),
                    alloc_bytes: spent.map(|c| c.bytes),
                    peak_live: spent.map(|c| c.peak_live),
                    retained: spent.map(|c| c.retained),
                    bytes_out,
                });
            }
        }
    }
    Pins {
        reason: String::new(),
        rows,
    }
}

/// The bytes out of the mid-size durable run's `layer`.
fn mid_durable_bytes(pins: &Pins, layer: &str) -> u64 {
    pins.rows
        .iter()
        .find(|r| r.scenario == MID && r.shape == "durable_stream" && r.layer == layer)
        .map(|r| r.bytes_out)
        .expect("the mid-size durable run")
}

#[test]
fn every_layer_costs_what_is_pinned() {
    let mut got = measure();
    let full = mid_durable_bytes(&got, "core.recovery.checkpoint");
    let delta = mid_durable_bytes(&got, "core.recovery.delta");
    assert!(
        full >= 5 * delta,
        "a delta must be at least 5x smaller than a full checkpoint: {full} vs {delta} bytes"
    );
    if let Some(reason) = std::env::var_os("FAULTLINE_BLESS").filter(|v| v != "0") {
        got.reason = reason.to_string_lossy().into_owned();
        assert!(
            got.reason.len() > 1,
            "re-bless with the reason the counts moved: FAULTLINE_BLESS=\"<why>\""
        );
        let text = serde_json::to_string_pretty(&got).unwrap();
        std::fs::write(golden_path(), text + "\n").expect("write the pins");
    }
    let text = std::fs::read_to_string(golden_path()).expect("tests/golden/cost_contract.json");
    let pinned: Pins = serde_json::from_str(&text).expect("the pins parse");
    got.reason.clone_from(&pinned.reason);
    let moved: Vec<String> = got
        .rows
        .iter()
        .zip(&pinned.rows)
        .filter(|(g, p)| g != p)
        .map(|(g, p)| format!("  now {g:?}\n  was {p:?}"))
        .collect();
    assert_eq!(
        got,
        pinned,
        "a count moved; if on purpose, re-bless with the reason (see the module docs):\n{}",
        moved.join("\n")
    );
}
