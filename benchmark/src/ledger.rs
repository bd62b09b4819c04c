//! The per-layer cost ledger: what each layer an event crosses costs, in
//! ns/event, bytes/event and allocations/event, measured from outside.
//!
//! Every traced run fills the whole ledger, on the `paper` scenario
//! (plus the `.wide` variants), whatever workload it traces: the ledger
//! describes the program, the spans in `trace.<workload>.json` describe
//! the workload. A layer's number comes from a span around its public
//! call inside a traced pass of the workload that crosses it, or — where
//! no workload isolates the layer — from a probe calling it directly.
//! Every answer the ledger produces is checked against the reference.

use crate::inputs::Inputs;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{shape, Pass, Prepared, Workload, UNIT};
use faultline_core::cluster::{merge_outputs, partition_events};
use faultline_core::transport::{read_frame, write_frame, ShardMsg};
use faultline_core::{
    linktable, run_cluster, Analysis, AnalysisConfig, ClusterConfig, ParallelismConfig,
    PipelineReport, StreamAnalysis, StreamOutput,
};
use faultline_isis::listener::Listener;
use faultline_sim::routers::RouterNode;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// `(name, unit, better)` of every per-layer metric, in print order.
/// `BENCHMARK.json` lists the same names.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("syslog.parse.ns_per_line", "ns", "lower"),
    ("syslog.parse.event_yield", "ratio", "higher"),
    ("syslog.parse.allocs_per_line", "count", "lower"),
    ("core.export.answer_json_ms", "ms", "lower"),
    ("core.export.answer_json_bytes", "bytes", "lower"),
    ("core.linktable.build_ms.paper", "ms", "lower"),
    ("core.linktable.build_ms.wide", "ms", "lower"),
    ("core.kernel.classify_ns_per_event", "ns", "lower"),
    ("core.kernel.lane_apply_ns_per_event", "ns", "lower"),
    ("core.kernel.collect_ms", "ms", "lower"),
    ("core.kernel.classify_ns_per_event.t1", "ns", "lower"),
    ("core.kernel.lane_apply_ns_per_event.t1", "ns", "lower"),
    ("core.kernel.collect_ms.t1", "ms", "lower"),
    ("core.kernel.allocs_per_event", "count", "lower"),
    ("core.kernel.alloc_bytes_per_event", "bytes", "lower"),
    ("core.analysis.run_ms", "ms", "lower"),
    ("core.streaming.ingest_ns_per_event.c1", "ns", "lower"),
    ("core.streaming.ingest_ns_per_event.c256", "ns", "lower"),
    ("core.streaming.ingest_ns_per_event.c4096", "ns", "lower"),
    (
        "core.streaming.serial_ingest_ns_per_event.c256",
        "ns",
        "lower",
    ),
    ("core.streaming.flush_ms", "ms", "lower"),
    ("core.streaming.checkpoint_ms", "ms", "lower"),
    ("core.streaming.checkpoint_bytes", "bytes", "lower"),
    ("core.streaming.delta_bytes", "bytes", "lower"),
    ("core.streaming.segments_closed", "count", "higher"),
    ("core.streaming.open_state_high_water", "count", "lower"),
    ("core.streaming.arena_events_high_water", "count", "lower"),
    ("core.streaming.open_loop_p50_us.r100k", "us", "lower"),
    ("core.streaming.open_loop_p99_us.r100k", "us", "lower"),
    (
        "core.streaming.open_loop_backlog_max.r100k",
        "count",
        "lower",
    ),
    ("core.streaming.open_loop_p50_us.r250k", "us", "lower"),
    ("core.streaming.open_loop_p99_us.r250k", "us", "lower"),
    (
        "core.streaming.open_loop_backlog_max.r250k",
        "count",
        "lower",
    ),
    ("core.admission.offer_drain_ns_per_event", "ns", "lower"),
    ("core.admission.queue_high_water", "count", "lower"),
    ("core.admission.backpressure_waits", "count", "lower"),
    ("core.recovery.ingest_self_ns_per_event", "ns", "lower"),
    ("core.recovery.journal_bytes_per_event", "bytes", "lower"),
    ("core.recovery.checkpoints_written", "count", "lower"),
    ("core.recovery.deltas_written", "count", "higher"),
    ("core.recovery.snapshot_thread_stalls", "count", "lower"),
    ("core.recovery.checkpoint_write_micros_max", "us", "lower"),
    ("core.recovery.finish_ms", "ms", "lower"),
    ("core.recovery.recover_ms", "ms", "lower"),
    ("core.recovery.events_replayed", "count", "lower"),
    ("core.recovery.chain_length", "count", "lower"),
    ("core.recovery.tail_ms", "ms", "lower"),
    ("core.cluster.partition_ns_per_event", "ns", "lower"),
    ("core.cluster.dispatch_ms", "ms", "lower"),
    ("core.cluster.shard_ingest_ms", "ms", "lower"),
    ("core.cluster.merge_ms", "ms", "lower"),
    ("core.cluster.merge_outputs_ms", "ms", "lower"),
    ("core.cluster.skew", "ratio", "lower"),
    (
        "core.cluster.inproc_paper_events_per_s.s1",
        "events/s",
        "higher",
    ),
    (
        "core.cluster.inproc_paper_events_per_s.s2",
        "events/s",
        "higher",
    ),
    ("core.transport.write_frame_ns_per_event", "ns", "lower"),
    ("core.transport.read_frame_ns_per_event", "ns", "lower"),
    ("core.transport.frame_bytes_per_event", "bytes", "lower"),
    ("core.transport.frames_sent", "count", "lower"),
    ("core.transport.bytes_sent", "bytes", "lower"),
    ("core.transport.bytes_received", "bytes", "lower"),
    ("isis.listener.ns_per_lsp", "ns", "lower"),
    ("isis.listener.transitions_per_lsp", "ratio", "higher"),
    ("sim.scenario.run_ms.paper", "ms", "lower"),
    ("sim.scenario.run_ms.wide", "ms", "lower"),
    ("trace_overhead_fraction", "ratio", "lower"),
    ("all_cpus_events_per_s", "events/s", "higher"),
];

/// How often the ledger is filled in one traced run; a metric reads the
/// median of its samples.
const REPS: usize = 3;

/// Fixed arrival rates of the diagnostic open-loop arm, events/s.
const OPEN_LOOP_RATES: [(f64, &str); 2] = [(100_000.0, "r100k"), (250_000.0, "r250k")];

#[derive(Default)]
pub struct Ledger {
    samples: BTreeMap<String, Vec<f64>>,
    /// Events the ledger's own passes and probes offered / lost.
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    pub fn put(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Median of every metric, in `PER_LAYER` order. A name with no
    /// sample is a harness bug, not a zero.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let samples = self
                    .samples
                    .get(name)
                    .unwrap_or_else(|| panic!("ledger never measured {name}"));
                (name, stats::median(samples), unit)
            })
            .collect()
    }

    fn check(&mut self, n: u64, output: &StreamOutput, reference: &[u64], what: &str) {
        self.attempted += n;
        if shape(output) != reference {
            eprintln!("ledger: {what}: answer differs from the reference");
            self.failed += n;
        }
    }

    /// One traced pass of `workload` on `p`; returns the pass and its id.
    fn pass(
        &mut self,
        p: &mut Prepared,
        workload: Workload,
        tr: &mut Tracer,
    ) -> Result<(Pass, u32), String> {
        p.retarget(workload)?;
        let id = tr.next_pass();
        let checked = p.pass(tr, false);
        self.attempted += p.n();
        self.failed += checked.failed_events;
        let pass = checked
            .pass
            .ok_or_else(|| format!("ledger: {} pass returned an error", workload.name()))?;
        Ok((pass, id))
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn stage_micros(report: &PipelineReport, stage: &str) -> f64 {
    report.stage(stage).map_or(0.0, |s| s.wall_micros as f64)
}

/// Fill the ledger `REPS` times. `paper` and `wide` are set-ups on the two
/// scenarios; the tracer must be on.
pub fn fill(
    ledger: &mut Ledger,
    paper: &mut Prepared,
    wide: &mut Prepared,
    tr: &mut Tracer,
) -> Result<(), String> {
    ledger.put(
        "sim.scenario.run_ms.paper",
        paper.inputs.simulate.as_secs_f64() * 1e3,
    );
    ledger.put(
        "sim.scenario.run_ms.wide",
        wide.inputs.simulate.as_secs_f64() * 1e3,
    );
    for _ in 0..REPS {
        batch_layers(ledger, paper, tr)?;
        kernel_serial(ledger, &paper.inputs);
        for (p, scenario) in [(&*paper, "paper"), (&*wide, "wide")] {
            let t = Instant::now();
            black_box(linktable::from_scenario(&p.inputs.data));
            ledger.put(
                &format!("core.linktable.build_ms.{scenario}"),
                t.elapsed().as_secs_f64() * 1e3,
            );
        }
        let bare_ns = streaming_layers(ledger, paper);
        admission_layer(ledger, paper, tr)?;
        recovery_layers(ledger, paper, tr, bare_ns)?;
        cluster_layers(ledger, paper, wide, tr)?;
        transport_frames(ledger, &paper.inputs);
        listener(ledger, &paper.inputs);
    }
    // The open-loop arm runs at wall-clock pace, so once is all a run
    // can afford; it is a diagnostic, recorded and not gated.
    for (rate, tag) in OPEN_LOOP_RATES {
        open_loop(ledger, paper, rate, tag);
    }
    Ok(())
}

/// `syslog.parse`, `core.analysis`, `core.kernel` (default threads) and
/// `core.export`, from one traced `batch_archive` pass.
fn batch_layers(ledger: &mut Ledger, paper: &mut Prepared, tr: &mut Tracer) -> Result<(), String> {
    let n = paper.n() as f64;
    let (pass, id) = ledger.pass(paper, Workload::BatchArchive, tr)?;
    let span = |name| {
        tr.named(id, name)
            .next()
            .unwrap_or_else(|| panic!("batch_archive pass has no {name} span"))
    };
    let stats = pass.parse.expect("batch_archive passes carry parse stats");
    let parse = span("syslog.parse");
    ledger.put(
        "syslog.parse.ns_per_line",
        parse.ns() as f64 / stats.lines as f64,
    );
    ledger.put(
        "syslog.parse.event_yield",
        stats.events as f64 / stats.lines as f64,
    );
    ledger.put(
        "syslog.parse.allocs_per_line",
        parse.allocs as f64 / stats.lines as f64,
    );
    let run = span("core.analysis");
    ledger.put("core.analysis.run_ms", ms(run.ns()));
    ledger.put("core.kernel.allocs_per_event", run.allocs as f64 / n);
    ledger.put(
        "core.kernel.alloc_bytes_per_event",
        run.alloc_bytes as f64 / n,
    );
    kernel_stages(ledger, &pass.report, n, "");
    ledger.put("core.export.answer_json_ms", ms(span("core.export").ns()));
    let json = pass.json.expect("batch_archive passes carry the answer");
    ledger.put("core.export.answer_json_bytes", json.len() as f64);
    Ok(())
}

/// The kernel's stage walls as the program itself reports them.
fn kernel_stages(ledger: &mut Ledger, report: &PipelineReport, n: f64, suffix: &str) {
    let per_event = |stage| stage_micros(report, stage) * 1e3 / n;
    ledger.put(
        &format!("core.kernel.classify_ns_per_event{suffix}"),
        per_event("classify"),
    );
    ledger.put(
        &format!("core.kernel.lane_apply_ns_per_event{suffix}"),
        per_event("lane_apply"),
    );
    ledger.put(
        &format!("core.kernel.collect_ms{suffix}"),
        stage_micros(report, "collect") / 1e3,
    );
}

/// The single-threaded baseline of the same job: what the default
/// thread fan-out is to be judged against on this machine.
fn one_thread() -> AnalysisConfig {
    AnalysisConfig {
        parallelism: ParallelismConfig::with_threads(1),
        ..AnalysisConfig::default()
    }
}

/// The same batch job on one thread.
fn kernel_serial(ledger: &mut Ledger, inputs: &Inputs) {
    let analysis = Analysis::run(&inputs.data, one_thread());
    kernel_stages(ledger, &analysis.report, inputs.events.len() as f64, ".t1");
}

/// `core.streaming`: the bare engine at three micro-batch sizes, the
/// single-threaded baseline of the same job, flush, and full/delta
/// snapshot capture.
/// Returns the per-event (`c1`) ingest cost, which `core.recovery`
/// subtracts from its own.
fn streaming_layers(ledger: &mut Ledger, paper: &Prepared) -> f64 {
    let inputs = &paper.inputs;
    let events = &inputs.events;
    let n = events.len() as f64;
    let mut bare_ns = 0.0;
    let arms = [
        (
            "core.streaming.ingest_ns_per_event.c1",
            1,
            AnalysisConfig::default(),
        ),
        (
            "core.streaming.ingest_ns_per_event.c256",
            UNIT,
            AnalysisConfig::default(),
        ),
        (
            "core.streaming.ingest_ns_per_event.c4096",
            4096,
            AnalysisConfig::default(),
        ),
        (
            "core.streaming.serial_ingest_ns_per_event.c256",
            UNIT,
            one_thread(),
        ),
    ];
    for (name, chunk, config) in arms {
        let mut engine = StreamAnalysis::new(&inputs.data, config);
        let t = Instant::now();
        if chunk == 1 {
            for event in events {
                engine.ingest(event);
            }
        } else {
            for batch in events.chunks(chunk) {
                engine.ingest_batch(batch);
            }
        }
        let ns_per_event = t.elapsed().as_nanos() as f64 / n;
        ledger.put(name, ns_per_event);
        let t = Instant::now();
        let result = engine.flush();
        let flush = t.elapsed();
        ledger.check(
            events.len() as u64,
            &result.output,
            &paper.reference.shape,
            name,
        );
        if chunk == 1 {
            bare_ns = ns_per_event;
        }
        if name == "core.streaming.ingest_ns_per_event.c256" {
            ledger.put("core.streaming.flush_ms", flush.as_secs_f64() * 1e3);
            let s = result
                .report
                .streaming
                .expect("a stream run reports streaming counters");
            ledger.put("core.streaming.segments_closed", s.segments_closed as f64);
            ledger.put(
                "core.streaming.open_state_high_water",
                s.open_state_high_water as f64,
            );
            ledger.put(
                "core.streaming.arena_events_high_water",
                s.arena_events_high_water as f64,
            );
        }
    }

    // Snapshot capture as the durability layer drives it: a full image
    // mid-stream, then the delta one checkpoint interval later.
    let mut engine = StreamAnalysis::new(&inputs.data, AnalysisConfig::default());
    let half = events.len() / 2;
    let interval = 10_000.min(events.len() - half);
    for batch in events[..half].chunks(UNIT) {
        engine.ingest_batch(batch);
    }
    let t = Instant::now();
    let full = serde_json::to_string(&engine.checkpoint()).expect("checkpoints serialize");
    ledger.put(
        "core.streaming.checkpoint_ms",
        t.elapsed().as_secs_f64() * 1e3,
    );
    ledger.put("core.streaming.checkpoint_bytes", full.len() as f64);
    engine.mark_clean();
    for batch in events[half..half + interval].chunks(UNIT) {
        engine.ingest_batch(batch);
    }
    let delta = serde_json::to_string(&engine.checkpoint_delta()).expect("deltas serialize");
    ledger.put("core.streaming.delta_bytes", delta.len() as f64);
    bare_ns
}

/// Diagnostic open loop on one thread: event *i* is due at *i*/rate
/// whether or not the engine kept up; latency runs from the due time to
/// the completion of the unit that carried the event.
fn open_loop(ledger: &mut Ledger, paper: &Prepared, rate: f64, tag: &str) {
    let events = &paper.inputs.events;
    let n = events.len();
    let mut engine = StreamAnalysis::new(&paper.inputs.data, AnalysisConfig::default());
    let mut latency_us = Vec::with_capacity(n);
    let mut backlog_max = 0usize;
    let mut done = 0usize;
    let t0 = Instant::now();
    while done < n {
        let due = ((t0.elapsed().as_secs_f64() * rate) as usize + 1).min(n);
        if due <= done {
            std::hint::spin_loop();
            continue;
        }
        backlog_max = backlog_max.max(due - done);
        let end = due.min(done + UNIT);
        engine.ingest_batch(&events[done..end]);
        let finished = t0.elapsed().as_secs_f64();
        latency_us.extend((done..end).map(|i| (finished - i as f64 / rate) * 1e6));
        done = end;
    }
    let result = engine.flush();
    ledger.check(
        n as u64,
        &result.output,
        &paper.reference.shape,
        "open loop",
    );
    let sorted = stats::sorted(&latency_us);
    ledger.put(
        &format!("core.streaming.open_loop_p50_us.{tag}"),
        stats::percentile(&sorted, 50.0),
    );
    ledger.put(
        &format!("core.streaming.open_loop_p99_us.{tag}"),
        stats::percentile(&sorted, 99.0),
    );
    ledger.put(
        &format!("core.streaming.open_loop_backlog_max.{tag}"),
        backlog_max as f64,
    );
}

/// `core.admission`, from one traced `stream_live` pass.
fn admission_layer(
    ledger: &mut Ledger,
    paper: &mut Prepared,
    tr: &mut Tracer,
) -> Result<(), String> {
    let n = paper.n() as f64;
    let (pass, id) = ledger.pass(paper, Workload::StreamLive, tr)?;
    let queue_ns =
        tr.total_ns(id, "core.admission.offer") + tr.total_ns(id, "core.admission.drain");
    ledger.put(
        "core.admission.offer_drain_ns_per_event",
        queue_ns as f64 / n,
    );
    let c = pass
        .admission
        .expect("stream_live passes carry the overload ledger");
    ledger.put("core.admission.queue_high_water", c.queue_high_water as f64);
    ledger.put(
        "core.admission.backpressure_waits",
        c.backpressure_waits as f64,
    );
    Ok(())
}

/// `core.recovery`: the write side from a traced `durable_stream` pass,
/// the read side from a traced `crash_recover` pass.
fn recovery_layers(
    ledger: &mut Ledger,
    paper: &mut Prepared,
    tr: &mut Tracer,
    bare_ns: f64,
) -> Result<(), String> {
    let n = paper.n() as f64;
    let (pass, id) = ledger.pass(paper, Workload::DurableStream, tr)?;
    let ingest_ns = tr.total_ns(id, "core.recovery.ingest") as f64 / n;
    ledger.put(
        "core.recovery.ingest_self_ns_per_event",
        ingest_ns - bare_ns,
    );
    ledger.put(
        "core.recovery.finish_ms",
        ms(tr.total_ns(id, "core.recovery.finish")),
    );
    let d = pass
        .report
        .durability
        .expect("a durable run reports durability counters");
    ledger.put(
        "core.recovery.journal_bytes_per_event",
        d.journal_bytes as f64 / n,
    );
    ledger.put(
        "core.recovery.checkpoints_written",
        d.checkpoints_written as f64,
    );
    ledger.put("core.recovery.deltas_written", d.deltas_written as f64);
    ledger.put(
        "core.recovery.snapshot_thread_stalls",
        d.snapshot_thread_stalls as f64,
    );
    ledger.put(
        "core.recovery.checkpoint_write_micros_max",
        d.checkpoint_write_micros_max as f64,
    );

    let (pass, id) = ledger.pass(paper, Workload::CrashRecover, tr)?;
    let r = pass
        .recovery
        .expect("crash_recover passes carry the recovery report");
    ledger.put(
        "core.recovery.recover_ms",
        ms(tr.total_ns(id, "core.recovery.recover")),
    );
    ledger.put("core.recovery.events_replayed", r.events_replayed as f64);
    ledger.put("core.recovery.chain_length", r.chain_length as f64);
    ledger.put(
        "core.recovery.tail_ms",
        ms(tr.total_ns(id, "core.recovery.ingest")),
    );
    Ok(())
}

/// `core.cluster`: partitioning, the program's own stage walls on the
/// `wide` scenario, the merge timed directly, and the in-process cluster
/// on `paper` at one and two shards (isolates transport from scenario).
fn cluster_layers(
    ledger: &mut Ledger,
    paper: &mut Prepared,
    wide: &mut Prepared,
    tr: &mut Tracer,
) -> Result<(), String> {
    let n_wide = wide.n() as f64;
    let table = linktable::from_scenario(&wide.inputs.data);
    let t = Instant::now();
    let parts = partition_events(&table, &wide.inputs.events, 2);
    ledger.put(
        "core.cluster.partition_ns_per_event",
        t.elapsed().as_nanos() as f64 / n_wide,
    );
    let outputs: Vec<StreamOutput> = parts
        .iter()
        .map(|part| {
            let mut engine = StreamAnalysis::new(&wide.inputs.data, AnalysisConfig::default());
            for batch in part.chunks(2048) {
                engine.ingest_batch(batch);
            }
            engine.flush().output
        })
        .collect();
    drop(parts);
    let t = Instant::now();
    let merged = merge_outputs(outputs);
    ledger.put(
        "core.cluster.merge_outputs_ms",
        t.elapsed().as_secs_f64() * 1e3,
    );
    ledger.check(wide.n(), &merged, &wide.reference.shape, "merge_outputs");
    drop(merged);

    let (pass, _) = ledger.pass(wide, Workload::ClusterWide, tr)?;
    for (stage, name) in [
        ("dispatch", "core.cluster.dispatch_ms"),
        ("shard_ingest", "core.cluster.shard_ingest_ms"),
        ("merge", "core.cluster.merge_ms"),
    ] {
        ledger.put(name, stage_micros(&pass.report, stage) / 1e3);
    }
    let shards = pass
        .report
        .cluster
        .expect("a cluster run reports shard counters");
    ledger.put("core.cluster.skew", shards.skew);

    for (shards, name) in [
        (1, "core.cluster.inproc_paper_events_per_s.s1"),
        (2, "core.cluster.inproc_paper_events_per_s.s2"),
    ] {
        let t = Instant::now();
        let result = run_cluster(
            &paper.inputs.data,
            &paper.inputs.events,
            &ClusterConfig::new(shards),
        )
        .map_err(|e| e.to_string())?;
        ledger.put(name, paper.n() as f64 / t.elapsed().as_secs_f64());
        ledger.check(paper.n(), &result.output, &paper.reference.shape, name);
    }
    Ok(())
}

/// `core.transport`: the stream as 2048-event `ShardMsg::Events` frames,
/// written into and read back from memory — the codec without the pipe.
fn transport_frames(ledger: &mut Ledger, inputs: &Inputs) {
    let n = inputs.events.len() as f64;
    let (mut write_ns, mut read_ns, mut bytes) = (0u128, 0u128, 0u64);
    let mut frame = Vec::new();
    for batch in inputs.events.chunks(2048) {
        let msg = ShardMsg::Events(batch.to_vec());
        frame.clear();
        let t = Instant::now();
        write_frame(&mut frame, &msg).expect("an in-memory frame write cannot fail");
        write_ns += t.elapsed().as_nanos();
        bytes += frame.len() as u64;
        let t = Instant::now();
        let back = read_frame(&mut frame.as_slice()).expect("a frame just written reads back");
        read_ns += t.elapsed().as_nanos();
        black_box(back);
    }
    ledger.put(
        "core.transport.write_frame_ns_per_event",
        write_ns as f64 / n,
    );
    ledger.put("core.transport.read_frame_ns_per_event", read_ns as f64 / n);
    ledger.put("core.transport.frame_bytes_per_event", bytes as f64 / n);
}

/// `isis.listener`: every ground-truth failure becomes a withdrawal and a
/// re-advertisement on both end routers; each originated LSP is encoded
/// (untimed) and handed to a fresh listener as wire bytes (timed).
fn listener(ledger: &mut Ledger, inputs: &Inputs) {
    let topo = &inputs.data.topology;
    let mut nodes: Vec<RouterNode> = topo
        .routers()
        .iter()
        .map(|r| RouterNode::new(topo, r.id))
        .collect();
    let mut changes: Vec<_> = inputs
        .data
        .truth
        .failures
        .iter()
        .flat_map(|f| [(f.start, f.link, false), (f.end, f.link, true)])
        .collect();
    changes.sort_by_key(|&(at, link, up)| (at, link, up));
    let mut wire = Vec::with_capacity(nodes.len() + changes.len() * 2);
    for node in &mut nodes {
        wire.push((
            faultline_topology::time::Timestamp::EPOCH,
            node.originate().encode(),
        ));
    }
    for (at, link, up) in changes {
        let l = topo.link(link);
        for router in [l.a.router, l.b.router] {
            let node = &mut nodes[router.0 as usize];
            node.set_adjacency(link, up);
            node.set_prefix(link, up);
            wire.push((at, node.originate().encode()));
        }
    }
    let mut listener = Listener::new();
    let t = Instant::now();
    for (at, bytes) in &wire {
        listener
            .receive_bytes(*at, bytes)
            .expect("a freshly encoded LSP decodes");
    }
    let elapsed = t.elapsed();
    ledger.put(
        "isis.listener.ns_per_lsp",
        elapsed.as_nanos() as f64 / wire.len() as f64,
    );
    ledger.put(
        "isis.listener.transitions_per_lsp",
        listener.transitions().len() as f64 / wire.len() as f64,
    );
}
