//! The serializable shard transport: how the cluster's dispatcher and
//! its shard workers talk.
//!
//! The cluster is **actors exchanging messages**: every interaction
//! between the dispatcher and a worker is one [`ShardMsg`], and workers
//! hold *no* shared state — each owns its own [`StreamAnalysis`] (or
//! [`DurableStream`]) and speaks only through a [`ShardTransport`]. State
//! moves between processes only as serialized, versioned,
//! integrity-hashed artifacts. Two transports ship:
//!
//! - [`InProcessTransport`] — workers are scoped threads behind bounded
//!   channels. Messages move by value (no serialization), so this is
//!   the default; `tests/cluster_equivalence.rs` proves its output
//!   byte-identical to batch across the shard grid.
//! - [`SubprocessTransport`] — workers are `faultline-shard-worker`
//!   processes driven over stdio pipes, every message one hashed frame,
//!   so a torn pipe or corrupt frame is a typed [`FrameError`], never a
//!   wrong message. Worker death is observed as EOF; the durable
//!   supervisor respawns the worker and recovers it through the
//!   checkpoint + journal ladder.
//!
//! # Wire format
//!
//! Each frame is one [`crate::envelope`]: the 19-byte header (magic
//! `"FLSM"`, wire version 8) and the payload, built in one buffer and
//! written with one `write_all`. The kind byte says what the payload is:
//!
//! | kind | payload | carries |
//! |---|---|---|
//! | 1 | `serde_json` | `Hello` (a [`WorkerSpec`]), `Ready` (an optional [`RecoveryReport`]), `Flush`, `Fatal` |
//! | 2 | [`crate::codec`] run | [`ShardMsg::Events`] |
//! | 3 | [`crate::codec`] flushed answer | [`ShardMsg::Flushed`] |
//! | 4 | [`crate::codec`] row run | [`ShardMsg::Rows`] |
//!
//! Rows, events and flushed answers travel only as codec payloads (the
//! layouts are documented in [`crate::codec`] and nowhere else): under
//! kind 1 any of them is [`FrameError::Malformed`]. The JSON messages are
//! a handful per run. A reader never sniffs the payload, and a frame of
//! an earlier wire version — version 1 had no kind byte, version 2 sent
//! `Flushed` as JSON, version 3 fed workers events rather than rows,
//! version 4 migrated lanes with the values a restore derives, version 5
//! still spoke the lane-migration messages of live resharding, version 6
//! sent values no reader reads (a `Ready`'s own resume position, a
//! `Hello`'s shard numbers, a `Flushed` answer's derived counters), version
//! 7 sent settings no worker reads (four analysis values that are now
//! constants, and the retired `parallelism` knob) — is
//! [`FrameError::UnsupportedVersion`].
//!
//! The dispatcher classifies every event and sends workers only lane
//! rows, so a worker answers [`ShardMsg::Events`] as unexpected. Kind 2
//! stays because the benchmark's transport ledger measures it: the cost
//! of shipping a raw event batch.
//!
//! The protocol is strictly request/response with a fixed lifecycle:
//! a worker announces [`ShardMsg::Ready`] once its engine exists (with
//! its [`RecoveryReport`] when it was rebuilt from durable state), then
//! applies [`ShardMsg::Rows`] until [`ShardMsg::Flush`], answering
//! with [`ShardMsg::Flushed`] and exiting; any unrecoverable worker
//! condition travels as [`ShardMsg::Fatal`].

use crate::analysis::AnalysisConfig;
use crate::codec;
use crate::envelope::{self, Format};
use crate::error::{FrameError, TransportError};
use crate::kernel::LaneRow;
use crate::linktable::Naming;
use crate::observe::{PipelineReport, TransportCounters};
use crate::recovery::{DurabilityPolicy, DurableStream, RecoveryReport};
use crate::streaming::{StreamAnalysis, StreamEvent, StreamOutput};
use faultline_sim::scenario::{run as run_scenario, ScenarioData, ScenarioParams};
use serde::{Deserialize, Serialize};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// The four bytes every shard-message frame starts with.
pub const FRAME_MAGIC: [u8; 4] = *b"FLSM";

/// The frame format version this build writes and reads.
pub const WIRE_VERSION: u16 = 8;

/// Sanity bound on a declared payload length: a header claiming more is
/// corrupt, not honored.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 30;

/// Frame header size: the [`envelope`] header.
pub const FRAME_HEADER_LEN: usize = envelope::HEADER_LEN;

/// Payload kind: one `serde_json` [`ShardMsg`] other than `Events` and
/// `Flushed`.
const KIND_MESSAGE: u8 = 1;
/// Payload kind: one [`codec`] run, the body of a [`ShardMsg::Events`].
const KIND_EVENTS: u8 = 2;
/// Payload kind: one [`codec`] flushed answer, the body of a
/// [`ShardMsg::Flushed`].
const KIND_FLUSHED: u8 = 3;
/// Payload kind: one [`codec`] row run, the body of a [`ShardMsg::Rows`].
const KIND_ROWS: u8 = 4;

/// The frame's envelope.
const WIRE: Format = Format {
    magic: FRAME_MAGIC,
    version: WIRE_VERSION,
    max_len: MAX_FRAME_PAYLOAD,
    kinds: &[KIND_MESSAGE, KIND_EVENTS, KIND_FLUSHED, KIND_ROWS],
};

/// Capacity a reused frame buffer keeps between frames: room for row
/// frames (~25 KB) and a paper-scale `Flushed` answer (~0.7 MB), not for
/// a multi-megabyte `Hello{Inline}`.
const SCRATCH_KEEP: usize = 1 << 20;

/// Bounded depth of the in-process dispatcher→worker channel, in
/// messages: deep enough that the dispatcher essentially never parks
/// mid-feed at paper-scale chunk sizes (measured single-core, depth 8
/// cost ~10% of throughput), bounded so a slow shard exerts
/// backpressure instead of buffering without limit.
const INPROC_CHANNEL_DEPTH: usize = 64;

/// One message between the cluster dispatcher and a shard worker —
/// the complete vocabulary of the shard protocol. Everything is
/// serde-serializable: the in-process transport moves values and the
/// subprocess transport frames them (rows, events and flushed answers as
/// codec payloads, the rest as JSON), but the protocol is identical.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ShardMsg {
    /// First frame to a subprocess worker: everything it needs to build
    /// its engine. (The in-process transport hands the spec to the
    /// worker thread directly; it never crosses as a message.)
    Hello(Box<WorkerSpec>),
    /// Worker → dispatcher: the engine exists and the worker is
    /// consuming. After a durable recovery it carries what the recovery
    /// ladder found and did; the dispatcher re-feeds the shard's rows
    /// from its `resumed_at_seq`.
    Ready(Option<RecoveryReport>),
    /// A micro-batch of this shard's lane rows, in stream order.
    Rows(Vec<LaneRow>),
    /// A micro-batch of raw events: no worker consumes one, but the
    /// benchmark measures its frame as the cost of shipping events.
    Events(Vec<StreamEvent>),
    /// End of stream: flush the engine and answer with
    /// [`ShardMsg::Flushed`], then exit.
    Flush,
    /// Worker → dispatcher: the shard's flushed output and accounting.
    Flushed(Box<WorkerOutput>),
    /// Worker → dispatcher: an unrecoverable condition; the worker
    /// exits after sending this.
    Fatal {
        /// The worker's description of what failed.
        detail: String,
    },
}

impl ShardMsg {
    /// Short stable name of the message kind, for protocol diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            ShardMsg::Hello(_) => "hello",
            ShardMsg::Ready(_) => "ready",
            ShardMsg::Rows(_) => "rows",
            ShardMsg::Events(_) => "events",
            ShardMsg::Flush => "flush",
            ShardMsg::Flushed(_) => "flushed",
            ShardMsg::Fatal { .. } => "fatal",
        }
    }
}

/// A shard's flushed result: the merge-ready output plus the worker's
/// own accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerOutput {
    /// The shard's complete derived surface.
    pub output: StreamOutput,
    /// The shard engine's per-stage accounting.
    pub report: PipelineReport,
}

/// Everything a shard worker needs to build its engine — the one
/// message that makes a worker self-contained enough to live in another
/// process.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerSpec {
    /// The analysis configuration every shard shares.
    pub config: AnalysisConfig,
    /// Where the worker's scenario (topology + side inputs) comes from.
    pub scenario: ScenarioSpec,
    /// When present, wrap the engine in [`DurableStream`] under this
    /// policy.
    pub durable: Option<DurableSpec>,
    /// Chaos hook: apply exactly this many rows, then die without a
    /// word (no flush, no farewell frame) — the deterministic stand-in
    /// for `kill -9` that `tests/cluster_recovery.rs` pins
    /// `resumed_at_seq` against.
    pub abort_after_events: Option<u64>,
}

impl WorkerSpec {
    /// A fresh, non-durable worker spec. Routing happens at the
    /// dispatcher, so a worker needs no shard number.
    pub fn new(config: AnalysisConfig, scenario: ScenarioSpec) -> Self {
        WorkerSpec {
            config,
            scenario,
            durable: None,
            abort_after_events: None,
        }
    }
}

/// Where a worker's scenario data comes from. The analysis engines
/// borrow the scenario, so a worker in another process must be able to
/// *own* one; this enum is how the dispatcher says which way.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ScenarioSpec {
    /// The host process already holds the scenario and hands the worker
    /// a reference (in-process transport only; a subprocess worker
    /// rejects this with [`ShardMsg::Fatal`]).
    Attached,
    /// Regenerate the scenario from simulator parameters — cheap to
    /// ship, deterministic, and exactly what CI-scale subprocess runs
    /// use.
    Params(Box<ScenarioParams>),
    /// Ship the scenario itself (topology indexes are rebuilt on the
    /// far side, mirroring [`ScenarioData::load`]).
    Inline(Box<ScenarioData>),
}

/// Durability settings for one worker: where its checkpoint + journal
/// state lives and whether to recover it or start fresh.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DurableSpec {
    /// The worker's durability directory (its own; never shared).
    pub dir: String,
    /// Checkpoint cadence, retention, fsync, and retry policy.
    pub policy: DurabilityPolicy,
    /// `false`: create a fresh durable stream (refusing existing
    /// state); `true`: rebuild from whatever `dir` holds through the
    /// recovery ladder.
    pub recover: bool,
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

fn malformed(why: impl std::fmt::Display) -> FrameError {
    FrameError::Malformed {
        detail: why.to_string(),
    }
}

/// Encode one message as a frame onto `w`. Returns the total bytes
/// written (header + payload).
pub fn write_frame<W: Write + ?Sized>(w: &mut W, msg: &ShardMsg) -> Result<u64, FrameError> {
    write_frame_reusing(w, msg, &mut Vec::new())
}

/// [`write_frame`] building the frame in the caller's scratch buffer:
/// one buffer, one `write_all`, no allocation in the steady state.
fn write_frame_reusing<W: Write + ?Sized>(
    w: &mut W,
    msg: &ShardMsg,
    frame: &mut Vec<u8>,
) -> Result<u64, FrameError> {
    match msg {
        ShardMsg::Rows(rows) => {
            WIRE.open(frame, KIND_ROWS);
            codec::encode_rows(rows, frame);
        }
        ShardMsg::Events(events) => {
            WIRE.open(frame, KIND_EVENTS);
            codec::encode_events(events, frame);
        }
        ShardMsg::Flushed(answer) => {
            WIRE.open(frame, KIND_FLUSHED);
            codec::encode_flushed(answer, frame).map_err(malformed)?;
        }
        other => {
            WIRE.open(frame, KIND_MESSAGE);
            let json = serde_json::to_string(other).map_err(malformed)?;
            frame.extend_from_slice(json.as_bytes());
        }
    }
    WIRE.seal(frame)?;
    w.write_all(frame)?;
    let written = frame.len() as u64;
    frame.clear();
    frame.shrink_to(SCRATCH_KEEP);
    Ok(written)
}

/// Decode one frame from `r`. Returns the message and the total bytes
/// consumed. EOF at a frame boundary is [`FrameError::Closed`] (how a
/// worker's death is observed); EOF mid-frame is [`FrameError::Torn`];
/// every other kind of damage gets its own typed variant. Never
/// panics, whatever the bytes.
pub fn read_frame<R: Read + ?Sized>(r: &mut R) -> Result<(ShardMsg, u64), FrameError> {
    read_frame_reusing(r, &mut Vec::new())
}

/// [`read_frame`] reading through the caller's scratch buffer.
fn read_frame_reusing<R: Read + ?Sized>(
    r: &mut R,
    body: &mut Vec<u8>,
) -> Result<(ShardMsg, u64), FrameError> {
    let header = WIRE.read(r, body)?;
    let msg = match header.kind {
        KIND_ROWS => ShardMsg::Rows(codec::decode_rows(body).map_err(malformed)?),
        KIND_EVENTS => {
            let mut events = Vec::new();
            codec::decode_events(body, &mut events).map_err(malformed)?;
            ShardMsg::Events(events)
        }
        KIND_FLUSHED => {
            ShardMsg::Flushed(Box::new(codec::decode_flushed(body).map_err(malformed)?))
        }
        _ => match serde_json::from_slice(body).map_err(malformed)? {
            ShardMsg::Rows(_) => return Err(malformed("rows must travel as a binary row run")),
            ShardMsg::Events(_) => return Err(malformed("events must travel as a binary run")),
            ShardMsg::Flushed(_) => {
                return Err(malformed("a flushed answer must travel as codec rows"))
            }
            msg => msg,
        },
    };
    body.clear();
    body.shrink_to(SCRATCH_KEEP);
    Ok((msg, (FRAME_HEADER_LEN + header.len) as u64))
}

// ---------------------------------------------------------------------------
// The transport abstraction
// ---------------------------------------------------------------------------

/// How the cluster dispatcher reaches its shard workers. Everything the
/// cluster runtime does — feeding events, flushing, supervising
/// recovery — goes through these six operations, so a cluster driver
/// is transport-agnostic by construction.
///
/// Worker indices are dense and fixed at start: `0..workers()`. After
/// `start`/`respawn`, the first message received from the new worker is
/// its [`ShardMsg::Ready`].
pub trait ShardTransport {
    /// Number of workers currently addressed (dead ones keep their
    /// index until respawned).
    fn workers(&self) -> usize;
    /// Send one message to worker `worker`. Backpressure blocks;
    /// a dead worker surfaces as [`TransportError::WorkerGone`].
    fn send(&mut self, worker: usize, msg: ShardMsg) -> Result<(), TransportError>;
    /// Receive the next message from worker `worker` (blocking). EOF or
    /// hang-up surfaces as [`TransportError::WorkerGone`].
    fn recv(&mut self, worker: usize) -> Result<ShardMsg, TransportError>;
    /// Kill worker `worker` abruptly (SIGKILL for subprocesses,
    /// channel teardown in-process) — chaos injection, not shutdown.
    fn kill(&mut self, worker: usize) -> Result<(), TransportError>;
    /// Replace worker `worker` with a fresh one built from `spec`,
    /// keeping its index.
    fn respawn(&mut self, worker: usize, spec: WorkerSpec) -> Result<(), TransportError>;
    /// Snapshot of the transport's accounting so far.
    fn counters(&self) -> TransportCounters;
}

// ---------------------------------------------------------------------------
// The worker loop (shared by both transports)
// ---------------------------------------------------------------------------

/// A worker's view of its connection: one receive + one send, both
/// fallible with [`FrameError`] (`Closed` doubles as "dispatcher hung
/// up" for the channel-backed port).
pub(crate) trait WorkerPort {
    /// Next command from the dispatcher (blocking).
    fn recv(&mut self) -> Result<ShardMsg, FrameError>;
    /// Answer the dispatcher.
    fn send(&mut self, msg: ShardMsg) -> Result<(), FrameError>;
}

/// Channel-backed port: the in-process worker side.
struct ChannelPort {
    rx: Receiver<ShardMsg>,
    tx: Sender<ShardMsg>,
}

impl WorkerPort for ChannelPort {
    fn recv(&mut self) -> Result<ShardMsg, FrameError> {
        self.rx.recv().map_err(|_| FrameError::Closed)
    }
    fn send(&mut self, msg: ShardMsg) -> Result<(), FrameError> {
        self.tx.send(msg).map_err(|_| FrameError::Closed)
    }
}

/// Frame-backed port: the subprocess worker side (or any byte stream).
struct StreamPort<R: Read, W: Write> {
    reader: R,
    writer: W,
    /// Frame scratch, reused across frames.
    scratch: Vec<u8>,
}

impl<R: Read, W: Write> WorkerPort for StreamPort<R, W> {
    fn recv(&mut self) -> Result<ShardMsg, FrameError> {
        read_frame_reusing(&mut self.reader, &mut self.scratch).map(|(msg, _)| msg)
    }
    fn send(&mut self, msg: ShardMsg) -> Result<(), FrameError> {
        write_frame_reusing(&mut self.writer, &msg, &mut self.scratch)?;
        self.writer.flush()?;
        Ok(())
    }
}

/// How a worker's lifecycle ended.
pub(crate) enum WorkerExit {
    /// The worker ran its protocol to completion (Flushed, Fatal, or
    /// the dispatcher hung up).
    Completed,
    /// The worker hit its `abort_after_events` chaos hook and died
    /// mid-stream without a farewell.
    Aborted,
}

/// Worker `worker` of a transport's `slots`.
fn slot<T>(slots: &mut [T], worker: usize) -> Result<&mut T, TransportError> {
    let n = slots.len();
    slots.get_mut(worker).ok_or(TransportError::Protocol {
        worker,
        detail: format!("worker index out of range (have {n})"),
    })
}

fn send_fatal(port: &mut dyn WorkerPort, detail: String) -> WorkerExit {
    let _ = port.send(ShardMsg::Fatal { detail });
    WorkerExit::Completed
}

/// The shard worker's whole life, identical for both transports: build
/// the engine the spec describes over the naming layer it is handed (the
/// dispatcher's own in-process, one mined per subprocess), announce
/// [`ShardMsg::Ready`], consume commands until [`ShardMsg::Flush`] (or
/// death), answer, exit.
pub(crate) fn run_worker(
    data: &ScenarioData,
    naming: Arc<Naming>,
    spec: WorkerSpec,
    port: &mut dyn WorkerPort,
) -> WorkerExit {
    // One stack local per worker lifetime; the durable engine is larger
    // than the fresh one, but boxing it would buy nothing here.
    #[allow(clippy::large_enum_variant)]
    enum Engine<'a> {
        Fresh(StreamAnalysis<'a>),
        Durable(DurableStream<'a>),
    }

    let abort_at = spec.abort_after_events;
    let mut recovery = None;
    // The dispatcher validated configuration and input ordering once
    // before spawning anyone (`run_cluster` calls `validate_inputs`
    // first), so workers construct infallibly — re-validating here
    // would rescan the whole archive once per worker.
    let started = Instant::now();
    let config = spec.config.clone();
    let links = naming.table.len();
    let mut engine = match &spec.durable {
        None => Engine::Fresh(StreamAnalysis::with_naming(data, config, naming, started)),
        Some(d) => {
            let dir = Path::new(&d.dir);
            if d.recover {
                match DurableStream::recover_with(dir, data, config, d.policy, naming, started) {
                    Ok((stream, report)) => {
                        recovery = Some(report);
                        Engine::Durable(stream)
                    }
                    Err(e) => return send_fatal(port, e.to_string()),
                }
            } else {
                match DurableStream::create_with(dir, data, config, d.policy, naming, started) {
                    Ok(stream) => Engine::Durable(stream),
                    Err(e) => return send_fatal(port, e.to_string()),
                }
            }
        }
    };
    #[cfg(test)]
    witness::record(
        data,
        &spec,
        match &engine {
            Engine::Fresh(e) => e.naming(),
            Engine::Durable(stream) => stream.engine().naming(),
        },
    );
    if port.send(ShardMsg::Ready(recovery)).is_err() {
        return WorkerExit::Completed;
    }

    // Rows applied by THIS worker instance — the abort hook counts a
    // single life, exactly like an in-process kill at row n.
    let mut consumed: u64 = 0;
    loop {
        let msg = match port.recv() {
            Ok(m) => m,
            // The dispatcher hung up without Flush: the run was
            // abandoned; nothing to flush, nothing to say.
            Err(_) => return WorkerExit::Completed,
        };
        if let ShardMsg::Flush = msg {
            // A kill at the shard's last row (or at 0 on a shard that got
            // none) lands here, before the flush.
            if abort_at == Some(consumed) {
                return WorkerExit::Aborted;
            }
            let result = match engine {
                Engine::Fresh(e) => e.flush(),
                Engine::Durable(stream) => stream.finish(),
            };
            let _ = port.send(ShardMsg::Flushed(Box::new(WorkerOutput {
                output: result.output,
                report: result.report,
            })));
            return WorkerExit::Completed;
        }
        match (msg, &mut engine) {
            (ShardMsg::Rows(rows), engine) => {
                // A link past this table (another scenario's) refuses the
                // whole batch before any row of it is journaled or applied.
                if let Some(row) = rows.iter().find(|row| row.link.0 as usize >= links) {
                    let detail = format!("row for link {} of a {links}-link table", row.link.0);
                    return send_fatal(port, detail);
                }
                // Only the rows before the abort point: it lands exactly
                // on its row boundary (chunk-invisibility makes the
                // output identical either way).
                let room = abort_at.map_or(u64::MAX, |at| at - consumed);
                let live = &rows[..rows.len().min(room.try_into().unwrap_or(usize::MAX))];
                match engine {
                    Engine::Fresh(e) => e.apply_rows(live),
                    // Per row, so a durable apply fails on the row it hit.
                    Engine::Durable(stream) => {
                        if let Err(e) = live.iter().try_for_each(|row| stream.apply_row(row)) {
                            return send_fatal(port, e.to_string());
                        }
                    }
                }
                consumed += live.len() as u64;
                if live.len() < rows.len() {
                    return WorkerExit::Aborted;
                }
            }
            (other, _) => {
                let detail = format!("unexpected {} message in worker", other.kind());
                return send_fatal(port, detail);
            }
        }
    }
}

/// Which naming layer each worker's engine was built over, for the
/// cluster's one-table-per-run test.
#[cfg(test)]
pub(crate) mod witness {
    use super::{Naming, ScenarioData, WorkerSpec};
    use std::sync::{Arc, Mutex};

    /// One engine a worker built.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct Built {
        /// `"fresh"`, `"create"` (durable) or `"recover"` (durable).
        pub(crate) kind: &'static str,
        /// The address of the naming layer the engine holds.
        pub(crate) naming: usize,
    }

    /// Keyed by the scenario's address: tests run concurrently, each over
    /// its own scenario.
    static BUILT: Mutex<Vec<(usize, Built)>> = Mutex::new(Vec::new());

    pub(super) fn record(data: &ScenarioData, spec: &WorkerSpec, naming: &Arc<Naming>) {
        let kind = match &spec.durable {
            None => "fresh",
            Some(d) if d.recover => "recover",
            Some(_) => "create",
        };
        let built = Built {
            kind,
            naming: Arc::as_ptr(naming) as usize,
        };
        let key = data as *const ScenarioData as usize;
        BUILT
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((key, built));
    }

    /// Remove and return, in build order, every engine recorded for
    /// `data`'s address (entries left by an earlier scenario that lived
    /// at the same address included, so drain once before a run).
    pub(crate) fn take(data: &ScenarioData) -> Vec<Built> {
        let key = data as *const ScenarioData as usize;
        let mut all = BUILT.lock().unwrap_or_else(|e| e.into_inner());
        let (mine, rest): (Vec<_>, Vec<_>) = all.drain(..).partition(|(k, _)| *k == key);
        *all = rest;
        mine.into_iter().map(|(_, built)| built).collect()
    }
}

// ---------------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------------

/// The default transport: each worker is a scoped thread running
/// the worker loop behind a bounded command channel. Messages move by
/// value — no serialization, no copies beyond the protocol's own — so
/// the byte counters stay 0.
pub struct InProcessTransport<'scope, 'env> {
    scope: &'scope thread::Scope<'scope, 'env>,
    data: &'env ScenarioData,
    /// The dispatcher's naming layer, handed to every worker it starts.
    naming: Arc<Naming>,
    ports: Vec<InProcPort>,
    counters: TransportCounters,
}

struct InProcPort {
    /// `None` after [`ShardTransport::kill`]: dropping the sender is the
    /// in-process stand-in for SIGKILL.
    tx: Option<SyncSender<ShardMsg>>,
    rx: Receiver<ShardMsg>,
}

fn spawn_inproc<'scope, 'env>(
    scope: &'scope thread::Scope<'scope, 'env>,
    data: &'env ScenarioData,
    naming: &Arc<Naming>,
    spec: WorkerSpec,
) -> InProcPort {
    let (cmd_tx, cmd_rx) = sync_channel(INPROC_CHANNEL_DEPTH);
    // Unbounded on the answer side so a worker can always report a
    // Fatal without deadlocking against a dispatcher that is mid-send
    // to it.
    let (rsp_tx, rsp_rx) = channel();
    let naming = Arc::clone(naming);
    scope.spawn(move || {
        let mut port = ChannelPort {
            rx: cmd_rx,
            tx: rsp_tx,
        };
        let _ = run_worker(data, naming, spec, &mut port);
    });
    InProcPort {
        tx: Some(cmd_tx),
        rx: rsp_rx,
    }
}

impl<'scope, 'env> InProcessTransport<'scope, 'env> {
    /// Spawn one scoped worker thread per spec. Workers borrow the
    /// host's scenario (their specs normally say
    /// [`ScenarioSpec::Attached`]), which is why the transport lives
    /// inside a [`thread::scope`], and share `naming`, mined from it: every
    /// worker this transport ever starts — respawned ones included —
    /// resolves through that one table.
    pub(crate) fn start(
        scope: &'scope thread::Scope<'scope, 'env>,
        data: &'env ScenarioData,
        naming: Arc<Naming>,
        specs: Vec<WorkerSpec>,
    ) -> Self {
        let mut counters = TransportCounters::default();
        let ports = specs
            .into_iter()
            .map(|spec| {
                counters.workers_spawned += 1;
                spawn_inproc(scope, data, &naming, spec)
            })
            .collect();
        InProcessTransport {
            scope,
            data,
            naming,
            ports,
            counters,
        }
    }
}

impl ShardTransport for InProcessTransport<'_, '_> {
    fn workers(&self) -> usize {
        self.ports.len()
    }

    fn send(&mut self, worker: usize, msg: ShardMsg) -> Result<(), TransportError> {
        let port = slot(&mut self.ports, worker)?;
        let Some(tx) = port.tx.as_ref() else {
            return Err(TransportError::WorkerGone {
                worker,
                detail: "worker was killed".to_string(),
            });
        };
        match tx.send(msg) {
            Ok(()) => {
                self.counters.frames_sent += 1;
                Ok(())
            }
            Err(_) => Err(TransportError::WorkerGone {
                worker,
                detail: "worker thread exited".to_string(),
            }),
        }
    }

    fn recv(&mut self, worker: usize) -> Result<ShardMsg, TransportError> {
        let port = slot(&mut self.ports, worker)?;
        match port.rx.recv() {
            Ok(msg) => {
                self.counters.frames_received += 1;
                Ok(msg)
            }
            Err(_) => Err(TransportError::WorkerGone {
                worker,
                detail: "worker thread exited".to_string(),
            }),
        }
    }

    fn kill(&mut self, worker: usize) -> Result<(), TransportError> {
        let port = slot(&mut self.ports, worker)?;
        if port.tx.take().is_some() {
            self.counters.workers_killed += 1;
        }
        Ok(())
    }

    fn respawn(&mut self, worker: usize, spec: WorkerSpec) -> Result<(), TransportError> {
        let port = slot(&mut self.ports, worker)?;
        // Hang up, then wait for the old thread's answer channel to
        // close, which happens only after it dropped its engine: a
        // killed worker may still be draining queued batches into the
        // very shard directory its replacement recovers from.
        port.tx = None;
        while port.rx.recv().is_ok() {}
        self.ports[worker] = spawn_inproc(self.scope, self.data, &self.naming, spec);
        self.counters.workers_spawned += 1;
        self.counters.worker_restarts += 1;
        Ok(())
    }

    fn counters(&self) -> TransportCounters {
        self.counters
    }
}

// ---------------------------------------------------------------------------
// Subprocess transport
// ---------------------------------------------------------------------------

/// The cross-process transport: each worker is a `faultline-shard-worker`
/// child driven over stdio pipes, every message a hashed frame. Worker
/// death is EOF; [`ShardTransport::kill`] is a genuine SIGKILL.
pub struct SubprocessTransport {
    worker_bin: PathBuf,
    workers: Vec<SubWorker>,
    counters: TransportCounters,
}

struct SubWorker {
    child: Child,
    /// `None` once the worker is known dead (killed or EPIPE'd).
    /// Unbuffered: a frame is already one buffer and one write.
    stdin: Option<std::process::ChildStdin>,
    stdout: BufReader<std::process::ChildStdout>,
    /// Frame scratch, reused across sends and receives.
    scratch: Vec<u8>,
}

impl SubWorker {
    fn reap(&mut self) {
        self.stdin = None;
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_subprocess(bin: &Path, spec: &WorkerSpec) -> Result<SubWorker, TransportError> {
    if matches!(spec.scenario, ScenarioSpec::Attached) {
        return Err(TransportError::Spawn {
            detail: "subprocess workers need a self-contained scenario \
                     (ScenarioSpec::Params or ScenarioSpec::Inline)"
                .to_string(),
        });
    }
    let mut child = Command::new(bin)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| TransportError::Spawn {
            detail: format!("{}: {e}", bin.display()),
        })?;
    let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(TransportError::Spawn {
            detail: format!("{}: stdio pipes were not opened", bin.display()),
        });
    };
    Ok(SubWorker {
        child,
        stdin: Some(stdin),
        stdout: BufReader::new(stdout),
        scratch: Vec::new(),
    })
}

impl SubprocessTransport {
    /// Spawn one worker process per spec and send each its
    /// [`ShardMsg::Hello`]. `worker_bin` is the `faultline-shard-worker`
    /// binary (see [`locate_worker_bin`] for the conventional search).
    pub fn start(
        worker_bin: impl Into<PathBuf>,
        specs: &[WorkerSpec],
    ) -> Result<Self, TransportError> {
        let mut transport = SubprocessTransport {
            worker_bin: worker_bin.into(),
            workers: Vec::with_capacity(specs.len()),
            counters: TransportCounters::default(),
        };
        for spec in specs {
            transport.spawn(spec.clone())?;
        }
        Ok(transport)
    }

    /// Start one more worker process from `spec` and send it its
    /// [`ShardMsg::Hello`].
    fn spawn(&mut self, spec: WorkerSpec) -> Result<(), TransportError> {
        self.workers
            .push(spawn_subprocess(&self.worker_bin, &spec)?);
        self.counters.workers_spawned += 1;
        self.send(self.workers.len() - 1, ShardMsg::Hello(Box::new(spec)))
    }
}

impl ShardTransport for SubprocessTransport {
    fn workers(&self) -> usize {
        self.workers.len()
    }

    fn send(&mut self, worker: usize, msg: ShardMsg) -> Result<(), TransportError> {
        let w = slot(&mut self.workers, worker)?;
        let Some(stdin) = w.stdin.as_mut() else {
            return Err(TransportError::WorkerGone {
                worker,
                detail: "worker was killed".to_string(),
            });
        };
        match write_frame_reusing(stdin, &msg, &mut w.scratch) {
            Ok(n) => {
                self.counters.frames_sent += 1;
                self.counters.bytes_sent += n;
                Ok(())
            }
            Err(FrameError::Io(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => {
                Err(TransportError::WorkerGone {
                    worker,
                    detail: "stdin pipe broken (worker died)".to_string(),
                })
            }
            Err(source) => Err(TransportError::Frame { worker, source }),
        }
    }

    fn recv(&mut self, worker: usize) -> Result<ShardMsg, TransportError> {
        let w = slot(&mut self.workers, worker)?;
        match read_frame_reusing(&mut w.stdout, &mut w.scratch) {
            Ok((msg, n)) => {
                self.counters.frames_received += 1;
                self.counters.bytes_received += n;
                Ok(msg)
            }
            Err(FrameError::Closed) => Err(TransportError::WorkerGone {
                worker,
                detail: "stdout closed (worker died)".to_string(),
            }),
            Err(source) => Err(TransportError::Frame { worker, source }),
        }
    }

    fn kill(&mut self, worker: usize) -> Result<(), TransportError> {
        let w = slot(&mut self.workers, worker)?;
        // `Child::kill` is SIGKILL on unix: no signal handler, no
        // cleanup, exactly the crash the recovery ladder is built for.
        w.reap();
        self.counters.workers_killed += 1;
        Ok(())
    }

    fn respawn(&mut self, worker: usize, spec: WorkerSpec) -> Result<(), TransportError> {
        slot(&mut self.workers, worker)?.reap();
        let fresh = spawn_subprocess(&self.worker_bin, &spec)?;
        self.workers[worker] = fresh;
        self.counters.workers_spawned += 1;
        self.counters.worker_restarts += 1;
        self.send(worker, ShardMsg::Hello(Box::new(spec)))
    }

    fn counters(&self) -> TransportCounters {
        self.counters
    }
}

impl Drop for SubprocessTransport {
    fn drop(&mut self) {
        // Never leave orphan workers behind an errored dispatcher.
        for w in &mut self.workers {
            w.reap();
        }
    }
}

/// Find the `faultline-shard-worker` binary by convention:
/// the `FAULTLINE_SHARD_WORKER` environment variable, then a sibling of
/// the current executable, then the parent target directory (where
/// cargo puts workspace binaries relative to test executables).
pub fn locate_worker_bin() -> Option<PathBuf> {
    if let Some(p) = std::env::var_os("FAULTLINE_SHARD_WORKER") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Some(p);
        }
    }
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    let name = format!("faultline-shard-worker{}", std::env::consts::EXE_SUFFIX);
    let sibling = dir.join(&name);
    if sibling.is_file() {
        return Some(sibling);
    }
    let parent = dir.parent()?.join(&name);
    parent.is_file().then_some(parent)
}

/// The `faultline-shard-worker` entry point: read the
/// [`ShardMsg::Hello`] spec from stdin, materialize an owned scenario,
/// and run the worker loop over stdio frames until Flush or death.
/// Returns the process exit code.
pub fn serve_stdio() -> i32 {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut port = StreamPort {
        reader: stdin.lock(),
        writer: BufWriter::new(stdout.lock()),
        scratch: Vec::new(),
    };
    let (spec, data) = match greet(&mut port) {
        Ok(hello) => hello,
        Err(code) => return code,
    };
    let naming = Arc::new(Naming::mine(&data));
    match run_worker(&data, naming, spec, &mut port) {
        WorkerExit::Completed => 0,
        WorkerExit::Aborted => 9,
    }
}

/// A subprocess worker's first step: receive its [`ShardMsg::Hello`] and
/// materialize the scenario it names. `Err` is the exit code of a worker
/// that cannot start.
pub(crate) fn greet(port: &mut dyn WorkerPort) -> Result<(WorkerSpec, ScenarioData), i32> {
    let mut spec = match port.recv() {
        Ok(ShardMsg::Hello(spec)) => *spec,
        Ok(other) => {
            let _ = port.send(ShardMsg::Fatal {
                detail: format!("expected hello, got {}", other.kind()),
            });
            return Err(2);
        }
        Err(e) => {
            eprintln!("faultline-shard-worker: no hello frame: {e}");
            return Err(2);
        }
    };
    let scenario = std::mem::replace(&mut spec.scenario, ScenarioSpec::Attached);
    let data: ScenarioData = match scenario {
        ScenarioSpec::Attached => {
            let _ = port.send(ShardMsg::Fatal {
                detail: "subprocess worker cannot attach to the dispatcher's scenario".to_string(),
            });
            return Err(2);
        }
        ScenarioSpec::Params(params) => run_scenario(&params),
        ScenarioSpec::Inline(boxed) => {
            let mut data = *boxed;
            // Mirror ScenarioData::load: derived topology indexes do
            // not travel through serde.
            data.topology.reindex();
            data
        }
    };
    Ok((spec, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::LaneEvent;
    use crate::linktable::LinkIx;
    use faultline_isis::listener::TransitionDirection;
    use faultline_sim::scenario::ScenarioParams;
    use faultline_topology::time::Timestamp;
    use std::collections::VecDeque;

    /// A worker's connection: messages queued in, messages kept.
    struct Queue {
        inbox: VecDeque<ShardMsg>,
        sent: Vec<ShardMsg>,
    }

    impl WorkerPort for Queue {
        fn recv(&mut self) -> Result<ShardMsg, FrameError> {
            self.inbox.pop_front().ok_or(FrameError::Closed)
        }
        fn send(&mut self, msg: ShardMsg) -> Result<(), FrameError> {
            self.sent.push(msg);
            Ok(())
        }
    }

    #[test]
    fn a_row_past_the_workers_table_is_fatal_not_applied() {
        let data = run_scenario(&ScenarioParams::tiny(3));
        let naming = Arc::new(Naming::mine(&data));
        let links = naming.table.len();
        let row = |link: usize, secs: u64, direction| LaneRow {
            link: LinkIx(link as u32),
            event: LaneEvent {
                at: Timestamp::from_secs(secs),
                direction,
                reach: None,
            },
        };
        // A failure on the forged link, which would be sanitized against
        // a table entry that does not exist.
        let (down, up) = (TransitionDirection::Down, TransitionDirection::Up);
        let rows = vec![row(0, 30, down), row(links, 60, down), row(links, 90, up)];
        let dir = std::env::temp_dir().join(format!("faultline-forged-row-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for durable in [None, Some(dir.to_string_lossy().into_owned())] {
            let mut spec = WorkerSpec::new(AnalysisConfig::default(), ScenarioSpec::Attached);
            spec.durable = durable.map(|dir| DurableSpec {
                dir,
                policy: DurabilityPolicy::default(),
                recover: false,
            });
            let mut port = Queue {
                inbox: [ShardMsg::Rows(rows.clone()), ShardMsg::Flush].into(),
                sent: Vec::new(),
            };
            let exit = run_worker(&data, Arc::clone(&naming), spec, &mut port);
            assert!(matches!(exit, WorkerExit::Completed));
            assert_eq!(port.sent.len(), 2, "Ready, then one answer");
            assert!(matches!(port.sent[0], ShardMsg::Ready(None)));
            let ShardMsg::Fatal { detail } = &port.sent[1] else {
                panic!("a forged row must be refused with Fatal");
            };
            assert!(detail.contains(&format!("link {links} of a {links}-link table")));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn sample_msgs() -> Vec<ShardMsg> {
        vec![
            ShardMsg::Flush,
            ShardMsg::Ready(None),
            ShardMsg::Events(Vec::new()),
            ShardMsg::Fatal {
                detail: "boom".to_string(),
            },
            ShardMsg::Hello(Box::new(WorkerSpec::new(
                AnalysisConfig::default(),
                ScenarioSpec::Params(Box::new(ScenarioParams::tiny(3))),
            ))),
        ]
    }

    #[test]
    fn frames_round_trip_and_count_bytes() {
        for msg in sample_msgs() {
            let mut buf = Vec::new();
            let written = write_frame(&mut buf, &msg).expect("encode");
            assert_eq!(written as usize, buf.len());
            let (back, consumed) = read_frame(&mut buf.as_slice()).expect("decode");
            assert_eq!(consumed, written);
            assert_eq!(back.kind(), msg.kind());
            assert_eq!(
                serde_json::to_string(&back).unwrap(),
                serde_json::to_string(&msg).unwrap(),
                "payload must survive the frame exactly"
            );
        }
    }

    #[test]
    fn empty_stream_is_closed_and_prefixes_are_torn() {
        assert!(matches!(
            read_frame(&mut [].as_slice()),
            Err(FrameError::Closed)
        ));
        let mut buf = Vec::new();
        write_frame(&mut buf, &ShardMsg::Flush).unwrap();
        for cut in 1..buf.len() {
            let err = read_frame(&mut &buf[..cut]).unwrap_err();
            assert!(
                matches!(err, FrameError::Torn { .. }),
                "prefix {cut}/{} must be torn, got {err}",
                buf.len()
            );
        }
    }

    #[test]
    fn header_damage_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &ShardMsg::Flush).unwrap();

        let mut bad_magic = buf.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut bad_magic.as_slice()),
            Err(FrameError::BadMagic { .. })
        ));

        let mut bad_version = buf.clone();
        bad_version[4] = 0xEE;
        assert!(matches!(
            read_frame(&mut bad_version.as_slice()),
            Err(FrameError::UnsupportedVersion { found: 0xEE, .. })
        ));

        let mut bad_len = buf.clone();
        bad_len[9] = 0xFF; // declared length far beyond the bound
        assert!(matches!(
            read_frame(&mut bad_len.as_slice()),
            Err(FrameError::TooLarge { .. })
        ));

        let mut bad_payload = buf.clone();
        let last = bad_payload.len() - 1;
        bad_payload[last] ^= 0x01;
        assert!(matches!(
            read_frame(&mut bad_payload.as_slice()),
            Err(FrameError::HashMismatch { .. })
        ));
    }
}
