//! # faultline-core
//!
//! The analysis pipeline of "A Comparison of Syslog and IS-IS for Network
//! Failure Analysis" (Turner et al., IMC 2013) — the paper's contribution.
//!
//! Given the two contemporaneous observables a network operator can record
//! (a syslog archive and a passive IS-IS listener's LSP-derived transition
//! log), plus a mined router-config archive for naming, this crate:
//!
//! 1. resolves both data sources to the common §3.4 link naming convention
//!    ([`linktable`]);
//! 2. converts each into per-link state *transitions* ([`transitions`]) —
//!    including the both-ends AND-merge that turns two routers' LSP
//!    withdrawals into one link-level IS-IS event;
//! 3. reconstructs *failures* (DOWN→UP intervals) from each transition
//!    stream, applying a selectable strategy for nonsensical double
//!    up/down messages ([`reconstruct`]);
//! 4. sanitizes: drops failures spanning listener outages and verifies
//!    long syslog failures against trouble tickets ([`sanitize`]);
//! 5. matches transitions and failures across sources within the ±10 s
//!    window ([`matching`]);
//! 6. computes the paper's statistics: annualized per-link failure rates,
//!    durations, time-between-failures, downtime, CDFs, and the
//!    two-sample Kolmogorov–Smirnov test ([`stats`], [`ks`]);
//! 7. detects flapping ([`flap`]), classifies syslog false positives and
//!    ambiguous double messages ([`fp`]);
//! 8. reconstructs customer-isolation events from each source and
//!    compares them ([`isolation`]);
//! 9. wraps it all in [`analysis::Analysis`], which regenerates every
//!    table and figure of the paper from a
//!    [`faultline_sim::ScenarioData`]; [`export`] writes the underlying
//!    traces as CSV for downstream tooling.
//!
//! All of those semantics live in **one kernel** ([`kernel`]): every
//! per-link state machine — dedup, both-ends merge, reconstruction,
//! sanitization, flap tracking, segment close — is owned by
//! `kernel::LinkLane`, and the crate ships **one driver** over it.
//! The streaming driver ([`streaming`]) ingests the interleaved
//! syslog/IS-IS event stream one event or micro-batch at a time, emits
//! failures as soon as they are final, and flushes the same bytes
//! however the stream is cut; [`analysis::Analysis::run`] replays a
//! whole archive through it in 256-event batches. It is crash-safe:
//! [`recovery`] wraps it in a write-ahead journal plus versioned,
//! hash-verified checkpoints, and its recovery supervisor resumes a
//! killed run byte-identical to one that never stopped. Beyond one
//! process, [`cluster`] shards the stream across N independent workers
//! by consistent-hashing the interned link key and deterministically
//! merges the shard outputs back into the single-process answer — with
//! a shard supervisor that recovers a killed shard without touching
//! healthy ones; between processes, event batches cross the shard wire
//! ([`transport`]) in the binary row layout that [`codec`] alone
//! defines — the same rows the journal stores — inside the one integrity
//! header ([`envelope`]) every frame, journal record and snapshot file
//! wears. When traffic exceeds capacity, [`admission`] bounds
//! memory in front of the driver: a fixed-size priority queue that
//! blocks (backpressure) or sheds deterministically — chatter first,
//! IS-IS last — with every dropped event accounted for exactly in
//! [`observe::OverloadCounters`].
//!
//! Lane work is serial: each link's lane is applied in place on the
//! calling thread (a lane's share of a micro-batch is too little work to
//! hand to a thread; the cluster's shards are the unit of parallelism),
//! and every run carries per-stage counters and timings
//! ([`observe::PipelineReport`]). Set `RUST_LOG=faultline_core=debug` to
//! narrate the pipeline on stderr.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod analysis;
pub mod arena;
pub mod cluster;
pub mod codec;
pub mod envelope;
pub mod error;
pub mod export;
pub mod flap;
pub mod fp;
pub mod intern;
pub mod isolation;
pub mod kernel;
pub mod ks;
pub mod linktable;
pub mod matching;
pub mod observe;
pub mod reconstruct;
pub mod recovery;
pub mod sanitize;
pub mod stats;
pub mod streaming;
pub mod transitions;
pub mod transport;

pub use admission::{
    run_overloaded, run_overloaded_cluster, shed_survivors, AdmissionConfig, AdmissionController,
    EventClass, Offer, OverloadPolicy, SimSchedule,
};
pub use analysis::{Analysis, AnalysisConfig, ParallelismConfig};
pub use arena::EventArena;
pub use cluster::{
    merge_outputs, partition_events, run_cluster, run_cluster_subprocess, shard_dir, shard_of_key,
    shard_of_link, ClusterConfig, ClusterDurability, ClusterResult, ShardRecovery,
    SubprocessOptions, Workers,
};
pub use error::{AnalysisError, CodecError, FrameError, RecoveryError, TransportError};
pub use intern::{Sym, SymbolTable};
pub use linktable::{LinkIx, LinkTable};
pub use observe::{
    DurabilityCounters, OverloadCounters, PipelineCounters, PipelineReport, RobustnessCounters,
    ShardCounters, StreamingCounters, TransportCounters,
};
pub use reconstruct::{AmbiguityStrategy, Failure};
pub use recovery::{DurabilityPolicy, DurableStream, FaultHook, RecoveryReport, RetryPolicy};
pub use streaming::{
    scenario_event_stream, IngestOutcome, IngestSummary, StreamAnalysis, StreamCheckpoint,
    StreamDelta, StreamEvent, StreamOutput, StreamResult,
};
pub use transport::{
    locate_worker_bin, read_frame, serve_stdio, write_frame, DurableSpec, InProcessTransport,
    ScenarioSpec, ShardMsg, ShardTransport, SubprocessTransport, WorkerOutput, WorkerSpec,
    FRAME_MAGIC, WIRE_VERSION,
};
