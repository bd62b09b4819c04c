//! Crash-safe durability for the streaming engine: checkpoints, a
//! write-ahead event journal, and the recovery supervisor that stitches
//! them back into a running [`StreamAnalysis`].
//!
//! The paper's core complaint about syslog is that the collection path
//! dies ungracefully — UDP drops, collector restarts — and the history is
//! silently lossy afterwards. [`StreamAnalysis`] alone has the same flaw:
//! all per-link state lives in memory, so a crash mid-replay loses every
//! open DOWN interval. This module removes that flaw with the classic
//! write-ahead discipline:
//!
//! 1. **Journal first.** Every offered event is appended to a rotating
//!    journal segment (`journal/seg-<first_seq>.jl`, one checksummed
//!    JSON record per line) *before* the engine sees it. After a crash,
//!    the journal's tail is the part of the stream the checkpoint has
//!    not absorbed yet.
//! 2. **Checkpoint incrementally.** Every `checkpoint_interval` events
//!    a snapshot is captured. A periodic **full base**
//!    ([`StreamCheckpoint`], `ckpt-<seq>.ckpt`) serializes the whole
//!    engine; between bases, **deltas** ([`StreamDelta`],
//!    `delta-<seq>.dckpt`) serialize only the lanes the kernel dirtied
//!    since the previous snapshot plus the appended message tail. Every
//!    file is hashed (FNV-1a 64) and written via temp-file-and-rename so
//!    a torn write can never replace a good snapshot; each delta's
//!    header additionally chains back to its parent (parent seq +
//!    parent payload hash). Cadence is
//!    [`DurabilityPolicy::full_every_n_checkpoints`] capped by
//!    [`DurabilityPolicy::max_chain_len`]. With
//!    [`DurabilityPolicy::offload_snapshots`] (the default), capture is
//!    a cheap in-memory clone on the ingest thread and serialization +
//!    fsync + rename happen on a dedicated writer thread behind a
//!    bounded hand-off queue; after a write exhausts its
//!    [`RetryPolicy`], the stream falls back to synchronous full
//!    snapshots (counted in
//!    [`DurabilityCounters::snapshot_sync_fallbacks`]).
//! 3. **Recover by chain-aware fallback ladder.**
//!    [`DurableStream::recover`] tries snapshots newest→oldest as chain
//!    *tips*: a full base restores directly; a delta walks parent
//!    pointers down to its base, validating every link's payload hash
//!    and the child-declared parent hash on the way, then re-applies the
//!    deltas oldest→newest. Any torn, corrupt, missing, or
//!    future-version link rejects the whole chain and the ladder moves
//!    to the next tip. The journal tail is then replayed — tolerating a
//!    torn final record per segment — and the run resumes. If no
//!    snapshot survives but the journal reaches back to the first
//!    event, it rebuilds from scratch.
//!
//! The contract, proven by `tests/crash_recovery.rs` at every event
//! boundary: a killed-and-recovered run flushes a [`StreamOutput`]
//! byte-identical (as JSON) to a run that never stopped, and corruption
//! degrades to an older snapshot with a typed [`RecoveryError`], never a
//! panic.
//!
//! [`StreamOutput`]: crate::streaming::StreamOutput

use crate::analysis::AnalysisConfig;
use crate::error::RecoveryError;
use crate::observe::{self, DurabilityCounters};
use crate::streaming::{
    IngestOutcome, StreamAnalysis, StreamCheckpoint, StreamDelta, StreamEvent, StreamResult,
};
use faultline_sim::ScenarioData;
use serde::{Deserialize, Serialize};
use std::fs::{self, File};
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// Checkpoint format version this build writes and reads.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Delta-snapshot format version this build writes and reads.
pub const DELTA_VERSION: u32 = 1;

/// Magic string opening every full-checkpoint header.
const MAGIC: &str = "faultline-checkpoint";

/// Magic string opening every delta-snapshot header.
const DELTA_MAGIC: &str = "faultline-delta";

/// FNV-1a 64-bit — the integrity hash for checkpoint payloads and
/// journal records (fast, dependency-free, and deterministic across
/// platforms; corruption detection, not cryptography).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn io_err(op: &'static str, path: &Path, source: std::io::Error) -> RecoveryError {
    RecoveryError::Io {
        op,
        path: path.display().to_string(),
        source,
    }
}

/// Retry discipline for transient checkpoint-write failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts before giving up (including the first; minimum 1).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `backoff_base_ms << (n - 1)` ms.
    pub backoff_base_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 10,
        }
    }
}

/// Tunables for the durability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DurabilityPolicy {
    /// Write a checkpoint every this many ingested events (`0` disables
    /// automatic checkpoints; call [`DurableStream::checkpoint_now`]).
    pub checkpoint_interval: u64,
    /// Rotate the journal to a fresh segment after this many records.
    pub segment_max_records: u64,
    /// How many of the newest snapshot **chains** to keep on disk: that
    /// many full bases, each with every delta that chains to it (a base
    /// is never deleted while a retained delta still depends on it).
    /// With delta snapshots disabled this degenerates to "the newest N
    /// checkpoint files". Keeping more than one chain is what makes the
    /// fallback ladder possible.
    pub retain_checkpoints: usize,
    /// Write a full base every this many snapshots; the snapshots in
    /// between are incremental deltas chained to the previous one. `0`
    /// or `1` disables deltas entirely (every snapshot is a full
    /// checkpoint — the pre-chain behavior, and what an old serialized
    /// policy deserializes to).
    #[serde(default)]
    pub full_every_n_checkpoints: u64,
    /// Hard cap on consecutive deltas between bases, bounding both
    /// recovery's chain walk and the blast radius of a lost base. `0`
    /// disables deltas.
    #[serde(default)]
    pub max_chain_len: u64,
    /// Serialize and write snapshots on a dedicated writer thread (the
    /// ingest thread only pays for an in-memory state clone). `false`
    /// keeps every write synchronous on the ingest path.
    #[serde(default)]
    pub offload_snapshots: bool,
    /// Group-commit cadence for the journal: `fsync` the active segment
    /// after every this many appended records (and on segment rotation).
    /// `0` — the default — never fsyncs, matching the original
    /// OS-buffered behavior: an in-*process* kill still loses nothing,
    /// but a whole-machine crash may drop the buffered tail. The cost of
    /// each cadence is measured by the `fsync_cost_curve` arm of
    /// `recovery_replay`.
    #[serde(default)]
    pub fsync_every_n_records: u64,
    /// Retry discipline for checkpoint writes.
    pub retry: RetryPolicy,
}

impl Default for DurabilityPolicy {
    fn default() -> Self {
        DurabilityPolicy {
            checkpoint_interval: 10_000,
            segment_max_records: 8_192,
            retain_checkpoints: 2,
            full_every_n_checkpoints: 8,
            max_chain_len: 6,
            offload_snapshots: true,
            fsync_every_n_records: 0,
            retry: RetryPolicy::default(),
        }
    }
}

/// What [`DurableStream::recover`] found and did.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Sequence number of the snapshot tip that was restored, if any
    /// (the newest link of the restored chain).
    pub checkpoint_seq: Option<u64>,
    /// Deltas applied on top of the full base to reach
    /// `checkpoint_seq`: `0` means the tip itself was a full
    /// checkpoint.
    #[serde(default)]
    pub chain_length: u64,
    /// Checkpoints that failed validation and were skipped.
    pub checkpoints_rejected: u64,
    /// Why each rejected checkpoint was rejected (path: reason).
    pub rejected: Vec<String>,
    /// No checkpoint survived (or none existed); state was rebuilt from
    /// the journal alone.
    pub started_fresh: bool,
    /// Journal records replayed into the engine.
    pub events_replayed: u64,
    /// Torn trailing journal records discarded during replay.
    pub journal_truncated_records: u64,
    /// The engine's event position after recovery: the caller resumes
    /// feeding from source position `resumed_at_seq` (0-based) onward.
    pub resumed_at_seq: u64,
    /// The replayed journal prefix was folded into a fresh checkpoint at
    /// `resumed_at_seq` (snapshot compaction), so the next recovery
    /// restores directly instead of re-replaying the same tail.
    /// Best-effort: `false` when nothing was replayed or the compaction
    /// checkpoint failed to write (the pre-compaction state still
    /// recovers fine).
    #[serde(default)]
    pub compacted: bool,
    /// Wall-clock cost of the whole recovery (load + replay), in µs.
    pub recover_micros: u64,
}

/// Injected checkpoint-write fault: called with `(seq, attempt)` before
/// each write attempt; returning `true` makes that attempt fail with a
/// transient I/O error. Wired to chaos presets by the test harness.
/// While a hook is installed, cadence snapshots take the synchronous
/// path so injected failures surface deterministically on the ingest
/// thread.
pub type CheckpointFaultHook = Box<dyn FnMut(u64, u32) -> bool + Send>;

/// Injected write fault for the **off-thread** snapshot writer: same
/// `(seq, attempt)` contract as [`CheckpointFaultHook`], but shareable
/// across threads because the writer evaluates it.
pub type AsyncFaultHook = Arc<dyn Fn(u64, u32) -> bool + Send + Sync>;

// ---------------------------------------------------------------------
// Checkpoint files
// ---------------------------------------------------------------------

fn checkpoint_name(seq: u64) -> String {
    format!("ckpt-{seq:012}.ckpt")
}

fn delta_name(seq: u64) -> String {
    format!("delta-{seq:012}.dckpt")
}

/// What kind of snapshot file a directory entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SnapKind {
    /// An incremental delta (`delta-<seq>.dckpt`).
    Delta,
    /// A full base checkpoint (`ckpt-<seq>.ckpt`). Sorts after `Delta`
    /// at equal sequence so the recovery ladder prefers the full file
    /// (post-compaction, both can exist at one sequence).
    Full,
}

/// One snapshot file on disk — a candidate chain link.
#[derive(Debug, Clone)]
struct SnapFile {
    seq: u64,
    kind: SnapKind,
    path: PathBuf,
}

/// Every snapshot file (full bases and deltas), ascending by sequence
/// then kind. Temp files and foreign names are ignored.
fn list_snapshots(dir: &Path) -> Result<Vec<SnapFile>, RecoveryError> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(io_err("list snapshots", dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err("list snapshots", dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let parsed = name
            .strip_prefix("ckpt-")
            .and_then(|s| s.strip_suffix(".ckpt"))
            .map(|stem| (SnapKind::Full, stem))
            .or_else(|| {
                name.strip_prefix("delta-")
                    .and_then(|s| s.strip_suffix(".dckpt"))
                    .map(|stem| (SnapKind::Delta, stem))
            });
        let Some((kind, stem)) = parsed else { continue };
        if let Ok(seq) = stem.parse::<u64>() {
            out.push(SnapFile {
                seq,
                kind,
                path: entry.path(),
            });
        }
    }
    out.sort_by_key(|s| (s.seq, s.kind));
    Ok(out)
}

/// The atomic write shared by both snapshot kinds: temp file in the
/// same directory, `sync_all`, then rename over the final name. Returns
/// the file's size in bytes.
fn write_snapshot_atomic(
    dir: &Path,
    name: &str,
    header: &str,
    payload: &str,
) -> Result<u64, RecoveryError> {
    let final_path = dir.join(name);
    let tmp_path = dir.join(format!("{name}.tmp"));
    let mut f = File::create(&tmp_path).map_err(|e| io_err("write checkpoint", &tmp_path, e))?;
    f.write_all(header.as_bytes())
        .and_then(|()| f.write_all(payload.as_bytes()))
        .and_then(|()| f.write_all(b"\n"))
        .and_then(|()| f.sync_all())
        .map_err(|e| io_err("write checkpoint", &tmp_path, e))?;
    drop(f);
    fs::rename(&tmp_path, &final_path).map_err(|e| io_err("commit checkpoint", &final_path, e))?;
    Ok((header.len() + payload.len() + 1) as u64)
}

/// Atomically write one full checkpoint file. `payload_fnv` is the
/// caller's [`fnv1a64`] of `payload` — hashed once per snapshot, not once
/// per attempt. Returns the file's size in bytes.
fn write_checkpoint_file(
    dir: &Path,
    payload: &str,
    payload_fnv: u64,
    seq: u64,
) -> Result<u64, RecoveryError> {
    let header = format!(
        "{{\"magic\":\"{MAGIC}\",\"version\":{CHECKPOINT_VERSION},\"seq\":{seq},\"payload_len\":{},\"payload_fnv\":\"{payload_fnv:016x}\"}}\n",
        payload.len(),
    );
    write_snapshot_atomic(dir, &checkpoint_name(seq), &header, payload)
}

/// Atomically write one delta file whose header chains it to its parent
/// snapshot (`parent_seq` + the parent's payload hash); `payload_fnv` as
/// for [`write_checkpoint_file`]. Returns the file's size in bytes.
fn write_delta_file(
    dir: &Path,
    payload: &str,
    payload_fnv: u64,
    seq: u64,
    parent_seq: u64,
    parent_fnv: u64,
) -> Result<u64, RecoveryError> {
    let header = format!(
        "{{\"magic\":\"{DELTA_MAGIC}\",\"version\":{DELTA_VERSION},\"seq\":{seq},\"parent_seq\":{parent_seq},\"parent_fnv\":\"{parent_fnv:016x}\",\"payload_len\":{},\"payload_fnv\":\"{payload_fnv:016x}\"}}\n",
        payload.len(),
    );
    write_snapshot_atomic(dir, &delta_name(seq), &header, payload)
}

fn corrupt(path: &Path, reason: impl Into<String>) -> RecoveryError {
    RecoveryError::CorruptCheckpoint {
        path: path.display().to_string(),
        reason: reason.into(),
    }
}

/// A parsed-and-verified snapshot file: its header fields and the
/// hash-checked payload text.
struct VerifiedSnapshot {
    header: serde::Value,
    payload_fnv: u64,
    payload: String,
}

/// Shared validation for both snapshot kinds: magic, version, payload
/// length, and integrity hash. `magic`/`version` select the expected
/// format.
fn load_verified(
    path: &Path,
    magic: &str,
    version_expected: u32,
) -> Result<VerifiedSnapshot, RecoveryError> {
    let text = fs::read_to_string(path).map_err(|e| io_err("read checkpoint", path, e))?;
    let Some((header_line, rest)) = text.split_once('\n') else {
        return Err(corrupt(path, "missing header line"));
    };
    let header: serde::Value = serde_json::from_str(header_line)
        .map_err(|e| corrupt(path, format!("unparseable header: {e}")))?;
    if header["magic"].as_str() != Some(magic) {
        return Err(corrupt(path, "bad magic"));
    }
    let version = header["version"].as_u64().unwrap_or(0) as u32;
    if version != version_expected {
        return Err(RecoveryError::UnsupportedVersion {
            found: version,
            expected: version_expected,
        });
    }
    let Some(payload_len) = header["payload_len"].as_u64() else {
        return Err(corrupt(path, "header missing payload_len"));
    };
    let Some(expect_fnv) = header["payload_fnv"].as_str() else {
        return Err(corrupt(path, "header missing payload_fnv"));
    };
    let payload_len = payload_len as usize;
    if rest.len() < payload_len {
        return Err(corrupt(
            path,
            format!("torn payload: {} of {payload_len} bytes", rest.len()),
        ));
    }
    let payload = &rest[..payload_len];
    let payload_fnv = fnv1a64(payload.as_bytes());
    let got_fnv = format!("{payload_fnv:016x}");
    if got_fnv != expect_fnv {
        return Err(corrupt(
            path,
            format!("payload hash mismatch: header {expect_fnv}, payload {got_fnv}"),
        ));
    }
    Ok(VerifiedSnapshot {
        header,
        payload_fnv,
        payload: payload.to_string(),
    })
}

/// Load and fully validate one checkpoint file: magic, version, payload
/// length, integrity hash, and header/payload sequence agreement.
pub fn load_checkpoint(path: &Path) -> Result<StreamCheckpoint, RecoveryError> {
    load_checkpoint_with_fnv(path).map(|(ckpt, _)| ckpt)
}

/// [`load_checkpoint`] plus the verified payload hash — what a delta
/// child's `parent_fnv` must match during a chain walk.
fn load_checkpoint_with_fnv(path: &Path) -> Result<(StreamCheckpoint, u64), RecoveryError> {
    let v = load_verified(path, MAGIC, CHECKPOINT_VERSION)?;
    let ckpt: StreamCheckpoint = serde_json::from_str(&v.payload)
        .map_err(|e| corrupt(path, format!("unparseable payload: {e}")))?;
    if v.header["seq"].as_u64() != Some(ckpt.seq()) {
        return Err(corrupt(path, "header/payload sequence disagreement"));
    }
    Ok((ckpt, v.payload_fnv))
}

/// A fully validated delta file plus the chain fields recovery needs.
struct LoadedDelta {
    delta: StreamDelta,
    parent_seq: u64,
    parent_fnv: u64,
    payload_fnv: u64,
}

/// Load and fully validate one delta file: everything
/// [`load_checkpoint`] checks, plus header/payload agreement on both
/// the sequence and the parent pointer, and parent monotonicity
/// (`parent_seq < seq` — a chain can never loop).
fn load_delta(path: &Path) -> Result<LoadedDelta, RecoveryError> {
    let v = load_verified(path, DELTA_MAGIC, DELTA_VERSION)?;
    let delta: StreamDelta = serde_json::from_str(&v.payload)
        .map_err(|e| corrupt(path, format!("unparseable payload: {e}")))?;
    if v.header["seq"].as_u64() != Some(delta.seq()) {
        return Err(corrupt(path, "header/payload sequence disagreement"));
    }
    if v.header["parent_seq"].as_u64() != Some(delta.parent_seq()) {
        return Err(corrupt(path, "header/payload parent disagreement"));
    }
    let Some(parent_fnv) = v.header["parent_fnv"]
        .as_str()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
    else {
        return Err(corrupt(path, "header missing parent_fnv"));
    };
    if delta.parent_seq() >= delta.seq() {
        return Err(corrupt(path, "non-monotonic parent pointer"));
    }
    Ok(LoadedDelta {
        parent_seq: delta.parent_seq(),
        parent_fnv,
        payload_fnv: v.payload_fnv,
        delta,
    })
}

/// Read just a snapshot file's header line and return its declared
/// payload hash — enough to pick the right parent among same-sequence
/// candidates and to resolve chains during pruning without reading full
/// payloads. `None` on any damage (the caller treats that link as
/// missing).
fn peek_payload_fnv(path: &Path) -> Option<u64> {
    let file = File::open(path).ok()?;
    let mut line = String::new();
    std::io::BufReader::new(file).read_line(&mut line).ok()?;
    let header: serde::Value = serde_json::from_str(line.trim_end()).ok()?;
    header["payload_fnv"]
        .as_str()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
}

/// Read just a delta file's header line and return its declared parent
/// sequence. `None` for non-delta files or any damage.
fn peek_parent_seq(path: &Path) -> Option<u64> {
    let file = File::open(path).ok()?;
    let mut line = String::new();
    std::io::BufReader::new(file).read_line(&mut line).ok()?;
    let header: serde::Value = serde_json::from_str(line.trim_end()).ok()?;
    if header["magic"].as_str() != Some(DELTA_MAGIC) {
        return None;
    }
    header["parent_seq"].as_u64()
}

// ---------------------------------------------------------------------
// Write-ahead journal
// ---------------------------------------------------------------------

fn segment_name(first_seq: u64) -> String {
    format!("seg-{first_seq:012}.jl")
}

/// Journal segments on disk, ascending by first sequence number.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, RecoveryError> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(io_err("list journal segments", dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err("list journal segments", dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".jl"))
        else {
            continue;
        };
        if let Ok(seq) = stem.parse::<u64>() {
            out.push((seq, entry.path()));
        }
    }
    out.sort_by_key(|&(seq, _)| seq);
    Ok(out)
}

/// Appends checksummed event records to rotating journal segments. Each
/// record is a single unbuffered `write_all`, so an in-process "kill"
/// leaves exactly the records written so far — plus, at worst, one torn
/// trailing line, which replay discards.
struct JournalWriter {
    dir: PathBuf,
    file: Option<File>,
    segment_path: PathBuf,
    records_in_segment: u64,
    next_seq: u64,
    max_records: u64,
    fsync_every: u64,
    records_since_sync: u64,
    bytes_written: u64,
    records_written: u64,
    segments_opened: u64,
    fsyncs: u64,
}

impl JournalWriter {
    fn new(dir: PathBuf, next_seq: u64, max_records: u64, fsync_every: u64) -> JournalWriter {
        JournalWriter {
            segment_path: dir.clone(),
            dir,
            file: None,
            records_in_segment: 0,
            next_seq,
            max_records: max_records.max(1),
            fsync_every,
            records_since_sync: 0,
            bytes_written: 0,
            records_written: 0,
            segments_opened: 0,
            fsyncs: 0,
        }
    }

    /// Group commit: flush the active segment's unsynced tail to stable
    /// storage. No-op while the policy is disabled (`fsync_every == 0`)
    /// or there is nothing unsynced.
    fn sync(&mut self) -> Result<(), RecoveryError> {
        if self.fsync_every == 0 || self.records_since_sync == 0 {
            return Ok(());
        }
        if let Some(file) = self.file.as_mut() {
            file.sync_data()
                .map_err(|e| io_err("fsync journal segment", &self.segment_path, e))?;
            self.fsyncs += 1;
        }
        self.records_since_sync = 0;
        Ok(())
    }

    fn open_segment(&mut self) -> Result<(), RecoveryError> {
        // The outgoing segment is never written again; make its tail
        // durable before moving on so rotation is also a commit point.
        self.sync()?;
        let path = self.dir.join(segment_name(self.next_seq));
        let file = File::create(&path).map_err(|e| io_err("open journal segment", &path, e))?;
        self.file = Some(file);
        self.segment_path = path;
        self.records_in_segment = 0;
        self.segments_opened += 1;
        Ok(())
    }

    fn append(&mut self, event: &StreamEvent) -> Result<(), RecoveryError> {
        if self.file.is_none() || self.records_in_segment >= self.max_records {
            self.open_segment()?;
        }
        let ev = serde_json::to_string(event).map_err(|e| {
            io_err(
                "serialize journal record",
                &self.segment_path,
                std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()),
            )
        })?;
        let line = format!(
            "{{\"seq\":{},\"fnv\":\"{:016x}\",\"event\":{ev}}}\n",
            self.next_seq,
            fnv1a64(ev.as_bytes()),
        );
        // Invariant: `file` was opened above — not data-dependent.
        let file = self.file.as_mut().expect("segment opened above");
        file.write_all(line.as_bytes())
            .map_err(|e| io_err("append journal record", &self.segment_path, e))?;
        self.records_in_segment += 1;
        self.next_seq += 1;
        self.records_written += 1;
        self.bytes_written += line.len() as u64;
        self.records_since_sync += 1;
        if self.fsync_every > 0 && self.records_since_sync >= self.fsync_every {
            self.sync()?;
        }
        Ok(())
    }
}

/// What a journal replay recovered.
struct ReplayOutcome {
    replayed: u64,
    truncated_records: u64,
}

fn corrupt_journal(path: &Path, seq: u64, reason: impl Into<String>) -> RecoveryError {
    RecoveryError::CorruptJournal {
        segment: path.display().to_string(),
        seq,
        reason: reason.into(),
    }
}

/// Parse and verify one journal line; returns `(seq, event)`, or `None`
/// if the line is damaged (torn write or bit rot — the caller decides
/// whether that is a recoverable tail).
fn parse_record(line: &str) -> Option<(u64, StreamEvent)> {
    let mut v: serde::Value = serde_json::from_str(line).ok()?;
    let seq = v["seq"].as_u64()?;
    let event_value = v.as_object_mut()?.remove("event")?;
    let expect_fnv = v["fnv"].as_str()?;
    // The writer rendered the event with this same serializer, so a
    // clean parse → re-render round-trips to the original bytes and the
    // checksum can be verified without storing the raw substring.
    let rendered = serde_json::to_string(&event_value).ok()?;
    if format!("{:016x}", fnv1a64(rendered.as_bytes())) != expect_fnv {
        return None;
    }
    serde_json::from_value::<StreamEvent>(event_value)
        .ok()
        .map(|e| (seq, e))
}

/// Replay every journal record with sequence `> after_seq` through
/// `apply`, in order. Within each segment, records must be contiguous
/// from the segment's first sequence; a damaged record ends the segment
/// (a torn tail — its discarded lines are counted) and the next segment
/// must continue exactly where the good prefix stopped, otherwise the
/// journal is reported corrupt. Sequence gaps *between* the checkpoint
/// and the first needed record are likewise corrupt: the events are
/// simply gone.
fn replay_journal(
    journal_dir: &Path,
    after_seq: u64,
    mut apply: impl FnMut(&StreamEvent),
) -> Result<ReplayOutcome, RecoveryError> {
    let segments = list_segments(journal_dir)?;
    let mut next_needed = after_seq + 1;
    let mut replayed = 0u64;
    let mut truncated = 0u64;
    for (i, (first_seq, path)) in segments.iter().enumerate() {
        // A segment whose whole range predates the checkpoint is skipped
        // without reading (its extent is bounded by the next segment's
        // first sequence).
        if let Some(&(next_first, _)) = segments.get(i + 1) {
            if next_first <= next_needed && *first_seq < next_needed {
                continue;
            }
        }
        if *first_seq > next_needed {
            return Err(corrupt_journal(
                path,
                next_needed,
                format!("segment gap: needed {next_needed}, segment starts at {first_seq}"),
            ));
        }
        let text = fs::read_to_string(path).map_err(|e| io_err("read journal segment", path, e))?;
        let mut expected = *first_seq;
        let mut torn_here = false;
        for line in text.lines() {
            if torn_here {
                truncated += 1;
                continue;
            }
            match parse_record(line) {
                Some((seq, event)) if seq == expected => {
                    if seq == next_needed {
                        apply(&event);
                        replayed += 1;
                        next_needed = seq + 1;
                    } else if seq > next_needed {
                        return Err(corrupt_journal(
                            path,
                            next_needed,
                            format!("record gap: needed {next_needed}, found {seq}"),
                        ));
                    }
                    expected = seq + 1;
                }
                _ => {
                    // Damaged or out-of-sequence record: everything from
                    // here to the end of this segment is a torn tail.
                    // Whether the journal as a whole is recoverable
                    // depends on where the next segment picks up, checked
                    // by the contiguity rule on the next iteration.
                    torn_here = true;
                    truncated += 1;
                }
            }
        }
    }
    Ok(ReplayOutcome {
        replayed,
        truncated_records: truncated,
    })
}

// ---------------------------------------------------------------------
// Chain walk
// ---------------------------------------------------------------------

/// Resolve and restore the snapshot chain ending at `tip`: walk parent
/// pointers down to a full base — validating every file's payload hash
/// and every child's declared parent hash on the way — then rebuild the
/// engine from the base and re-apply the deltas oldest→newest. Any bad
/// link (torn, corrupt, missing, future-version, hash-mismatched)
/// rejects the **whole** chain with a typed error; the caller's ladder
/// moves on to the next tip.
///
/// Returns the restored engine, the tip's payload hash (the parent hash
/// the next delta written by the resumed run must chain to), and the
/// chain length (deltas applied on top of the base).
fn restore_chain<'a>(
    data: &'a ScenarioData,
    snaps: &[SnapFile],
    tip: &SnapFile,
) -> Result<(StreamAnalysis<'a>, u64, u64), RecoveryError> {
    let mut deltas: Vec<(PathBuf, StreamDelta)> = Vec::new();
    let mut tip_fnv: Option<u64> = None;
    let mut cur = tip.clone();
    // A child's declared parent hash constrains the next file down.
    let mut expect_fnv: Option<u64> = None;
    let base = loop {
        if deltas.len() > snaps.len() {
            return Err(corrupt(&cur.path, "chain longer than the snapshot set"));
        }
        match cur.kind {
            SnapKind::Full => {
                let (ckpt, fnv) = load_checkpoint_with_fnv(&cur.path)?;
                if ckpt.seq() != cur.seq {
                    // A renamed or content-swapped file: internally
                    // consistent, but it is not the snapshot its name
                    // claims, so the chain built on that name is a lie.
                    return Err(corrupt(
                        &cur.path,
                        "file name / content sequence disagreement",
                    ));
                }
                if expect_fnv.is_some_and(|e| e != fnv) {
                    return Err(corrupt(&cur.path, "chain parent hash mismatch"));
                }
                tip_fnv.get_or_insert(fnv);
                break ckpt;
            }
            SnapKind::Delta => {
                let loaded = load_delta(&cur.path)?;
                if loaded.delta.seq() != cur.seq {
                    return Err(corrupt(
                        &cur.path,
                        "file name / content sequence disagreement",
                    ));
                }
                if expect_fnv.is_some_and(|e| e != loaded.payload_fnv) {
                    return Err(corrupt(&cur.path, "chain parent hash mismatch"));
                }
                tip_fnv.get_or_insert(loaded.payload_fnv);
                // The parent is whichever same-sequence file carries the
                // hash this delta declares (post-compaction a full and a
                // delta can share a sequence number).
                let parent = snaps
                    .iter()
                    .filter(|s| s.seq == loaded.parent_seq)
                    .find(|s| peek_payload_fnv(&s.path) == Some(loaded.parent_fnv));
                let Some(parent) = parent else {
                    return Err(corrupt(
                        &cur.path,
                        format!("missing parent snapshot at seq {}", loaded.parent_seq),
                    ));
                };
                let next = parent.clone();
                deltas.push((cur.path.clone(), loaded.delta));
                expect_fnv = Some(loaded.parent_fnv);
                cur = next;
            }
        }
    };
    let mut engine = StreamAnalysis::restore(data, base).map_err(RecoveryError::from)?;
    let chain_len = deltas.len() as u64;
    for (path, delta) in deltas.into_iter().rev() {
        engine
            .apply_delta(delta)
            .map_err(|reason| corrupt(&path, reason))?;
    }
    // Invariant: the loop set `tip_fnv` on its first iteration.
    let tip_fnv = tip_fnv.expect("chain walk visited at least the tip");
    Ok((engine, tip_fnv, chain_len))
}

// ---------------------------------------------------------------------
// Off-thread snapshot writer
// ---------------------------------------------------------------------

/// Bound on snapshots queued to the writer thread before the ingest
/// thread blocks (a backpressure stall, counted in
/// [`DurabilityCounters::snapshot_thread_stalls`]).
const SNAPSHOT_QUEUE_DEPTH: usize = 2;

/// A frozen state capture handed to the writer thread.
enum SnapJob {
    Full {
        seq: u64,
        ckpt: Box<StreamCheckpoint>,
    },
    Delta {
        seq: u64,
        parent_seq: u64,
        delta: Box<StreamDelta>,
    },
}

/// What the writer thread reports back for one job, in submission
/// order.
struct SnapResult {
    seq: u64,
    is_delta: bool,
    ok: bool,
    bytes: u64,
    wall_micros: u64,
    /// Failed attempts (mirrors the sync path's per-attempt retry
    /// counting).
    retries: u64,
    /// Payload hash of the written file (chain anchor for the next
    /// delta). Meaningless when `!ok`.
    fnv: u64,
}

/// The dedicated snapshot writer: owns serialization, hashing,
/// chain-stamping, atomic writes, retries, and post-write pruning, so
/// the ingest thread only pays for the in-memory capture. Dropping the
/// writer closes the queue and **joins** the thread — queued snapshots
/// finish before a drop-kill "crash" completes, which keeps the
/// drop-at-any-boundary tests deterministic.
struct SnapshotWriter {
    tx: Option<mpsc::SyncSender<SnapJob>>,
    rx: mpsc::Receiver<SnapResult>,
    handle: Option<std::thread::JoinHandle<()>>,
    /// Jobs submitted but not yet acknowledged via `rx`.
    pending: usize,
}

impl SnapshotWriter {
    fn spawn(
        dir: PathBuf,
        journal_dir: PathBuf,
        retry: RetryPolicy,
        retain: usize,
        init_tip: Option<(u64, u64)>,
        fault: Option<AsyncFaultHook>,
    ) -> SnapshotWriter {
        let (tx, job_rx) = mpsc::sync_channel::<SnapJob>(SNAPSHOT_QUEUE_DEPTH);
        let (result_tx, rx) = mpsc::channel::<SnapResult>();
        let handle = std::thread::spawn(move || {
            // (seq, payload hash) of the last successfully written
            // snapshot — what a delta job's parent must equal.
            let mut last: Option<(u64, u64)> = init_tip;
            while let Ok(job) = job_rx.recv() {
                let result = write_one(&dir, &journal_dir, retry, retain, &mut last, &fault, job);
                if result_tx.send(result).is_err() {
                    break;
                }
            }
        });
        SnapshotWriter {
            tx: Some(tx),
            rx,
            handle: Some(handle),
            pending: 0,
        }
    }

    /// Close the queue, join the thread, and return every outstanding
    /// result in submission order.
    fn shutdown(&mut self) -> Vec<SnapResult> {
        self.tx = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        let mut out = Vec::with_capacity(self.pending);
        while let Ok(r) = self.rx.try_recv() {
            out.push(r);
        }
        self.pending = 0;
        out
    }
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        self.tx = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// One writer-thread job: serialize, verify chain order, write with
/// retries, prune on success.
fn write_one(
    dir: &Path,
    journal_dir: &Path,
    retry: RetryPolicy,
    retain: usize,
    last: &mut Option<(u64, u64)>,
    fault: &Option<AsyncFaultHook>,
    job: SnapJob,
) -> SnapResult {
    let t0 = Instant::now();
    let (seq, is_delta, parent_seq, payload) = match &job {
        SnapJob::Full { seq, ckpt } => (*seq, false, None, serde_json::to_string(ckpt.as_ref())),
        SnapJob::Delta {
            seq,
            parent_seq,
            delta,
        } => (
            *seq,
            true,
            Some(*parent_seq),
            serde_json::to_string(delta.as_ref()),
        ),
    };
    let mut result = SnapResult {
        seq,
        is_delta,
        ok: false,
        bytes: 0,
        wall_micros: 0,
        retries: 0,
        fnv: 0,
    };
    let Ok(payload) = payload else {
        result.wall_micros = t0.elapsed().as_micros() as u64;
        return result;
    };
    // A delta must chain to the writer's last success; after any
    // failure the queued descendants are rejected rather than written
    // with a dangling parent (the stream falls back to a full base).
    let parent = match parent_seq {
        Some(p) => match *last {
            Some((last_seq, last_fnv)) if last_seq == p => Some(last_fnv),
            _ => {
                result.wall_micros = t0.elapsed().as_micros() as u64;
                return result;
            }
        },
        None => None,
    };
    let fnv = fnv1a64(payload.as_bytes());
    let max_attempts = retry.max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let injected = fault.as_ref().is_some_and(|hook| hook(seq, attempt));
        let outcome = if injected {
            Err(io_err(
                "write checkpoint",
                &dir.join(checkpoint_name(seq)),
                std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "injected transient write failure",
                ),
            ))
        } else if let Some(parent_fnv) = parent {
            // Invariant: `parent` is `Some` exactly for delta jobs.
            write_delta_file(
                dir,
                &payload,
                fnv,
                seq,
                parent_seq.expect("delta job"),
                parent_fnv,
            )
        } else {
            write_checkpoint_file(dir, &payload, fnv, seq)
        };
        match outcome {
            Ok(bytes) => {
                *last = Some((seq, fnv));
                prune_snapshots(dir, journal_dir, retain);
                result.ok = true;
                result.bytes = bytes;
                result.fnv = fnv;
                result.wall_micros = t0.elapsed().as_micros() as u64;
                return result;
            }
            Err(_) => {
                result.retries += 1;
                if attempt >= max_attempts {
                    result.wall_micros = t0.elapsed().as_micros() as u64;
                    return result;
                }
                let backoff = retry.backoff_base_ms << (attempt - 1);
                std::thread::sleep(std::time::Duration::from_millis(backoff));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Recovery supervisor
// ---------------------------------------------------------------------

/// A [`StreamAnalysis`] wrapped in the write-ahead discipline: every
/// event is journaled before the engine sees it, checkpoints are written
/// atomically on a configurable cadence, and [`DurableStream::recover`]
/// rebuilds the exact engine state after a crash. See the module docs
/// for the full contract.
pub struct DurableStream<'a> {
    engine: StreamAnalysis<'a>,
    dir: PathBuf,
    journal: JournalWriter,
    policy: DurabilityPolicy,
    fault_hook: Option<CheckpointFaultHook>,
    async_fault_hook: Option<AsyncFaultHook>,
    counters: DurabilityCounters,
    last_checkpoint_seq: u64,
    /// The off-thread writer, spawned lazily on the first offloaded
    /// snapshot and shut down before any synchronous write.
    writer: Option<SnapshotWriter>,
    /// An offloaded write exhausted its retries: every later cadence
    /// snapshot takes the synchronous fallback path.
    async_dead: bool,
    /// Sequence of the newest snapshot captured (written or queued).
    tip_seq: Option<u64>,
    /// Payload hash of the newest snapshot — `None` while its write is
    /// still in flight on the writer thread. Settled whenever the
    /// writer is flushed, which every synchronous write does first.
    tip_fnv: Option<u64>,
    /// Consecutive deltas since the last full base.
    deltas_since_full: u64,
    /// When this process's durable run began (create or recover) —
    /// denominator for [`DurabilityCounters::snapshot_stall_rate_per_sec`].
    started: Instant,
}

impl<'a> DurableStream<'a> {
    /// Start a fresh durable stream in `dir` (created if missing).
    /// Refuses to run over existing durable state — recover it or point
    /// at an empty directory.
    pub fn create(
        dir: &Path,
        data: &'a ScenarioData,
        config: AnalysisConfig,
        policy: DurabilityPolicy,
    ) -> Result<Self, RecoveryError> {
        let journal_dir = dir.join("journal");
        fs::create_dir_all(&journal_dir)
            .map_err(|e| io_err("create journal dir", &journal_dir, e))?;
        if !list_snapshots(dir)?.is_empty() || !list_segments(&journal_dir)?.is_empty() {
            return Err(RecoveryError::StateExists {
                dir: dir.display().to_string(),
            });
        }
        let engine = StreamAnalysis::try_new(data, config)?;
        let journal = JournalWriter::new(
            journal_dir,
            1,
            policy.segment_max_records,
            policy.fsync_every_n_records,
        );
        Ok(DurableStream {
            engine,
            dir: dir.to_path_buf(),
            journal,
            policy,
            fault_hook: None,
            async_fault_hook: None,
            counters: DurabilityCounters::default(),
            last_checkpoint_seq: 0,
            writer: None,
            async_dead: false,
            tip_seq: None,
            tip_fnv: None,
            deltas_since_full: 0,
            started: Instant::now(),
        })
    }

    /// Rebuild a durable stream from whatever `dir` holds: the newest
    /// valid checkpoint (walking the fallback ladder past corrupt ones)
    /// plus the journal tail. With no usable checkpoint, rebuilds from a
    /// full journal replay; with neither, starts fresh. The caller's
    /// `config` supplies the parallelism for the resumed run (thread
    /// count never affects results) and the full configuration for
    /// fresh starts; a restored checkpoint's embedded analytic
    /// configuration always wins otherwise.
    pub fn recover(
        dir: &Path,
        data: &'a ScenarioData,
        config: AnalysisConfig,
        policy: DurabilityPolicy,
    ) -> Result<(Self, RecoveryReport), RecoveryError> {
        let t0 = Instant::now();
        let journal_dir = dir.join("journal");
        fs::create_dir_all(&journal_dir)
            .map_err(|e| io_err("create journal dir", &journal_dir, e))?;
        // Leftover temp files are uncommitted writes from the crashed
        // process; they were never part of durable state.
        if let Ok(entries) = fs::read_dir(dir) {
            for entry in entries.flatten() {
                if entry.path().extension().is_some_and(|e| e == "tmp") {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }

        let mut report = RecoveryReport::default();
        let mut engine: Option<StreamAnalysis<'a>> = None;
        let mut tip_fnv: Option<u64> = None;
        let snaps = list_snapshots(dir)?;
        for tip in snaps.iter().rev() {
            match restore_chain(data, &snaps, tip) {
                Ok((mut e, fnv, chain_len)) => {
                    e.set_parallelism(config.parallelism);
                    observe::narrate(|| {
                        format!(
                            "recovery: restored snapshot seq {} ({chain_len} deltas on the base)",
                            tip.seq
                        )
                    });
                    report.checkpoint_seq = Some(tip.seq);
                    report.chain_length = chain_len;
                    tip_fnv = Some(fnv);
                    engine = Some(e);
                    break;
                }
                Err(err) => {
                    observe::narrate(|| {
                        format!("recovery: skipping snapshot seq {}: {err}", tip.seq)
                    });
                    report.checkpoints_rejected += 1;
                    report
                        .rejected
                        .push(format!("{}: {err}", tip.path.display()));
                }
            }
        }
        let started_fresh = engine.is_none();
        let mut engine = match engine {
            Some(e) => e,
            None => StreamAnalysis::try_new(data, config)?,
        };
        report.started_fresh = started_fresh;

        let after = engine.events_ingested();
        let mut watermark = engine.watermark();
        let replay = replay_journal(&journal_dir, after, |event| {
            engine.ingest(event);
            // The late-event reject in `ingest` makes this structural,
            // but the replay contract is worth stating where it holds.
            let now = engine.watermark();
            debug_assert!(now >= watermark, "replay must never regress the watermark");
            watermark = now;
        });
        let replay = match replay {
            Ok(r) => r,
            Err(e) if started_fresh && report.checkpoints_rejected > 0 => {
                // Every checkpoint was rejected AND the journal cannot
                // rebuild from the start: nothing consistent exists.
                return Err(RecoveryError::NoRecoverableState {
                    detail: format!("{}; journal: {e}", report.rejected.join("; ")),
                });
            }
            Err(e) => return Err(e),
        };
        report.events_replayed = replay.replayed;
        report.journal_truncated_records = replay.truncated_records;
        report.resumed_at_seq = engine.events_ingested();
        report.recover_micros = t0.elapsed().as_micros() as u64;
        observe::narrate(|| {
            format!(
                "recovery: resumed at seq {} ({} replayed, {} torn)",
                report.resumed_at_seq, report.events_replayed, report.journal_truncated_records
            )
        });

        let last_checkpoint_seq = report.checkpoint_seq.unwrap_or(0);
        // New records go to a fresh segment starting right after the
        // replayed prefix; the torn tail (if any) stays behind in the old
        // segment, and the next recovery's contiguity rule handles it.
        let journal = JournalWriter::new(
            journal_dir,
            report.resumed_at_seq + 1,
            policy.segment_max_records,
            policy.fsync_every_n_records,
        );
        let counters = DurabilityCounters {
            restores: 1,
            events_replayed: replay.replayed,
            journal_truncated_records: replay.truncated_records,
            chain_length_at_recovery: report.chain_length,
            ..DurabilityCounters::default()
        };
        let mut stream = DurableStream {
            engine,
            dir: dir.to_path_buf(),
            journal,
            policy,
            fault_hook: None,
            async_fault_hook: None,
            counters,
            last_checkpoint_seq,
            writer: None,
            async_dead: false,
            tip_seq: report.checkpoint_seq,
            tip_fnv,
            deltas_since_full: report.chain_length,
            started: Instant::now(),
        };
        if replay.replayed > 0 {
            report.compacted = stream.compact_after_recovery();
        }
        Ok((stream, report))
    }

    /// Snapshot compaction: fold the journal prefix this recovery just
    /// replayed into a fresh checkpoint at the resumed sequence, then
    /// let the usual retention pass prune checkpoints and the journal
    /// segments every retained checkpoint has absorbed. Repeated
    /// crash/recover cycles therefore pay the replay cost once per
    /// crash, not cumulatively, and the journal directory stays bounded.
    ///
    /// Best-effort by design: a failed checkpoint write leaves the
    /// pre-compaction files exactly as the recovery ladder already
    /// proved them recoverable, so nothing is pruned and `false` is
    /// returned.
    fn compact_after_recovery(&mut self) -> bool {
        let seq = self.engine.events_ingested();
        if self.checkpoint_sync(true).is_err() {
            return false;
        }
        observe::narrate(|| {
            format!("recovery: compacted journal prefix into checkpoint seq {seq}")
        });
        true
    }

    /// Inject transient checkpoint-write failures (chaos testing). The
    /// hook sees `(seq, attempt)` and returns `true` to fail that
    /// attempt. While installed, cadence snapshots take the synchronous
    /// path so failures surface deterministically.
    pub fn set_fault_hook(&mut self, hook: Option<CheckpointFaultHook>) {
        self.fault_hook = hook;
    }

    /// Inject transient write failures into the **off-thread** snapshot
    /// writer (chaos testing). Takes effect when the writer is next
    /// spawned, so install it before ingesting.
    pub fn set_async_fault_hook(&mut self, hook: Option<AsyncFaultHook>) {
        self.async_fault_hook = hook;
    }

    /// The wrapped engine (read-only).
    pub fn engine(&self) -> &StreamAnalysis<'a> {
        &self.engine
    }

    /// Events offered to the engine so far — also the sequence number of
    /// the last journaled record.
    pub fn events_ingested(&self) -> u64 {
        self.engine.events_ingested()
    }

    /// This run's durability counters so far.
    pub fn counters(&self) -> DurabilityCounters {
        let mut c = self.counters;
        c.journal_records = self.journal.records_written;
        c.journal_segments = self.journal.segments_opened;
        c.journal_bytes = self.journal.bytes_written;
        c.journal_fsyncs = self.journal.fsyncs;
        // Stalls per wall-clock second of this run: the raw count says
        // how often ingest waited on the writer queue, the rate says
        // whether the writer is keeping up *right now*.
        let elapsed = self.started.elapsed().as_secs_f64();
        c.snapshot_stall_rate_per_sec = if elapsed > 0.0 {
            c.snapshot_thread_stalls as f64 / elapsed
        } else {
            0.0
        };
        c
    }

    /// Journal the event, then feed it to the engine (write-ahead: a
    /// crash between the two replays the event on recovery, which is
    /// idempotent because replay re-derives the identical outcome), then
    /// snapshot if the cadence says so — offloaded to the writer thread
    /// unless the policy (or an installed fault hook, or a dead writer)
    /// forces the synchronous path. Time the ingest thread spends in the
    /// snapshot section is accounted in
    /// [`DurabilityCounters::ingest_stall_micros`].
    pub fn ingest(&mut self, event: &StreamEvent) -> Result<IngestOutcome, RecoveryError> {
        self.journal.append(event)?;
        let outcome = self.engine.ingest(event);
        if self.policy.checkpoint_interval > 0
            && self.engine.events_ingested() - self.last_checkpoint_seq
                >= self.policy.checkpoint_interval
        {
            let t = Instant::now();
            let result = self.cadence_checkpoint();
            self.counters.ingest_stall_micros += t.elapsed().as_micros() as u64;
            result?;
        }
        Ok(outcome)
    }

    /// Whether the next snapshot may be an incremental delta: the policy
    /// enables chains, the cadence has room before the next full base,
    /// and there is a parent snapshot strictly behind the current
    /// position to chain to.
    fn delta_allowed(&self, seq: u64) -> bool {
        self.policy.full_every_n_checkpoints > 1
            && self.policy.max_chain_len > 0
            && self.deltas_since_full + 1 < self.policy.full_every_n_checkpoints
            && self.deltas_since_full < self.policy.max_chain_len
            && self.tip_seq.is_some_and(|tip| tip < seq)
    }

    /// Fold one writer-thread result into the counters and chain state.
    fn note_result(&mut self, r: SnapResult) {
        self.counters.checkpoint_retries += r.retries;
        self.counters.checkpoint_write_micros_max =
            self.counters.checkpoint_write_micros_max.max(r.wall_micros);
        if r.ok {
            self.counters.checkpoints_written += 1;
            self.counters.checkpoint_bytes_last = r.bytes;
            if r.is_delta {
                self.counters.deltas_written += 1;
                self.counters.delta_bytes_total += r.bytes;
            } else {
                self.counters.full_bytes_total += r.bytes;
            }
            if self.tip_seq == Some(r.seq) {
                self.tip_fnv = Some(r.fnv);
            }
        } else {
            // The writer gave up on this snapshot (and rejects every
            // queued descendant). Clearing the tip forces the next
            // snapshot to be a full base on the synchronous path; the
            // journal still covers everything since the last durable
            // snapshot, so nothing is lost.
            self.async_dead = true;
            self.tip_seq = None;
            self.tip_fnv = None;
            self.deltas_since_full = 0;
        }
    }

    /// Drain every already-completed writer result without blocking.
    fn drain_writer(&mut self) {
        let Some(writer) = self.writer.as_mut() else {
            return;
        };
        let mut drained = Vec::new();
        while let Ok(r) = writer.rx.try_recv() {
            writer.pending -= 1;
            drained.push(r);
        }
        for r in drained {
            self.note_result(r);
        }
    }

    /// Shut the writer down (joining its thread) and fold in every
    /// outstanding result; the tip hash is settled afterwards.
    fn flush_writer(&mut self) {
        if let Some(mut writer) = self.writer.take() {
            for r in writer.shutdown() {
                self.note_result(r);
            }
        }
    }

    /// A cadence-due snapshot. The offloaded path captures a frozen
    /// in-memory state view, hands it to the writer thread, and returns
    /// immediately; backpressure (a full hand-off queue) blocks on one
    /// result and is counted. Synchronous writes handle everything else.
    fn cadence_checkpoint(&mut self) -> Result<(), RecoveryError> {
        if !self.policy.offload_snapshots || self.fault_hook.is_some() {
            self.flush_writer();
            return self.checkpoint_sync(false);
        }
        self.drain_writer();
        while !self.async_dead
            && self
                .writer
                .as_ref()
                .is_some_and(|w| w.pending >= SNAPSHOT_QUEUE_DEPTH)
        {
            self.counters.snapshot_thread_stalls += 1;
            let received = {
                // Invariant: checked above.
                let writer = self.writer.as_mut().expect("writer exists");
                match writer.rx.recv() {
                    Ok(r) => {
                        writer.pending -= 1;
                        Some(r)
                    }
                    Err(_) => None,
                }
            };
            match received {
                Some(r) => self.note_result(r),
                None => self.async_dead = true,
            }
        }
        if self.async_dead {
            self.counters.snapshot_sync_fallbacks += 1;
            self.flush_writer();
            return self.checkpoint_sync(false);
        }
        let seq = self.engine.events_ingested();
        let use_delta = self.delta_allowed(seq);
        let job = if use_delta {
            SnapJob::Delta {
                seq,
                // Invariant: `delta_allowed` requires a tip.
                parent_seq: self.tip_seq.expect("delta requires a parent"),
                delta: Box::new(self.engine.checkpoint_delta()),
            }
        } else {
            SnapJob::Full {
                seq,
                ckpt: Box::new(self.engine.checkpoint()),
            }
        };
        if self.writer.is_none() {
            self.writer = Some(SnapshotWriter::spawn(
                self.dir.clone(),
                self.journal.dir.clone(),
                self.policy.retry,
                self.policy.retain_checkpoints,
                self.tip_seq.zip(self.tip_fnv),
                self.async_fault_hook.clone(),
            ));
        }
        let send_failed = {
            // Invariant: spawned above.
            let writer = self.writer.as_mut().expect("writer spawned above");
            match writer.tx.as_ref() {
                Some(tx) => match tx.send(job) {
                    Ok(()) => {
                        writer.pending += 1;
                        false
                    }
                    Err(_) => true,
                },
                None => true,
            }
        };
        if send_failed {
            // The writer shut down underneath us; fall back. The moved
            // capture is lost, but the sync path recaptures fresh state.
            self.counters.snapshot_sync_fallbacks += 1;
            self.async_dead = true;
            self.flush_writer();
            return self.checkpoint_sync(false);
        }
        self.engine.mark_clean();
        self.last_checkpoint_seq = seq;
        self.tip_seq = Some(seq);
        self.tip_fnv = None;
        self.deltas_since_full = if use_delta {
            self.deltas_since_full + 1
        } else {
            0
        };
        Ok(())
    }

    /// Write a snapshot of the current state **now**, on this thread,
    /// retrying transient failures per [`RetryPolicy`], then prune
    /// chains and fully absorbed journal segments beyond the retention
    /// policy. Any in-flight offloaded snapshots are flushed first so
    /// the chain stays ordered.
    pub fn checkpoint_now(&mut self) -> Result<(), RecoveryError> {
        self.flush_writer();
        self.checkpoint_sync(false)
    }

    /// The synchronous write path shared by [`DurableStream::checkpoint_now`],
    /// the sync-fallback ladder, and post-recovery compaction
    /// (`force_full` resets the chain on a fresh base).
    fn checkpoint_sync(&mut self, force_full: bool) -> Result<(), RecoveryError> {
        let seq = self.engine.events_ingested();
        // A synchronous delta needs the parent hash on this thread; the
        // writer was flushed before every sync write, so a known tip
        // hash is exactly chain-consistency.
        let use_delta = !force_full && self.delta_allowed(seq) && self.tip_fnv.is_some();
        let payload = if use_delta {
            serde_json::to_string(&self.engine.checkpoint_delta())
        } else {
            serde_json::to_string(&self.engine.checkpoint())
        };
        let payload = payload.map_err(|e| {
            io_err(
                "serialize checkpoint",
                &self.dir,
                std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()),
            )
        })?;
        let fnv = fnv1a64(payload.as_bytes());
        let max_attempts = self.policy.retry.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let injected = self
                .fault_hook
                .as_mut()
                .is_some_and(|hook| hook(seq, attempt));
            let outcome = if injected {
                Err(io_err(
                    "write checkpoint",
                    &self.dir.join(checkpoint_name(seq)),
                    std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "injected transient write failure",
                    ),
                ))
            } else {
                let t = Instant::now();
                let write = if use_delta {
                    write_delta_file(
                        &self.dir,
                        &payload,
                        fnv,
                        seq,
                        // Invariant: `use_delta` requires both.
                        self.tip_seq.expect("delta requires a parent"),
                        self.tip_fnv.expect("sync delta requires the parent hash"),
                    )
                } else {
                    write_checkpoint_file(&self.dir, &payload, fnv, seq)
                };
                write.map(|bytes| (bytes, t.elapsed()))
            };
            match outcome {
                Ok((bytes, wall)) => {
                    self.counters.checkpoints_written += 1;
                    self.counters.checkpoint_bytes_last = bytes;
                    self.counters.checkpoint_write_micros_max = self
                        .counters
                        .checkpoint_write_micros_max
                        .max(wall.as_micros() as u64);
                    if use_delta {
                        self.counters.deltas_written += 1;
                        self.counters.delta_bytes_total += bytes;
                    } else {
                        self.counters.full_bytes_total += bytes;
                    }
                    self.engine.mark_clean();
                    self.last_checkpoint_seq = seq;
                    self.tip_seq = Some(seq);
                    self.tip_fnv = Some(fnv);
                    self.deltas_since_full = if use_delta {
                        self.deltas_since_full + 1
                    } else {
                        0
                    };
                    prune_snapshots(&self.dir, &self.journal.dir, self.policy.retain_checkpoints);
                    return Ok(());
                }
                Err(e) => {
                    self.counters.checkpoint_retries += 1;
                    if attempt >= max_attempts {
                        return Err(RecoveryError::RetriesExhausted {
                            op: "write checkpoint",
                            attempts: attempt,
                            last_error: e.to_string(),
                        });
                    }
                    let backoff = self.policy.retry.backoff_base_ms << (attempt - 1);
                    std::thread::sleep(std::time::Duration::from_millis(backoff));
                }
            }
        }
    }

    /// End of stream: flush any in-flight offloaded snapshots,
    /// group-commit the journal tail (when the fsync policy is on),
    /// flush the engine, and stamp this run's [`DurabilityCounters`]
    /// into the report.
    pub fn finish(mut self) -> StreamResult {
        self.flush_writer();
        // Best-effort: the stream is over either way, and an fsync
        // failure here cannot un-ingest anything.
        let _ = self.journal.sync();
        let counters = self.counters();
        let mut result = self.engine.flush();
        result.report.durability = Some(counters);
        result
    }
}

/// Best-effort chain-aware retention: keep the newest
/// `retain` full **bases** and every delta that (transitively) chains
/// to a kept base, then drop journal segments fully absorbed by even
/// the oldest kept snapshot. A base is therefore never deleted while a
/// retained delta still depends on it, and orphaned deltas (whose base
/// was dropped) go with their base. Failures here cost disk, not
/// correctness, so they are ignored.
fn prune_snapshots(dir: &Path, journal_dir: &Path, retain: usize) {
    let Ok(snaps) = list_snapshots(dir) else {
        return;
    };
    let retain = retain.max(1);
    let bases: Vec<u64> = snaps
        .iter()
        .filter(|s| s.kind == SnapKind::Full)
        .map(|s| s.seq)
        .collect();
    if bases.len() <= retain {
        return;
    }
    let kept_bases: std::collections::BTreeSet<u64> =
        bases[bases.len() - retain..].iter().copied().collect();
    let base_seqs: std::collections::BTreeSet<u64> = bases.iter().copied().collect();
    // Delta parent pointers, from a cheap header peek. An unreadable
    // header resolves to no root, and the delta is dropped with its
    // chain (recovery would reject it anyway).
    let parents: std::collections::BTreeMap<u64, u64> = snaps
        .iter()
        .filter(|s| s.kind == SnapKind::Delta)
        .filter_map(|s| peek_parent_seq(&s.path).map(|p| (s.seq, p)))
        .collect();
    let root_of = |mut seq: u64| -> Option<u64> {
        for _ in 0..=snaps.len() {
            if base_seqs.contains(&seq) {
                return Some(seq);
            }
            seq = *parents.get(&seq)?;
        }
        None
    };
    let mut oldest_kept = u64::MAX;
    for snap in &snaps {
        let keep = match snap.kind {
            SnapKind::Full => kept_bases.contains(&snap.seq),
            SnapKind::Delta => root_of(snap.seq).is_some_and(|root| kept_bases.contains(&root)),
        };
        if keep {
            oldest_kept = oldest_kept.min(snap.seq);
        } else {
            let _ = fs::remove_file(&snap.path);
        }
    }
    if oldest_kept == u64::MAX {
        return;
    }
    let Ok(segments) = list_segments(journal_dir) else {
        return;
    };
    // Segment i spans [first_i, first_{i+1}); droppable once even the
    // oldest retained snapshot has absorbed its whole range. The
    // newest segment is never pruned.
    for (i, (_, path)) in segments.iter().enumerate() {
        match segments.get(i + 1) {
            Some(&(next_first, _)) if next_first <= oldest_kept + 1 => {
                let _ = fs::remove_file(path);
            }
            _ => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::scenario_event_stream;
    use crate::Analysis;
    use faultline_sim::scenario::{run, ScenarioParams};

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(name: &str) -> TempDir {
            let dir = std::env::temp_dir()
                .join(format!("faultline-recovery-{}-{name}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }
        fn path(&self) -> &Path {
            &self.0
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn checkpoint_file_round_trips_and_validates() {
        let tmp = TempDir::new("ckpt-roundtrip");
        let data = run(&ScenarioParams::tiny(3));
        let events = scenario_event_stream(&data);
        let mut stream = StreamAnalysis::new(&data, AnalysisConfig::default());
        for e in &events[..events.len() / 2] {
            stream.ingest(e);
        }
        let ckpt = stream.checkpoint();
        let payload = serde_json::to_string(&ckpt).unwrap();
        let bytes = write_checkpoint_file(
            tmp.path(),
            &payload,
            fnv1a64(payload.as_bytes()),
            ckpt.seq(),
        )
        .unwrap();
        assert!(bytes > payload.len() as u64);
        let listed = list_snapshots(tmp.path()).unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].seq, ckpt.seq());
        let loaded = load_checkpoint(&listed[0].path).unwrap();
        assert_eq!(loaded.seq(), ckpt.seq());
        assert_eq!(
            serde_json::to_string(&loaded).unwrap(),
            payload,
            "loading is lossless"
        );
    }

    #[test]
    fn corrupt_checkpoints_are_rejected_with_reasons() {
        let tmp = TempDir::new("ckpt-corrupt");
        let data = run(&ScenarioParams::tiny(4));
        let stream = StreamAnalysis::new(&data, AnalysisConfig::default());
        let payload = serde_json::to_string(&stream.checkpoint()).unwrap();
        write_checkpoint_file(tmp.path(), &payload, fnv1a64(payload.as_bytes()), 0).unwrap();
        let path = tmp.path().join(checkpoint_name(0));

        // Flip one payload byte: hash mismatch.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_checkpoint(&path),
            Err(RecoveryError::CorruptCheckpoint { .. })
        ));

        // Truncate: torn payload.
        let full = {
            fs::write(&path, []).unwrap();
            write_checkpoint_file(tmp.path(), &payload, fnv1a64(payload.as_bytes()), 0).unwrap();
            fs::read(&path).unwrap()
        };
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(matches!(
            load_checkpoint(&path),
            Err(RecoveryError::CorruptCheckpoint { .. })
        ));

        // Future version.
        let future = format!(
            "{{\"magic\":\"{MAGIC}\",\"version\":99,\"seq\":0,\"payload_len\":0,\"payload_fnv\":\"{:016x}\"}}\n",
            fnv1a64(b"")
        );
        fs::write(&path, future).unwrap();
        assert!(matches!(
            load_checkpoint(&path),
            Err(RecoveryError::UnsupportedVersion {
                found: 99,
                expected: CHECKPOINT_VERSION
            })
        ));
    }

    #[test]
    fn durable_run_recovers_byte_identical_after_kill() {
        let tmp = TempDir::new("kill-resume");
        let data = run(&ScenarioParams::tiny(3));
        let config = AnalysisConfig::default();
        let events = scenario_event_stream(&data);
        let batch = Analysis::run(&data, config.clone());
        let reference = serde_json::to_string(&batch.output).unwrap();

        let policy = DurabilityPolicy {
            checkpoint_interval: 37,
            segment_max_records: 64,
            ..DurabilityPolicy::default()
        };
        let kill_at = events.len() * 2 / 3;
        {
            let mut durable =
                DurableStream::create(tmp.path(), &data, config.clone(), policy).unwrap();
            for e in &events[..kill_at] {
                durable.ingest(e).unwrap();
            }
            // Dropped without finish(): the crash.
        }
        let (mut durable, report) =
            DurableStream::recover(tmp.path(), &data, config, policy).unwrap();
        assert!(!report.started_fresh);
        assert!(report.checkpoint_seq.is_some());
        assert_eq!(report.resumed_at_seq, kill_at as u64);
        assert!(report.events_replayed > 0, "journal tail replays");
        for e in &events[kill_at..] {
            durable.ingest(e).unwrap();
        }
        let result = durable.finish();
        assert_eq!(reference, serde_json::to_string(&result.output).unwrap());
        let d = result.report.durability.expect("durability counters");
        assert_eq!(d.restores, 1);
        assert_eq!(d.events_replayed, report.events_replayed);
    }

    #[test]
    fn fsync_policy_group_commits_and_counts() {
        let tmp = TempDir::new("fsync-policy");
        let data = run(&ScenarioParams::tiny(10));
        let config = AnalysisConfig::default();
        let events = scenario_event_stream(&data);
        let n = events.len().min(100);

        // Default policy: the journal never fsyncs (OS-buffered).
        let off = TempDir::new("fsync-off");
        let mut durable = DurableStream::create(
            off.path(),
            &data,
            config.clone(),
            DurabilityPolicy::default(),
        )
        .unwrap();
        for e in &events[..n] {
            durable.ingest(e).unwrap();
        }
        assert_eq!(
            durable.finish().report.durability.unwrap().journal_fsyncs,
            0
        );

        // Group commit every 8 records (+ rotation + finish commit the
        // partial tails), so every record ends up synced.
        let policy = DurabilityPolicy {
            checkpoint_interval: 0,
            segment_max_records: 40,
            fsync_every_n_records: 8,
            ..DurabilityPolicy::default()
        };
        let mut durable = DurableStream::create(tmp.path(), &data, config, policy).unwrap();
        for e in &events[..n] {
            durable.ingest(e).unwrap();
        }
        let mid = durable.counters();
        assert!(
            mid.journal_fsyncs >= n as u64 / 8,
            "{} fsyncs for {n} records at cadence 8",
            mid.journal_fsyncs
        );
        let d = durable.finish().report.durability.unwrap();
        assert!(
            d.journal_fsyncs * 8 >= n as u64,
            "finish() must group-commit the unsynced tail ({} fsyncs, {n} records)",
            d.journal_fsyncs
        );
    }

    #[test]
    fn create_refuses_existing_state() {
        let tmp = TempDir::new("state-exists");
        let data = run(&ScenarioParams::tiny(5));
        let config = AnalysisConfig::default();
        let policy = DurabilityPolicy::default();
        let events = scenario_event_stream(&data);
        let mut durable = DurableStream::create(tmp.path(), &data, config.clone(), policy).unwrap();
        durable.ingest(&events[0]).unwrap();
        drop(durable);
        assert!(matches!(
            DurableStream::create(tmp.path(), &data, config, policy),
            Err(RecoveryError::StateExists { .. })
        ));
    }

    #[test]
    fn recover_from_journal_alone_when_no_checkpoint_exists() {
        let tmp = TempDir::new("journal-only");
        let data = run(&ScenarioParams::tiny(6));
        let config = AnalysisConfig::default();
        let events = scenario_event_stream(&data);
        let policy = DurabilityPolicy {
            checkpoint_interval: 0, // never checkpoint
            segment_max_records: 32,
            ..DurabilityPolicy::default()
        };
        let kill_at = events.len() / 2;
        {
            let mut durable =
                DurableStream::create(tmp.path(), &data, config.clone(), policy).unwrap();
            for e in &events[..kill_at] {
                durable.ingest(e).unwrap();
            }
        }
        let (mut durable, report) =
            DurableStream::recover(tmp.path(), &data, config.clone(), policy).unwrap();
        assert!(report.started_fresh);
        assert_eq!(report.events_replayed, kill_at as u64);
        assert_eq!(report.resumed_at_seq, kill_at as u64);
        for e in &events[kill_at..] {
            durable.ingest(e).unwrap();
        }
        let batch = Analysis::run(&data, config);
        let reference = serde_json::to_string(&batch.output).unwrap();
        assert_eq!(
            reference,
            serde_json::to_string(&durable.finish().output).unwrap()
        );
    }

    #[test]
    fn retries_exhausted_is_typed_not_a_panic() {
        let tmp = TempDir::new("retries");
        let data = run(&ScenarioParams::tiny(7));
        let policy = DurabilityPolicy {
            checkpoint_interval: 0,
            retry: RetryPolicy {
                max_attempts: 2,
                backoff_base_ms: 0,
            },
            ..DurabilityPolicy::default()
        };
        let mut durable =
            DurableStream::create(tmp.path(), &data, AnalysisConfig::default(), policy).unwrap();
        durable.set_fault_hook(Some(Box::new(|_seq, _attempt| true)));
        let err = durable.checkpoint_now().unwrap_err();
        assert!(matches!(
            err,
            RecoveryError::RetriesExhausted { attempts: 2, .. }
        ));
        assert_eq!(durable.counters().checkpoint_retries, 2);

        // Transient (first attempt only) failures succeed on retry.
        durable.set_fault_hook(Some(Box::new(|_seq, attempt| attempt == 1)));
        durable.checkpoint_now().unwrap();
        let c = durable.counters();
        assert_eq!(c.checkpoints_written, 1);
        assert_eq!(c.checkpoint_retries, 3);
    }

    #[test]
    fn pruning_respects_retention() {
        let tmp = TempDir::new("prune");
        let data = run(&ScenarioParams::tiny(8));
        let events = scenario_event_stream(&data);
        let policy = DurabilityPolicy {
            checkpoint_interval: 20,
            segment_max_records: 16,
            retain_checkpoints: 2,
            // Full-only: this test pins the pre-chain degenerate
            // behavior (newest-N files); chain-aware retention is
            // covered by `tests/crash_recovery.rs`.
            full_every_n_checkpoints: 0,
            offload_snapshots: false,
            ..DurabilityPolicy::default()
        };
        let mut durable =
            DurableStream::create(tmp.path(), &data, AnalysisConfig::default(), policy).unwrap();
        for e in &events[..events.len().min(200)] {
            durable.ingest(e).unwrap();
        }
        let ckpts = list_snapshots(tmp.path()).unwrap();
        assert_eq!(ckpts.len(), 2, "retention keeps exactly the newest two");
        let segments = list_segments(&tmp.path().join("journal")).unwrap();
        let oldest_kept = ckpts[0].seq;
        // Every remaining segment except the last still carries records
        // newer than the oldest retained checkpoint.
        for (i, (first, _)) in segments.iter().enumerate() {
            if let Some(&(next_first, _)) = segments.get(i + 1) {
                assert!(
                    next_first > oldest_kept + 1,
                    "segment starting at {first} should have been pruned"
                );
            }
        }
    }

    /// The default policy (delta chains + off-thread writer): a
    /// drop-killed run leaves base+delta files behind, recovery walks
    /// the chain, and the resumed run is byte-identical to batch.
    #[test]
    fn off_thread_delta_chain_recovers_byte_identical() {
        let tmp = TempDir::new("delta-chain");
        let data = run(&ScenarioParams::tiny(9));
        let config = AnalysisConfig::default();
        let events = scenario_event_stream(&data);
        let batch = Analysis::run(&data, config.clone());
        let reference = serde_json::to_string(&batch.output).unwrap();
        let policy = DurabilityPolicy {
            checkpoint_interval: 13,
            segment_max_records: 64,
            retain_checkpoints: 2,
            full_every_n_checkpoints: 4,
            max_chain_len: 3,
            ..DurabilityPolicy::default()
        };
        assert!(policy.offload_snapshots, "offload is the default");
        let kill_at = events.len() * 3 / 4;
        {
            let mut durable =
                DurableStream::create(tmp.path(), &data, config.clone(), policy).unwrap();
            for e in &events[..kill_at] {
                durable.ingest(e).unwrap();
            }
            // Dropped without finish(): the crash. SnapshotWriter's Drop
            // joins the writer thread, so queued snapshots land.
        }
        let snaps = list_snapshots(tmp.path()).unwrap();
        assert!(
            snaps.iter().any(|s| s.kind == SnapKind::Delta),
            "a chain policy at this cadence writes deltas before the kill"
        );
        let (mut durable, report) =
            DurableStream::recover(tmp.path(), &data, config, policy).unwrap();
        assert!(!report.started_fresh);
        assert_eq!(report.resumed_at_seq, kill_at as u64);
        for e in &events[kill_at..] {
            durable.ingest(e).unwrap();
        }
        let result = durable.finish();
        assert_eq!(reference, serde_json::to_string(&result.output).unwrap());
        let d = result.report.durability.expect("durability counters");
        assert_eq!(d.restores, 1);
        assert!(d.deltas_written > 0, "the resumed run keeps writing deltas");
    }

    /// Exhausting the off-thread writer's retries is not fatal: the
    /// stream falls back to synchronous full snapshots, keeps running,
    /// and counts the fallback.
    #[test]
    fn async_write_exhaustion_falls_back_to_sync() {
        let tmp = TempDir::new("async-fallback");
        let data = run(&ScenarioParams::tiny(12));
        let events = scenario_event_stream(&data);
        let policy = DurabilityPolicy {
            checkpoint_interval: 10,
            retry: RetryPolicy {
                max_attempts: 2,
                backoff_base_ms: 0,
            },
            ..DurabilityPolicy::default()
        };
        let mut durable =
            DurableStream::create(tmp.path(), &data, AnalysisConfig::default(), policy).unwrap();
        // Every offloaded attempt fails; the synchronous fallback path
        // (no async hook) succeeds.
        durable.set_async_fault_hook(Some(std::sync::Arc::new(|_seq, _attempt| true)));
        let n = events.len().min(120);
        for e in &events[..n] {
            durable.ingest(e).unwrap();
        }
        let d = durable.finish().report.durability.unwrap();
        assert!(
            d.snapshot_sync_fallbacks > 0,
            "writer exhaustion must be counted as a sync fallback"
        );
        assert!(
            d.checkpoints_written > 0,
            "the sync path still produces snapshots"
        );
        assert!(d.checkpoint_retries > 0, "failed attempts are counted");
    }

    /// `checkpoint_delta` + `apply_delta` round-trip at the engine
    /// level: applying the delta to a restored parent reproduces the
    /// exact serialized full state.
    #[test]
    fn delta_capture_replays_onto_parent_exactly() {
        let data = run(&ScenarioParams::tiny(14));
        let events = scenario_event_stream(&data);
        let config = AnalysisConfig::default();
        let mut live = StreamAnalysis::new(&data, config);
        let half = events.len() / 2;
        for e in &events[..half] {
            live.ingest(e);
        }
        let base = live.checkpoint();
        live.mark_clean();
        for e in &events[half..half + half / 2] {
            live.ingest(e);
        }
        let delta = live.checkpoint_delta();
        assert_eq!(delta.parent_seq(), base.seq());
        // The delta carries only lanes touched since the mark — a strict
        // subset of the full state (lanes created after the base count
        // as touched, so the bound is against the CURRENT lane set).
        assert!(delta.lane_count() <= live.checkpoint().lane_count());
        let expected = serde_json::to_string(&live.checkpoint()).unwrap();
        let mut rebuilt = StreamAnalysis::restore(&data, base).unwrap();
        rebuilt.apply_delta(delta).unwrap();
        assert_eq!(
            expected,
            serde_json::to_string(&rebuilt.checkpoint()).unwrap()
        );
    }

    /// A delta applied at the wrong position is a typed error, never a
    /// silently wrong restore.
    #[test]
    fn mismatched_delta_application_is_rejected() {
        let data = run(&ScenarioParams::tiny(15));
        let events = scenario_event_stream(&data);
        let mut live = StreamAnalysis::new(&data, AnalysisConfig::default());
        for e in &events[..events.len() / 3] {
            live.ingest(e);
        }
        live.mark_clean();
        for e in &events[events.len() / 3..events.len() / 2] {
            live.ingest(e);
        }
        let delta = live.checkpoint_delta();
        let mut fresh = StreamAnalysis::new(&data, AnalysisConfig::default());
        assert!(fresh.apply_delta(delta).is_err());
    }
}
