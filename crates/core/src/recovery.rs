//! Crash-safe durability for the streaming engine: checkpoints, a
//! write-ahead event journal, and the recovery supervisor that stitches
//! them back into a running [`StreamAnalysis`].
//!
//! The paper's core complaint about syslog is that the collection path
//! dies ungracefully and the history is silently lossy afterwards.
//! [`StreamAnalysis`] alone has the same flaw: a crash loses every open
//! DOWN interval. This module removes it with the classic write-ahead
//! discipline. Every file it writes is [`crate::envelope`]d (magic,
//! version, length, FNV-1a 64, kind):
//!
//! 1. **Journal first.** Every offered event is appended to a rotating
//!    segment (`journal/seg-<first_seq>.jl`, one envelope per record
//!    around the event's [`crate::codec`] row) *before* the engine sees
//!    it, so the journal's tail is what no checkpoint has absorbed yet.
//! 2. **Checkpoint incrementally.** Every `checkpoint_interval` events a
//!    snapshot is captured: a periodic **full base** ([`StreamCheckpoint`],
//!    `ckpt-<seq>.ckpt`), and between bases **deltas** ([`StreamDelta`],
//!    `delta-<seq>.dckpt`) holding only the lanes dirtied since the
//!    previous snapshot plus the appended message tail; a delta's chain
//!    block names its parent (seq + hash) inside the hashed region.
//!    [`DurabilityPolicy::full_every_n_checkpoints`] sets how many
//!    snapshots one base anchors. The ingest thread pays an in-memory
//!    capture; encoding, write + fsync + rename (a torn write never
//!    replaces a good snapshot), retries and pruning are one function,
//!    `SnapshotSink::write`, run by a writer thread behind a bounded
//!    queue — or on the ingest thread by
//!    [`DurableStream::checkpoint_now`], which post-recovery compaction
//!    and the writer-gave-up fallback (counted in
//!    [`DurabilityCounters::snapshot_sync_fallbacks`]) also call, so a
//!    restart's compaction is the chain's next snapshot like any other.
//! 3. **Recover by chain-aware fallback ladder.**
//!    [`DurableStream::recover`] tries snapshots newest→oldest as chain
//!    *tips*: a delta walks parent pointers down to its base, validating
//!    every link's hash and the child-declared parent hash, then
//!    re-applies the deltas oldest→newest. Any torn, corrupt, missing or
//!    other-version link rejects the whole chain and the ladder moves on.
//!    The journal tail is then replayed — tolerating a torn tail per
//!    segment — and the run resumes; with no snapshot but a journal from
//!    the first event, it rebuilds from scratch.
//!
//! The contract, proven by `tests/crash_recovery.rs` at every event
//! boundary: a killed-and-recovered run flushes a [`StreamOutput`]
//! byte-identical (as JSON) to a run that never stopped, and corruption
//! degrades to an older snapshot with a typed [`RecoveryError`], never a
//! panic.
//!
//! [`StreamOutput`]: crate::streaming::StreamOutput

use crate::analysis::{self, AnalysisConfig};
use crate::codec;
use crate::envelope::Format;
use crate::error::{FrameError, RecoveryError};
use crate::kernel::LaneRow;
use crate::linktable::Naming;
use crate::observe::{self, DurabilityCounters};
use crate::streaming::{
    IngestOutcome, StreamAnalysis, StreamCheckpoint, StreamDelta, StreamEvent, StreamResult,
};
use faultline_sim::ScenarioData;
use serde::{Deserialize, Serialize};
use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// Checkpoint format version this build writes and reads. Version 1
/// was a JSON header line (every durable file's version 1 did the same);
/// version 2 was this envelope and chain block around a JSON payload;
/// version 3 held each lane's finalized records inside the lane;
/// version 4 also stored values a restore can derive (merge down counts,
/// a lane's naming and segment end, the open-item count); version 5's
/// configuration also held four values that are now constants and the
/// retired `parallelism` knob.
pub const CHECKPOINT_VERSION: u16 = 6;

/// Delta-snapshot format version this build writes and reads; its
/// versions 1 to 5 were the checkpoint's (version 3 carried each lane
/// as a tail of its history vectors). A delta stores no configuration,
/// so the checkpoint's version 6 left it alone.
pub const DELTA_VERSION: u16 = 5;

/// Journal format version this build writes and reads. Version 1 was
/// one JSON line per record.
pub const JOURNAL_VERSION: u16 = 2;

/// The one payload kind each durable format defines: for a snapshot, a
/// chain block then the [`codec`] snapshot payload (host dictionary and
/// row); for a journal record, one [`codec::encode_record`] row.
const KIND: u8 = 1;

/// A row record's kind: one [`codec::encode_row_record`] lane row.
const KIND_ROW: u8 = 2;

/// One journal record.
const JOURNAL: Format = Format {
    magic: *b"FLJR",
    version: JOURNAL_VERSION,
    max_len: 1 << 16,
    kinds: &[KIND, KIND_ROW],
};

/// What the journal's record buffer starts with: room for any record
/// at paper scale (≈ 55 bytes), so a steady stream never regrows it.
const RECORD_CAPACITY: usize = 256;

/// A snapshot payload opens with its chain block: `seq`, `parent_seq`,
/// `parent_fnv`, u64 LE each (both parent fields 0 in a full base).
pub(crate) const CHAIN_LEN: usize = 3 * 8;

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
    /// One full base anchors this many snapshots: the base itself and
    /// the `n - 1` incremental deltas chained behind it, after which the
    /// next snapshot is a base again. This is also the bound on
    /// recovery's chain walk and on what a lost base costs. `0` or `1`
    /// disables deltas entirely (every snapshot is a full checkpoint —
    /// what an old serialized policy deserializes to).
    #[serde(default)]
    pub full_every_n_checkpoints: u64,
    /// Group-commit cadence for the journal: `fsync` the active segment
    /// after every this many appended records (and on segment rotation).
    /// `0` — the default — never fsyncs (OS-buffered): an in-*process*
    /// kill still loses nothing, but a whole-machine crash may drop the
    /// buffered tail.
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
            full_every_n_checkpoints: 7,
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
    /// Torn journal tails discarded during replay: one per segment whose
    /// replay stopped at a cut or damaged record, however many records
    /// the discarded bytes held (past the damage, record boundaries
    /// cannot be trusted, so they are not counted).
    pub journal_truncated_records: u64,
    /// The engine's event position after recovery: the caller resumes
    /// feeding from source position `resumed_at_seq` (0-based) onward.
    pub resumed_at_seq: u64,
    /// The replayed journal prefix was folded into the chain's next
    /// snapshot at `resumed_at_seq` (snapshot compaction), so the next
    /// recovery restores directly instead of re-replaying the same tail.
    /// Best-effort: `false` when nothing was replayed or the snapshot
    /// failed to write (the pre-compaction state still recovers fine).
    #[serde(default)]
    pub compacted: bool,
    /// Wall-clock cost of the whole recovery (chain load, replay and the
    /// compaction snapshot), in µs.
    pub recover_micros: u64,
}

/// Injected snapshot-write fault: called with `(seq, attempt)` before
/// each write attempt, on whichever thread is writing that snapshot;
/// returning `true` makes the attempt fail with a transient error.
/// Wired to chaos presets by the test harness.
pub type FaultHook = Arc<dyn Fn(u64, u32) -> bool + Send + Sync>;

// ---------------------------------------------------------------------
// Snapshot files
// ---------------------------------------------------------------------

/// What kind of snapshot file a directory entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SnapKind {
    /// An incremental delta (`delta-<seq>.dckpt`).
    Delta,
    /// A full base checkpoint (`ckpt-<seq>.ckpt`). Sorts after `Delta`
    /// at equal sequence, so the ladder tries it first. A pair arises only
    /// where a compaction landed beside a rejected file of the other kind
    /// (in directories older builds wrote, always as a base).
    Full,
}

impl SnapKind {
    /// The file's envelope.
    fn format(self) -> Format {
        let (magic, version) = match self {
            SnapKind::Full => (*b"FLCK", CHECKPOINT_VERSION),
            SnapKind::Delta => (*b"FLDT", DELTA_VERSION),
        };
        Format {
            magic,
            version,
            max_len: u32::MAX,
            kinds: &[KIND],
        }
    }

    /// What a file name wraps around the zero-padded sequence.
    fn affixes(self) -> (&'static str, &'static str) {
        match self {
            SnapKind::Full => ("ckpt-", ".ckpt"),
            SnapKind::Delta => ("delta-", ".dckpt"),
        }
    }

    fn file_name(self, seq: u64) -> String {
        let (prefix, suffix) = self.affixes();
        format!("{prefix}{seq:012}{suffix}")
    }
}

/// One snapshot of the engine, as captured for writing or as loaded for
/// recovery: a full base or a delta on the snapshot before it.
enum Snapshot {
    Full(Box<StreamCheckpoint>),
    Delta(Box<StreamDelta>),
}

impl Snapshot {
    /// The stream position the snapshot represents.
    fn seq(&self) -> u64 {
        match self {
            Snapshot::Full(ckpt) => ckpt.seq(),
            Snapshot::Delta(delta) => delta.seq(),
        }
    }

    fn kind(&self) -> SnapKind {
        match self {
            Snapshot::Full(_) => SnapKind::Full,
            Snapshot::Delta(_) => SnapKind::Delta,
        }
    }

    /// The position of the snapshot a delta diffs against.
    fn parent_seq(&self) -> Option<u64> {
        match self {
            Snapshot::Full(_) => None,
            Snapshot::Delta(delta) => Some(delta.parent_seq()),
        }
    }
}

/// `(seq, envelope hash)` of a snapshot on disk — what a delta's chain
/// block names as its parent.
type ChainAnchor = (u64, u64);

/// One snapshot file on disk — a candidate chain link.
#[derive(Debug, Clone)]
struct SnapFile {
    seq: u64,
    kind: SnapKind,
    path: PathBuf,
}

/// The files in `dir` whose names `parse` accepts, ascending by what it
/// read out of them; a missing directory holds none.
fn list_files<K: Ord>(
    dir: &Path,
    op: &'static str,
    parse: impl Fn(&str) -> Option<K>,
) -> Result<Vec<(K, PathBuf)>, RecoveryError> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(op, dir, e)),
    };
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err(op, dir, e))?;
        if let Some(key) = entry.file_name().to_str().and_then(&parse) {
            out.push((key, entry.path()));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// The zero-padded sequence in a `{prefix}{seq}{suffix}` file name.
fn numbered(name: &str, (prefix, suffix): (&str, &str)) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// Every snapshot file (full bases and deltas), ascending by sequence
/// then kind. Temp files and foreign names are ignored.
fn list_snapshots(dir: &Path) -> Result<Vec<SnapFile>, RecoveryError> {
    let files = list_files(dir, "list snapshots", |name| {
        [SnapKind::Full, SnapKind::Delta]
            .into_iter()
            .find_map(|kind| Some((numbered(name, kind.affixes())?, kind)))
    })?;
    Ok(files
        .into_iter()
        .map(|((seq, kind), path)| SnapFile { seq, kind, path })
        .collect())
}

/// Encode one snapshot file — the only place a snapshot is laid out:
/// its envelope around the chain block and the [`codec`] payload.
/// `parent` makes it a delta chained to that snapshot; without one it is
/// a full base. Returns the bytes and their envelope hash.
fn encode_snapshot(snap: &Snapshot, parent: Option<ChainAnchor>) -> Result<(Vec<u8>, u64), String> {
    let format = snap.kind().format();
    let mut file = Vec::new();
    format.open(&mut file, KIND);
    let (parent_seq, parent_fnv) = parent.unwrap_or((0, 0));
    for field in [snap.seq(), parent_seq, parent_fnv] {
        file.extend_from_slice(&field.to_le_bytes());
    }
    match snap {
        Snapshot::Full(ckpt) => codec::encode_checkpoint(ckpt, &mut file),
        Snapshot::Delta(delta) => codec::encode_delta(delta, &mut file),
    }
    let fnv = format
        .seal(&mut file)
        .map_err(|e| format!("seal snapshot: {e}"))?;
    Ok((file, fnv))
}

/// Atomically write one encoded snapshot file: to a temp name in the
/// same directory, `sync_all`ed, then renamed over the final name, so a
/// torn write can never replace a good snapshot. Returns its size.
fn write_snapshot_file(
    dir: &Path,
    kind: SnapKind,
    seq: u64,
    bytes: &[u8],
) -> Result<u64, RecoveryError> {
    let name = kind.file_name(seq);
    let final_path = dir.join(&name);
    let tmp_path = dir.join(format!("{name}.tmp"));
    let mut f = File::create(&tmp_path).map_err(|e| io_err("write checkpoint", &tmp_path, e))?;
    f.write_all(bytes)
        .and_then(|()| f.sync_all())
        .map_err(|e| io_err("write checkpoint", &tmp_path, e))?;
    drop(f);
    fs::rename(&tmp_path, &final_path).map_err(|e| io_err("commit checkpoint", &final_path, e))?;
    Ok(bytes.len() as u64)
}

fn corrupt(path: &Path, reason: impl Into<String>) -> RecoveryError {
    RecoveryError::CorruptCheckpoint {
        path: path.display().to_string(),
        reason: reason.into(),
    }
}

/// The envelope errors that mean "another format version", not damage:
/// a version this build does not read, and version 1 of every durable
/// file, which was JSON text (`{"` where the magic now stands).
fn unsupported(e: &FrameError, format: &Format) -> Option<RecoveryError> {
    let found = match e {
        FrameError::UnsupportedVersion { found, .. } => *found,
        FrameError::BadMagic {
            found: [b'{', b'"', ..],
        } => 1,
        _ => return None,
    };
    Some(RecoveryError::UnsupportedVersion {
        found: u32::from(found),
        expected: u32::from(format.version),
    })
}

/// `seq`, `parent_seq`, `parent_fnv` from a snapshot's chain block.
fn chain_fields(block: &[u8; CHAIN_LEN]) -> [u64; 3] {
    std::array::from_fn(|i| u64::from_le_bytes(std::array::from_fn(|j| block[8 * i + j])))
}

/// A fully validated snapshot file.
struct LoadedFile {
    body: Snapshot,
    /// The verified envelope hash — what a delta child's `parent_fnv`
    /// must match during a chain walk.
    fnv: u64,
    /// The parent hash the chain block names (0 for a full base).
    parent_fnv: u64,
}

/// Load and fully validate one snapshot file of the kind its name
/// claims: the envelope (magic, version, length, integrity hash), then
/// name, chain block and payload agreement on the sequence (a renamed
/// or content-swapped file is not the snapshot its name claims, so a
/// chain built on that name would be a lie); for a delta also chain
/// block/payload agreement on the parent pointer, and parent
/// monotonicity (`parent_seq < seq` — a chain can never loop).
fn load_snapshot(snap: &SnapFile) -> Result<LoadedFile, RecoveryError> {
    let (path, kind) = (&snap.path, snap.kind);
    let format = kind.format();
    let mut file = File::open(path).map_err(|e| io_err("read checkpoint", path, e))?;
    let mut body = Vec::new();
    let header = format.read(&mut file, &mut body).map_err(|e| match e {
        FrameError::Io(e) => io_err("read checkpoint", path, e),
        e => unsupported(&e, &format).unwrap_or_else(|| corrupt(path, e.to_string())),
    })?;
    let Some((block, payload)) = body.split_first_chunk::<CHAIN_LEN>() else {
        return Err(corrupt(path, "payload shorter than its chain block"));
    };
    let [seq, parent_seq, parent_fnv] = chain_fields(block);
    let body = match kind {
        SnapKind::Full => codec::decode_checkpoint(payload).map(|c| Snapshot::Full(Box::new(c))),
        SnapKind::Delta => codec::decode_delta(payload).map(|d| Snapshot::Delta(Box::new(d))),
    }
    .map_err(|e| corrupt(path, format!("undecodable payload: {e}")))?;
    if [seq, body.seq()] != [snap.seq; 2] {
        return Err(corrupt(
            path,
            "name, chain block and payload disagree on the sequence",
        ));
    }
    let fnv = header.fnv;
    match body.parent_seq() {
        Some(p) if p != parent_seq => Err(corrupt(path, "chain block/payload parent disagreement")),
        Some(p) if p >= seq => Err(corrupt(path, "non-monotonic parent pointer")),
        _ => Ok(LoadedFile {
            body,
            fnv,
            parent_fnv,
        }),
    }
}

/// Read just a snapshot file's envelope header and chain block — enough
/// to pick the right parent among same-sequence candidates and to
/// resolve chains during pruning without reading payloads. Returns the
/// stored hash and `[seq, parent_seq, parent_fnv]`; `None` on any damage
/// (the caller treats that link as missing).
fn peek_header(path: &Path, kind: SnapKind) -> Option<(u64, [u64; 3])> {
    let mut file = File::open(path).ok()?;
    let header = kind.format().read_header(&mut file, &mut Vec::new()).ok()?;
    let mut block = [0u8; CHAIN_LEN];
    file.read_exact(&mut block).ok()?;
    Some((header.fnv, chain_fields(&block)))
}

// ---------------------------------------------------------------------
// Write-ahead journal
// ---------------------------------------------------------------------

/// What a segment's name wraps around its zero-padded first sequence.
const SEGMENT_AFFIXES: (&str, &str) = ("seg-", ".jl");

fn segment_name(first_seq: u64) -> String {
    let (prefix, suffix) = SEGMENT_AFFIXES;
    format!("{prefix}{first_seq:012}{suffix}")
}

/// Journal segments on disk, ascending by first sequence number.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, RecoveryError> {
    list_files(dir, "list journal segments", |name| {
        numbered(name, SEGMENT_AFFIXES)
    })
}

/// Appends event records to rotating journal segments, each one
/// [`JOURNAL`] envelope around a [`codec::encode_record`] row, built in
/// one reused buffer and written with a single unbuffered `write_all`.
/// An in-process "kill" therefore leaves exactly the records written so
/// far — plus, at worst, one torn trailing record, which replay
/// discards.
struct JournalWriter {
    dir: PathBuf,
    file: Option<File>,
    segment_path: PathBuf,
    /// The record being written, reused across records.
    buf: Vec<u8>,
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
            buf: Vec::with_capacity(RECORD_CAPACITY),
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

    fn open_segment(&mut self) -> Result<File, RecoveryError> {
        let path = self.dir.join(segment_name(self.next_seq));
        let file = File::create(&path).map_err(|e| io_err("open journal segment", &path, e))?;
        self.segment_path = path;
        self.records_in_segment = 0;
        self.segments_opened += 1;
        Ok(file)
    }

    /// Append one record of `kind`, `put` laying out its row after its
    /// sequence number. On any error the segment is let go: a failed
    /// write may have left a torn record in it, and nothing may land
    /// behind a tear. The next append opens a fresh segment at the
    /// unadvanced sequence, which replay's contiguity rule accepts.
    fn append(&mut self, kind: u8, put: &dyn Fn(u64, &mut Vec<u8>)) -> Result<(), RecoveryError> {
        self.write(kind, put).inspect_err(|_| self.file = None)
    }

    fn write(&mut self, kind: u8, put: &dyn Fn(u64, &mut Vec<u8>)) -> Result<(), RecoveryError> {
        if self.records_in_segment >= self.max_records {
            // The outgoing segment is never written again; make its tail
            // durable before moving on so rotation is also a commit point.
            self.sync()?;
            self.file = None;
        }
        JOURNAL.open(&mut self.buf, kind);
        put(self.next_seq, &mut self.buf);
        JOURNAL.seal(&mut self.buf).map_err(|e| {
            let e = std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string());
            io_err("encode journal record", &self.segment_path, e)
        })?;
        let file = match self.file.take() {
            Some(file) => file,
            None => self.open_segment()?,
        };
        self.file
            .insert(file)
            .write_all(&self.buf)
            .map_err(|e| io_err("append journal record", &self.segment_path, e))?;
        self.records_in_segment += 1;
        self.next_seq += 1;
        self.records_written += 1;
        self.bytes_written += self.buf.len() as u64;
        self.records_since_sync += 1;
        if self.fsync_every > 0 && self.records_since_sync >= self.fsync_every {
            self.sync()?;
        }
        Ok(())
    }
}

fn corrupt_journal(path: &Path, seq: u64, reason: impl Into<String>) -> RecoveryError {
    RecoveryError::CorruptJournal {
        segment: path.display().to_string(),
        seq,
        reason: reason.into(),
    }
}

/// One journal record read back: an event or a lane row.
enum Replayed {
    Event(StreamEvent),
    Row(LaneRow),
}

/// Replay every journal record with sequence `> after_seq` through
/// `apply`, in order. Within each segment, records must be contiguous
/// from the segment's first sequence; a damaged record ends the segment
/// (a torn tail, counted once) and the next segment
/// must continue exactly where the good prefix stopped, otherwise the
/// journal is reported corrupt. Sequence gaps *between* the checkpoint
/// and the first needed record are likewise corrupt: the events are
/// simply gone. A record of another format version is
/// [`RecoveryError::UnsupportedVersion`], never read as damage. Returns
/// the records replayed and the torn tails discarded.
fn replay_journal(
    journal_dir: &Path,
    after_seq: u64,
    mut apply: impl FnMut(Replayed),
) -> Result<(u64, u64), RecoveryError> {
    let segments = list_segments(journal_dir)?;
    let mut next_needed = after_seq + 1;
    let mut replayed = 0u64;
    let mut truncated = 0u64;
    // One record's payload at a time, reused across every record.
    let mut body = Vec::new();
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
        let bytes = fs::read(path).map_err(|e| io_err("read journal segment", path, e))?;
        let mut rest = bytes.as_slice();
        let mut expected = *first_seq;
        // A damaged, cut or out-of-sequence record ends the segment: past
        // it no record boundary can be trusted, so the rest is one torn
        // tail. Whether the journal as a whole is recoverable depends on
        // where the next segment picks up (the contiguity rule above).
        let torn = loop {
            let header = match JOURNAL.read(&mut rest, &mut body) {
                Err(FrameError::Closed) => break false,
                Err(e) => match unsupported(&e, &JOURNAL) {
                    Some(e) => return Err(e),
                    None => break true,
                },
                Ok(header) => header,
            };
            let record = match header.kind {
                KIND_ROW => codec::decode_row_record(&body).map(|(s, row)| (s, Replayed::Row(row))),
                _ => codec::decode_record(&body).map(|(s, event)| (s, Replayed::Event(event))),
            };
            let (seq, record) = match record {
                Ok(record) if record.0 == expected => record,
                _ => break true,
            };
            expected += 1;
            if seq > next_needed {
                return Err(corrupt_journal(
                    path,
                    next_needed,
                    format!("record gap: needed {next_needed}, found {seq}"),
                ));
            }
            if seq == next_needed {
                apply(record);
                replayed += 1;
                next_needed += 1;
            }
        };
        truncated += u64::from(torn);
    }
    Ok((replayed, truncated))
}

// ---------------------------------------------------------------------
// Chain walk
// ---------------------------------------------------------------------

/// Resolve and restore the snapshot chain ending at `tip`: walk parent
/// pointers down to a full base — validating every file's hash and
/// every child's declared parent hash on the way — then rebuild the
/// engine from the base and re-apply the deltas oldest→newest. Any bad
/// link (torn, corrupt, missing, future-version, hash-mismatched)
/// rejects the **whole** chain with a typed error; the caller's ladder
/// moves on to the next tip.
///
/// Returns the restored engine, the tip's hash (the parent hash
/// the next delta written by the resumed run must chain to), and the
/// chain length (deltas applied on top of the base).
fn restore_chain<'a>(
    data: &'a ScenarioData,
    naming: &Arc<Naming>,
    snaps: &[SnapFile],
    tip: &SnapFile,
) -> Result<(StreamAnalysis<'a>, u64, u64), RecoveryError> {
    // Newest first: each delta met on the way down to the base.
    let mut deltas: Vec<(PathBuf, StreamDelta)> = Vec::new();
    // The first delta's hash; a chain that is only a base has none.
    let mut tip_fnv: Option<u64> = None;
    let mut cur = tip.clone();
    // A child's declared parent hash constrains the next file down.
    let mut expect_fnv: Option<u64> = None;
    let (base, base_fnv) = loop {
        if deltas.len() > snaps.len() {
            return Err(corrupt(&cur.path, "chain longer than the snapshot set"));
        }
        let loaded = load_snapshot(&cur)?;
        if expect_fnv.is_some_and(|e| e != loaded.fnv) {
            return Err(corrupt(&cur.path, "chain parent hash mismatch"));
        }
        let delta = match loaded.body {
            Snapshot::Full(ckpt) => break (*ckpt, loaded.fnv),
            Snapshot::Delta(delta) => *delta,
        };
        let (parent_seq, parent_fnv) = (delta.parent_seq(), loaded.parent_fnv);
        // The parent is whichever same-sequence file carries the hash
        // this delta declares (a compaction can land beside a rejected
        // file of the other kind).
        let parent = snaps
            .iter()
            .filter(|s| s.seq == parent_seq)
            .find(|s| peek_header(&s.path, s.kind).is_some_and(|(fnv, _)| fnv == parent_fnv));
        let Some(parent) = parent else {
            return Err(corrupt(
                &cur.path,
                format!("missing parent snapshot at seq {parent_seq}"),
            ));
        };
        let parent = parent.clone();
        deltas.push((cur.path, delta));
        tip_fnv.get_or_insert(loaded.fnv);
        expect_fnv = Some(parent_fnv);
        cur = parent;
    };
    let chain_len = deltas.len() as u64;
    let mut engine = StreamAnalysis::restore_with(data, base, Arc::clone(naming))
        .map_err(|e| corrupt(&cur.path, e.to_string()))?;
    for (path, delta) in deltas.into_iter().rev() {
        engine
            .apply_delta(delta)
            .map_err(|reason| corrupt(&path, reason))?;
    }
    Ok((engine, tip_fnv.unwrap_or(base_fnv), chain_len))
}

// ---------------------------------------------------------------------
// Snapshot writer
// ---------------------------------------------------------------------

/// Bound on snapshots queued to the writer thread before the ingest
/// thread blocks (a backpressure stall, counted in
/// [`DurabilityCounters::snapshot_thread_stalls`]).
const SNAPSHOT_QUEUE_DEPTH: usize = 2;

/// What one [`SnapshotSink::write`] did.
struct SnapResult {
    is_delta: bool,
    /// The file's size in bytes, or why the snapshot was given up on.
    written: Result<u64, String>,
    /// Serialize + hash + write, retries and the retention pass included.
    wall_micros: u64,
    /// Failed attempts.
    retries: u32,
}

/// Where snapshots go and how hard to try: everything a snapshot write
/// needs except the chain anchor, which moves with whichever thread is
/// writing.
#[derive(Clone)]
struct SnapshotSink {
    dir: PathBuf,
    journal_dir: PathBuf,
    retry: RetryPolicy,
    retain: usize,
    fault: Option<FaultHook>,
}

impl SnapshotSink {
    /// The one way a snapshot reaches disk: serialize, hash, stamp a
    /// delta with its parent, write with retries, prune on success.
    /// `anchor` is the last snapshot written and is advanced on success.
    /// A delta must chain to exactly that snapshot; once a write has
    /// failed, the deltas queued behind it are refused rather than
    /// written with a dangling parent (the stream restarts the chain on
    /// a full base).
    fn write(&self, anchor: &mut Option<ChainAnchor>, snap: &Snapshot) -> SnapResult {
        let t0 = Instant::now();
        let seq = snap.seq();
        let mut retries = 0u32;
        let written = (|| -> Result<u64, String> {
            let parent = match snap.parent_seq() {
                None => None,
                Some(p) => Some(
                    anchor
                        .filter(|&(last, _)| last == p)
                        .ok_or_else(|| format!("parent snapshot at seq {p} was not written"))?,
                ),
            };
            let (file, fnv) = encode_snapshot(snap, parent)?;
            loop {
                let attempt = retries + 1;
                let outcome = if self.fault.as_ref().is_some_and(|hook| hook(seq, attempt)) {
                    Err("injected transient write failure".to_string())
                } else {
                    write_snapshot_file(&self.dir, snap.kind(), seq, &file)
                        .map_err(|e| e.to_string())
                };
                match outcome {
                    Ok(bytes) => {
                        *anchor = Some((seq, fnv));
                        prune_snapshots(&self.dir, &self.journal_dir, self.retain);
                        return Ok(bytes);
                    }
                    Err(e) => {
                        retries = attempt;
                        if attempt >= self.retry.max_attempts {
                            return Err(e);
                        }
                        let backoff = self.retry.backoff_base_ms << (attempt - 1);
                        std::thread::sleep(std::time::Duration::from_millis(backoff));
                    }
                }
            }
        })();
        SnapResult {
            is_delta: snap.parent_seq().is_some(),
            written,
            wall_micros: t0.elapsed().as_micros() as u64,
            retries,
        }
    }
}

/// The dedicated writer thread: runs [`SnapshotSink::write`] for each
/// queued snapshot, so the ingest thread only pays for the in-memory
/// capture. It holds the chain anchor while it runs and hands it back
/// when joined. Dropping the writer closes the queue and **joins** the
/// thread — queued snapshots finish before a drop-kill "crash"
/// completes, which keeps the drop-at-any-boundary tests deterministic.
struct SnapshotWriter {
    tx: Option<mpsc::SyncSender<Snapshot>>,
    /// One result per snapshot, in submission order.
    rx: mpsc::Receiver<SnapResult>,
    handle: Option<std::thread::JoinHandle<Option<ChainAnchor>>>,
    /// Snapshots submitted but not yet acknowledged via `rx`.
    pending: usize,
}

impl SnapshotWriter {
    fn spawn(sink: SnapshotSink, mut anchor: Option<ChainAnchor>) -> SnapshotWriter {
        let (tx, queue) = mpsc::sync_channel::<Snapshot>(SNAPSHOT_QUEUE_DEPTH);
        let (results, rx) = mpsc::channel::<SnapResult>();
        let handle = std::thread::spawn(move || {
            while let Ok(snap) = queue.recv() {
                if results.send(sink.write(&mut anchor, &snap)).is_err() {
                    break;
                }
            }
            anchor
        });
        SnapshotWriter {
            tx: Some(tx),
            rx,
            handle: Some(handle),
            pending: 0,
        }
    }

    /// Close the queue and join the thread (every queued snapshot is
    /// written first); returns the chain anchor it held — none if it
    /// panicked, which makes the next snapshot a full base. The
    /// remaining results are still readable from `rx`.
    fn join(&mut self) -> Option<ChainAnchor> {
        self.tx = None;
        self.handle.take().and_then(|h| h.join().ok()).flatten()
    }
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        self.join();
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
    journal: JournalWriter,
    policy: DurabilityPolicy,
    counters: DurabilityCounters,
    last_checkpoint_seq: u64,
    sink: SnapshotSink,
    /// The last snapshot written — `None` before the first one, and
    /// while the writer thread is running, which holds it instead.
    anchor: Option<ChainAnchor>,
    /// The writer thread, spawned by the first cadence snapshot and
    /// joined before any snapshot is written on this thread.
    writer: Option<SnapshotWriter>,
    /// The writer gave up on a snapshot: every later cadence snapshot
    /// is written on this thread.
    writer_gave_up: bool,
    /// Sequence of the newest snapshot captured (written or queued);
    /// `None` once one failed, so the next is a full base.
    tip_seq: Option<u64>,
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
        let started = Instant::now();
        let naming = Arc::new(Naming::mine(data));
        Self::create_with(dir, data, config, policy, naming, started)
    }

    /// [`DurableStream::create`] over a naming layer already mined from
    /// `data`; `started` as in [`StreamAnalysis::with_naming`].
    pub(crate) fn create_with(
        dir: &Path,
        data: &'a ScenarioData,
        config: AnalysisConfig,
        policy: DurabilityPolicy,
        naming: Arc<Naming>,
        started: Instant,
    ) -> Result<Self, RecoveryError> {
        let journal_dir = dir.join("journal");
        fs::create_dir_all(&journal_dir)
            .map_err(|e| io_err("create journal dir", &journal_dir, e))?;
        if !list_snapshots(dir)?.is_empty() || !list_segments(&journal_dir)?.is_empty() {
            return Err(RecoveryError::StateExists {
                dir: dir.display().to_string(),
            });
        }
        analysis::validate_inputs(data, &config)?;
        let engine = StreamAnalysis::with_naming(data, config, naming, started);
        let counters = DurabilityCounters::default();
        Ok(Self::from_parts(engine, dir, 1, policy, counters, None, 0))
    }

    /// A stream over `engine` whose next journal record is `next_seq`
    /// and whose snapshot chain so far ends at `tip`, `chain_length`
    /// deltas above its base.
    fn from_parts(
        engine: StreamAnalysis<'a>,
        dir: &Path,
        next_seq: u64,
        policy: DurabilityPolicy,
        counters: DurabilityCounters,
        tip: Option<ChainAnchor>,
        chain_length: u64,
    ) -> Self {
        let journal_dir = dir.join("journal");
        DurableStream {
            engine,
            sink: SnapshotSink {
                dir: dir.to_path_buf(),
                journal_dir: journal_dir.clone(),
                retry: policy.retry,
                retain: policy.retain_checkpoints,
                fault: None,
            },
            journal: JournalWriter::new(
                journal_dir,
                next_seq,
                policy.segment_max_records,
                policy.fsync_every_n_records,
            ),
            policy,
            counters,
            last_checkpoint_seq: tip.map_or(0, |(seq, _)| seq),
            anchor: tip,
            writer: None,
            writer_gave_up: false,
            tip_seq: tip.map(|(seq, _)| seq),
            deltas_since_full: chain_length,
            started: Instant::now(),
        }
    }

    /// Rebuild a durable stream from whatever `dir` holds: the newest
    /// valid checkpoint (walking the fallback ladder past corrupt ones)
    /// plus the journal tail. With no usable checkpoint, rebuilds from a
    /// full journal replay; with neither, starts fresh. The caller's
    /// `config` is the configuration for fresh starts; a restored
    /// checkpoint's embedded configuration always wins otherwise.
    pub fn recover(
        dir: &Path,
        data: &'a ScenarioData,
        config: AnalysisConfig,
        policy: DurabilityPolicy,
    ) -> Result<(Self, RecoveryReport), RecoveryError> {
        let t0 = Instant::now();
        let naming = Arc::new(Naming::mine(data));
        Self::recover_with(dir, data, config, policy, naming, t0)
    }

    /// [`DurableStream::recover`] over a naming layer already mined from
    /// `data`, shared by every engine the ladder tries; `t0` is when the
    /// recovery began, which [`RecoveryReport::recover_micros`] counts
    /// from.
    pub(crate) fn recover_with(
        dir: &Path,
        data: &'a ScenarioData,
        config: AnalysisConfig,
        policy: DurabilityPolicy,
        naming: Arc<Naming>,
        t0: Instant,
    ) -> Result<(Self, RecoveryReport), RecoveryError> {
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
        let mut anchor: Option<ChainAnchor> = None;
        let snaps = list_snapshots(dir)?;
        for tip in snaps.iter().rev() {
            match restore_chain(data, &naming, &snaps, tip) {
                Ok((e, fnv, chain_len)) => {
                    observe::narrate(|| {
                        format!(
                            "recovery: restored snapshot seq {} ({chain_len} deltas on the base)",
                            tip.seq
                        )
                    });
                    report.checkpoint_seq = Some(tip.seq);
                    report.chain_length = chain_len;
                    anchor = Some((tip.seq, fnv));
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
            None => {
                analysis::validate_inputs(data, &config)?;
                StreamAnalysis::with_naming(data, config, naming, Instant::now())
            }
        };
        report.started_fresh = started_fresh;

        let after = engine.events_ingested();
        let mut watermark = engine.watermark();
        let replay = replay_journal(&journal_dir, after, |record| {
            match record {
                Replayed::Event(event) => _ = engine.ingest(&event),
                Replayed::Row(row) => engine.apply_row(row),
            }
            // The late-event reject in `ingest` makes this structural,
            // but the replay contract is worth stating where it holds.
            let now = engine.watermark();
            debug_assert!(now >= watermark, "replay must never regress the watermark");
            watermark = now;
        });
        let (replayed, torn) = match replay {
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
        report.events_replayed = replayed;
        report.journal_truncated_records = torn;
        report.resumed_at_seq = engine.events_ingested();
        observe::narrate(|| {
            format!(
                "recovery: resumed at seq {} ({} replayed, {} torn)",
                report.resumed_at_seq, report.events_replayed, report.journal_truncated_records
            )
        });

        let counters = DurabilityCounters {
            restores: 1,
            events_replayed: replayed,
            journal_truncated_records: torn,
            chain_length_at_recovery: report.chain_length,
            ..DurabilityCounters::default()
        };
        // New records go to a fresh segment starting right after the
        // replayed prefix; the torn tail (if any) stays behind in the old
        // segment, and the next recovery's contiguity rule handles it.
        let next_seq = report.resumed_at_seq + 1;
        let mut stream = Self::from_parts(
            engine,
            dir,
            next_seq,
            policy,
            counters,
            anchor,
            report.chain_length,
        );
        if replayed > 0 {
            // Snapshot compaction: fold the journal prefix this recovery
            // just replayed into the chain's next snapshot at the resumed
            // sequence — a delta on the restored tip while the cadence
            // has room before its next base, a full base otherwise (and
            // after a journal-only recovery, which has no tip). Repeated
            // crash/recover cycles therefore pay the replay cost once per
            // crash, not cumulatively. Best-effort: a failed write leaves
            // the files the ladder just proved recoverable.
            report.compacted = stream.checkpoint_now().is_ok();
            if report.compacted {
                observe::narrate(|| {
                    format!(
                        "recovery: compacted journal prefix into snapshot seq {}",
                        report.resumed_at_seq
                    )
                });
            }
        }
        report.recover_micros = t0.elapsed().as_micros() as u64;
        Ok((stream, report))
    }

    /// Inject transient snapshot-write failures (chaos testing). The
    /// hook sees `(seq, attempt)` and returns `true` to fail that
    /// attempt; it is consulted by the one write function, on the writer
    /// thread for cadence snapshots and on this thread otherwise, so
    /// installing one does not change which of them runs.
    pub fn set_fault_hook(&mut self, hook: Option<FaultHook>) {
        // The running writer holds a copy of the sink; bring it home.
        self.flush_writer();
        self.sink.fault = hook;
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
    /// snapshot if the cadence says so: the capture is handed to the
    /// writer thread, unless the writer has given up on a snapshot
    /// before, in which case it is written here. Time the ingest thread
    /// spends in the snapshot section is accounted in
    /// [`DurabilityCounters::ingest_stall_micros`].
    pub fn ingest(&mut self, event: &StreamEvent) -> Result<IngestOutcome, RecoveryError> {
        self.journal
            .append(KIND, &|seq, buf| codec::encode_record(seq, event, buf))?;
        let outcome = self.engine.ingest(event);
        self.on_cadence()?;
        Ok(outcome)
    }

    /// A durable cluster shard's ingest, with [`DurableStream::ingest`]'s
    /// write-ahead discipline: journal one lane row, apply it, snapshot.
    pub(crate) fn apply_row(&mut self, row: &LaneRow) -> Result<(), RecoveryError> {
        self.journal.append(KIND_ROW, &|seq, buf| {
            codec::encode_row_record(seq, row, buf)
        })?;
        self.engine.apply_row(*row);
        self.on_cadence()
    }

    /// Snapshot if the cadence says one is due.
    fn on_cadence(&mut self) -> Result<(), RecoveryError> {
        if self.policy.checkpoint_interval > 0
            && self.engine.events_ingested() - self.last_checkpoint_seq
                >= self.policy.checkpoint_interval
        {
            let t = Instant::now();
            let result = self.cadence_checkpoint();
            self.counters.ingest_stall_micros += t.elapsed().as_micros() as u64;
            result?;
        }
        Ok(())
    }

    /// Freeze the engine's current state as the chain's next snapshot —
    /// a delta when `chain` allows one, the cadence has room before the
    /// next full base, and there is a parent strictly behind the current
    /// position to chain to — and start the next diff window from it.
    fn capture(&mut self, chain: bool) -> Snapshot {
        let seq = self.engine.events_ingested();
        let delta = chain
            && self.deltas_since_full + 1 < self.policy.full_every_n_checkpoints
            && self.tip_seq.is_some_and(|tip| tip < seq);
        let snap = if delta {
            self.deltas_since_full += 1;
            Snapshot::Delta(Box::new(self.engine.checkpoint_delta()))
        } else {
            self.deltas_since_full = 0;
            Snapshot::Full(Box::new(self.engine.checkpoint()))
        };
        self.engine.mark_clean();
        self.last_checkpoint_seq = seq;
        self.tip_seq = Some(seq);
        snap
    }

    /// Fold one write's result into the counters — the only place they
    /// learn about snapshots — and, on failure, into the chain state.
    fn note_result(&mut self, r: SnapResult) -> Result<(), RecoveryError> {
        self.counters.checkpoint_retries += u64::from(r.retries);
        self.counters.checkpoint_write_micros_max =
            self.counters.checkpoint_write_micros_max.max(r.wall_micros);
        match r.written {
            Ok(bytes) => {
                self.counters.checkpoints_written += 1;
                self.counters.checkpoint_bytes_last = bytes;
                if r.is_delta {
                    self.counters.deltas_written += 1;
                    self.counters.delta_bytes_total += bytes;
                } else {
                    self.counters.full_bytes_total += bytes;
                }
                Ok(())
            }
            Err(last_error) => {
                // Nothing may chain to a snapshot that is not on disk:
                // the next one is a full base. The journal still covers
                // everything since the last durable snapshot, so nothing
                // is lost.
                self.tip_seq = None;
                Err(RecoveryError::RetriesExhausted {
                    op: "write checkpoint",
                    attempts: r.retries,
                    last_error,
                })
            }
        }
    }

    /// Fold in the writer thread's finished results without blocking —
    /// or, with `wait`, after blocking for the oldest one in flight.
    fn collect(&mut self, wait: bool) {
        let Some(writer) = self.writer.as_mut() else {
            return;
        };
        let mut done = Vec::new();
        if wait {
            match writer.rx.recv() {
                Ok(r) => done.push(r),
                Err(_) => self.writer_gave_up = true,
            }
        }
        done.extend(writer.rx.try_iter());
        writer.pending -= done.len();
        self.absorb(done);
    }

    /// Join the writer thread — every queued snapshot is written first —
    /// and take the chain anchor back from it.
    fn flush_writer(&mut self) {
        if let Some(mut writer) = self.writer.take() {
            self.anchor = writer.join();
            self.absorb(writer.rx.try_iter().collect());
        }
    }

    /// Results from the writer thread: a snapshot it gave up on (it
    /// refuses the deltas queued behind that one, too) moves every later
    /// cadence snapshot onto this thread.
    fn absorb(&mut self, results: Vec<SnapResult>) {
        for r in results {
            self.writer_gave_up |= self.note_result(r).is_err();
        }
    }

    /// A cadence-due snapshot: capture a frozen in-memory view of the
    /// state, hand it to the writer thread, and return immediately;
    /// backpressure (a full hand-off queue) blocks on one result and is
    /// counted.
    fn cadence_checkpoint(&mut self) -> Result<(), RecoveryError> {
        self.collect(false);
        while !self.writer_gave_up
            && self
                .writer
                .as_ref()
                .is_some_and(|w| w.pending >= SNAPSHOT_QUEUE_DEPTH)
        {
            self.counters.snapshot_thread_stalls += 1;
            self.collect(true);
        }
        if !self.writer_gave_up {
            let snap = self.capture(true);
            let writer = self.writer.get_or_insert_with(|| {
                SnapshotWriter::spawn(self.sink.clone(), self.anchor.take())
            });
            if writer.tx.as_ref().is_some_and(|tx| tx.send(snap).is_ok()) {
                writer.pending += 1;
                return Ok(());
            }
            // The thread is gone (it can only have panicked) and took
            // the capture with it; the inline write recaptures.
            self.writer_gave_up = true;
        }
        self.counters.snapshot_sync_fallbacks += 1;
        self.checkpoint_now()
    }

    /// Write the chain's next snapshot of the current state **now**, on
    /// this thread, retrying transient failures per [`RetryPolicy`], then
    /// prune chains and fully absorbed journal segments beyond the
    /// retention policy. The one inline snapshot: post-recovery
    /// compaction and the cadence once the writer thread has given up
    /// call it too. Snapshots still queued to the writer thread land
    /// first, which brings the chain anchor home, so a delta is possible
    /// exactly when everything before it reached disk.
    pub fn checkpoint_now(&mut self) -> Result<(), RecoveryError> {
        self.flush_writer();
        let snap = self.capture(self.anchor.is_some());
        let result = self.sink.write(&mut self.anchor, &snap);
        self.note_result(result)
    }

    /// End of stream: let the writer thread finish its queue,
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
        .filter_map(|s| Some((s.seq, peek_header(&s.path, s.kind)?.1[1])))
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
    use crate::envelope::HEADER_LEN;
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
    fn checkpoint_file_round_trips_and_validates() {
        let tmp = TempDir::new("ckpt-roundtrip");
        let data = run(&ScenarioParams::tiny(3));
        let events = scenario_event_stream(&data);
        let mut stream = StreamAnalysis::new(&data, AnalysisConfig::default());
        for e in &events[..events.len() / 2] {
            stream.ingest(e);
        }
        let ckpt = stream.checkpoint();
        let json = serde_json::to_string(&ckpt).unwrap();
        let mut payload = Vec::new();
        codec::encode_checkpoint(&ckpt, &mut payload);
        let snap = Snapshot::Full(Box::new(ckpt));
        let (file, fnv) = encode_snapshot(&snap, None).unwrap();
        let bytes = write_snapshot_file(tmp.path(), SnapKind::Full, snap.seq(), &file).unwrap();
        assert_eq!(bytes as usize, HEADER_LEN + CHAIN_LEN + payload.len());
        let listed = list_snapshots(tmp.path()).unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(
            (listed[0].seq, listed[0].kind),
            (snap.seq(), SnapKind::Full)
        );
        assert_eq!(
            peek_header(&listed[0].path, SnapKind::Full),
            Some((fnv, [snap.seq(), 0, 0]))
        );
        let loaded = load_snapshot(&listed[0]).unwrap();
        assert_eq!((loaded.fnv, loaded.parent_fnv), (fnv, 0));
        let Snapshot::Full(loaded) = loaded.body else {
            panic!("a full base loads as one");
        };
        assert_eq!(
            serde_json::to_string(&loaded).unwrap(),
            json,
            "loading is lossless"
        );
    }

    #[test]
    fn corrupt_checkpoints_are_rejected_with_reasons() {
        let tmp = TempDir::new("ckpt-corrupt");
        let data = run(&ScenarioParams::tiny(4));
        let stream = StreamAnalysis::new(&data, AnalysisConfig::default());
        let snap = Snapshot::Full(Box::new(stream.checkpoint()));
        let (full, _) = encode_snapshot(&snap, None).unwrap();
        let path = tmp.path().join(SnapKind::Full.file_name(0));
        let file = SnapFile {
            seq: 0,
            kind: SnapKind::Full,
            path: path.clone(),
        };
        let load = |bytes: &[u8]| {
            fs::write(&path, bytes).unwrap();
            load_snapshot(&file).map(|_| ())
        };

        // Flip one payload byte: hash mismatch.
        let mut bytes = full.clone();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        match load(&bytes) {
            Err(RecoveryError::CorruptCheckpoint { reason, .. }) => {
                assert!(reason.contains("hash mismatch"), "{reason}");
            }
            other => panic!("{other:?}"),
        }

        // Truncate: torn payload.
        assert!(matches!(
            load(&full[..full.len() / 2]),
            Err(RecoveryError::CorruptCheckpoint { .. })
        ));

        // A future version, and version 1 — a JSON header line.
        let mut future = full.clone();
        future[4..6].copy_from_slice(&99u16.to_le_bytes());
        let v1 = b"{\"magic\":\"faultline-checkpoint\",\"version\":1,\"seq\":0}\n{}\n";
        for (bytes, found) in [(&future[..], 99), (&v1[..], 1)] {
            match load(bytes) {
                Err(RecoveryError::UnsupportedVersion { found: f, expected }) => {
                    assert_eq!((f, expected), (found, u32::from(CHECKPOINT_VERSION)));
                }
                other => panic!("version {found}: {other:?}"),
            }
        }
    }

    /// A journal write that fails part-way leaves a torn record behind.
    /// The next append must not land after it: it opens a fresh segment
    /// at the unacknowledged sequence, so after a rotation and a crash
    /// every acknowledged event still replays.
    #[test]
    fn a_failed_append_never_strands_later_records() {
        let tmp = TempDir::new("failed-append");
        let data = run(&ScenarioParams::tiny(16));
        let config = AnalysisConfig::default();
        let events = scenario_event_stream(&data);
        let policy = DurabilityPolicy {
            checkpoint_interval: 0,
            segment_max_records: 4,
            ..DurabilityPolicy::default()
        };
        let n = events.len().min(20);
        let mut durable = DurableStream::create(tmp.path(), &data, config.clone(), policy).unwrap();
        for e in &events[..2] {
            durable.ingest(e).unwrap();
        }
        // What a write that died part-way (ENOSPC, EIO) leaves behind: the
        // head of record 3 in the active segment, and a handle that
        // refuses the write.
        let segment = durable.journal.segment_path.clone();
        let mut torn = Vec::new();
        JOURNAL.open(&mut torn, KIND);
        codec::encode_record(3, &events[2], &mut torn);
        JOURNAL.seal(&mut torn).unwrap();
        fs::OpenOptions::new()
            .append(true)
            .open(&segment)
            .unwrap()
            .write_all(&torn[..torn.len() / 2])
            .unwrap();
        durable.journal.file = Some(File::open(&segment).unwrap());
        assert!(durable.ingest(&events[2]).is_err(), "the write must fail");
        // The disk recovers: a handle the writer had kept would now write
        // again, right behind the tear.
        if durable.journal.file.is_some() {
            let writable = fs::OpenOptions::new().append(true).open(&segment).unwrap();
            durable.journal.file = Some(writable);
        }
        // Events 3.. are acknowledged now, across at least one rotation.
        for e in &events[2..n] {
            durable.ingest(e).unwrap();
        }
        drop(durable);

        let (durable, report) = DurableStream::recover(tmp.path(), &data, config, policy).unwrap();
        assert_eq!(report.events_replayed, n as u64, "{report:?}");
        assert_eq!(report.journal_truncated_records, 1, "the tear is counted");
        let reference = {
            let mut stream = StreamAnalysis::new(&data, AnalysisConfig::default());
            for e in &events[..n] {
                stream.ingest(e);
            }
            serde_json::to_string(&stream.flush().output).unwrap()
        };
        assert_eq!(
            reference,
            serde_json::to_string(&durable.finish().output).unwrap()
        );
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
        // With no tip to chain to, the compaction is a full base.
        assert!(report.compacted);
        let kinds: Vec<(u64, SnapKind)> = list_snapshots(tmp.path())
            .unwrap()
            .iter()
            .map(|s| (s.seq, s.kind))
            .collect();
        assert_eq!(kinds, [(kill_at as u64, SnapKind::Full)]);
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
        durable.set_fault_hook(Some(Arc::new(|_seq, _attempt| true)));
        let err = durable.checkpoint_now().unwrap_err();
        assert!(matches!(
            err,
            RecoveryError::RetriesExhausted { attempts: 2, .. }
        ));
        assert_eq!(durable.counters().checkpoint_retries, 2);

        // Transient (first attempt only) failures succeed on retry.
        durable.set_fault_hook(Some(Arc::new(|_seq, attempt| attempt == 1)));
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

    /// A chain policy on the cadence path (the off-thread writer): a
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
            ..DurabilityPolicy::default()
        };
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

    /// The writer thread giving up on a snapshot is not fatal: the
    /// stream writes the following cadence snapshots itself, restarting
    /// the chain on a full base, keeps running, and counts the fallback.
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
        // Every attempt at the first snapshot fails, on the writer
        // thread; the inline writes that follow meet a healthy disk.
        durable.set_fault_hook(Some(Arc::new(|seq, _attempt| seq == 10)));
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
            "the inline path still produces snapshots"
        );
        assert_eq!(d.checkpoint_retries, 2, "failed attempts are counted");
        let snaps = list_snapshots(tmp.path()).unwrap();
        assert!(snaps.iter().all(|s| s.seq != 10), "seq 10 never landed");
        assert!(
            snaps.iter().any(|s| s.kind == SnapKind::Delta),
            "the inline path chains deltas once a base is down"
        );
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
