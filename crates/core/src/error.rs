//! Typed errors for the validated analysis entry points.
//!
//! [`crate::Analysis::run`] deliberately accepts anything and degrades
//! gracefully — malformed input is counted, not fatal. The conditions
//! collected here are different: they indicate the *caller* handed the
//! pipeline something that would make its results silently meaningless
//! (a zero-width matching window, archives that violate the sort-order
//! contract every stage assumes). [`crate::Analysis::try_run`] and
//! [`crate::StreamAnalysis::try_new`] surface them as values instead of
//! letting the run proceed.

use std::error::Error;
use std::fmt;

/// Why the durability layer ([`crate::recovery`]) could not checkpoint,
/// journal, or recover a streaming run. Unlike [`AnalysisError`], these
/// conditions are about the *storage* side of the engine: a failed or
/// torn write, a checkpoint that no longer validates, a journal segment
/// damaged beyond its recoverable tail. The recovery supervisor turns
/// the recoverable ones (a corrupt newest checkpoint, a torn journal
/// tail) into fallbacks instead of surfacing them; what reaches the
/// caller is always typed, never a panic.
#[derive(Debug)]
pub enum RecoveryError {
    /// A filesystem operation failed.
    Io {
        /// What the layer was doing (`"write checkpoint"`, `"open journal segment"`, ...).
        op: &'static str,
        /// The path involved.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A checkpoint file failed validation: bad magic, torn payload,
    /// integrity-hash mismatch, a header/payload disagreement, an
    /// invalid embedded configuration or a state no run reaches. The
    /// supervisor treats this as "try the next older checkpoint".
    CorruptCheckpoint {
        /// The rejected file.
        path: String,
        /// Why it was rejected.
        reason: String,
    },
    /// A checkpoint, delta or journal file was written in a format
    /// version this build does not read.
    UnsupportedVersion {
        /// Version found in the file header.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// A journal record is damaged somewhere other than a recoverable
    /// tail: a mid-segment record that fails its checksum, or a sequence
    /// gap between segments that no later segment repairs.
    CorruptJournal {
        /// The segment file.
        segment: String,
        /// The first sequence number that could not be recovered.
        seq: u64,
        /// Why the record was rejected.
        reason: String,
    },
    /// Durable state exists where a fresh stream was requested;
    /// refusing to overwrite it (use recovery, or point at an empty
    /// directory).
    StateExists {
        /// The occupied durability directory.
        dir: String,
    },
    /// Every checkpoint failed validation and the journal does not reach
    /// back to the first event, so no consistent state is reconstructible.
    NoRecoverableState {
        /// What was tried and why each candidate was rejected.
        detail: String,
    },
    /// A write kept failing past the configured retry budget.
    RetriesExhausted {
        /// The operation that gave up.
        op: &'static str,
        /// Attempts made (including the first).
        attempts: u32,
        /// The last attempt's failure.
        last_error: String,
    },
    /// A fresh start's configuration or inputs failed the same
    /// validation [`crate::Analysis::try_run`] applies.
    InvalidState(AnalysisError),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Io { op, path, source } => {
                write!(f, "{op} failed for {path}: {source}")
            }
            RecoveryError::CorruptCheckpoint { path, reason } => {
                write!(f, "checkpoint {path} failed validation: {reason}")
            }
            RecoveryError::UnsupportedVersion { found, expected } => {
                write!(
                    f,
                    "durable file format version {found} is not supported (this build reads {expected})"
                )
            }
            RecoveryError::CorruptJournal {
                segment,
                seq,
                reason,
            } => {
                write!(
                    f,
                    "journal segment {segment} is corrupt at record {seq}: {reason}"
                )
            }
            RecoveryError::StateExists { dir } => {
                write!(
                    f,
                    "durability directory {dir} already holds checkpoints or journal segments"
                )
            }
            RecoveryError::NoRecoverableState { detail } => {
                write!(f, "no recoverable streaming state: {detail}")
            }
            RecoveryError::RetriesExhausted {
                op,
                attempts,
                last_error,
            } => {
                write!(
                    f,
                    "{op} still failing after {attempts} attempts: {last_error}"
                )
            }
            RecoveryError::InvalidState(e) => write!(f, "cannot start the stream: {e}"),
        }
    }
}

impl Error for RecoveryError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RecoveryError::Io { source, .. } => Some(source),
            RecoveryError::InvalidState(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AnalysisError> for RecoveryError {
    fn from(e: AnalysisError) -> Self {
        RecoveryError::InvalidState(e)
    }
}

/// Why a validated analysis entry point refused to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// The scenario carries observables (syslog lines or listener
    /// transitions) but its topology yields no analyzable links, so
    /// every downstream table would be vacuously empty.
    EmptyLinkTable,
    /// An input archive violates the time-sorted contract the pipeline's
    /// merge and reconstruction stages assume. `dataset` names which one
    /// (`"syslog"` or `"transitions"`).
    UnsortedInput {
        /// Which archive is out of order.
        dataset: &'static str,
    },
    /// A configuration parameter is outside its meaningful domain.
    InvalidConfig {
        /// Human-readable description of the offending parameter.
        what: String,
    },
    /// A checkpoint to restore holds a state no run reaches.
    CorruptState {
        /// What in it no run leaves behind.
        what: String,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::EmptyLinkTable => {
                write!(
                    f,
                    "scenario has observables but no analyzable links in its topology"
                )
            }
            AnalysisError::UnsortedInput { dataset } => {
                write!(
                    f,
                    "{dataset} archive is not time-sorted; the pipeline's merge stages require sorted input"
                )
            }
            AnalysisError::InvalidConfig { what } => {
                write!(f, "invalid analysis configuration: {what}")
            }
            AnalysisError::CorruptState { what } => f.write_str(what),
        }
    }
}

impl Error for AnalysisError {}

/// Why [`crate::codec`] could not decode an event run, a journal record,
/// a snapshot payload or a flushed answer. Decoding is total: whatever
/// the bytes, the answer is the value or one of these — never a panic,
/// and never an allocation sized by a count or length the input could
/// not back.
/// Offsets are byte positions in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended inside a field.
    Truncated {
        /// Where the field starts.
        offset: usize,
        /// Bytes the field needs.
        needed: usize,
        /// Bytes left in the input.
        available: usize,
    },
    /// A tag or enum byte names no variant.
    BadTag {
        /// Which field the byte belongs to.
        field: &'static str,
        /// The byte found.
        found: u8,
        /// Where it sits.
        offset: usize,
    },
    /// A varint runs past ten bytes or overflows a `u64`.
    VarintOverflow {
        /// Where the varint starts.
        offset: usize,
    },
    /// A string's bytes are not UTF-8.
    BadUtf8 {
        /// Where the string (its length prefix) starts.
        offset: usize,
    },
    /// A count claims more items than the rest of the input could hold
    /// at the item's minimum size; nothing was reserved.
    CountExceedsInput {
        /// Items the count claims.
        claimed: u64,
        /// The most the remaining bytes could encode.
        max: usize,
    },
    /// Bytes remain after the last event of a run or the row of a
    /// record or payload.
    TrailingBytes {
        /// How many.
        extra: usize,
    },
    /// A snapshot payload's host index names no entry of its dictionary.
    BadReference {
        /// The index found.
        index: u64,
        /// Entries the dictionary holds.
        len: usize,
        /// Where the index sits.
        offset: usize,
    },
    /// A varint holds more than its field's integer type can.
    OutOfRange {
        /// The value found.
        value: u64,
        /// Where the varint starts.
        offset: usize,
    },
    /// A flushed answer's report — the JSON in the answer's leading
    /// `str` — does not parse as a `PipelineReport`.
    BadReport {
        /// The JSON reader's explanation.
        detail: String,
    },
    /// A flushed answer's match pairs or failure counts contradict its
    /// failure lists, so what they determine cannot be derived.
    Inconsistent,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated {
                offset,
                needed,
                available,
            } => write!(
                f,
                "truncated at byte {offset}: field needs {needed} bytes, {available} left"
            ),
            CodecError::BadTag {
                field,
                found,
                offset,
            } => write!(f, "invalid {field} byte {found:#04x} at byte {offset}"),
            CodecError::VarintOverflow { offset } => {
                write!(f, "varint at byte {offset} overflows 64 bits")
            }
            CodecError::BadUtf8 { offset } => {
                write!(f, "string at byte {offset} is not UTF-8")
            }
            CodecError::CountExceedsInput { claimed, max } => write!(
                f,
                "count claims {claimed} items but the bytes left can hold at most {max}"
            ),
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last row")
            }
            CodecError::BadReference { index, len, offset } => write!(
                f,
                "host index {index} at byte {offset} is past the {len}-entry dictionary"
            ),
            CodecError::OutOfRange { value, offset } => {
                write!(f, "varint {value} at byte {offset} overflows its field")
            }
            CodecError::BadReport { detail } => {
                write!(f, "the answer's report does not parse: {detail}")
            }
            CodecError::Inconsistent => write!(f, "the answer contradicts its own failure lists"),
        }
    }
}

impl Error for CodecError {}

/// Why one [`crate::envelope`] — a [`crate::transport::ShardMsg`] frame,
/// a journal record or a snapshot file — could not be written or read.
/// Every envelope is length-prefixed, versioned, and integrity-hashed,
/// so damage surfaces as a typed value here — never a panic, and never
/// a silently wrong message.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended cleanly at an envelope boundary (EOF before the
    /// first header byte). For a subprocess worker this is how the
    /// supervisor observes death; for a journal segment, its end.
    Closed,
    /// The stream ended mid-envelope: a header or payload was cut short.
    Torn {
        /// Bytes the reader expected to complete the header or payload.
        expected: usize,
        /// Bytes actually available before EOF.
        got: usize,
    },
    /// The envelope did not start with its format's magic.
    BadMagic {
        /// The four bytes found where the magic should be.
        found: [u8; 4],
    },
    /// The envelope was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Version this build speaks.
        expected: u16,
    },
    /// The payload length exceeds the format's sanity bound — almost
    /// certainly a corrupt or misaligned header.
    TooLarge {
        /// Declared payload length.
        len: u64,
        /// The bound the format enforces.
        max: u64,
    },
    /// The header's payload-kind byte names no kind of its format.
    UnknownKind {
        /// The kind byte found.
        found: u8,
    },
    /// The FNV-1a hash over the kind byte and payload does not match
    /// the header.
    HashMismatch {
        /// Hash recorded in the header.
        expected: u64,
        /// Hash computed over the received kind byte and payload.
        found: u64,
    },
    /// The payload hashed correctly but did not decode as the
    /// [`crate::transport::ShardMsg`] its kind byte promised (or could
    /// not be encoded).
    Malformed {
        /// The decoder/encoder's explanation.
        detail: String,
    },
    /// An I/O error other than EOF while reading or writing.
    Io(std::io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "stream closed at an envelope boundary"),
            FrameError::Torn { expected, got } => {
                write!(f, "torn envelope: expected {expected} bytes, got {got}")
            }
            FrameError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?}")
            }
            FrameError::UnsupportedVersion { found, expected } => {
                write!(
                    f,
                    "envelope version {found} is not supported (this build speaks {expected})"
                )
            }
            FrameError::TooLarge { len, max } => {
                write!(
                    f,
                    "declared payload length {len} exceeds the {max}-byte bound"
                )
            }
            FrameError::UnknownKind { found } => {
                write!(f, "unknown payload kind {found:#04x}")
            }
            FrameError::HashMismatch { expected, found } => {
                write!(
                    f,
                    "payload hash mismatch: header says {expected:#018x}, payload hashes to {found:#018x}"
                )
            }
            FrameError::Malformed { detail } => write!(f, "malformed frame payload: {detail}"),
            FrameError::Io(e) => write!(f, "frame i/o failed: {e}"),
        }
    }
}

impl Error for FrameError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Why a [`crate::transport::ShardTransport`] operation failed. Every
/// variant names the worker index involved so the cluster supervisor
/// can decide between "respawn that shard" and "surface the run as
/// failed".
#[derive(Debug)]
pub enum TransportError {
    /// A frame could not be encoded, written, read, or decoded on one
    /// worker's connection.
    Frame {
        /// The worker index.
        worker: usize,
        /// The codec-level failure.
        source: FrameError,
    },
    /// The worker is gone: its channel hung up, its pipe hit EOF, or a
    /// write landed on a dead process.
    WorkerGone {
        /// The worker index.
        worker: usize,
        /// How the loss was observed.
        detail: String,
    },
    /// The worker answered with a message the protocol does not allow
    /// in the current state (e.g. `Flushed` before `Flush`).
    Protocol {
        /// The worker index.
        worker: usize,
        /// What was expected and what arrived.
        detail: String,
    },
    /// The worker itself reported a fatal condition and exited.
    WorkerReported {
        /// The worker index.
        worker: usize,
        /// The worker's own description of the failure.
        detail: String,
    },
    /// A worker process (or thread) could not be started at all.
    Spawn {
        /// What failed to launch and why.
        detail: String,
    },
    /// The inputs failed the same validation the in-process entry
    /// points apply, before any worker was started.
    Analysis(AnalysisError),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Frame { worker, source } => {
                write!(f, "frame error on worker {worker}: {source}")
            }
            TransportError::WorkerGone { worker, detail } => {
                write!(f, "worker {worker} is gone: {detail}")
            }
            TransportError::Protocol { worker, detail } => {
                write!(f, "protocol violation from worker {worker}: {detail}")
            }
            TransportError::WorkerReported { worker, detail } => {
                write!(f, "worker {worker} reported fatal: {detail}")
            }
            TransportError::Spawn { detail } => write!(f, "could not spawn worker: {detail}"),
            TransportError::Analysis(e) => write!(f, "invalid cluster inputs: {e}"),
        }
    }
}

impl Error for TransportError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TransportError::Frame { source, .. } => Some(source),
            TransportError::Analysis(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AnalysisError> for TransportError {
    fn from(e: AnalysisError) -> Self {
        TransportError::Analysis(e)
    }
}

impl TransportError {
    /// True when the failure means "that worker is dead" (hang-up, EOF,
    /// torn or damaged frame) rather than a protocol bug or an
    /// explicitly reported fatal — the distinction the durable
    /// supervisor uses to decide whether the recovery ladder applies.
    pub fn is_worker_loss(&self) -> bool {
        matches!(
            self,
            TransportError::WorkerGone { .. } | TransportError::Frame { .. }
        )
    }

    /// The worker index the failure names, when it names one.
    pub fn worker(&self) -> Option<usize> {
        match self {
            TransportError::Frame { worker, .. }
            | TransportError::WorkerGone { worker, .. }
            | TransportError::Protocol { worker, .. }
            | TransportError::WorkerReported { worker, .. } => Some(*worker),
            TransportError::Spawn { .. } | TransportError::Analysis(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_problem() {
        assert!(format!("{}", AnalysisError::EmptyLinkTable).contains("no analyzable links"));
        assert!(
            format!("{}", AnalysisError::UnsortedInput { dataset: "syslog" }).contains("syslog")
        );
        let e = AnalysisError::InvalidConfig {
            what: "match_window is zero".into(),
        };
        assert!(format!("{e}").contains("match_window"));
    }

    #[test]
    fn error_trait_is_object_safe_here() {
        let boxed: Box<dyn Error> = Box::new(AnalysisError::EmptyLinkTable);
        assert!(boxed.source().is_none());
    }

    #[test]
    fn recovery_errors_name_the_problem_and_chain_sources() {
        let io = RecoveryError::Io {
            op: "write checkpoint",
            path: "/tmp/ckpt".into(),
            source: std::io::Error::other("disk full"),
        };
        assert!(format!("{io}").contains("write checkpoint"));
        assert!(io.source().is_some());

        let corrupt = RecoveryError::CorruptCheckpoint {
            path: "ckpt-000000000042.ckpt".into(),
            reason: "payload hash mismatch".into(),
        };
        assert!(format!("{corrupt}").contains("hash mismatch"));
        assert!(corrupt.source().is_none());

        let from: RecoveryError = AnalysisError::EmptyLinkTable.into();
        assert!(matches!(from, RecoveryError::InvalidState(_)));
        assert!(from.source().is_some());

        let torn = RecoveryError::CorruptJournal {
            segment: "seg-000000000001.jl".into(),
            seq: 7,
            reason: "checksum mismatch".into(),
        };
        assert!(format!("{torn}").contains("record 7"));
    }

    #[test]
    fn frame_errors_name_the_damage() {
        assert!(format!("{}", FrameError::Closed).contains("boundary"));
        let torn = FrameError::Torn {
            expected: 20,
            got: 3,
        };
        assert!(format!("{torn}").contains("expected 20"));
        let magic = FrameError::BadMagic { found: *b"XXXX" };
        assert!(format!("{magic}").contains("magic"));
        let hash = FrameError::HashMismatch {
            expected: 1,
            found: 2,
        };
        assert!(format!("{hash}").contains("hash mismatch"));
        let io: FrameError = std::io::Error::other("pipe burst").into();
        assert!(io.source().is_some());
        let kind = FrameError::UnknownKind { found: 0x7F };
        assert!(format!("{kind}").contains("0x7f"));
        let codec = CodecError::TrailingBytes { extra: 3 };
        assert!(format!("{codec}").contains("3 trailing"));
    }

    #[test]
    fn transport_errors_classify_worker_loss() {
        let gone = TransportError::WorkerGone {
            worker: 2,
            detail: "eof".into(),
        };
        assert!(gone.is_worker_loss());
        assert_eq!(gone.worker(), Some(2));

        let frame = TransportError::Frame {
            worker: 1,
            source: FrameError::Closed,
        };
        assert!(frame.is_worker_loss());
        assert!(frame.source().is_some());

        let fatal = TransportError::WorkerReported {
            worker: 0,
            detail: "state exists".into(),
        };
        assert!(!fatal.is_worker_loss());
        assert!(format!("{fatal}").contains("fatal"));

        let analysis: TransportError = AnalysisError::EmptyLinkTable.into();
        assert!(!analysis.is_worker_loss());
        assert_eq!(analysis.worker(), None);
    }
}
