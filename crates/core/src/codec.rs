//! The binary codec: the one place that knows the byte layout of a
//! [`StreamEvent`], of a lane row, of a snapshot payload and of a shard's
//! flushed answer.
//!
//! The shard wire ([`crate::transport`]) carries every
//! [`crate::transport::ShardMsg::Rows`] batch as one *row run*, every
//! [`crate::transport::ShardMsg::Events`] batch as one *run* and every
//! [`crate::transport::ShardMsg::Flushed`] answer as one *flushed*
//! payload, the write-ahead journal ([`crate::recovery`]) stores each
//! event as one *record* and each lane row as one *row record*, and every
//! checkpoint and delta file stores its [`StreamCheckpoint`] or
//! [`StreamDelta`] as one *snapshot payload*;
//! `scripts/check_codec_single_source.sh` fails CI if the tag
//! constants or the event encode/decode functions appear in any other
//! module. The codec does no framing and no integrity hashing of its own
//! — the [`crate::envelope`] around it owns length and FNV.
//!
//! # Event layout
//!
//! ```text
//! run      := count:varint event{count}       a frame's event batch
//! record   := seq:varint event                  one journal record
//! event    := 0x01 syslog | 0x02 isis
//! syslog   := seq:varint at:varint host:str interface:str family up:u8 os:u8
//! family   := 0x00 neighbor:str detail:u8      IS-IS adjacency change
//!           | 0x01                             %LINK-3-UPDOWN
//!           | 0x02                             %LINEPROTO-5-UPDOWN
//! isis     := at:varint source:6 kind:u8 subject direction:u8
//! subject  := 0x00 neighbor:6                  adjacency toward a system ID
//!           | 0x01 prefix:4 prefix_len:u8      IPv4 prefix
//! str      := len:varint utf8{len}
//! varint   := LEB128 of a u64, at most 10 bytes
//! ```
//!
//! Timestamps are milliseconds since the scenario epoch. Every enum is
//! one byte (`up`: 0 down / 1 up; `os`: 0 IOS / 1 IOS XR; `detail`:
//! 0 new adjacency, 1 hold time expired, 2 interface down, 3 adjacency
//! reset, 4 other; `kind`: 0 IS reachability / 1 IP reachability;
//! `direction`: 0 DOWN / 1 UP) and every byte is checked on the way in.
//!
//! A run is **self-contained**: no dictionary or base timestamp carries
//! over from an earlier run, so a respawned worker can decode whichever
//! frame it sees first.
//!
//! # Row layout
//!
//! A row run is `rows:vec<row>` and a row record `seq:u64 row`, where a
//! row is a [`LaneRow`] in the snapshot rows' layout (below) with no host
//! dictionary: `link:u32 at:time direction:u8 reach:option<(kind:u8,
//! source:6)>`, no `reach` for a syslog dedup event. A run's count is
//! checked against the shortest row, 4 bytes, before anything is
//! reserved.
//!
//! # Snapshot layout
//!
//! A snapshot payload is a host dictionary, then one row. A struct's row
//! is its fields in declaration order, each in its type's layout, with
//! no names and no tags: the file's format version (or, for a flushed
//! answer, the wire version) pins the struct definitions it was written
//! against. Each struct's field list is written once, in a `rows!`
//! invocation next to the struct (private fields) or in this module
//! (public ones); encoding destructures without `..` and decoding builds
//! a struct literal, so a field added to a struct does not compile until
//! its row lists it. A nested struct's row sits inline, so grouping
//! fields into a struct moves no byte. Fields a `rows!` entry lists after
//! a `;` are runtime-only: not encoded, decoded as their `Default`. No
//! row stores a value the rest determines: a restore rebuilds the engine's
//! (`Kernel::rebuild`), and [`decode_flushed`] derives an answer's
//! (`StreamOutput::derive`).
//!
//! ```text
//! flushed    := report:str payload              a shard's `Flushed` answer:
//!                                               the report as JSON, then
//!                                               the output's payload
//! payload    := hosts:vec<str> (checkpoint | delta | output)
//! checkpoint := seq:u64 config watermark:opt<time> log tallies lanes:vec<lane>
//! delta      := seq parent_seq:u64 watermark:opt<time> log tallies lanes:vec<lane>
//! tallies    := resolve_stats is_route ip_route:route_stats
//!               events_syslog events_isis batches late_events
//!               open_items_hwm quarantined_syslog quarantined_isis:u64
//! log        := messages:vec<message>
//!               is_transitions ip_transitions syslog_transitions:vec<transition>
//!               isis_failures:vec<failure> isis_ambiguous:vec<ambiguous>
//!               syslog_failures:vec<failure> syslog_ambiguous:vec<ambiguous>
//!               san_isis san_syslog:vec<failure> matched partial:vec<(usize usize)>
//! output     := messages:vec<message> resolve_stats
//!               is_transitions:vec<transition> is_stats:merge_stats
//!               ip_transitions:vec<transition> ip_stats:merge_stats
//!               syslog_transitions:vec<transition>
//!               isis_recon syslog_recon:reconstruction
//!               isis_failures syslog_failures:vec<failure>
//!               isis_sanitize syslog_sanitize:sanitize matching
//!               syslog_ingested:u64             (the other counters derived)
//! reconstruction := failures:vec<failure> ambiguous:vec<ambiguous>
//!               unterminated boundary_ups:u32
//! matching   := matched partial:vec<(usize usize)>  (left_only, right_only
//!                                               derived)
//! config     := match_window dedup_window flap_gap flap_pad long_threshold
//!               ticket_slack short_fp_threshold:time strategy:u8
//!               threads chunk_size:usize quarantine_horizon:opt<time>
//! message    := at:time link:u32 direction:u8 family:u8 host detail:opt<u8>
//! host       := index:varint                    into the payload's hosts
//! lane       := link:u32 dedup is_merge ip_merge:merge
//!               isis_recon syslog_recon:recon isis_sanitize syslog_sanitize:sanitize
//!               seg_isis seg_syslog:vec<failure>
//!               segments_closed:u64 flap_last_end:opt<time> flap_run:u32
//!               flap_episodes:u64               (not seg_max_end, dirty, outbox)
//! dedup      := last:opt<(time direction:u8)>
//! merge      := advertised:vec<(sysid:6 up:bool)> inconsistent:u64
//!                                               advertised sorted by sysid
//! recon      := open:opt<time> last:opt<(time direction:u8)> pending:opt<failure>
//!               boundary_ups:u32
//! transition := at:time link:u32 direction:u8
//! failure    := link:u32 start end:time
//! ambiguous  := link:u32 first second:time direction:u8
//! sanitize   := removed_offline removed_offline_ms long_checked long_removed
//!               long_removed_ms:u64
//! resolve_stats := isis_resolved physical_resolved lineproto_skipped unresolved:u64
//! merge_stats   := raw unresolvable_multilink unknown inconsistent:u64
//!                                               (emitted derived)
//! route_stats   := raw unresolvable_multilink unknown:u64
//! opt<T>     := 0x00 | 0x01 T
//! vec<T>     := count:varint T{count}
//! time, u64, u32, usize := varint           milliseconds for a time
//! bool       := 0x00 | 0x01
//! ```
//!
//! The enum bytes are the event layout's, plus `family`: 0 IS-IS
//! adjacency / 1 physical media, and `strategy`: 0 previous state /
//! 1 assume down / 2 assume up. **Hostnames** are the one string a
//! snapshot repeats — every resolved message names its reporting router
//! — so each distinct host is spelled once, in `hosts`, and a message
//! stores its index there. The dictionary is the payload's own: a file
//! decodes without the scenario, and the writer thread, which has no
//! link table, builds it while it encodes. Decoding makes one `Arc<str>`
//! per entry and shares it across every message that names it.
//!
//! A flushed answer's [`PipelineReport`] stays JSON inside its `str`:
//! it is about a kilobyte, read by people, and its sections do not yet
//! share one shape. The output beside it is the bulk of the frame and
//! travels as rows.
//!
//! # Totality
//!
//! Decoding is **total**: every malformed input is a typed
//! [`CodecError`], never a panic. A count is checked against the bytes
//! left (at its element's shortest row) before anything is reserved, so
//! nothing is allocated on the word of a count or length the remaining
//! input could not back. Every enum byte, dictionary index and
//! `u32`/`usize` narrowing is checked, and bytes after the last row are
//! an error.

use crate::analysis::{AnalysisConfig, ParallelismConfig};
use crate::error::CodecError;
use crate::intern::FastMap;
use crate::kernel::{LaneRow, StreamOutput};
use crate::linktable::LinkIx;
use crate::matching::FailureMatching;
use crate::observe::{PipelineCounters, PipelineReport};
use crate::reconstruct::{AmbiguityStrategy, AmbiguousPeriod, Failure, Reconstruction};
use crate::sanitize::SanitizeReport;
use crate::streaming::{StreamCheckpoint, StreamDelta, StreamEvent};
use crate::transitions::{
    IsisMergeStats, LinkTransition, MessageFamily, ResolvedMessage, SyslogResolveStats,
};
use crate::transport::WorkerOutput;
use faultline_isis::listener::{
    ReachabilityKind, Transition, TransitionDirection, TransitionSubject,
};
use faultline_syslog::message::{AdjChangeDetail, LinkEvent, LinkEventKind, SyslogMessage};
use faultline_topology::interface::InterfaceName;
use faultline_topology::link::LinkId;
use faultline_topology::osi::SystemId;
use faultline_topology::router::RouterOs;
use faultline_topology::time::{Duration, Timestamp};
use std::net::Ipv4Addr;
use std::sync::Arc;

const TAG_SYSLOG: u8 = 0x01;
const TAG_ISIS: u8 = 0x02;

const FAMILY_ADJACENCY: u8 = 0x00;
const FAMILY_LINK: u8 = 0x01;
const FAMILY_LINEPROTO: u8 = 0x02;

const SUBJECT_ADJACENCY: u8 = 0x00;
const SUBJECT_PREFIX: u8 = 0x01;

/// The shortest encoding any event can have (a syslog event with empty
/// strings and one-byte varints). A run's declared count is checked
/// against `remaining / MIN_EVENT_LEN` before anything is reserved.
const MIN_EVENT_LEN: usize = 8;

/// Rough bytes per event at paper scale, used only to pre-size the
/// output buffer.
const TYPICAL_EVENT_LEN: usize = 40;

/// A fieldless enum stored as one byte, checked on the way in.
pub(crate) trait Tag: Copy {
    /// What a byte naming no variant is reported as.
    const FIELD: &'static str;
    fn tag(self) -> u8;
    fn from_tag(byte: u8) -> Option<Self>;
}

/// Give each listed enum its byte per variant — the one table for both
/// layouts — and, as a snapshot row, that byte.
macro_rules! tags {
    ($($ty:ident as $field:literal { $($variant:ident = $byte:literal),+ $(,)? })*) => {$(
        impl Tag for $ty {
            const FIELD: &'static str = $field;
            fn tag(self) -> u8 {
                match self {
                    $($ty::$variant => $byte,)+
                }
            }
            fn from_tag(byte: u8) -> Option<Self> {
                match byte {
                    $($byte => Some($ty::$variant),)+
                    _ => None,
                }
            }
        }

        impl Row for $ty {
            const MIN_LEN: usize = 1;
            fn put(&self, w: &mut RowWriter<'_>) {
                w.out.push(self.tag());
            }
            fn get(r: &mut RowReader<'_>) -> Result<Self, CodecError> {
                r.cur.tag()
            }
        }
    )*};
}

tags! {
    AdjChangeDetail as "adjacency detail" {
        NewAdjacency = 0,
        HoldTimeExpired = 1,
        InterfaceDown = 2,
        AdjacencyReset = 3,
        Other = 4,
    }
    RouterOs as "router os" { Ios = 0, IosXr = 1 }
    ReachabilityKind as "reachability kind" { IsReach = 0, IpReach = 1 }
    TransitionDirection as "transition direction" { Down = 0, Up = 1 }
    MessageFamily as "message family" { IsisAdjacency = 0, PhysicalMedia = 1 }
    AmbiguityStrategy as "ambiguity strategy" { PreviousState = 0, AssumeDown = 1, AssumeUp = 2 }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Append one event's encoding to `out`.
pub fn encode_event(event: &StreamEvent, out: &mut Vec<u8>) {
    match event {
        StreamEvent::Syslog(m) => {
            out.push(TAG_SYSLOG);
            put_varint(out, m.seq);
            put_varint(out, m.event.at.as_millis());
            put_str(out, &m.event.host);
            put_str(out, m.event.interface.as_str());
            match &m.event.kind {
                LinkEventKind::IsisAdjacency { neighbor, detail } => {
                    out.push(FAMILY_ADJACENCY);
                    put_str(out, neighbor);
                    out.push(detail.tag());
                }
                LinkEventKind::Link => out.push(FAMILY_LINK),
                LinkEventKind::LineProtocol => out.push(FAMILY_LINEPROTO),
            }
            out.push(u8::from(m.event.up));
            out.push(m.os.tag());
        }
        StreamEvent::Isis(t) => {
            out.push(TAG_ISIS);
            put_varint(out, t.at.as_millis());
            out.extend_from_slice(&t.source.0);
            out.push(t.kind.tag());
            match t.subject {
                TransitionSubject::Adjacency { neighbor } => {
                    out.push(SUBJECT_ADJACENCY);
                    out.extend_from_slice(&neighbor.0);
                }
                TransitionSubject::Prefix { prefix, prefix_len } => {
                    out.push(SUBJECT_PREFIX);
                    out.extend_from_slice(&prefix.octets());
                    out.push(prefix_len);
                }
            }
            out.push(t.direction.tag());
        }
    }
}

/// Append `events` to `out` as one self-contained run.
pub fn encode_events(events: &[StreamEvent], out: &mut Vec<u8>) {
    out.reserve(events.len() * TYPICAL_EVENT_LEN);
    put_varint(out, events.len() as u64);
    for event in events {
        encode_event(event, out);
    }
}

/// Append one journal record — `seq` and the event — to `out`.
pub fn encode_record(seq: u64, event: &StreamEvent, out: &mut Vec<u8>) {
    put_varint(out, seq);
    encode_event(event, out);
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over the input; every accessor either yields
/// bytes that exist or a [`CodecError`].
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let rest = &self.bytes[self.pos..];
        if n > rest.len() {
            return Err(CodecError::Truncated {
                offset: self.pos,
                needed: n,
                available: rest.len(),
            });
        }
        self.pos += n;
        Ok(&rest[..n])
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn byte(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    /// The error for an enum byte (the one just read) that names no
    /// variant of `field`.
    fn bad_tag(&self, field: &'static str, found: u8) -> CodecError {
        CodecError::BadTag {
            field,
            found,
            offset: self.pos - 1,
        }
    }

    fn tag<T: Tag>(&mut self) -> Result<T, CodecError> {
        let found = self.byte()?;
        T::from_tag(found).ok_or_else(|| self.bad_tag(T::FIELD, found))
    }

    fn varint(&mut self) -> Result<u64, CodecError> {
        let offset = self.pos;
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let bits = u64::from(b & 0x7F);
            // The tenth byte holds bit 63 alone.
            if shift == 63 && bits > 1 {
                break;
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::VarintOverflow { offset })
    }

    /// A varint that must fit the narrower integer `T`.
    fn narrow<T: TryFrom<u64>>(&mut self) -> Result<T, CodecError> {
        let offset = self.pos;
        let value = self.varint()?;
        T::try_from(value).map_err(|_| CodecError::OutOfRange { value, offset })
    }

    /// A count of items of at least `min_len` bytes each, refused before
    /// anything is reserved if the rest of the input could not hold them.
    fn count(&mut self, min_len: usize) -> Result<usize, CodecError> {
        let claimed = self.varint()?;
        let max = (self.bytes.len() - self.pos) / min_len.max(1);
        if claimed > max as u64 {
            return Err(CodecError::CountExceedsInput { claimed, max });
        }
        Ok(claimed as usize)
    }

    fn str(&mut self) -> Result<&'a str, CodecError> {
        let offset = self.pos;
        let len = self.varint()?;
        // A length no input could back fails here, before any allocation.
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::BadUtf8 { offset })
    }

    fn string(&mut self) -> Result<Arc<str>, CodecError> {
        self.str().map(Arc::from)
    }

    /// The input must end here.
    fn end(&self) -> Result<(), CodecError> {
        match self.bytes.len() - self.pos {
            0 => Ok(()),
            extra => Err(CodecError::TrailingBytes { extra }),
        }
    }

    fn event(&mut self) -> Result<StreamEvent, CodecError> {
        match self.byte()? {
            TAG_SYSLOG => {
                let seq = self.varint()?;
                let at = Timestamp::from_millis(self.varint()?);
                let host = self.string()?;
                let interface = InterfaceName(self.string()?);
                let kind = match self.byte()? {
                    FAMILY_ADJACENCY => LinkEventKind::IsisAdjacency {
                        neighbor: self.string()?,
                        detail: self.tag()?,
                    },
                    FAMILY_LINK => LinkEventKind::Link,
                    FAMILY_LINEPROTO => LinkEventKind::LineProtocol,
                    found => return Err(self.bad_tag("syslog family", found)),
                };
                let up = match self.byte()? {
                    0 => false,
                    1 => true,
                    found => return Err(self.bad_tag("up flag", found)),
                };
                let os = self.tag()?;
                Ok(StreamEvent::Syslog(SyslogMessage {
                    seq,
                    event: LinkEvent {
                        at,
                        host,
                        interface,
                        kind,
                        up,
                    },
                    os,
                }))
            }
            TAG_ISIS => {
                let at = Timestamp::from_millis(self.varint()?);
                let source = SystemId(self.array()?);
                let kind = self.tag()?;
                let subject = match self.byte()? {
                    SUBJECT_ADJACENCY => TransitionSubject::Adjacency {
                        neighbor: SystemId(self.array()?),
                    },
                    SUBJECT_PREFIX => TransitionSubject::Prefix {
                        prefix: Ipv4Addr::from(self.array::<4>()?),
                        prefix_len: self.byte()?,
                    },
                    found => return Err(self.bad_tag("transition subject", found)),
                };
                let direction = self.tag()?;
                Ok(StreamEvent::Isis(Transition {
                    at,
                    source,
                    kind,
                    subject,
                    direction,
                }))
            }
            found => Err(self.bad_tag("event", found)),
        }
    }
}

/// Decode one event from the front of `bytes`; returns it with the
/// number of bytes it occupied.
pub fn decode_event(bytes: &[u8]) -> Result<(StreamEvent, usize), CodecError> {
    let mut cursor = Cursor { bytes, pos: 0 };
    let event = cursor.event()?;
    Ok((event, cursor.pos))
}

/// Decode one journal record — all of `bytes` — into its sequence number
/// and event. Allocates exactly the event's own strings.
pub fn decode_record(bytes: &[u8]) -> Result<(u64, StreamEvent), CodecError> {
    let mut cursor = Cursor { bytes, pos: 0 };
    let seq = cursor.varint()?;
    let event = cursor.event()?;
    cursor.end()?;
    Ok((seq, event))
}

/// Decode one run — all of `bytes` — appending its events to `out`. On
/// error `out` keeps whatever decoded before the damage; callers that
/// care truncate it back.
pub fn decode_events(bytes: &[u8], out: &mut Vec<StreamEvent>) -> Result<(), CodecError> {
    let mut cursor = Cursor { bytes, pos: 0 };
    let count = cursor.count(MIN_EVENT_LEN)?;
    out.reserve(count);
    for _ in 0..count {
        out.push(cursor.event()?);
    }
    cursor.end()
}

// ---------------------------------------------------------------------------
// Snapshot rows
// ---------------------------------------------------------------------------

/// A value with one row layout in a snapshot payload.
pub(crate) trait Row: Sized {
    /// The fewest bytes any value's row takes: what a count of these is
    /// checked against before anything is reserved. At least 1.
    const MIN_LEN: usize;
    fn put(&self, w: &mut RowWriter<'_>);
    fn get(r: &mut RowReader<'_>) -> Result<Self, CodecError>;
}

/// Where rows are encoded: the output, and the host dictionary built on
/// the way.
pub(crate) struct RowWriter<'a> {
    out: &'a mut Vec<u8>,
    /// Every distinct host met so far, in dictionary order.
    hosts: Vec<Arc<str>>,
    index: FastMap<Arc<str>, u64>,
}

/// Where rows are decoded from: the input, and the payload's dictionary.
pub(crate) struct RowReader<'a> {
    cur: Cursor<'a>,
    hosts: Vec<Arc<str>>,
}

/// `T::MIN_LEN` for the field `_field` reads — lets `rows!` sum a
/// struct's minimum from its field names alone.
pub(crate) const fn min_len<S, T: Row>(_field: fn(&S) -> &T) -> usize {
    T::MIN_LEN
}

/// Give each listed struct its row: the named fields, in the order
/// listed, which is the declaration order. Fields named after a `;` are
/// runtime-only: not encoded, decoded as their `Default`. Invoke it where
/// the fields are visible.
macro_rules! rows {
    ($($ty:ident { $($field:ident),+ $(; $($runtime:ident),+)? $(,)? })*) => {$(
        impl $crate::codec::Row for $ty {
            const MIN_LEN: usize = 0 $(+ $crate::codec::min_len(|s: &$ty| &s.$field))+;
            fn put(&self, w: &mut $crate::codec::RowWriter<'_>) {
                let $ty { $($field,)+ $($($runtime: _,)+)? } = self;
                $($crate::codec::Row::put($field, w);)+
            }
            fn get(
                r: &mut $crate::codec::RowReader<'_>,
            ) -> Result<Self, $crate::error::CodecError> {
                Ok($ty {
                    $($field: $crate::codec::Row::get(r)?,)+
                    $($($runtime: Default::default(),)+)?
                })
            }
        }
    )*};
}
pub(crate) use rows;

impl Row for u64 {
    const MIN_LEN: usize = 1;
    fn put(&self, w: &mut RowWriter<'_>) {
        put_varint(w.out, *self);
    }
    fn get(r: &mut RowReader<'_>) -> Result<Self, CodecError> {
        r.cur.varint()
    }
}

impl Row for u32 {
    const MIN_LEN: usize = 1;
    fn put(&self, w: &mut RowWriter<'_>) {
        put_varint(w.out, u64::from(*self));
    }
    fn get(r: &mut RowReader<'_>) -> Result<Self, CodecError> {
        r.cur.narrow()
    }
}

impl Row for usize {
    const MIN_LEN: usize = 1;
    fn put(&self, w: &mut RowWriter<'_>) {
        put_varint(w.out, *self as u64);
    }
    fn get(r: &mut RowReader<'_>) -> Result<Self, CodecError> {
        r.cur.narrow()
    }
}

impl Row for bool {
    const MIN_LEN: usize = 1;
    fn put(&self, w: &mut RowWriter<'_>) {
        w.out.push(u8::from(*self));
    }
    fn get(r: &mut RowReader<'_>) -> Result<Self, CodecError> {
        match r.cur.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            found => Err(r.cur.bad_tag("bool", found)),
        }
    }
}

impl Row for Timestamp {
    const MIN_LEN: usize = 1;
    fn put(&self, w: &mut RowWriter<'_>) {
        put_varint(w.out, self.as_millis());
    }
    fn get(r: &mut RowReader<'_>) -> Result<Self, CodecError> {
        r.cur.varint().map(Timestamp::from_millis)
    }
}

impl Row for Duration {
    const MIN_LEN: usize = 1;
    fn put(&self, w: &mut RowWriter<'_>) {
        put_varint(w.out, self.as_millis());
    }
    fn get(r: &mut RowReader<'_>) -> Result<Self, CodecError> {
        r.cur.varint().map(Duration::from_millis)
    }
}

impl Row for LinkIx {
    const MIN_LEN: usize = 1;
    fn put(&self, w: &mut RowWriter<'_>) {
        self.0.put(w);
    }
    fn get(r: &mut RowReader<'_>) -> Result<Self, CodecError> {
        r.cur.narrow().map(LinkIx)
    }
}

impl Row for LinkId {
    const MIN_LEN: usize = 1;
    fn put(&self, w: &mut RowWriter<'_>) {
        self.0.put(w);
    }
    fn get(r: &mut RowReader<'_>) -> Result<Self, CodecError> {
        r.cur.narrow().map(LinkId)
    }
}

impl Row for SystemId {
    const MIN_LEN: usize = 6;
    fn put(&self, w: &mut RowWriter<'_>) {
        w.out.extend_from_slice(&self.0);
    }
    fn get(r: &mut RowReader<'_>) -> Result<Self, CodecError> {
        r.cur.array().map(SystemId)
    }
}

/// A hostname: its index in the payload's dictionary.
impl Row for Arc<str> {
    const MIN_LEN: usize = 1;
    fn put(&self, w: &mut RowWriter<'_>) {
        let index = match w.index.get(&**self) {
            Some(&index) => index,
            None => {
                let index = w.hosts.len() as u64;
                w.hosts.push(Arc::clone(self));
                w.index.insert(Arc::clone(self), index);
                index
            }
        };
        put_varint(w.out, index);
    }
    fn get(r: &mut RowReader<'_>) -> Result<Self, CodecError> {
        let offset = r.cur.pos;
        let index = r.cur.varint()?;
        usize::try_from(index)
            .ok()
            .and_then(|i| r.hosts.get(i))
            .map(Arc::clone)
            .ok_or(CodecError::BadReference {
                index,
                len: r.hosts.len(),
                offset,
            })
    }
}

impl<T: Row> Row for Option<T> {
    const MIN_LEN: usize = 1;
    fn put(&self, w: &mut RowWriter<'_>) {
        match self {
            None => w.out.push(0),
            Some(v) => {
                w.out.push(1);
                v.put(w);
            }
        }
    }
    fn get(r: &mut RowReader<'_>) -> Result<Self, CodecError> {
        match r.cur.byte()? {
            0 => Ok(None),
            1 => T::get(r).map(Some),
            found => Err(r.cur.bad_tag("option", found)),
        }
    }
}

impl<T: Row> Row for Vec<T> {
    const MIN_LEN: usize = 1;
    fn put(&self, w: &mut RowWriter<'_>) {
        put_varint(w.out, self.len() as u64);
        for v in self {
            v.put(w);
        }
    }
    fn get(r: &mut RowReader<'_>) -> Result<Self, CodecError> {
        let count = r.cur.count(T::MIN_LEN)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl<A: Row, B: Row> Row for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;
    fn put(&self, w: &mut RowWriter<'_>) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut RowReader<'_>) -> Result<Self, CodecError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

rows! {
    AnalysisConfig {
        match_window,
        dedup_window,
        flap_gap,
        flap_pad,
        long_threshold,
        ticket_slack,
        short_fp_threshold,
        strategy,
        parallelism,
        quarantine_horizon,
    }
    ParallelismConfig { threads, chunk_size }
    SyslogResolveStats { isis_resolved, physical_resolved, lineproto_skipped, unresolved }
    IsisMergeStats { raw, unresolvable_multilink, unknown, inconsistent; emitted }
    SanitizeReport { removed_offline, removed_offline_ms, long_checked, long_removed, long_removed_ms }
    LinkTransition { at, link, direction }
    Failure { link, start, end }
    AmbiguousPeriod { link, first, second, direction }
    ResolvedMessage { at, link, direction, family, host, detail }
    Reconstruction { failures, ambiguous, unterminated, boundary_ups }
    FailureMatching { matched, partial; left_only, right_only }
    PipelineCounters {
        syslog_ingested;
        isis_ingested,
        transitions_derived,
        failures_reconstructed,
        failures_after_sanitize,
        sanitize_dropped,
        failures_matched,
        ambiguous_periods,
    }
    StreamOutput {
        messages,
        resolve_stats,
        is_transitions,
        is_stats,
        ip_transitions,
        ip_stats,
        syslog_transitions,
        isis_recon,
        syslog_recon,
        isis_failures,
        syslog_failures,
        isis_sanitize,
        syslog_sanitize,
        matching,
        counters,
    }
}

/// Append `value`'s snapshot payload to `out`: the host dictionary, then
/// its row. The row is encoded in place and the dictionary, known only
/// once the row is done, is slid in front of it.
pub(crate) fn encode_payload<T: Row>(value: &T, out: &mut Vec<u8>) {
    let start = out.len();
    let mut w = RowWriter {
        out,
        hosts: Vec::new(),
        index: FastMap::default(),
    };
    value.put(&mut w);
    let RowWriter { out, hosts, .. } = w;
    let mut dictionary = Vec::new();
    put_varint(&mut dictionary, hosts.len() as u64);
    for host in &hosts {
        put_str(&mut dictionary, host);
    }
    out.splice(start..start, dictionary);
}

/// Decode one snapshot payload — all of `bytes`.
fn decode_payload<T: Row>(bytes: &[u8]) -> Result<T, CodecError> {
    read_payload(Cursor { bytes, pos: 0 })
}

/// Decode the snapshot payload that fills the rest of `cur`'s input.
fn read_payload<T: Row>(cur: Cursor<'_>) -> Result<T, CodecError> {
    let mut r = RowReader {
        cur,
        hosts: Vec::new(),
    };
    let count = r.cur.count(1)?;
    r.hosts.reserve_exact(count);
    for _ in 0..count {
        let host = r.cur.str()?;
        r.hosts.push(Arc::from(host));
    }
    let value = T::get(&mut r)?;
    r.cur.end()?;
    Ok(value)
}

/// Append rows naming no host to `out`: `put` writes them straight in.
fn encode_plain(out: &mut Vec<u8>, put: impl FnOnce(&mut RowWriter<'_>)) {
    put(&mut RowWriter {
        out,
        hosts: Vec::new(),
        index: FastMap::default(),
    });
}

/// Decode one row naming no host — all of `bytes`.
fn decode_plain<T: Row>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = RowReader {
        cur: Cursor { bytes, pos: 0 },
        hosts: Vec::new(),
    };
    let value = T::get(&mut r)?;
    r.cur.end()?;
    Ok(value)
}

/// Append `rows` to `out` as one self-contained row run.
pub fn encode_rows(rows: &[LaneRow], out: &mut Vec<u8>) {
    put_varint(out, rows.len() as u64);
    encode_plain(out, |w| rows.iter().for_each(|row| row.put(w)));
}

/// Decode one row run — all of `bytes`.
pub fn decode_rows(bytes: &[u8]) -> Result<Vec<LaneRow>, CodecError> {
    decode_plain(bytes)
}

/// Append one journal row record — `seq` and the row — to `out`.
pub fn encode_row_record(seq: u64, row: &LaneRow, out: &mut Vec<u8>) {
    encode_plain(out, |w| (seq, *row).put(w));
}

/// Decode one journal row record — all of `bytes`.
pub fn decode_row_record(bytes: &[u8]) -> Result<(u64, LaneRow), CodecError> {
    decode_plain(bytes)
}

/// Append a full checkpoint's snapshot payload to `out`.
pub fn encode_checkpoint(ckpt: &StreamCheckpoint, out: &mut Vec<u8>) {
    encode_payload(ckpt, out);
}

/// Decode a full checkpoint's snapshot payload — all of `bytes`.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<StreamCheckpoint, CodecError> {
    decode_payload(bytes)
}

/// Append a delta's snapshot payload to `out`.
pub fn encode_delta(delta: &StreamDelta, out: &mut Vec<u8>) {
    encode_payload(delta, out);
}

/// Decode a delta's snapshot payload — all of `bytes`.
pub fn decode_delta(bytes: &[u8]) -> Result<StreamDelta, CodecError> {
    decode_payload(bytes)
}

/// Append a shard's flushed answer to `out`: its report as JSON in a
/// `str`, then its output's snapshot payload.
pub fn encode_flushed(answer: &WorkerOutput, out: &mut Vec<u8>) -> serde_json::Result<()> {
    put_str(out, &serde_json::to_string(&answer.report)?);
    encode_payload(&answer.output, out);
    Ok(())
}

/// Decode a shard's flushed answer — all of `bytes` — and derive what its
/// row does not store.
pub fn decode_flushed(bytes: &[u8]) -> Result<WorkerOutput, CodecError> {
    let mut cur = Cursor { bytes, pos: 0 };
    let report: PipelineReport =
        serde_json::from_str(cur.str()?).map_err(|e| CodecError::BadReport {
            detail: e.to_string(),
        })?;
    let mut output: StreamOutput = read_payload(cur)?;
    let (left, right) = (output.syslog_failures.len(), output.isis_failures.len());
    let recon = output.isis_recon.failures.len() + output.syslog_recon.failures.len();
    let mut pairs = output
        .matching
        .matched
        .iter()
        .chain(&output.matching.partial);
    if left + right > recon || pairs.any(|&(i, j)| i >= left || j >= right) {
        return Err(CodecError::Inconsistent);
    }
    output.derive();
    Ok(WorkerOutput { output, report })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syslog(kind: LinkEventKind) -> StreamEvent {
        StreamEvent::Syslog(SyslogMessage {
            seq: 287,
            event: LinkEvent {
                at: Timestamp::from_millis(15_153_123),
                host: "lax-agg-01".into(),
                interface: InterfaceName::ten_gig(3),
                kind,
                up: false,
            },
            os: RouterOs::IosXr,
        })
    }

    fn isis(subject: TransitionSubject) -> StreamEvent {
        StreamEvent::Isis(Transition {
            at: Timestamp::from_millis(15_153_999),
            source: SystemId::from_index(7),
            kind: ReachabilityKind::IsReach,
            subject,
            direction: TransitionDirection::Up,
        })
    }

    fn samples() -> Vec<StreamEvent> {
        vec![
            syslog(LinkEventKind::Link),
            syslog(LinkEventKind::LineProtocol),
            syslog(LinkEventKind::IsisAdjacency {
                neighbor: "sac-agg-01".into(),
                detail: AdjChangeDetail::HoldTimeExpired,
            }),
            isis(TransitionSubject::Adjacency {
                neighbor: SystemId::from_index(9),
            }),
            isis(TransitionSubject::Prefix {
                prefix: Ipv4Addr::new(10, 0, 3, 4),
                prefix_len: 31,
            }),
        ]
    }

    #[test]
    fn a_flushed_answer_that_contradicts_its_failure_lists_is_refused() {
        use faultline_sim::scenario::{run, ScenarioParams};
        let data = run(&ScenarioParams::tiny(7));
        let mut engine = crate::streaming::StreamAnalysis::new(&data, AnalysisConfig::default());
        engine.ingest_batch(&crate::streaming::scenario_event_stream(&data));
        let result = engine.flush();
        let answer = WorkerOutput {
            output: result.output,
            report: result.report,
        };
        let decode = |answer: &WorkerOutput| {
            let mut rows = Vec::new();
            encode_flushed(answer, &mut rows).unwrap();
            decode_flushed(&rows).map(drop)
        };
        decode(&answer).expect("a real answer decodes");
        // A pair naming a sanitized failure past the list, and sanitized
        // failures that no reconstructed failure accounts for: deriving
        // either would index past a list or underflow a count.
        let mut past_the_list = answer.clone();
        let left = past_the_list.output.syslog_failures.len();
        past_the_list.output.matching.matched.push((left, 0));
        let mut unaccounted = answer;
        unaccounted.output.syslog_recon.failures.clear();
        unaccounted.output.isis_recon.failures.clear();
        for forged in [past_the_list, unaccounted] {
            assert!(matches!(decode(&forged), Err(CodecError::Inconsistent)));
        }
    }

    #[test]
    fn a_run_round_trips_and_is_the_count_plus_its_events() {
        let events = samples();
        let mut run = Vec::new();
        encode_events(&events, &mut run);
        let mut back = Vec::new();
        decode_events(&run, &mut back).expect("an intact run decodes");
        assert_eq!(back, events);

        let mut singles = vec![events.len() as u8];
        for event in &events {
            let start = singles.len();
            encode_event(event, &mut singles);
            let (one, used) = decode_event(&singles[start..]).expect("single event decodes");
            assert_eq!(&one, event);
            assert_eq!(used, singles.len() - start);
        }
        assert_eq!(singles, run, "a run is its count followed by its events");
    }

    #[test]
    fn a_record_is_its_sequence_then_its_event() {
        for (seq, event) in samples().into_iter().enumerate() {
            let seq = 300 * seq as u64;
            let mut record = Vec::new();
            encode_record(seq, &event, &mut record);
            assert_eq!(decode_record(&record), Ok((seq, event.clone())));
            record.push(0);
            assert_eq!(
                decode_record(&record),
                Err(CodecError::TrailingBytes { extra: 1 })
            );
        }
    }

    #[test]
    fn the_shortest_event_is_min_event_len_bytes() {
        let empty = StreamEvent::Syslog(SyslogMessage {
            seq: 0,
            event: LinkEvent {
                at: Timestamp::EPOCH,
                host: "".into(),
                interface: InterfaceName::from(""),
                kind: LinkEventKind::Link,
                up: true,
            },
            os: RouterOs::Ios,
        });
        let mut buf = Vec::new();
        encode_event(&empty, &mut buf);
        assert_eq!(buf.len(), MIN_EVENT_LEN);
        for event in samples() {
            buf.clear();
            encode_event(&event, &mut buf);
            assert!(buf.len() >= MIN_EVENT_LEN);
        }
    }

    #[test]
    fn varints_cover_the_whole_u64_range_and_reject_overflow() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut cursor = Cursor {
                bytes: &buf,
                pos: 0,
            };
            assert_eq!(cursor.varint().unwrap(), v);
            assert_eq!(cursor.pos, buf.len());
        }
        // Eleven continuation bytes, and a tenth byte carrying more
        // than bit 63.
        for bad in [
            [0xFFu8; 11].as_slice(),
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02],
        ] {
            let mut cursor = Cursor { bytes: bad, pos: 0 };
            assert!(matches!(
                cursor.varint(),
                Err(CodecError::VarintOverflow { offset: 0 })
            ));
        }
    }

    #[test]
    fn damage_is_typed() {
        let mut run = Vec::new();
        encode_events(&samples(), &mut run);
        let mut out = Vec::new();

        let mut bad_tag = run.clone();
        bad_tag[1] = 0x7F;
        assert!(matches!(
            decode_events(&bad_tag, &mut out),
            Err(CodecError::BadTag {
                field: "event",
                found: 0x7F,
                offset: 1
            })
        ));

        let mut trailing = run.clone();
        trailing.push(0);
        assert!(matches!(
            decode_events(&trailing, &mut out),
            Err(CodecError::TrailingBytes { extra: 1 })
        ));

        assert!(matches!(
            decode_events(&run[..run.len() - 1], &mut out),
            Err(CodecError::Truncated { .. })
        ));

        // host = one byte that is not UTF-8.
        let bad_utf8 = [1, TAG_SYSLOG, 0, 0, 1, 0xFF, 0, FAMILY_LINK, 1, 0];
        assert!(matches!(
            decode_events(&bad_utf8, &mut out),
            Err(CodecError::BadUtf8 { offset: 4 })
        ));
    }

    fn message(at: u64, host: &str) -> ResolvedMessage {
        ResolvedMessage {
            at: Timestamp::from_millis(at),
            link: LinkIx(at as u32 % 3),
            direction: TransitionDirection::Down,
            family: MessageFamily::IsisAdjacency,
            host: Arc::from(host),
            detail: Some(AdjChangeDetail::InterfaceDown),
        }
    }

    #[test]
    fn each_host_is_spelled_once_and_shared_on_the_way_back() {
        let hosts = ["lax-agg-01", "sac-agg-01", "lax-agg-01", "lax-agg-01"];
        let messages: Vec<ResolvedMessage> = hosts
            .iter()
            .enumerate()
            .map(|(i, h)| message(1_000 * i as u64, h))
            .collect();
        let mut out = vec![0xAA];
        encode_payload(&messages, &mut out);
        assert_eq!(out[0], 0xAA, "the payload is appended");
        let payload = &out[1..];
        assert_eq!(
            &payload[..2],
            &[2, 10],
            "two hosts, the first ten bytes long"
        );
        assert_eq!(
            payload
                .windows(b"lax-agg-01".len())
                .filter(|w| w == b"lax-agg-01")
                .count(),
            1
        );
        let back: Vec<ResolvedMessage> = decode_payload(payload).unwrap();
        assert_eq!(back, messages);
        assert!(Arc::ptr_eq(&back[0].host, &back[3].host));
    }

    #[test]
    fn hostile_payloads_are_typed_errors() {
        let mut good = Vec::new();
        encode_payload(&vec![message(5, "a")], &mut good);
        // hosts: 1 "a"; messages: 1; at 5, link 2, down, adjacency,
        // host 0, detail Some(interface down).
        assert_eq!(good, [1, 1, b'a', 1, 5, 2, 0, 0, 0, 1, 2]);
        let decode = |bytes: &[u8]| decode_payload::<Vec<ResolvedMessage>>(bytes);
        assert!(decode(&good).is_ok());

        let mut index = good.clone();
        index[8] = 1;
        assert_eq!(
            decode(&index),
            Err(CodecError::BadReference {
                index: 1,
                len: 1,
                offset: 8
            })
        );
        let mut direction = good.clone();
        direction[6] = 2;
        assert!(matches!(
            decode(&direction),
            Err(CodecError::BadTag {
                field: "transition direction",
                found: 2,
                offset: 6
            })
        ));
        let mut link = good.clone();
        link.splice(5..6, [0x80, 0x80, 0x80, 0x80, 0x10]);
        assert!(matches!(
            decode(&link),
            Err(CodecError::OutOfRange {
                value: 0x1_0000_0000,
                offset: 5
            })
        ));
        let mut bomb = vec![0];
        put_varint(&mut bomb, 1 << 32);
        bomb.extend_from_slice(&[0; 10]);
        assert_eq!(
            decode(&bomb),
            Err(CodecError::CountExceedsInput {
                claimed: 1 << 32,
                max: 10 / ResolvedMessage::MIN_LEN
            })
        );
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(
            decode(&trailing),
            Err(CodecError::TrailingBytes { extra: 1 })
        );
        for cut in 0..good.len() {
            assert!(decode(&good[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn every_row_has_a_positive_minimum() {
        for min in [
            StreamCheckpoint::MIN_LEN,
            StreamDelta::MIN_LEN,
            crate::kernel::LinkLane::MIN_LEN,
            ResolvedMessage::MIN_LEN,
        ] {
            assert!(min >= 1);
        }
        assert_eq!(ResolvedMessage::MIN_LEN, 6);
        assert_eq!(Failure::MIN_LEN, 3);
    }
}
