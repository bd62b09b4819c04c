//! The binary event codec: the one place that knows the byte layout of
//! a [`StreamEvent`].
//!
//! The shard wire ([`crate::transport`]) carries every
//! [`crate::transport::ShardMsg::Events`] batch as one *run* in this
//! layout, and the write-ahead journal ([`crate::recovery`]) stores each
//! event as one *record*; `scripts/check_codec_single_source.sh` fails
//! CI if the tag constants or the encode/decode functions appear in any
//! other module. The codec does no framing and no integrity hashing of
//! its own — the [`crate::envelope`] around it owns length and FNV.
//!
//! # Layout
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
//! over from an earlier run, so a respawned or resharded worker can
//! decode whichever frame it sees first. Decoding is **total**: every
//! malformed input is a typed [`CodecError`], never a panic, and nothing
//! is allocated on the word of a length or count the remaining input
//! could not possibly back.

use crate::error::CodecError;
use crate::streaming::StreamEvent;
use faultline_isis::listener::{
    ReachabilityKind, Transition, TransitionDirection, TransitionSubject,
};
use faultline_syslog::message::{AdjChangeDetail, LinkEvent, LinkEventKind, SyslogMessage};
use faultline_topology::interface::InterfaceName;
use faultline_topology::osi::SystemId;
use faultline_topology::router::RouterOs;
use faultline_topology::time::Timestamp;
use std::net::Ipv4Addr;

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
                    out.push(match detail {
                        AdjChangeDetail::NewAdjacency => 0,
                        AdjChangeDetail::HoldTimeExpired => 1,
                        AdjChangeDetail::InterfaceDown => 2,
                        AdjChangeDetail::AdjacencyReset => 3,
                        AdjChangeDetail::Other => 4,
                    });
                }
                LinkEventKind::Link => out.push(FAMILY_LINK),
                LinkEventKind::LineProtocol => out.push(FAMILY_LINEPROTO),
            }
            out.push(u8::from(m.event.up));
            out.push(match m.os {
                RouterOs::Ios => 0,
                RouterOs::IosXr => 1,
            });
        }
        StreamEvent::Isis(t) => {
            out.push(TAG_ISIS);
            put_varint(out, t.at.as_millis());
            out.extend_from_slice(&t.source.0);
            out.push(match t.kind {
                ReachabilityKind::IsReach => 0,
                ReachabilityKind::IpReach => 1,
            });
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
            out.push(match t.direction {
                TransitionDirection::Down => 0,
                TransitionDirection::Up => 1,
            });
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

    fn string(&mut self) -> Result<String, CodecError> {
        let offset = self.pos;
        let len = self.varint()?;
        // A length no input could back fails here, before any allocation.
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        let bytes = self.take(len)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(CodecError::BadUtf8 { offset }),
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
                        detail: match self.byte()? {
                            0 => AdjChangeDetail::NewAdjacency,
                            1 => AdjChangeDetail::HoldTimeExpired,
                            2 => AdjChangeDetail::InterfaceDown,
                            3 => AdjChangeDetail::AdjacencyReset,
                            4 => AdjChangeDetail::Other,
                            found => return Err(self.bad_tag("adjacency detail", found)),
                        },
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
                let os = match self.byte()? {
                    0 => RouterOs::Ios,
                    1 => RouterOs::IosXr,
                    found => return Err(self.bad_tag("router os", found)),
                };
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
                let kind = match self.byte()? {
                    0 => ReachabilityKind::IsReach,
                    1 => ReachabilityKind::IpReach,
                    found => return Err(self.bad_tag("reachability kind", found)),
                };
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
                let direction = match self.byte()? {
                    0 => TransitionDirection::Down,
                    1 => TransitionDirection::Up,
                    found => return Err(self.bad_tag("transition direction", found)),
                };
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
    match bytes.len() - cursor.pos {
        0 => Ok((seq, event)),
        extra => Err(CodecError::TrailingBytes { extra }),
    }
}

/// Decode one run — all of `bytes` — appending its events to `out`. On
/// error `out` keeps whatever decoded before the damage; callers that
/// care truncate it back.
pub fn decode_events(bytes: &[u8], out: &mut Vec<StreamEvent>) -> Result<(), CodecError> {
    let mut cursor = Cursor { bytes, pos: 0 };
    let claimed = cursor.varint()?;
    let max = (bytes.len() - cursor.pos) / MIN_EVENT_LEN;
    if claimed > max as u64 {
        return Err(CodecError::CountExceedsInput { claimed, max });
    }
    out.reserve(claimed as usize);
    for _ in 0..claimed {
        out.push(cursor.event()?);
    }
    match bytes.len() - cursor.pos {
        0 => Ok(()),
        extra => Err(CodecError::TrailingBytes { extra }),
    }
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
                host: String::new(),
                interface: InterfaceName(String::new()),
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
}
