//! The one integrity envelope: magic, version, length, FNV-1a and a kind
//! byte around a payload — the only header reader and writer in the
//! crate.
//!
//! Three formats wear it, each with its own [`Format`] (magic, version,
//! length cap, accepted kinds): the shard frame ([`crate::transport`]),
//! one journal record, and a snapshot file ([`crate::recovery`]).
//! `scripts/check_envelope_single_source.sh` fails CI if a header is
//! hashed, assembled or parsed anywhere else.
//!
//! # Layout
//!
//! ```text
//! offset  size  field
//!      0     4  magic (the format's own)
//!      4     2  version, u16 LE
//!      6     4  payload length n, u32 LE
//!     10     8  FNV-1a 64 of bytes 18..19+n (kind + payload), u64 LE
//!     18     1  payload kind
//!     19     n  payload
//! ```
//!
//! Writing is one buffer and one `write_all`: [`Format::open`] lays down
//! the header, the caller appends the payload, [`Format::seal`] patches
//! length and hash. Reading ([`Format::read`]) is total — the payload or
//! one typed [`FrameError`] — and a header that lies about its length
//! costs only the bytes that actually arrive.

use crate::error::FrameError;
use std::io::Read;

/// Header size: magic + version + payload length + hash + kind.
pub const HEADER_LEN: usize = 4 + 2 + 4 + 8 + 1;

/// Offset of the kind byte, where the hashed part starts.
const KIND_AT: usize = HEADER_LEN - 1;

/// Most a reader reserves on a header's word before the bytes arrive.
const RESERVE_MAX: usize = 1 << 20;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 of `bytes`, continuing from `h` — the envelope's integrity
/// hash (fast, dependency-free and the same on every platform;
/// corruption detection, not cryptography).
fn fnv1a64_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64 of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(FNV_BASIS, bytes)
}

/// One envelope user's identity and limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// The four bytes every envelope of this format starts with.
    pub magic: [u8; 4],
    /// The version this build writes and reads.
    pub version: u16,
    /// Largest payload accepted on either side, in bytes.
    pub max_len: u32,
    /// The kind bytes this format defines.
    pub kinds: &'static [u8],
}

/// A validated envelope header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// The payload kind.
    pub kind: u8,
    /// Payload length in bytes.
    pub len: usize,
    /// The stored hash over the kind byte and the payload.
    pub fnv: u64,
}

impl Format {
    fn bounded(&self, len: u64) -> Result<u32, FrameError> {
        if len > u64::from(self.max_len) {
            return Err(FrameError::TooLarge {
                len,
                max: u64::from(self.max_len),
            });
        }
        Ok(len as u32)
    }

    /// Start an envelope of `kind` in `buf` (cleared first): the header,
    /// with length and hash left for [`Format::seal`]. Append the payload
    /// after it.
    pub fn open(&self, buf: &mut Vec<u8>, kind: u8) {
        buf.clear();
        buf.extend_from_slice(&self.magic);
        buf.extend_from_slice(&self.version.to_le_bytes());
        buf.extend_from_slice(&[0; 4 + 8]);
        buf.push(kind);
    }

    /// Finish the envelope [`Format::open`] started in `buf`: patch in
    /// the payload length and the hash, which is returned. A payload over
    /// the format's cap is [`FrameError::TooLarge`].
    pub fn seal(&self, buf: &mut [u8]) -> Result<u64, FrameError> {
        let len = self.bounded(buf.len().saturating_sub(HEADER_LEN) as u64)?;
        let Some((head, hashed)) = buf.split_at_mut_checked(KIND_AT) else {
            return Err(FrameError::Torn {
                expected: HEADER_LEN,
                got: buf.len(),
            });
        };
        let fnv = fnv1a64(hashed);
        head[6..10].copy_from_slice(&len.to_le_bytes());
        head[10..].copy_from_slice(&fnv.to_le_bytes());
        Ok(fnv)
    }

    /// Read and validate one header from `r`, through `scratch`. EOF
    /// before the first byte is [`FrameError::Closed`]; EOF inside the
    /// header is [`FrameError::Torn`]. The hash is not checked here —
    /// there is no payload yet — so this is a peek, not a verdict.
    pub fn read_header<R: Read + ?Sized>(
        &self,
        r: &mut R,
        scratch: &mut Vec<u8>,
    ) -> Result<Header, FrameError> {
        scratch.clear();
        (&mut *r).take(HEADER_LEN as u64).read_to_end(scratch)?;
        let Ok(header) = <[u8; HEADER_LEN]>::try_from(scratch.as_slice()) else {
            return Err(match scratch.len() {
                0 => FrameError::Closed,
                got => FrameError::Torn {
                    expected: HEADER_LEN,
                    got,
                },
            });
        };
        let [m0, m1, m2, m3, v0, v1, l0, l1, l2, l3, h0, h1, h2, h3, h4, h5, h6, h7, kind] = header;
        let magic = [m0, m1, m2, m3];
        if magic != self.magic {
            return Err(FrameError::BadMagic { found: magic });
        }
        let version = u16::from_le_bytes([v0, v1]);
        if version != self.version {
            return Err(FrameError::UnsupportedVersion {
                found: version,
                expected: self.version,
            });
        }
        let len = self.bounded(u64::from(u32::from_le_bytes([l0, l1, l2, l3])))?;
        if !self.kinds.contains(&kind) {
            return Err(FrameError::UnknownKind { found: kind });
        }
        Ok(Header {
            kind,
            len: len as usize,
            fnv: u64::from_le_bytes([h0, h1, h2, h3, h4, h5, h6, h7]),
        })
    }

    /// Read one whole envelope from `r`: its payload lands in `body`
    /// (cleared first; reuse it and a steady stream of envelopes
    /// allocates nothing), its validated header is returned.
    pub fn read<R: Read + ?Sized>(
        &self,
        r: &mut R,
        body: &mut Vec<u8>,
    ) -> Result<Header, FrameError> {
        let header = self.read_header(r, body)?;
        body.clear();
        body.reserve(header.len.min(RESERVE_MAX)); // bounded: the header may lie
        r.take(header.len as u64).read_to_end(body)?;
        if body.len() < header.len {
            return Err(FrameError::Torn {
                expected: header.len,
                got: body.len(),
            });
        }
        let found = fnv1a64_from(fnv1a64(&[header.kind]), body);
        if found != header.fnv {
            return Err(FrameError::HashMismatch {
                expected: header.fnv,
                found,
            });
        }
        Ok(header)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST: Format = Format {
        magic: *b"TEST",
        version: 3,
        max_len: 64,
        kinds: &[1, 2],
    };

    fn sealed(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        TEST.open(&mut buf, kind);
        buf.extend_from_slice(payload);
        TEST.seal(&mut buf).unwrap();
        buf
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a64_from(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }

    #[test]
    fn an_envelope_round_trips_and_is_self_delimiting() {
        let mut stream = sealed(1, b"hello");
        stream.extend_from_slice(&sealed(2, b""));
        let mut r = stream.as_slice();
        let mut body = Vec::new();
        let first = TEST.read(&mut r, &mut body).unwrap();
        assert_eq!(
            (first.kind, first.len, body.as_slice()),
            (1, 5, &b"hello"[..])
        );
        let second = TEST.read(&mut r, &mut body).unwrap();
        assert_eq!((second.kind, second.len), (2, 0));
        assert!(matches!(
            TEST.read(&mut r, &mut body),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn every_field_has_its_own_error() {
        let good = sealed(1, b"payload");
        let mut body = Vec::new();
        let mut read = |bytes: &[u8]| TEST.read(&mut &bytes[..], &mut body);
        for cut in 1..good.len() {
            assert!(matches!(read(&good[..cut]), Err(FrameError::Torn { .. })));
        }
        let damaged = |at: usize, v: u8| {
            let mut b = good.clone();
            b[at] = v;
            b
        };
        assert!(matches!(
            read(&damaged(0, b'X')),
            Err(FrameError::BadMagic { .. })
        ));
        assert!(matches!(
            read(&damaged(4, 9)),
            Err(FrameError::UnsupportedVersion {
                found: 9,
                expected: 3
            })
        ));
        assert!(matches!(
            read(&damaged(6, 65)),
            Err(FrameError::TooLarge { len: 65, max: 64 })
        ));
        assert!(matches!(
            read(&damaged(KIND_AT, 7)),
            Err(FrameError::UnknownKind { found: 7 })
        ));
        assert!(matches!(
            read(&damaged(KIND_AT, 2)),
            Err(FrameError::HashMismatch { .. })
        ));
        let last = good.len() - 1;
        assert!(matches!(
            read(&damaged(last, good[last] ^ 1)),
            Err(FrameError::HashMismatch { .. })
        ));
    }

    #[test]
    fn the_writer_honours_the_cap() {
        let mut buf = Vec::new();
        TEST.open(&mut buf, 1);
        buf.extend_from_slice(&[0; 64]);
        assert!(TEST.seal(&mut buf).is_ok());
        buf.push(0);
        assert!(matches!(
            TEST.seal(&mut buf),
            Err(FrameError::TooLarge { len: 65, max: 64 })
        ));
    }
}
