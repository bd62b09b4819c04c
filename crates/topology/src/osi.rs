//! OSI addressing primitives used by IS-IS.
//!
//! IS-IS identifies each intermediate system (router) by a 6-byte *system
//! ID*, conventionally printed as three dot-separated groups of four hex
//! digits (`0100.0000.002a`). The full *Network Entity Title* (NET) wraps
//! the system ID in an area prefix and a zero NSAP selector, e.g.
//! `49.0001.0100.0000.002a.00`. The paper's listener keys all link-state
//! bookkeeping by system ID and learns the human-readable hostname from the
//! Dynamic Hostname TLV; the syslog pipeline knows only hostnames. Bridging
//! the two naming conventions (§3.4) is a core step of the methodology, so
//! these types implement both directions of the textual encoding.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A 6-byte IS-IS system identifier.
///
/// Serialized (serde) in its dotted-hex display form so it can key JSON
/// maps in scenario archives.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SystemId(pub [u8; 6]);

impl Serialize for SystemId {
    fn serialize<S: serde::Serializer + ?Sized>(&self, s: &mut S) {
        s.str(&self.to_string())
    }
}

impl Deserialize for SystemId {
    fn deserialize<D: serde::Deserializer + ?Sized>(d: &mut D) -> Result<Self, serde::Error> {
        d.str()?
            .parse()
            .map_err(|e: ParseOsiError| serde::Error::custom(e.to_string()))
    }
}

impl SystemId {
    /// Number of bytes in a system ID.
    pub const LEN: usize = 6;

    /// Derive a system ID from a small router index, using the CENIC-style
    /// private numbering plan `0100.0000.<index>`.
    pub fn from_index(index: u32) -> Self {
        let mut b = [0u8; 6];
        b[0] = 0x01;
        b[2..6].copy_from_slice(&index.to_be_bytes());
        // Keep byte 1 zero: `0100.00xx.xxxx` stays readable and unique for
        // any index that fits in 32 bits.
        SystemId(b)
    }

    /// Recover the router index assigned by [`SystemId::from_index`].
    pub fn index(&self) -> u32 {
        u32::from_be_bytes([self.0[2], self.0[3], self.0[4], self.0[5]])
    }

    /// Raw bytes.
    pub const fn as_bytes(&self) -> &[u8; 6] {
        &self.0
    }
}

impl fmt::Display for SystemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = &self.0;
        write!(
            f,
            "{:02x}{:02x}.{:02x}{:02x}.{:02x}{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

impl fmt::Debug for SystemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SystemId({self})")
    }
}

/// Error parsing a [`SystemId`] or [`Net`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOsiError {
    /// Human-readable description of what was malformed.
    pub reason: &'static str,
}

impl fmt::Display for ParseOsiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid OSI address: {}", self.reason)
    }
}

impl std::error::Error for ParseOsiError {}

impl FromStr for SystemId {
    type Err = ParseOsiError;

    /// Parses `xxxx.xxxx.xxxx` (dot-separated hex quartets).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.split('.').count() != 3 {
            return Err(ParseOsiError {
                reason: "expected three dot-separated groups",
            });
        }
        let mut bytes = [0u8; 6];
        for (i, part) in s.split('.').enumerate() {
            if part.len() != 4 {
                return Err(ParseOsiError {
                    reason: "each group must be four hex digits",
                });
            }
            let v = u16::from_str_radix(part, 16).map_err(|_| ParseOsiError {
                reason: "non-hex digit in group",
            })?;
            bytes[i * 2] = (v >> 8) as u8;
            bytes[i * 2 + 1] = (v & 0xff) as u8;
        }
        Ok(SystemId(bytes))
    }
}

/// A Network Entity Title: area prefix + system ID + NSAP selector (0x00).
///
/// CENIC runs a single IS-IS area, so the generator emits a constant
/// area (`49.0001`) for every router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Net {
    /// AFI byte; `0x49` is the private address family used in most IGPs.
    pub afi: u8,
    /// Two-byte area identifier.
    pub area: u16,
    /// System ID of the router.
    pub system_id: SystemId,
}

impl Net {
    /// The single IS-IS area used by the generated CENIC-like network.
    pub const CENIC_AREA: u16 = 0x0001;

    /// Construct a NET in the default private area.
    pub fn new(system_id: SystemId) -> Self {
        Net {
            afi: 0x49,
            area: Self::CENIC_AREA,
            system_id,
        }
    }

    /// Area bytes as they appear in the Area Addresses TLV (AFI + area).
    pub fn area_bytes(&self) -> [u8; 3] {
        [self.afi, (self.area >> 8) as u8, (self.area & 0xff) as u8]
    }
}

impl fmt::Display for Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}.{:04x}.{}.00",
            self.afi, self.area, self.system_id
        )
    }
}

impl FromStr for Net {
    type Err = ParseOsiError;

    /// Parses `49.0001.xxxx.xxxx.xxxx.00`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = [""; 6];
        let mut n = 0;
        for part in s.split('.') {
            if let Some(slot) = parts.get_mut(n) {
                *slot = part;
            }
            n += 1;
        }
        if n != 6 {
            return Err(ParseOsiError {
                reason: "expected six dot-separated groups",
            });
        }
        let afi = u8::from_str_radix(parts[0], 16).map_err(|_| ParseOsiError {
            reason: "bad AFI byte",
        })?;
        let area =
            u16::from_str_radix(parts[1], 16).map_err(|_| ParseOsiError { reason: "bad area" })?;
        if parts[5] != "00" {
            return Err(ParseOsiError {
                reason: "NSAP selector must be 00",
            });
        }
        // The three middle groups, dots included: `s` less the first two
        // groups, their dots, and the trailing `.00`.
        let sysid: SystemId = s[parts[0].len() + parts[1].len() + 2..s.len() - 3].parse()?;
        Ok(Net {
            afi,
            area,
            system_id: sysid,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_id_display_round_trips() {
        let id = SystemId::from_index(0x2a);
        let text = id.to_string();
        assert_eq!(text, "0100.0000.002a");
        assert_eq!(text.parse::<SystemId>().unwrap(), id);
    }

    #[test]
    fn system_id_index_round_trips() {
        for idx in [0u32, 1, 59, 234, 65_535, u32::MAX] {
            assert_eq!(SystemId::from_index(idx).index(), idx);
        }
    }

    #[test]
    fn system_id_rejects_malformed() {
        assert!("0100.0000".parse::<SystemId>().is_err());
        assert!("0100.0000.00".parse::<SystemId>().is_err());
        assert!("01zz.0000.002a".parse::<SystemId>().is_err());
        assert!("0100.0000.002a.00".parse::<SystemId>().is_err());
    }

    #[test]
    fn net_display_round_trips() {
        let net = Net::new(SystemId::from_index(7));
        let text = net.to_string();
        assert_eq!(text, "49.0001.0100.0000.0007.00");
        assert_eq!(text.parse::<Net>().unwrap(), net);
    }

    #[test]
    fn net_rejects_bad_selector() {
        assert!("49.0001.0100.0000.0007.01".parse::<Net>().is_err());
    }

    #[test]
    fn area_bytes_layout() {
        let net = Net::new(SystemId::from_index(1));
        assert_eq!(net.area_bytes(), [0x49, 0x00, 0x01]);
    }

    #[test]
    fn system_ids_are_unique_per_index() {
        use std::collections::HashSet;
        let ids: HashSet<_> = (0..1000).map(SystemId::from_index).collect();
        assert_eq!(ids.len(), 1000);
    }
}
