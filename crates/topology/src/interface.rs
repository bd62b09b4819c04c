//! Interface naming.
//!
//! Syslog messages identify the local end of a link by interface name
//! (`%CLNS-5-ADJCHANGE: ISIS: Adjacency to ... (TenGigE0/1/0/3) Up`),
//! while IS-IS LSPs identify the remote end by system ID. The paper's
//! matching step (§3.4) joins the two through the interface-to-link map
//! recovered from router configs, so interface names must be stable,
//! unique per router, and parseable.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A Cisco-style interface name, e.g. `TenGigE0/1/0/3` or
/// `GigabitEthernet0/2`.
///
/// The text is a shared `Arc<str>`: a syslog event carries one, and the
/// event is copied at every hand-off (admission queue, shard partition,
/// scenario stream), so a clone is a refcount bump rather than an
/// allocation. It serializes, hashes and orders exactly as the `str`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct InterfaceName(pub Arc<str>);

impl InterfaceName {
    /// Generate the `slot`-th backbone-facing 10 GE interface name in IOS XR
    /// style. CENIC's backbone is 10 Gbit/s (§3.1).
    pub fn ten_gig(slot: u32) -> Self {
        InterfaceName(format!("TenGigE0/{}/0/{}", slot / 4, slot % 4).into())
    }

    /// Generate the `slot`-th customer-facing 1 GE interface name in classic
    /// IOS style.
    pub fn gig(slot: u32) -> Self {
        InterfaceName(format!("GigabitEthernet0/{}", slot).into())
    }

    /// The textual name as it appears in configs and syslog.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Abbreviated form used by some syslog messages (`Te0/1/0/3`,
    /// `Gi0/2`). The parser accepts both long and short forms.
    pub fn short(&self) -> String {
        if let Some(rest) = self.0.strip_prefix("TenGigE") {
            format!("Te{rest}")
        } else if let Some(rest) = self.0.strip_prefix("GigabitEthernet") {
            format!("Gi{rest}")
        } else {
            self.0.to_string()
        }
    }

    /// Expand a possibly abbreviated interface name to its long form.
    ///
    /// One allocation, the shared string itself: the long form is
    /// assembled on the stack, with no intermediate `String`, unless it
    /// is longer than any real interface name.
    pub fn expand(text: &str) -> InterfaceName {
        let [long, rest] = Self::expansion(text);
        let len = long.len() + rest.len();
        let mut buf = [0u8; 64];
        if long.is_empty() {
            return InterfaceName(text.into());
        } else if len > buf.len() {
            return InterfaceName([long, rest].concat().into());
        }
        buf[..long.len()].copy_from_slice(long.as_bytes());
        buf[long.len()..len].copy_from_slice(rest.as_bytes());
        let name = std::str::from_utf8(&buf[..len]).expect("two `str`s end to end are UTF-8");
        InterfaceName(name.into())
    }

    /// The long form of a possibly abbreviated interface name, as the
    /// long prefix (empty if `text` is not abbreviated) and the rest.
    pub(crate) fn expansion(text: &str) -> [&str; 2] {
        for (short, long) in [("Te", "TenGigE"), ("Gi", "GigabitEthernet")] {
            if let Some(rest) = text
                .strip_prefix(short)
                .filter(|r| r.starts_with(char::is_numeric))
            {
                return [long, rest];
            }
        }
        ["", text]
    }
}

impl fmt::Display for InterfaceName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for InterfaceName {
    fn from(s: &str) -> Self {
        InterfaceName(s.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_gig_layout() {
        assert_eq!(InterfaceName::ten_gig(0).as_str(), "TenGigE0/0/0/0");
        assert_eq!(InterfaceName::ten_gig(5).as_str(), "TenGigE0/1/0/1");
    }

    #[test]
    fn short_and_expand_round_trip() {
        for name in [InterfaceName::ten_gig(7), InterfaceName::gig(2)] {
            assert_eq!(InterfaceName::expand(&name.short()), name);
            assert_eq!(InterfaceName::expand(name.as_str()), name);
        }
    }

    #[test]
    fn expand_leaves_unknown_prefixes_alone() {
        assert_eq!(InterfaceName::expand("Loopback0").as_str(), "Loopback0");
        // "Test0" starts with "Te" but is followed by 's', not a digit.
        assert_eq!(InterfaceName::expand("Test0").as_str(), "Test0");
    }

    #[test]
    fn names_unique_across_slots() {
        use std::collections::HashSet;
        let names: HashSet<_> = (0..64).map(InterfaceName::ten_gig).collect();
        assert_eq!(names.len(), 64);
    }
}
