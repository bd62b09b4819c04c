//! String interning for the hot path.
//!
//! The classify stage touches a router hostname and an interface name for
//! every one of the archive's ~171k events. Keying the resolution maps on
//! owned `String` pairs costs two heap allocations *per lookup*; at
//! paper scale that is the single largest slice of ingest time. This
//! module replaces those keys with dense `u32` [`Sym`] ids handed out by
//! a [`SymbolTable`]:
//!
//! - **Interning is deterministic.** [`crate::linktable::from_scenario`]
//!   interns link endpoints in inventory order, then hostnames in
//!   system-ID order, so the same scenario always produces the same id
//!   assignment — a property the checkpoint/restore round-trip tests
//!   rely on (ids are *rebuilt*, not persisted, and must come out
//!   identical).
//! - **Lookups are allocation-free.** `SymbolTable::lookup` takes `&str`
//!   and borrows into the index; no `String` is built to ask a question.
//! - **Resolved strings are shared.** [`SymbolTable::shared`] returns an
//!   `Arc<str>` clone (a refcount bump), which is how
//!   `ResolvedMessage.host` avoids one owned-`String` clone per resolved
//!   message while serializing byte-identically to the old `String`
//!   field.
//!
//! The module also provides [`FastHasher`], a word-at-a-time hasher for
//! the small keys (`Sym` pairs, system IDs, /31s, link indices, interned
//! strings) that dominate the hot path, where SipHash's per-call setup is
//! measurable. It is *not* DoS-resistant and must only be used for keys
//! derived from trusted scenario data, never for attacker-controlled
//! input.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// An interned string id: a dense index into its [`SymbolTable`].
///
/// `Sym` is `Copy`, 4 bytes, and hashes/compares as a plain integer —
/// the whole point of interning. Ids are only meaningful relative to the
/// table that produced them, and are rebuilt, never persisted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

impl Sym {
    /// The id as a dense `usize` index (for parallel `Vec`s).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only string interner mapping strings to dense [`Sym`] ids.
///
/// Ids are assigned in first-intern order starting at 0 and never
/// change, so a table built by replaying the same inputs in the same
/// order is identical — including across
/// [`StreamAnalysis::restore`](crate::streaming::StreamAnalysis::restore),
/// which rebuilds the table from the scenario rather than persisting it.
///
/// # Examples
///
/// ```
/// use faultline_core::intern::SymbolTable;
///
/// let mut t = SymbolTable::new();
/// let lax = t.intern("lax-core-1");
/// let sac = t.intern("sac-agg-2");
/// assert_ne!(lax, sac);
/// // Interning is idempotent and lookup never allocates.
/// assert_eq!(t.intern("lax-core-1"), lax);
/// assert_eq!(t.lookup("lax-core-1"), Some(lax));
/// assert_eq!(t.lookup("missing"), None);
/// assert_eq!(t.resolve(sac), "sac-agg-2");
/// assert_eq!(t.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    /// Interned strings in id order; `syms[sym.index()]` resolves a sym.
    syms: Vec<Arc<str>>,
    /// Reverse index. Shares the `Arc` allocations with `syms`.
    index: HashMap<Arc<str>, u32, FastBuildHasher>,
}

impl SymbolTable {
    /// An empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Intern a string, returning its stable id. Repeated calls with the
    /// same string return the same id; a new string gets the next dense
    /// id and allocates exactly one shared copy.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&id) = self.index.get(s) {
            return Sym(id);
        }
        let id = u32::try_from(self.syms.len()).expect("symbol table overflow");
        let shared: Arc<str> = Arc::from(s);
        self.syms.push(shared.clone());
        self.index.insert(shared, id);
        Sym(id)
    }

    /// Look up an already-interned string without allocating. Returns
    /// `None` for strings never interned.
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        self.index.get(s).map(|&id| Sym(id))
    }

    /// Resolve an id back to its string.
    ///
    /// # Panics
    ///
    /// Panics if `sym` did not come from this table.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.syms[sym.index()]
    }

    /// A shared handle to the interned string — a refcount bump, not a
    /// copy. This is what hot-path consumers store.
    ///
    /// # Panics
    ///
    /// Panics if `sym` did not come from this table.
    pub fn shared(&self, sym: Sym) -> Arc<str> {
        Arc::clone(&self.syms[sym.index()])
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// All interned strings in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> + '_ {
        self.syms
            .iter()
            .enumerate()
            .map(|(i, s)| (Sym(i as u32), s.as_ref()))
    }
}

impl PartialEq for SymbolTable {
    fn eq(&self, other: &Self) -> bool {
        self.syms == other.syms
    }
}

impl Eq for SymbolTable {}

/// A hasher for small trusted keys (interned ids, system IDs, /31s, link
/// indices, interned strings): each 8-byte little-endian word is folded
/// in with one rotate, xor and multiply, and [`Hasher::finish`]
/// avalanches the state (fold, multiply, xorshift) so that both the low
/// bits a `HashMap` picks its bucket with and the top seven it tags the
/// bucket with depend on every input bit. Several times cheaper than the
/// default SipHash for the 4–16 byte keys the kernel routes on, at the
/// cost of having no DoS resistance — do not use it for
/// attacker-controlled keys.
///
/// # Examples
///
/// ```
/// use faultline_core::intern::{FastMap, Sym};
///
/// let mut m: FastMap<(Sym, Sym), u32> = FastMap::default();
/// m.insert((Sym(0), Sym(1)), 42);
/// assert_eq!(m[&(Sym(0), Sym(1))], 42);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FastHasher(u64);

/// 2^64 / φ, odd: the multiplier of both the fold and the finish.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 32)).wrapping_mul(K);
        h ^ (h >> 29)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(26) ^ i).wrapping_mul(K);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `BuildHasher` for [`FastHasher`], usable as a `HashMap` hasher
/// parameter.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed with [`FastHasher`] — the kernel's standard map for
/// id-keyed routing state.
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut t = SymbolTable::new();
        let ids: Vec<Sym> = ["a", "b", "c", "b", "a"]
            .iter()
            .map(|s| t.intern(s))
            .collect();
        assert_eq!(ids, vec![Sym(0), Sym(1), Sym(2), Sym(1), Sym(0)]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn lookup_matches_intern_without_allocating_new_ids() {
        let mut t = SymbolTable::new();
        let a = t.intern("alpha");
        assert_eq!(t.lookup("alpha"), Some(a));
        assert_eq!(t.lookup("beta"), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn shared_handles_point_at_the_same_allocation() {
        let mut t = SymbolTable::new();
        let a = t.intern("router-1");
        assert!(Arc::ptr_eq(&t.shared(a), &t.shared(a)));
        assert_eq!(&*t.shared(a), "router-1");
    }

    /// Every `FastMap` key family of the `wide` topology spreads over a
    /// map sized for it the way the standard `HashMap` sizes one: at
    /// least 100 of the 128 seven-bit tags in use, and no window of 16
    /// buckets (one probe group) holding more than 32 keys.
    #[test]
    fn fast_hasher_spreads_the_naming_layers_keys() {
        use crate::linktable::LinkIx;
        use faultline_sim::scenario::ScenarioParams;
        use std::collections::HashSet;
        use std::hash::{BuildHasher, Hash};

        fn spread<K: Hash>(family: &str, keys: &[K]) {
            let n = keys.len();
            let buckets = if n < 8 {
                8
            } else {
                (n * 8 / 7).next_power_of_two()
            };
            let hashes: Vec<u64> = keys
                .iter()
                .map(|k| FastBuildHasher::default().hash_one(k))
                .collect();
            let tags: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert!(
                tags.len() >= 100,
                "{family}: {n} keys use {} of 128 tags",
                tags.len()
            );
            let mut load = vec![0usize; buckets];
            for h in &hashes {
                load[*h as usize & (buckets - 1)] += 1;
            }
            let mut window: usize = load[buckets - 16..].iter().sum();
            let mut worst = window;
            for b in 0..buckets {
                window = window + load[b] - load[(b + buckets - 16) % buckets];
                worst = worst.max(window);
            }
            assert!(
                worst <= 32,
                "{family}: {worst} of {n} keys in one 16-bucket window of {buckets}"
            );
        }

        let topo = ScenarioParams::sized(42, 10.0, 1.0).topology.generate();
        let links = topo.links();
        let subnets: Vec<_> = links.iter().map(|l| l.subnet).collect();
        let ixs: Vec<LinkIx> = (0..links.len() as u32).map(LinkIx).collect();
        let mut symbols = SymbolTable::new();
        let mut ends = Vec::with_capacity(2 * links.len());
        for l in links {
            for ep in [&l.a, &l.b] {
                let host = symbols.intern(&topo.router(ep.router).hostname);
                ends.push((host, symbols.intern(ep.interface.as_str())));
            }
        }
        let sysids: Vec<_> = topo.routers().iter().map(|r| r.system_id).collect();
        spread("Subnet31", &subnets);
        spread("LinkIx", &ixs);
        spread("(Sym, Sym)", &ends);
        spread("SystemId", &sysids);
    }

    #[test]
    fn fast_hasher_distinguishes_tuple_order() {
        use std::hash::BuildHasher;
        let bh = FastBuildHasher::default();
        let hash = |k: &(Sym, Sym)| bh.hash_one(k);
        assert_ne!(hash(&(Sym(1), Sym(2))), hash(&(Sym(2), Sym(1))));
    }
}
