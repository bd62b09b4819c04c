//! Spans and allocation counts, recorded from outside the program: a span
//! goes around a call to a public function, never inside one.
//!
//! Spans stay in memory and are written out once, after the last
//! measurement. With the tracer off, `enter`/`exit` are one branch each,
//! so the untraced run pays nothing it could notice.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A counting wrapper around the system allocator. Only the traced
/// binary installs it (`src/bin/traced.rs`); the untraced binary keeps
/// the allocator users get.
pub struct CountingAlloc {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl CountingAlloc {
    /// A zeroed counter, for a `#[global_allocator]` static.
    pub const fn new() -> Self {
        CountingAlloc {
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// `(allocations, bytes requested)` so far, over all threads.
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.allocs.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the two relaxed counters are statistics that
// publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`; `System` implements `realloc` itself.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// One timed call (or group of calls) into a layer.
pub struct Span {
    /// The layer entered — a module name such as `core.recovery`, plus
    /// the call where a layer has several.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which pass of the run the span belongs to; spans of one pass share it.
    pub pass: u32,
    /// Allocations made while the span was open (0 without the counter).
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; `None` while tracing is off.
pub type SpanId = Option<usize>;

pub struct Tracer {
    on: bool,
    epoch: Instant,
    alloc: Option<&'static CountingAlloc>,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            alloc: None,
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// A recording tracer. Room for the spans of many passes is reserved
    /// up front so the span vector does not reallocate inside a timed call.
    pub fn on(alloc: Option<&'static CountingAlloc>) -> Self {
        Tracer {
            on: true,
            alloc,
            spans: Vec::with_capacity(1 << 17),
            open: Vec::with_capacity(8),
            ..Tracer::off()
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Start a new pass; returns its id.
    pub fn next_pass(&mut self) -> u32 {
        self.pass += 1;
        self.pass
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let (allocs, alloc_bytes) = self.alloc.map_or((0, 0), CountingAlloc::snapshot);
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
            allocs,
            alloc_bytes,
        });
        self.open.push(self.spans.len() - 1);
        Some(self.spans.len() - 1)
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let (allocs, alloc_bytes) = self.alloc.map_or((0, 0), CountingAlloc::snapshot);
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
        span.alloc_bytes = alloc_bytes - span.alloc_bytes;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Every span of `pass` named `name`.
    pub fn named(&self, pass: u32, name: &'static str) -> impl Iterator<Item = &Span> {
        self.spans
            .iter()
            .filter(move |s| s.pass == pass && s.name == name)
    }

    /// Summed duration of the spans of `pass` named `name`.
    pub fn total_ns(&self, pass: u32, name: &'static str) -> u64 {
        self.named(pass, name).map(Span::ns).sum()
    }

    /// Self time per span name over the given passes: a span's duration
    /// minus what its direct children cover.
    pub fn self_ns_by_name(&self, passes: &[u32]) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut by_name = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if passes.contains(&s.pass) {
                *by_name.entry(s.name).or_insert(0) += s.ns() - child_ns[i].min(s.ns());
            }
        }
        by_name
    }

    /// The spans as a JSON array, one object per span.
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"pass\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
                s.name, s.pass, s.start_ns, s.end_ns, s.allocs, s.alloc_bytes
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]");
        out
    }
}
