//! A counting global allocator for allocation-contract tests
//! (`alloc_contract.rs` here, `tests/json_read_alloc.rs` at the workspace
//! root, through `#[path]`). The including test binary installs it:
//! `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;`.
//!
//! It counts allocation calls and the bytes they ask for, and keeps a
//! running total of the bytes this thread holds live, with its high-water
//! mark. Counts are per thread, so the tests of one binary (libtest runs
//! them side by side) cannot leak into each other's measurement. A block
//! freed by another thread than the one that allocated it moves the
//! freeing thread's live total; a measurement whose layer hands blocks
//! across threads is therefore not exact, and callers leave it out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `alloc` + `realloc` calls made by this thread. Const-initialized
    /// and without a destructor, so touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for: an `alloc`'s size, a `realloc`'s new
    /// size (the block it hands back, whether moved or grown in place).
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated minus those it has freed: an
    /// `alloc` adds its size, a `dealloc` subtracts it, a `realloc` adds
    /// the new size and subtracts the old. Signed, since a thread may free
    /// what it did not allocate.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` has been since [`cost`] last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

pub struct CountingAlloc;

fn count_one(bytes: usize) {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those calls are nobody's measurement.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

fn live(delta: i64) {
    if let Ok(now) = LIVE.try_with(|n| {
        n.set(n.get() + delta);
        n.get()
    }) {
        let _ = PEAK.try_with(|p| p.set(p.get().max(now)));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are thread-local `Cell`s that never
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        live(layout.size() as i64);
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        live(new_size as i64 - layout.size() as i64);
        // SAFETY: as for `alloc`; `System` implements `realloc` itself.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What this thread's allocation calls cost over some span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// `alloc` + `realloc` calls.
    pub allocations: u64,
    /// Bytes they asked for.
    pub bytes: u64,
    /// The most bytes the span held live at once beyond what the thread
    /// held when it began: the live total's high-water mark above its
    /// level at entry.
    pub peak_live: u64,
    /// Live bytes at the end of the span minus those at its start: what
    /// the span kept (negative if it freed more than it allocated).
    pub retained: i64,
}

/// What this thread's allocation calls cost while `f` runs, and what `f`
/// returned (kept alive past the count, so dropping it is not part of it
/// either way, and it counts as retained).
pub fn cost<R>(f: impl FnOnce() -> R) -> (Cost, R) {
    let calls = || (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let (allocations, bytes) = calls();
    let entry = LIVE.with(Cell::get);
    // The high-water mark restarts at the entry level, and the enclosing
    // span's mark is restored on exit, raised by this span's.
    let outer_peak = PEAK.with(|p| p.replace(entry));
    let out = f();
    let exit = LIVE.with(Cell::get);
    let peak = PEAK.with(|p| p.replace(outer_peak.max(p.get())));
    let now = calls();
    let spent = Cost {
        allocations: now.0 - allocations,
        bytes: now.1 - bytes,
        peak_live: (peak - entry) as u64,
        retained: exit - entry,
    };
    (spent, out)
}

/// Allocations this thread makes while `f` runs, and what `f` returned
/// (as for [`cost`]).
pub fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let (spent, out) = cost(f);
    (spent.allocations, out)
}
