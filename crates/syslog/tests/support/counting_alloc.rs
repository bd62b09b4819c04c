//! A counting global allocator for allocation-contract tests
//! (`alloc_contract.rs` here, `tests/json_read_alloc.rs` at the workspace
//! root, through `#[path]`). The including test binary installs it:
//! `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;`.
//!
//! It counts allocation calls and the bytes they ask for. Counts are per
//! thread, so the tests of one binary (libtest runs them side by side)
//! cannot leak into each other's measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `alloc` + `realloc` calls made by this thread. Const-initialized
    /// and without a destructor, so touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for: an `alloc`'s size, a `realloc`'s new
    /// size (the block it hands back, whether moved or grown in place).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

pub struct CountingAlloc;

fn count_one(bytes: usize) {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those calls are nobody's measurement.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are thread-local `Cell`s that never
// allocate and are not touched by `dealloc`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
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
}

/// What this thread's allocation calls cost while `f` runs, and what `f`
/// returned (kept alive past the count, so dropping it is not part of it
/// either way — frees are not counted).
pub fn cost<R>(f: impl FnOnce() -> R) -> (Cost, R) {
    let now = || Cost {
        allocations: ALLOCATIONS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    };
    let before = now();
    let out = f();
    let after = now();
    let spent = Cost {
        allocations: after.allocations - before.allocations,
        bytes: after.bytes - before.bytes,
    };
    (spent, out)
}

/// Allocations this thread makes while `f` runs, and what `f` returned
/// (as for [`cost`]).
pub fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let (spent, out) = cost(f);
    (spent.allocations, out)
}
