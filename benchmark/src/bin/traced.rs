//! The traced benchmark binary: same harness, with a counting allocator
//! installed so the ledger can report allocations per event.
use faultline_benchmark::trace::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn main() {
    std::process::exit(faultline_benchmark::run(Some(&ALLOC)));
}
