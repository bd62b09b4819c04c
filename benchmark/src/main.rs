//! The untraced benchmark binary: the allocator users get.
fn main() {
    std::process::exit(faultline_benchmark::run(None));
}
