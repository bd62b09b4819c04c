//! The subprocess shard worker `cluster_subprocess` spawns.
fn main() {
    std::process::exit(faultline_core::serve_stdio());
}
