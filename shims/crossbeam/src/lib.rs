//! Empty on purpose. The workspace uses std's `mpsc::sync_channel` and
//! `thread::scope` in place of `crossbeam`, so this crate defines
//! nothing. It stays only because the benchmark's lock file
//! (`perfbench/Cargo.lock`, built with `--locked`) still lists
//! `crossbeam` as a dependency of `autokernel-core` and
//! `autokernel-sycl-sim`; the next change to the benchmark drops those
//! edges and deletes this crate.
