//! softmem-e2e: shared, std-only pieces of the benchmark.
//!
//! Nothing in this library links the workspace crates: the end-to-end
//! driver talks to `kv_server` / `smd_daemon` over their wire protocols
//! only, so a refactor of library APIs cannot change what it measures.
//! `layer_drill` (the one binary that does link the crates) reuses the
//! generator from here so it replays the same seeded op stream.

pub mod child;
pub mod gen;
pub mod hist;
pub mod json;
pub mod load;
pub mod procfs;
pub mod spans;
pub mod wire;
pub mod workload;
