//! The repository's benchmark: three workloads over the N-variant
//! reproduction, an end-to-end mode and a traced per-layer mode. See
//! `README.md` beside this crate for the workloads, the metrics and how to
//! run them.

pub mod bench;
pub mod metrics;
pub mod stats;
pub mod systems;
pub mod trace;
pub mod workloads;
