//! End-to-end benchmark of the EDS rule-based query rewriter: absolute
//! latency at the `Dbms` facade on four workloads, with a per-layer
//! budget from a staged, traced run. See `README.md`.

pub mod gen;
pub mod json;
pub mod metrics;
pub mod rng;
pub mod runner;
pub mod session;
pub mod trace;
pub mod workloads;
