//! # eds-testkit — dependency-free test and bench support
//!
//! The build environment pins the workspace to in-tree crates only, so
//! the usual `rand`/`proptest`/`criterion` stack is replaced by two tiny
//! modules:
//!
//! * [`rng`] — a deterministic splitmix64 PRNG with a `rand`-flavoured
//!   API (`seed_from_u64`, `gen_range`, `gen_bool`, `choose`);
//! * [`mod@bench`] — a criterion-compatible micro-bench harness (groups,
//!   `bench_with_input`, medians) that prints ns/iter tables and dumps
//!   machine-readable TSV for the `BENCH_exec.json` report tooling.
//!
//! Everything is deterministic: seeded generators for tests, fixed
//! warm-up/sampling policy for benches.

#![warn(missing_docs)]

pub mod bench;
pub mod rng;

pub use bench::{black_box, BenchmarkId, Criterion};
pub use rng::StdRng;
