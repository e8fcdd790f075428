//! # gpma-benchmark — the repo benchmark
//!
//! Four lock-step workloads over the GPMA reproduction's crates, measured
//! from outside through public functions only: probe-normalised host
//! timings, exact simulated-device and allocation counts, and — in a
//! traced run — a per-layer breakdown with a layer ladder. `README.md` in
//! this directory is the manual; `BENCHMARK.json` at the repo root is
//! [`spec::benchmark_json`] rendered.
//!
//! The counting allocator is installed here rather than in `main.rs` so
//! every binary linking this library — the benchmark itself and the test
//! binaries under `tests/` — measures the same way.

#![warn(missing_docs)]

pub mod alloc;
pub mod driver;
pub mod json;
pub mod layers;
pub mod oracle;
pub mod pin;
pub mod probe;
pub mod rungs;
pub mod spec;
pub mod stats;
pub mod stream;
pub mod suite;
pub mod trace;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
