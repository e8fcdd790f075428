//! # gpma-repro — umbrella crate for the GPMA/GPMA+ reproduction
//!
//! Re-exports the thirteen library crates under one roof and anchors the
//! root-level integration tests (`tests/`) and examples (`examples/`).
//! See `DESIGN.md` for the crate map and experiment index, and `ROADMAP.md`
//! for build/test/bench commands.
//!
//! ```
//! use gpma_repro::graph::Edge;
//! use gpma_repro::service::{ServiceConfig, StreamingService};
//! use gpma_repro::sim::{Device, DeviceConfig};
//!
//! let dev = Device::new(DeviceConfig::deterministic());
//! let sys = gpma_repro::core::framework::DynamicGraphSystem::new(dev, 4, &[], 2);
//! let svc = StreamingService::spawn(ServiceConfig::default(), sys);
//! svc.handle().insert(Edge::new(0, 1)).unwrap();
//! assert_eq!(svc.barrier().unwrap().num_edges(), 1);
//! ```

pub use gpma_analytics as analytics;
pub use gpma_baselines as baselines;
pub use gpma_bench as bench;
pub use gpma_cluster as cluster;
pub use gpma_core as core;
pub use gpma_graph as graph;
pub use gpma_incremental as incremental;
pub use gpma_obs as obs;
pub use gpma_pma as pma;
pub use gpma_service as service;
pub use gpma_serving as serving;
pub use gpma_sim as sim;

/// README.md's Rust blocks, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
