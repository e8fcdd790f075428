//! # gpma-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's Section 6 through the
//! `repro` binary (`cargo run -p gpma-bench --release --bin repro -- all`)
//! and exposes the uniform approach/application wrappers they build on.
//! The layers above the paper (service, cluster, incremental analytics,
//! serving, telemetry) are measured by the repo benchmark
//! (`benchmark/`), not here.
//!
//! Experiment index (DESIGN.md §5): `table1`, `table2`, `fig7` (updates vs
//! batch size), `fig8`/`fig9`/`fig10` (streaming BFS / CC / PageRank),
//! `fig11` (PCIe overlap), `fig12` (multi-GPU), `sorted`, `explicit`,
//! `ablation`, `elastic` (live resharding + skew-driven rebalance), `audit`
//! (every deep validator run mid-stream), `recovery` (durable checkpoints,
//! shard failover).
//!
//! ## Quick example
//!
//! Every compared approach hides behind the uniform [`Store`] wrapper:
//!
//! ```
//! use gpma_bench::{ApproachKind, Store};
//! use gpma_graph::{Edge, UpdateBatch};
//! use gpma_sim::DeviceConfig;
//!
//! let edges = vec![Edge::new(0, 1), Edge::new(1, 2)];
//! let mut store = Store::build_with(
//!     ApproachKind::GpmaPlus,
//!     4,
//!     &edges,
//!     DeviceConfig::deterministic(),
//! );
//! let secs = store.apply(&UpdateBatch {
//!     insertions: vec![Edge::new(2, 3)],
//!     deletions: vec![Edge::new(0, 1)],
//! });
//! assert!(secs > 0.0, "simulated device time for GPU stores");
//! assert_eq!(store.kind().name(), "GPMA+");
//! ```

#![warn(missing_docs)]

pub mod approaches;
pub mod apps;
pub mod experiments;
pub mod report;

pub use approaches::{ApproachKind, Store};
pub use apps::{run_app, AppRun};
pub use experiments::ExpConfig;
