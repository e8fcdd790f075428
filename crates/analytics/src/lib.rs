//! # gpma-analytics — the three evaluation applications of §6.3
//!
//! BFS, Connected Components and PageRank over dynamic graphs, in every
//! configuration Table 1 evaluates:
//!
//! * **device kernels** over [`view::DeviceGraphView`] — run identically on
//!   CSR-on-GPMA ([`view::GpmaView`]) and the rebuild baseline
//!   ([`view::RebuildView`]), proving §4.2's adaptation claim (the only
//!   GPMA-specific code is the `IsEntryExist` gap check);
//! * **CPU references** over [`view::HostGraph`] — the standard
//!   single-threaded algorithms used with AdjLists/PMA, also valid for the
//!   Stinger baseline;
//! * **multi-device variants** ([`multi`]) over a partitioned
//!   [`gpma_core::multi::MultiGpma`] for the Figure 12 scaling study, plus
//!   the *sharded* BFS ([`bfs_sharded`]) that runs supersteps over per-shard
//!   host snapshots with a modeled frontier exchange;
//! * **one device runner** ([`App::run_device`]) for the three applications,
//!   and the framework monitor over it ([`AppMonitor`], Figure 1's
//!   continuous monitoring) that Figure 11 measures.
//!
//! ## Quick example
//!
//! Device BFS over CSR-on-GPMA agrees with the CPU reference:
//!
//! ```
//! use gpma_analytics::{bfs_device, bfs_host, GpmaView, HostGraph};
//! use gpma_core::framework::GraphSnapshot;
//! use gpma_core::GpmaPlus;
//! use gpma_graph::Edge;
//! use gpma_sim::{Device, DeviceConfig};
//!
//! let edges = vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)];
//! let dev = Device::new(DeviceConfig::deterministic());
//! let graph = GpmaPlus::build(&dev, 4, &edges);
//! let view = GpmaView::build(&dev, &graph.storage);
//! let device_dist = bfs_device(&dev, &view, 0).to_vec();
//!
//! // Epoch-stamped service snapshots are host graphs too (§6.5 monitors).
//! let snap = GraphSnapshot::from_edges(1, 4, edges);
//! assert_eq!(device_dist, bfs_host(&snap, 0));
//! assert_eq!(device_dist, vec![0, 1, 2, 3]);
//! ```

#![warn(missing_docs)]

pub mod app;
pub mod bfs;
pub mod cc;
pub mod multi;
pub mod pagerank;
pub mod util;
pub mod view;

pub use app::{App, AppMonitor, AppResult};
pub use bfs::{bfs_device, bfs_host, UNREACHED};
pub use cc::{cc_device, cc_host, component_count};
pub use multi::{bfs_sharded, ExchangeStats};
pub use pagerank::{
    pagerank_device, pagerank_host, pagerank_host_from, PageRank, DAMPING, EPSILON, MAX_ITERS,
};
pub use view::{DeviceGraphView, GpmaView, HostGraph, RebuildView};
