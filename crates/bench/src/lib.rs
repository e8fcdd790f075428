//! # gpma-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's Section 6 through the
//! `repro` binary (`cargo run -p gpma-bench --release --bin repro -- all`)
//! and exposes the uniform approach/application wrappers the Criterion
//! benches build on.
//!
//! Experiment index (DESIGN.md §5): `table1`, `table2`, `fig7` (updates vs
//! batch size), `fig8`/`fig9`/`fig10` (streaming BFS / CC / PageRank),
//! `fig11` (PCIe overlap), `fig12` (multi-GPU), `sorted`, `explicit`,
//! `ablation`, `service` (the concurrent streaming facade), `cluster`
//! (sharded scaling), `incremental` (delta-fed analytics), `elastic`
//! (live resharding + skew-driven rebalance), `audit` (every deep
//! validator run mid-stream), `recovery` (durable checkpoints, shard
//! failover, follower replicas), `obs` (telemetry overhead, ingest latency
//! under reshard and shard kill), `serving` (cached multi-tenant queries,
//! tenant isolation).
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
pub use apps::{run_app, App, AppRun};
pub use experiments::ExpConfig;

/// Bytes shipped per streamed update over PCIe (key + weight + op).
pub const BYTES_PER_UPDATE: usize = gpma_core::framework::BYTES_PER_UPDATE;

/// Feed `edges` through `producers` concurrent ingest handles (round-robin
/// split), join the feeders, then barrier-flush and return the resulting
/// snapshot. The shared driver for the `service` experiment and the
/// `service_throughput` bench, so their feeding policy cannot drift apart.
pub fn feed_concurrently(
    svc: &gpma_service::StreamingService,
    edges: &[gpma_graph::Edge],
    producers: usize,
) -> std::sync::Arc<gpma_core::framework::GraphSnapshot> {
    let producers = producers.max(1);
    let feeders: Vec<_> = (0..producers)
        .map(|p| {
            let h = svc.handle();
            let chunk: Vec<gpma_graph::Edge> =
                edges.iter().skip(p).step_by(producers).copied().collect();
            std::thread::spawn(move || {
                for e in chunk {
                    // A send error means the service shut down mid-feed
                    // (benchmark teardown racing the producers); stop
                    // feeding instead of panicking the producer thread.
                    if h.insert(e).is_err() {
                        eprintln!("gpma-bench: service closed mid-feed; producer stopping");
                        return;
                    }
                }
            })
        })
        .collect();
    for f in feeders {
        f.join().expect("producer thread");
    }
    svc.barrier().expect("service alive")
}

/// Cluster twin of [`feed_concurrently`]: stream `edges` through
/// `producers` cluster handles (round-robin split), join the feeders, then
/// take a coordinated epoch cut and return its snapshot. Shared by the
/// `cluster` experiment and the `cluster_scaling` bench.
pub fn feed_cluster_concurrently(
    cluster: &gpma_cluster::GraphCluster,
    edges: &[gpma_graph::Edge],
    producers: usize,
) -> std::sync::Arc<gpma_cluster::ClusterSnapshot> {
    let producers = producers.max(1);
    let feeders: Vec<_> = (0..producers)
        .map(|p| {
            let h = cluster.handle();
            let chunk: Vec<gpma_graph::Edge> =
                edges.iter().skip(p).step_by(producers).copied().collect();
            std::thread::spawn(move || {
                for e in chunk {
                    // Same policy as `feed_concurrently`: a closed cluster
                    // means teardown won the race; degrade, don't panic.
                    if h.insert(e).is_err() {
                        eprintln!("gpma-bench: cluster closed mid-feed; producer stopping");
                        return;
                    }
                }
            })
        })
        .collect();
    for f in feeders {
        f.join().expect("producer thread");
    }
    cluster.epoch_cut().expect("cluster alive")
}
