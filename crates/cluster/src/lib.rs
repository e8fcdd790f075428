//! # gpma-cluster — a sharded streaming service over per-device GPMA+ shards
//!
//! `gpma-service` (PR 2) made one simulated GPU a concurrent streaming
//! service; this crate shards that service across *N* devices — the
//! multi-GPU scenario of the paper's §6.6 (Figure 12) expressed as a
//! production-shaped system. One ingest stream fans out through a router to
//! per-shard [`StreamingService`](gpma_service::StreamingService) workers,
//! placement is a pluggable [`Partitioner`] policy, cross-shard traffic is
//! charged against modeled PCIe ledgers, and reads see *globally
//! consistent* coordinated epoch cuts.
//!
//! ```text
//!  producer threads        router thread                shard services
//!  ───────────────         ─────────────                ──────────────
//!  ClusterHandle ─┐  bounded ┌──────────────┐  IngestHandle ┌─────────────┐
//!  ClusterHandle ─┼─► queue ─► Partitioner:  ├──────────────►│ shard 0     │
//!  ClusterHandle ─┘          │  route + coalesce            │ (service +  │
//!                            │  per-shard sub-batches  ...  │  GPMA+ dev) │
//!                            │  → TransferLedger/shard ─────►│ shard N-1   │
//!                            └──────┬───────┘  barrier  └──────┬──────┘
//!                                   │ epoch cut: barrier all,  │ GraphSnapshot
//!                                   ▼ merge, publish           ▼  (per shard)
//!                            ┌────────────────────────────────────┐
//!                            │ ClusterSnapshot (cut M) ─► image() │──► analytics
//!                            └────────────────────────────────────┘
//! ```
//!
//! * **Routing** — every edge has exactly one owner under any policy
//!   ([`VertexPartition`] ranges, [`HashVertexPartition`] scatter,
//!   [`EdgeGridPartition`] 2D grid), so updates never need inter-shard
//!   communication; the router coalesces bursts and charges one modeled DMA
//!   per forwarded sub-batch ([`TransferLedger`](gpma_sim::pcie::TransferLedger)).
//! * **Consistency** — the router is a single FIFO stage: an
//!   [`epoch_cut`](GraphCluster::epoch_cut) forwards all residue, barriers
//!   every shard, and publishes one [`ClusterSnapshot`]; every update
//!   accepted before the cut is in, none accepted after it leak in.
//!   Arrival-order semantics survive sharding (insert-then-delete nets to
//!   absent even when routed through coalesced sub-batches).
//! * **Analytics** — a reader reads a cut through one image,
//!   [`ClusterSnapshot::image`]: the shard images merged the first time a
//!   reader asks and shared by every later reader of that cut. Any host
//!   analytic runs on it; the cut's
//!   [`shard_refs`](ClusterSnapshot::shard_refs) feed the distributed
//!   supersteps of [`gpma_analytics::bfs_sharded`], which charges explicit
//!   frontier exchange traffic.
//! * **Delta cuts** — each coordinated cut also publishes its exact change
//!   as one [`NetDelta`]: the router folds its log of the client updates
//!   it forwarded since the previous cut into a blind [`SnapshotDelta`]
//!   (the router is the only record of what each shard was sent; no shard
//!   ring is read), keeps that for recovery, and classifies a copy against
//!   the previous cut's shard images while the cut's barriers are in
//!   flight. Readers pull them with [`GraphCluster::deltas_since`] — the
//!   `gpma-incremental` engine's `catch_up` composes the chain into one
//!   delta and adopts the cut's own [`image`](ClusterSnapshot::image) — and
//!   rebase on a full image only past the ring or at a reshard's marker
//!   cut.
//! * **Observability** — [`ClusterMetrics`] reports routing balance and
//!   per-shard skew, cut edges, modeled transfer totals, delta fallbacks,
//!   migration and recovery counters and every shard's own
//!   [`ServiceMetrics`](gpma_service::ServiceMetrics).
//! * **Elasticity** — [`GraphCluster::reshard`] migrates live onto any new
//!   [`Partitioner`] (shard counts may grow or shrink) while ingest keeps
//!   flowing: the router mirrors every update to a moving edge onto its
//!   new owner and copies the untouched movers from barrier images;
//!   ingest pauses only for the swap to the advanced [`PartitionEpoch`],
//!   which issues no barrier; the old copies retire in the background and
//!   a snapshot-style epoch marker makes delta readers rebase exactly.
//!   The router steps the reshard as an explicit phase machine, one step
//!   per pass of its loop (DESIGN.md §15). [`GraphCluster::rebalance`]
//!   targets a [`DegreePartition`] built from the router's observed
//!   per-vertex load — the caller's answer, on demand, to the skew
//!   [`ClusterMetrics::imbalance`] reports (the edge grid's ~2× power-law
//!   imbalance).
//! * **Durability & failover** — a barrier a shard leaves unanswered is
//!   the one failure signal: the router rebuilds that shard's edge set
//!   from a base image and the op log it folds cut deltas from, respawns
//!   it on that, oracle-exact, and reissues the round, so every cut holds
//!   every update accepted before it. With [`ClusterConfig::checkpoints`]
//!   set, the router also persists each shard's barrier image (hand-rolled
//!   binary codec) to a [`CheckpointStore`] at every cut and rebuilds from
//!   the latest one, keeping the cut deltas of any cut whose saves did not
//!   all land; without it, the base is the dead worker's last published
//!   image.
//!   [`GraphCluster::spawn_from_store`] restarts a whole cluster at the
//!   last checkpointed cut. [`GraphCluster::kill_shard`] and
//!   [`GraphCluster::kill_shard_at_next_barrier`] are the fault-injection
//!   hooks the crash-recovery proptest harness drives; [`ClusterMetrics`]
//!   counts what failover cost.
//!
//! ## Example: 4 shards, two policies
//!
//! ```
//! use gpma_cluster::{ClusterConfig, GraphCluster, PartitionPolicy};
//! use gpma_graph::Edge;
//! use gpma_sim::DeviceConfig;
//!
//! let policy = PartitionPolicy::VertexHash.build(64, 4);
//! let cluster = GraphCluster::spawn(
//!     ClusterConfig::default(),
//!     &DeviceConfig::deterministic(),
//!     policy,
//!     &[Edge::new(0, 1)],
//! );
//!
//! let h = cluster.handle();
//! for i in 1..32u32 {
//!     h.insert(Edge::new(i, 0)).unwrap();
//! }
//!
//! // A coordinated cut: all 32 updates visible, globally consistent.
//! let snap = cluster.epoch_cut().unwrap();
//! assert_eq!(snap.num_edges(), 32);
//! assert_eq!(snap.cut(), 1);
//!
//! // The cut's image is a host graph: run any host analytic on it.
//! let dist = gpma_analytics::bfs_host(&**snap.image(), 1);
//! assert_eq!(dist[0], 1);
//!
//! let report = cluster.shutdown();
//! assert_eq!(report.metrics.ingested(), 31);
//! ```

#![warn(missing_docs)]

mod cluster;
mod metrics;
mod snapshot;

use std::sync::Arc;

use gpma_core::multi::Partitioner;
pub use gpma_core::multi::{
    DegreePartition, EdgeGridPartition, HashVertexPartition, PartitionEpoch, VertexPartition,
};

pub use cluster::{
    ClusterClosed, ClusterConfig, ClusterHandle, ClusterReport, GraphCluster, ReshardError,
    ReshardReport,
};
pub use gpma_core::checkpoint::{CheckpointStore, DirCheckpointStore, MemoryCheckpointStore};
pub use gpma_core::delta::{DeltaCatchUp, NetDelta, SnapshotDelta};
pub use metrics::ClusterMetrics;
pub use snapshot::ClusterSnapshot;

/// Named constructor for the shipped partitioning policies — the CLI/bench
/// surface (`repro -- elastic` loops over these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionPolicy {
    /// Contiguous vertex ranges ([`VertexPartition`]).
    VertexRange,
    /// Hashed vertex scatter ([`HashVertexPartition`]).
    VertexHash,
    /// 2D edge grid ([`EdgeGridPartition`]).
    EdgeGrid,
}

impl PartitionPolicy {
    /// Every shipped policy, in bench order.
    pub const ALL: [PartitionPolicy; 3] = [
        PartitionPolicy::VertexRange,
        PartitionPolicy::VertexHash,
        PartitionPolicy::EdgeGrid,
    ];

    /// Stable policy name (matches [`Partitioner::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            PartitionPolicy::VertexRange => "vertex-range",
            PartitionPolicy::VertexHash => "vertex-hash",
            PartitionPolicy::EdgeGrid => "edge-grid",
        }
    }

    /// Instantiate the policy over `num_vertices` and `num_shards`.
    pub fn build(&self, num_vertices: u32, num_shards: usize) -> Arc<dyn Partitioner> {
        match self {
            PartitionPolicy::VertexRange => Arc::new(VertexPartition {
                num_vertices,
                num_shards,
            }),
            PartitionPolicy::VertexHash => Arc::new(HashVertexPartition {
                num_vertices,
                num_shards,
            }),
            PartitionPolicy::EdgeGrid => Arc::new(EdgeGridPartition::new(num_vertices, num_shards)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_match_partitioners() {
        for p in PartitionPolicy::ALL {
            assert_eq!(p.name(), p.build(16, 4).name());
            assert_eq!(p.build(16, 4).num_shards(), 4);
        }
    }
}
