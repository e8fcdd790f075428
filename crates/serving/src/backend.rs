//! The backend abstraction: anything that publishes epoch-stamped
//! snapshots, tails a delta ring, and accepts update batches can sit
//! behind a [`QueryServer`](crate::QueryServer).
//!
//! Two implementations ship: the single-shard [`StreamingService`] (which
//! already speaks `Arc<GraphSnapshot>` natively) and [`ClusterBackend`],
//! which adapts a sharded [`GraphCluster`] by reading each cut through its
//! one image ([`ClusterSnapshot::image`](gpma_cluster::ClusterSnapshot::image)),
//! which the cut merges once and shares with every reader of it.

use std::sync::Arc;

use gpma_cluster::GraphCluster;
use gpma_core::delta::DeltaCatchUp;
use gpma_core::framework::GraphSnapshot;
use gpma_graph::UpdateBatch;
use gpma_service::StreamingService;

/// The backend's ingest side has shut down; no further updates or queries
/// can be served through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendClosed;

impl std::fmt::Display for BackendClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("serving backend closed")
    }
}

impl std::error::Error for BackendClosed {}

/// A snapshot-publishing, delta-tailing, batch-ingesting graph store.
///
/// The contract mirrors the freshness model the serving cache depends on:
///
/// - [`latest`](Self::latest) returns the newest *published* snapshot
///   (queries are linearizable at its epoch, not at the ingest frontier);
/// - [`deltas_since`](Self::deltas_since) returns the exact delta chain
///   from `epoch` (exclusive) to at least the latest published epoch, or a
///   full snapshot when the ring has been outrun or reset (eviction,
///   cluster reshard);
/// - [`offer`](Self::offer) is all-or-nothing and non-blocking:
///   `Ok(false)` means the batch was shed on a full ingest queue.
pub trait ServingBackend: Send + Sync + 'static {
    /// The newest published snapshot.
    fn latest(&self) -> Arc<GraphSnapshot>;

    /// Delta chain covering `(epoch, latest]`, or a snapshot fallback.
    fn deltas_since(&self, epoch: u64) -> DeltaCatchUp<Arc<GraphSnapshot>>;

    /// Offer an update batch without blocking. `Ok(true)` = accepted whole,
    /// `Ok(false)` = shed whole (backend queue full), `Err` = closed.
    fn offer(&self, batch: UpdateBatch) -> Result<bool, BackendClosed>;
}

impl ServingBackend for StreamingService {
    fn latest(&self) -> Arc<GraphSnapshot> {
        self.snapshot()
    }

    fn deltas_since(&self, epoch: u64) -> DeltaCatchUp<Arc<GraphSnapshot>> {
        StreamingService::deltas_since(self, epoch)
    }

    fn offer(&self, batch: UpdateBatch) -> Result<bool, BackendClosed> {
        self.handle().offer_batch(batch).map_err(|_| BackendClosed)
    }
}

/// Adapts a sharded [`GraphCluster`] to the single-snapshot
/// [`ServingBackend`] contract: a cut is served as its
/// [`image`](gpma_cluster::ClusterSnapshot::image), so queries at one cut
/// share one merge.
pub struct ClusterBackend {
    cluster: Arc<GraphCluster>,
}

impl ClusterBackend {
    /// Wrap `cluster` for serving.
    pub fn new(cluster: Arc<GraphCluster>) -> Self {
        ClusterBackend { cluster }
    }

    /// The wrapped cluster (for resharding, metrics, shutdown from the
    /// embedding application).
    pub fn cluster(&self) -> &Arc<GraphCluster> {
        &self.cluster
    }
}

impl ServingBackend for ClusterBackend {
    fn latest(&self) -> Arc<GraphSnapshot> {
        self.cluster.snapshot().image().clone()
    }

    fn deltas_since(&self, epoch: u64) -> DeltaCatchUp<Arc<GraphSnapshot>> {
        self.cluster.deltas_since(epoch).map(|cut| cut.image().clone())
    }

    fn offer(&self, batch: UpdateBatch) -> Result<bool, BackendClosed> {
        self.cluster
            .handle()
            .offer_batch(batch)
            .map_err(|_| BackendClosed)
    }
}
