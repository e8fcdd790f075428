//! Cluster-level observability: router accounting, modeled transfer
//! ledgers, and the per-shard service metrics, in one report.

use gpma_service::ServiceMetrics;
use gpma_sim::pcie::TransferLedger;

/// A point-in-time cluster metrics report (see
/// [`GraphCluster::metrics`](crate::GraphCluster::metrics)).
#[derive(Debug, Clone)]
pub struct ClusterMetrics {
    /// Number of shards in the cluster (under the current partition plan).
    pub num_shards: usize,
    /// Partitioning policy name (`vertex-range`, `vertex-hash`,
    /// `edge-grid`, `degree-aware`).
    pub policy: String,
    /// Version of the partition plan in force (0 = spawn-time plan; each
    /// live reshard increments it).
    pub partition_version: u64,
    /// Coordinated epoch cuts taken so far.
    pub cuts: u64,
    /// Cut number of the latest published [`ClusterSnapshot`]
    /// (`0` = initial bulk-built state).
    ///
    /// [`ClusterSnapshot`]: crate::ClusterSnapshot
    pub latest_cut: u64,
    /// Commands currently queued at the router (racy).
    pub queue_depth: usize,
    /// Insertions accepted by cluster handles.
    pub ingested_inserts: u64,
    /// Deletions accepted by cluster handles.
    pub ingested_deletes: u64,
    /// Updates shed by the non-blocking `offer_*` handle paths because the
    /// router queue was full (shed, not blocked — the serving front's
    /// load-shedding ingest policy).
    pub dropped_updates: u64,
    /// Snapshot reads served from published cuts.
    pub queries: u64,
    /// Cluster wall-clock age in seconds.
    pub elapsed_secs: f64,
    /// Updates the router shipped to each shard *under the current
    /// partition plan* (reset by every reshard: this is the skew window
    /// [`imbalance`](Self::imbalance) reads).
    pub routed: Vec<u64>,
    /// Non-empty sub-batches (modeled DMAs) forwarded to each shard.
    /// Reset with [`Self::routed`] at every reshard.
    pub sub_batches: Vec<u64>,
    /// Modeled host→shard transfer ledger per shard (current plan).
    pub transfer: Vec<TransferLedger>,
    /// Transfer ledgers of shards retired or reset by reshards, merged —
    /// [`Self::total_transfer`] includes them, so cluster-lifetime totals
    /// stay monotone across plan changes.
    pub retired_transfer: TransferLedger,
    /// Routed insertions whose endpoints live on different home shards.
    pub cut_edges: u64,
    /// Pending insertions the router cancelled for arrival-order semantics.
    pub cancelled_inserts: u64,
    /// Barrier rounds (cut, marker, reshard copy or retire) reissued
    /// because some shard left them unanswered: its worker died at or
    /// before the barrier, and was rebuilt before the reissue. No cut
    /// publishes without its delta on account of it; only a reshard's
    /// marker cut is a rebase, and it is not counted here.
    pub delta_fallbacks: u64,
    /// Errors the router thread recovered from instead of panicking: a
    /// barrier a shard left unanswered, a checkpoint that failed to save
    /// or load, a kill of a shard out of range. Non-zero means a shard was
    /// rebuilt or a save lost — worth investigating, never fatal.
    pub worker_errors: u64,
    /// Live reshards performed (explicit and policy-triggered).
    pub reshard_count: u64,
    /// Edges migrated between shards across all reshards.
    pub migrated_edges: u64,
    /// Modeled bytes those migrations shipped as device-to-device DMAs.
    pub migration_bytes: u64,
    /// Total wall-clock seconds ingest was actually paused by reshards:
    /// their swaps (forward, plan swap, retraction enqueue), which issue
    /// no barrier and wait on no ack, so they do not grow with the shards'
    /// backlog.
    pub migration_pause_secs: f64,
    /// Total wall-clock seconds reshards spent outside their swaps *while
    /// ingest kept flowing* (barrier waits, the copy, the retire). Not a
    /// stall: the complement of [`Self::migration_pause_secs`].
    pub migration_background_secs: f64,
    /// Dead shard workers rebuilt and respawned, one per barrier ack a
    /// worker left unanswered (with or without
    /// [`ClusterConfig::checkpoints`](crate::ClusterConfig::checkpoints)).
    pub recoveries: u64,
    /// Total wall-clock seconds spent in recovery (restore → rebuild →
    /// respawn → re-checkpoint), across all recoveries.
    pub recovery_secs: f64,
    /// Op-log entries (one per key) re-applied on top of recovered shards'
    /// base images, across all recoveries.
    pub recovery_replayed_updates: u64,
    /// Recoveries with a checkpoint store set that found no checkpoint to
    /// decode (none saved yet, a load error, or a corrupt one) and rebuilt
    /// on the dead worker's last published image instead. Without a store
    /// that image is the base by design, and not counted.
    pub recovery_snapshot_fallbacks: u64,
    /// Per-shard checkpoints persisted to the [`CheckpointStore`]
    /// (cut-cadence checkpoints plus the post-recovery re-checkpoint).
    ///
    /// [`CheckpointStore`]: gpma_core::checkpoint::CheckpointStore
    pub checkpoints_taken: u64,
    /// Total encoded bytes those checkpoints wrote.
    pub checkpoint_bytes: u64,
    /// Each shard service's own metrics, index-aligned with shard ids.
    pub shards: Vec<ServiceMetrics>,
}

impl ClusterMetrics {
    /// Total updates accepted (insertions + deletions).
    pub fn ingested(&self) -> u64 {
        self.ingested_inserts + self.ingested_deletes
    }

    /// All shard ledgers merged (including ledgers retired by reshards):
    /// cluster-wide modeled transfer totals.
    pub fn total_transfer(&self) -> TransferLedger {
        let mut total = self.retired_transfer;
        for t in &self.transfer {
            total.merge(t);
        }
        total
    }

    /// Fraction of routed insertions crossing home-shard boundaries
    /// (`0.0` with no traffic).
    pub fn cut_fraction(&self) -> f64 {
        if self.ingested_inserts == 0 {
            0.0
        } else {
            self.cut_edges as f64 / self.ingested_inserts as f64
        }
    }

    /// Load imbalance of the routing: max shard share over the ideal even
    /// share (`1.0` = perfectly balanced; `0.0` with no traffic).
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.routed.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let max = *self.routed.iter().max().unwrap_or(&0) as f64;
        max / (total as f64 / self.routed.len() as f64)
    }

    /// Cluster-level ingest throughput in updates/second of wall-clock.
    pub fn ingest_throughput(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            self.ingested() as f64 / self.elapsed_secs
        }
    }
}

impl std::fmt::Display for ClusterMetrics {
    // Rendered through the shared `gpma_obs::LineReport` builder so the
    // service and cluster one-liners keep one field-order/unit convention.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let t = self.total_transfer();
        let line = gpma_obs::LineReport::new(
            "cluster",
            format_args!("{} × {} v{}", self.num_shards, self.policy, self.partition_version),
        )
        .field("cut", self.latest_cut)
        .annotate(format_args!(
            "{} cuts, {} delta fallbacks",
            self.cuts, self.delta_fallbacks
        ))
        .field("ingested", self.ingested())
        .annotate(format_args!(
            "+{} -{} ({} shed)",
            self.ingested_inserts, self.ingested_deletes, self.dropped_updates
        ))
        .group()
        .raw(format_args!(
            "routed {:?} in {:?} sub-batches",
            self.routed, self.sub_batches
        ))
        .annotate(format_args!("imbalance {:.2}", self.imbalance()))
        .field("cut-edges", self.cut_edges)
        .annotate(format_args!("{:.1}%", self.cut_fraction() * 100.0))
        .group()
        .raw(format_args!(
            "transfer {} in {} DMAs",
            gpma_obs::fmt_bytes(t.bytes),
            t.transfers
        ))
        .annotate(format_args!("{:.3} ms", t.time.millis()))
        .group()
        .field("reshards", self.reshard_count)
        .annotate(format_args!(
            "{} edges, {} moved, {:.1} ms paused + {:.1} ms background",
            self.migrated_edges,
            gpma_obs::fmt_bytes(self.migration_bytes),
            self.migration_pause_secs * 1e3,
            self.migration_background_secs * 1e3,
        ))
        .group()
        .field("recoveries", self.recoveries)
        .annotate(format_args!(
            "{} fallbacks, {:.1} ms",
            self.recovery_snapshot_fallbacks,
            self.recovery_secs * 1e3,
        ))
        .count(self.checkpoints_taken, "ckpts")
        .annotate(format_args!("{}", gpma_obs::fmt_bytes(self.checkpoint_bytes)))
        .group()
        .field("queue", self.queue_depth)
        .field("worker errors", self.worker_errors)
        .finish();
        f.write_str(&line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_sim::pcie::Pcie;
    use gpma_sim::PcieConfig;

    fn metrics() -> ClusterMetrics {
        let link = Pcie::new(PcieConfig::default());
        let mut a = TransferLedger::default();
        a.record(&link, 1000);
        let mut b = TransferLedger::default();
        b.record(&link, 3000);
        ClusterMetrics {
            num_shards: 2,
            policy: "vertex-hash".into(),
            partition_version: 0,
            cuts: 3,
            latest_cut: 3,
            queue_depth: 0,
            ingested_inserts: 80,
            ingested_deletes: 20,
            dropped_updates: 0,
            queries: 5,
            elapsed_secs: 2.0,
            routed: vec![75, 25],
            sub_batches: vec![10, 6],
            transfer: vec![a, b],
            retired_transfer: TransferLedger::default(),
            cut_edges: 40,
            cancelled_inserts: 1,
            delta_fallbacks: 0,
            worker_errors: 0,
            reshard_count: 0,
            migrated_edges: 0,
            migration_bytes: 0,
            migration_pause_secs: 0.0,
            migration_background_secs: 0.0,
            recoveries: 0,
            recovery_secs: 0.0,
            recovery_replayed_updates: 0,
            recovery_snapshot_fallbacks: 0,
            checkpoints_taken: 0,
            checkpoint_bytes: 0,
            shards: Vec::new(),
        }
    }

    #[test]
    fn derived_rates() {
        let m = metrics();
        assert_eq!(m.ingested(), 100);
        assert_eq!(m.total_transfer().bytes, 4000);
        assert_eq!(m.total_transfer().transfers, 2);
        assert!((m.cut_fraction() - 0.5).abs() < 1e-12);
        assert!((m.imbalance() - 1.5).abs() < 1e-12);
        assert!((m.ingest_throughput() - 50.0).abs() < 1e-12);
        let s = m.to_string();
        assert!(s.contains("vertex-hash") && s.contains("cut 3"), "{s}");
        // No traffic → no imbalance, no division by zero.
        let idle = ClusterMetrics {
            routed: vec![0, 0],
            ..metrics()
        };
        assert_eq!(idle.imbalance(), 0.0);
        // The one-line report carries the reshard and recovery counters.
        let busy = ClusterMetrics {
            partition_version: 2,
            reshard_count: 2,
            migration_pause_secs: 0.5,
            migration_background_secs: 1.25,
            recoveries: 2,
            checkpoints_taken: 5,
            ..metrics()
        };
        let line = busy.to_string();
        for part in ["v2", "reshards 2", "paused", "background", "recoveries 2", "5 ckpts"] {
            assert!(line.contains(part), "{part}: {line}");
        }
    }

    #[test]
    fn retired_ledgers_keep_totals_monotone() {
        let link = Pcie::new(PcieConfig::default());
        let mut retired = TransferLedger::default();
        retired.record(&link, 5000);
        let m = ClusterMetrics {
            retired_transfer: retired,
            ..metrics()
        };
        // 4000 live (from the two shard ledgers) + 5000 retired.
        assert_eq!(m.total_transfer().bytes, 9000);
        assert_eq!(m.total_transfer().transfers, 3);
    }
}
