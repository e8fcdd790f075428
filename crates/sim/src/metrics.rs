//! Simulated-time accounting: per-kernel statistics and the device clock.

use serde::{Deserialize, Serialize};

/// Statistics for a single kernel launch, produced by the cost model.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct KernelStats {
    /// Kernel name (the literal the launch site passed).
    pub name: &'static str,
    /// Logical lanes launched.
    pub threads: usize,
    /// Warps covering those lanes.
    pub warps: usize,
    /// Total device cycles this launch consumed (including launch overhead).
    pub cycles: u64,
    /// Sum over warps of the max lane instruction count (divergence-aware
    /// compute work).
    pub compute_cycles: u64,
    /// Estimated global-memory transactions after coalescing.
    pub mem_transactions: u64,
    /// Raw per-lane memory operations before coalescing.
    pub mem_ops: u64,
    /// Atomic operations issued.
    pub atomic_ops: u64,
    /// Intra-warp same-address atomic conflicts observed in sampled warps,
    /// extrapolated to the whole launch.
    pub atomic_conflicts: u64,
    /// `mem_ops / mem_transactions`; 32 lanes hitting one 128-byte line give
    /// high values, fully scattered access gives ~1.
    pub coalescing_factor: f64,
}

/// Aggregate metrics for a device since the last clock reset.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DeviceMetrics {
    /// Kernel launches.
    pub launches: u64,
    /// Cycles across all launches.
    pub total_cycles: u64,
    /// Coalesced memory transactions.
    pub total_mem_transactions: u64,
    /// Atomic operations executed.
    pub total_atomic_ops: u64,
    /// Atomics serialized by a same-address conflict.
    pub total_atomic_conflicts: u64,
}

impl DeviceMetrics {
    pub(crate) fn record(&mut self, stats: &KernelStats) {
        self.launches += 1;
        self.total_cycles += stats.cycles;
        self.total_mem_transactions += stats.mem_transactions;
        self.total_atomic_ops += stats.atomic_ops;
        self.total_atomic_conflicts += stats.atomic_conflicts;
    }
}

/// Host-side counters for a streaming service sitting in front of a device
/// (`gpma-service`): ingest volume, backpressure drops, duplicate
/// coalescing, flush cadence and the simulated device time consumed by
/// updates versus analytics.
///
/// The struct is plain data so it can be snapshotted, diffed and serialized
/// next to [`DeviceMetrics`]. Each field has a single writer in the service
/// layer: the worker thread fills the flush-side fields through the
/// `record_*` helpers, while the producer/reader-side fields
/// (`ingested_*`, `dropped_updates`, `queries`, `max_queue_depth`) are
/// overwritten from the service's lock-free atomics when a report is taken.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServiceCounters {
    /// Edge insertions accepted into the ingest queue.
    pub ingested_inserts: u64,
    /// Edge deletions accepted into the ingest queue.
    pub ingested_deletes: u64,
    /// Updates rejected by the non-blocking ingest path because the bounded
    /// queue was full (the backpressure drop policy).
    pub dropped_updates: u64,
    /// Offered insertions superseded by a later offer of the same
    /// `(src, dst)` key within one flushed batch (last write wins).
    pub duplicate_edges: u64,
    /// Buffered insertions cancelled by a later deletion of the same key
    /// before reaching the device (arrival-order semantics).
    pub cancelled_inserts: u64,
    /// Device flushes performed by the service (for a service spawned over
    /// a freshly built system this equals the newest snapshot's epoch; a
    /// system pre-flushed before spawning starts with an epoch offset).
    pub flushes: u64,
    /// Ad-hoc queries served from published snapshots.
    pub queries: u64,
    /// High-water mark of the ingest queue depth observed by the worker.
    pub max_queue_depth: usize,
    /// Host wall-clock seconds spent inside flushes (queue-to-snapshot).
    pub flush_wall_secs: f64,
    /// Simulated device time spent applying update batches.
    pub update_sim: SimTime,
    /// Simulated device time spent in monitor analytics.
    pub analytics_sim: SimTime,
}

impl ServiceCounters {
    /// Record buffered insertions cancelled by a later same-key deletion.
    pub fn record_cancelled(&mut self, n: u64) {
        self.cancelled_inserts += n;
    }

    /// Record one completed flush; returns the new epoch.
    pub fn record_flush(
        &mut self,
        wall_secs: f64,
        duplicates: u64,
        update: SimTime,
        analytics: SimTime,
    ) -> u64 {
        self.flushes += 1;
        self.duplicate_edges += duplicates;
        self.flush_wall_secs += wall_secs;
        self.update_sim += update;
        self.analytics_sim += analytics;
        self.flushes
    }

    /// Total updates accepted (insertions + deletions).
    pub fn ingested(&self) -> u64 {
        self.ingested_inserts + self.ingested_deletes
    }

    /// Mean wall-clock flush latency in seconds (0 before the first flush).
    pub fn avg_flush_wall_secs(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.flush_wall_secs / self.flushes as f64
        }
    }

    /// Ingest throughput in updates/second over `elapsed_secs` of service
    /// wall-clock (0 when no time has passed).
    pub fn ingest_throughput(&self, elapsed_secs: f64) -> f64 {
        if elapsed_secs <= 0.0 {
            0.0
        } else {
            self.ingested() as f64 / elapsed_secs
        }
    }
}

/// A span of simulated device time, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct SimTime(pub f64);

impl SimTime {
    /// Zero simulated seconds.
    pub const ZERO: SimTime = SimTime(0.0);

    /// The span in seconds.
    pub fn secs(self) -> f64 {
        self.0
    }

    /// The span in milliseconds.
    pub fn millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The span in microseconds.
    pub fn micros(self) -> f64 {
        self.0 * 1e6
    }
}

impl std::ops::Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl std::iter::Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        SimTime(iter.map(|t| t.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime(1.5);
        let b = SimTime(0.5);
        assert_eq!((a + b).secs(), 2.0);
        assert_eq!((a - b).secs(), 1.0);
        assert_eq!(a.millis(), 1500.0);
        assert_eq!(b.micros(), 500_000.0);
        let total: SimTime = [a, b].into_iter().sum();
        assert_eq!(total.secs(), 2.0);
    }

    #[test]
    fn service_counters_accumulate_and_derive() {
        let mut c = ServiceCounters {
            ingested_inserts: 11,
            ingested_deletes: 5,
            dropped_updates: 3,
            ..Default::default()
        };
        let epoch = c.record_flush(0.5, 2, SimTime(1.0), SimTime(2.0));
        assert_eq!(epoch, 1);
        c.record_flush(1.5, 0, SimTime(0.5), SimTime(0.5));
        c.record_cancelled(4);
        assert_eq!(c.ingested(), 16);
        assert_eq!(c.dropped_updates, 3);
        assert_eq!(c.duplicate_edges, 2);
        assert_eq!(c.cancelled_inserts, 4);
        assert_eq!(c.flushes, 2);
        assert_eq!(c.avg_flush_wall_secs(), 1.0);
        assert_eq!(c.update_sim.secs(), 1.5);
        assert_eq!(c.analytics_sim.secs(), 2.5);
        assert_eq!(c.ingest_throughput(2.0), 8.0);
        assert_eq!(c.ingest_throughput(0.0), 0.0);
        assert_eq!(ServiceCounters::default().avg_flush_wall_secs(), 0.0);
    }
}
