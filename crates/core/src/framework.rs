//! The dynamic graph analytic framework of Section 3 (Figure 1).
//!
//! Host-side *graph stream buffer* and *dynamic query buffer* modules batch
//! incoming work; the *graph update* module applies batches to the active
//! GPMA+ structure on the device; registered *continuous monitoring* tasks
//! (e.g. PageRank tracking) run after every applied batch. Each step is
//! scheduled through the asynchronous-stream pipeline of Figure 2 so that
//! PCIe transfers overlap device compute — the effect measured in Figure 11.

use gpma_graph::{Edge, UpdateBatch};
use gpma_sim::pcie::{Pcie, Pipeline, StepSchedule};
use gpma_sim::{Device, PcieConfig, SimTime};

use crate::delta::SnapshotDelta;
use crate::gpma_plus::GpmaPlus;
pub use crate::image::{Edges, GraphSnapshot};

/// Bytes shipped over PCIe per streamed update (key + weight).
pub const BYTES_PER_UPDATE: usize = 8 + 8;

/// A continuous monitoring task (Figure 1's "Continuous Monitoring"):
/// invoked after every applied update batch. `gpma_analytics::AppMonitor`
/// runs one of the three §6.3 applications here (Figure 11's BFS).
///
/// `Send` is a supertrait so a [`DynamicGraphSystem`] with registered
/// monitors can move onto a service worker thread (the `gpma-service`
/// facade); monitors hold only their own state plus what `run` borrows.
pub trait Monitor: Send {
    /// Short stable name used in [`StepReport::analytics`] rows.
    fn name(&self) -> &str;

    /// Run the analytic on the up-to-date graph; returns the size in bytes
    /// of the result that must be fetched back to the host (D2H).
    fn run(&mut self, dev: &Device, graph: &GpmaPlus) -> usize;
}

/// Host-side buffering of the incoming edge stream (Figure 1's
/// "Graph Stream Buffer").
#[derive(Debug, Default)]
pub struct GraphStreamBuffer {
    pending: UpdateBatch,
    threshold: usize,
}

impl GraphStreamBuffer {
    /// Create a buffer that signals [`Self::ready`] at `threshold` pending
    /// updates (clamped to at least 1).
    pub fn new(threshold: usize) -> Self {
        GraphStreamBuffer {
            pending: UpdateBatch::default(),
            threshold: threshold.max(1),
        }
    }

    /// Buffer a whole update batch (insertions and deletions).
    pub fn offer_batch(&mut self, batch: &UpdateBatch) {
        self.pending.insertions.extend_from_slice(&batch.insertions);
        self.pending.deletions.extend_from_slice(&batch.deletions);
    }

    /// Pending updates (insertions + deletions).
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The flush threshold this buffer was built with: [`Self::ready`] trips
    /// once at least this many updates (insertions + deletions combined) are
    /// pending, and [`Self::take_batch`] drains at most this many per call.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// True when the buffer holds at least [`Self::threshold`] pending
    /// updates and should be flushed to the device. A buffer below threshold
    /// is *not* empty — callers that must apply every pending update (end
    /// of stream, service shutdown) drain with [`Self::take`] regardless of
    /// readiness.
    pub fn ready(&self) -> bool {
        self.pending.len() >= self.threshold
    }

    /// Drain *everything* buffered in one batch, ignoring the threshold.
    ///
    /// Use for final/forced flushes where residue below the threshold must
    /// still reach the device (shutdown, explicit barrier). For steady-state
    /// threshold-sized steps use [`Self::take_batch`]. Equivalent to
    /// `take_up_to(usize::MAX)`.
    pub fn take(&mut self) -> UpdateBatch {
        self.take_up_to(usize::MAX)
    }

    /// Drain one step's worth: at most [`Self::threshold`] updates, keeping
    /// the remainder buffered.
    ///
    /// Use in the steady-state flush loop so each device step stays at the
    /// tuned batch size; delegates to the same drain as [`Self::take`] with
    /// the threshold as budget.
    pub fn take_batch(&mut self) -> UpdateBatch {
        self.take_up_to(self.threshold)
    }

    /// Remove still-buffered insertions of edge key `key`; returns how many
    /// were cancelled.
    ///
    /// Within one flushed batch deletions apply *before* insertions
    /// ([`GpmaPlus::update_batch_lazy`] tombstones them before it merges the
    /// insertions), so a deletion that arrives after a same-key insertion still sitting in this buffer would
    /// otherwise lose to it. A caller that needs arrival-order (sequential)
    /// semantics — the `gpma-service` ingest worker — cancels the pending
    /// insertion before offering the deletion.
    pub fn cancel_pending_inserts(&mut self, key: u64) -> usize {
        let before = self.pending.insertions.len();
        self.pending.insertions.retain(|e| e.key() != key);
        before - self.pending.insertions.len()
    }

    /// Shared drain: up to `limit` updates, deletions first (the order
    /// [`GpmaPlus::update_batch_lazy`] applies them in), remainder left
    /// buffered.
    fn take_up_to(&mut self, limit: usize) -> UpdateBatch {
        if self.pending.len() <= limit {
            return std::mem::take(&mut self.pending);
        }
        let mut out = UpdateBatch::default();
        let mut budget = limit;
        let nd = self.pending.deletions.len().min(budget);
        out.deletions = self.pending.deletions.drain(..nd).collect();
        budget -= nd;
        let ni = self.pending.insertions.len().min(budget);
        out.insertions = self.pending.insertions.drain(..ni).collect();
        out
    }
}

/// Report for one framework step: the update, each monitor's run, and the
/// Figure 2 schedule showing whether transfers were hidden.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Epoch this step produced (see [`DynamicGraphSystem::epoch`]).
    pub epoch: u64,
    /// Updates applied in this step (insertions + deletions).
    pub batch_size: usize,
    /// Insertions in this step superseded by a later insertion of the same
    /// `(src, dst)` key in the same batch (last write wins — the paper's
    /// modification semantics). Service layers surface this as the
    /// duplicate-edge counter.
    pub duplicate_inserts: usize,
    /// The net effect of this step on the live edge set — the O(|Δ|) record
    /// service layers classify, publish and advance their [`GraphSnapshot`]
    /// with.
    pub delta: SnapshotDelta,
    /// Simulated device time of the GPMA+ batch apply.
    pub update_time: SimTime,
    /// `(monitor name, simulated compute time, result bytes)`.
    pub analytics: Vec<(String, SimTime, usize)>,
    /// Figure 2 three-stream schedule for this step.
    pub schedule: StepSchedule,
}

impl StepReport {
    /// Total simulated time spent in monitor analytics this step.
    pub fn analytics_time(&self) -> SimTime {
        self.analytics.iter().map(|&(_, t, _)| t).sum()
    }
}

/// The assembled framework: device, active graph, buffers, monitors and the
/// PCIe pipeline.
///
/// The system is `Send` (all parts live on the host or in simulated device
/// memory, and [`Monitor`] requires `Send`), so it can be constructed on one
/// thread and moved onto a dedicated worker — the seam `gpma-service` builds
/// its concurrent facade on.
pub struct DynamicGraphSystem {
    /// The simulated device all kernels run on.
    pub device: Device,
    /// The active GPMA+ store.
    pub graph: GpmaPlus,
    /// Host-side buffering of the incoming update stream.
    pub stream: GraphStreamBuffer,
    pipeline: Pipeline,
    monitors: Vec<Box<dyn Monitor>>,
    /// Flushes applied so far; stamps [`StepReport`]s and [`GraphSnapshot`]s.
    epoch: u64,
}

impl DynamicGraphSystem {
    /// Assemble the framework: bulk-build the GPMA+ store from
    /// `initial_edges` on `device` and attach a stream buffer flushing at
    /// `batch_threshold` updates.
    pub fn new(
        device: Device,
        num_vertices: u32,
        initial_edges: &[Edge],
        batch_threshold: usize,
    ) -> Self {
        let graph = GpmaPlus::build(&device, num_vertices, initial_edges);
        DynamicGraphSystem {
            device,
            graph,
            stream: GraphStreamBuffer::new(batch_threshold),
            pipeline: Pipeline::new(Pcie::new(PcieConfig::default())),
            monitors: Vec::new(),
            epoch: 0,
        }
    }

    /// Register a continuous monitor, run after every flushed step.
    pub fn register_monitor(&mut self, m: Box<dyn Monitor>) {
        self.monitors.push(m);
    }

    /// Flushes applied so far. Epoch `0` is the initial bulk-built graph;
    /// each [`Self::flush`] increments it, including forced flushes of an
    /// empty buffer (an empty batch still advances the version).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Read the live store back into a fresh epoch-stamped
    /// [`GraphSnapshot`] — the O(E) from-scratch build (spawn, checkpoints,
    /// end-to-end checks of the store). Steady-state publication advances an
    /// existing image with [`apply_delta`](crate::delta::apply_delta)
    /// instead. Consistent by construction: called between flushes, it
    /// reflects exactly the updates of epochs `1..=epoch()`.
    pub fn snapshot(&self) -> GraphSnapshot {
        GraphSnapshot::from_store(self.epoch, &self.graph.storage)
    }

    /// Feed stream elements; flushes automatically when the buffer fills.
    /// Returns a report for every flushed step.
    pub fn ingest(&mut self, batch: &UpdateBatch) -> Vec<StepReport> {
        self.stream.offer_batch(batch);
        let mut reports = Vec::new();
        while self.stream.ready() {
            reports.push(self.flush());
        }
        reports
    }

    /// Apply one buffered step (at most the batch threshold), run all
    /// monitors, and schedule the step through the asynchronous pipeline.
    pub fn flush(&mut self) -> StepReport {
        let batch = self.stream.take_batch();
        let batch_size = batch.len();
        let delta = SnapshotDelta::from_batch(self.epoch + 1, &batch);
        // `from_batch` keeps one insertion per key (last write wins).
        let duplicate_inserts = batch.insertions.len() - delta.inserted().len();
        let graph = &mut self.graph;
        let (_, update_time) = self.device.timed(|d| {
            graph.update_batch_lazy(d, &batch);
        });
        let mut analytics = Vec::new();
        let mut result_bytes = 0usize;
        for m in self.monitors.iter_mut() {
            let graph = &self.graph;
            let mut bytes = 0usize;
            let (_, t) = self.device.timed(|d| {
                bytes = m.run(d, graph);
            });
            result_bytes += bytes;
            analytics.push((m.name().to_string(), t, bytes));
        }
        let analytics_total: SimTime = analytics.iter().map(|&(_, t, _)| t).sum();
        let schedule = self.pipeline.step_from_bytes(
            batch_size * BYTES_PER_UPDATE,
            result_bytes,
            update_time,
            analytics_total,
        );
        self.epoch += 1;
        StepReport {
            epoch: self.epoch,
            batch_size,
            duplicate_inserts,
            delta,
            update_time,
            analytics,
            schedule,
        }
    }

    /// Run an ad-hoc query (Figure 1's "Dynamic Query Buffer" path) against
    /// the active graph.
    pub fn ad_hoc<R>(&self, f: impl FnOnce(&Device, &GpmaPlus) -> R) -> R {
        f(&self.device, &self.graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_sim::DeviceConfig;

    struct CountingMonitor {
        runs: usize,
    }

    impl Monitor for CountingMonitor {
        fn name(&self) -> &str {
            "edge-count"
        }
        fn run(&mut self, dev: &Device, graph: &GpmaPlus) -> usize {
            self.runs += 1;
            // Touch the device so the monitor has nonzero simulated cost.
            dev.launch("count_probe", 32, |lane| lane.work(10));
            graph.storage.num_edges() * 4
        }
    }

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs.iter().map(|&(s, d)| Edge::new(s, d)).collect()
    }

    #[test]
    fn buffer_flushes_at_threshold() {
        let dev = Device::new(DeviceConfig::deterministic());
        let mut sys = DynamicGraphSystem::new(dev, 16, &edges(&[(0, 1)]), 4);
        sys.register_monitor(Box::new(CountingMonitor { runs: 0 }));
        let reports = sys.ingest(&UpdateBatch {
            insertions: edges(&[(1, 2), (2, 3)]),
            deletions: vec![],
        });
        assert!(reports.is_empty(), "below threshold: no flush");
        let reports = sys.ingest(&UpdateBatch {
            insertions: edges(&[(3, 4), (4, 5), (5, 6)]),
            deletions: vec![],
        });
        // One threshold-sized step flushes; the residue stays buffered.
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].batch_size, 4);
        assert_eq!(sys.graph.storage.num_edges(), 5);
        assert_eq!(sys.stream.len(), 1);
        assert_eq!(reports[0].analytics.len(), 1);
        assert!(reports[0].update_time.secs() > 0.0);
        let residue = sys.flush();
        assert_eq!(residue.batch_size, 1);
        assert_eq!(sys.graph.storage.num_edges(), 6);
    }

    #[test]
    fn manual_flush_applies_residue() {
        let dev = Device::new(DeviceConfig::deterministic());
        let mut sys = DynamicGraphSystem::new(dev, 8, &[], 100);
        sys.ingest(&UpdateBatch {
            insertions: edges(&[(0, 1)]),
            deletions: vec![],
        });
        assert_eq!(sys.graph.storage.num_edges(), 0);
        let report = sys.flush();
        assert_eq!(report.batch_size, 1);
        assert_eq!(sys.graph.storage.num_edges(), 1);
        assert!(sys.stream.is_empty());
    }

    #[test]
    fn deletions_flow_through_framework() {
        let dev = Device::new(DeviceConfig::deterministic());
        let mut sys = DynamicGraphSystem::new(dev, 8, &edges(&[(0, 1), (1, 2)]), 1);
        let reports = sys.ingest(&UpdateBatch {
            insertions: vec![],
            deletions: edges(&[(0, 1)]),
        });
        assert_eq!(reports.len(), 1);
        assert_eq!(sys.graph.storage.num_edges(), 1);
    }

    #[test]
    fn schedule_reports_transfer_overlap() {
        let dev = Device::new(DeviceConfig::deterministic());
        let mut sys = DynamicGraphSystem::new(dev, 64, &[], 1);
        sys.register_monitor(Box::new(CountingMonitor { runs: 0 }));
        let reports = sys.ingest(&UpdateBatch {
            insertions: edges(&[(0, 1)]),
            deletions: vec![],
        });
        let s = &reports[0].schedule;
        // Compute dominates a one-edge transfer: the Figure 11 claim.
        assert!(s.transfers_hidden);
        assert!(s.makespan.secs() <= s.serialized.secs());
    }

    #[test]
    fn system_is_send_with_monitors() {
        fn assert_send<T: Send>(_t: &T) {}
        let dev = Device::new(DeviceConfig::deterministic());
        let mut sys = DynamicGraphSystem::new(dev, 8, &edges(&[(0, 1)]), 4);
        sys.register_monitor(Box::new(CountingMonitor { runs: 0 }));
        assert_send(&sys);
    }

    #[test]
    fn epoch_advances_per_flush_and_stamps_snapshots() {
        let dev = Device::new(DeviceConfig::deterministic());
        let mut sys = DynamicGraphSystem::new(dev, 8, &edges(&[(0, 1)]), 2);
        assert_eq!(sys.epoch(), 0);
        let snap0 = sys.snapshot();
        assert_eq!(snap0.epoch(), 0);
        assert_eq!(snap0.num_edges(), 1);
        let reports = sys.ingest(&UpdateBatch {
            insertions: edges(&[(1, 2), (2, 3), (3, 4), (4, 5)]),
            deletions: vec![],
        });
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].epoch, 1);
        assert_eq!(reports[1].epoch, 2);
        assert_eq!(sys.epoch(), 2);
        let snap = sys.snapshot();
        assert_eq!(snap.epoch(), 2);
        assert_eq!(snap.num_edges(), 5);
        // snap0 is immutable: it still sees the initial graph.
        assert_eq!(snap0.num_edges(), 1);
    }

    #[test]
    fn take_drains_everything_take_batch_respects_threshold() {
        let mut buf = GraphStreamBuffer::new(3);
        assert_eq!(buf.threshold(), 3);
        buf.offer_batch(&UpdateBatch {
            insertions: (0..5u32).map(|i| Edge::new(i, i + 1)).collect(),
            deletions: edges(&[(9, 8)]),
        });
        assert!(buf.ready());
        let step = buf.take_batch();
        assert_eq!(step.len(), 3);
        // Deletions drain first (the batch-apply order).
        assert_eq!(step.deletions.len(), 1);
        assert_eq!(buf.len(), 3);
        let rest = buf.take();
        assert_eq!(rest.len(), 3);
        assert!(buf.is_empty());
    }

    #[test]
    fn cancel_pending_inserts_restores_sequential_order() {
        let dev = Device::new(DeviceConfig::deterministic());
        let mut sys = DynamicGraphSystem::new(dev, 8, &[], 100);
        // Arrival order: insert (1,2), then delete (1,2). Batch semantics
        // alone would re-apply the insert after the delete; cancelling the
        // buffered insert first preserves sequential semantics.
        sys.stream.offer_batch(&UpdateBatch::single_insert(Edge::new(1, 2)));
        sys.stream.offer_batch(&UpdateBatch::single_insert(Edge::new(2, 3)));
        assert_eq!(sys.stream.cancel_pending_inserts(Edge::new(1, 2).key()), 1);
        sys.stream.offer_batch(&UpdateBatch::single_delete(Edge::new(1, 2)));
        sys.flush();
        assert_eq!(sys.graph.storage.num_edges(), 1);
        assert!(sys.snapshot().contains(2, 3));
        assert!(!sys.snapshot().contains(1, 2));
    }

    #[test]
    fn duplicate_inserts_are_counted_per_step() {
        let dev = Device::new(DeviceConfig::deterministic());
        let mut sys = DynamicGraphSystem::new(dev, 8, &[], 100);
        sys.ingest(&UpdateBatch {
            insertions: vec![
                Edge::weighted(0, 1, 1),
                Edge::weighted(0, 1, 2),
                Edge::weighted(0, 1, 3),
                Edge::new(1, 2),
            ],
            deletions: vec![],
        });
        let report = sys.flush();
        assert_eq!(report.duplicate_inserts, 2);
        // Last write wins: the store holds one (0,1) edge with weight 3.
        assert_eq!(sys.graph.storage.num_edges(), 2);
        let snap = sys.snapshot();
        assert_eq!(snap.weight(0, 1), Some(3));
        // A key deleted and re-inserted in one step is one insertion, not a
        // duplicate; a key inserted three times supersedes two.
        sys.ingest(&UpdateBatch {
            insertions: vec![
                Edge::weighted(1, 2, 4),
                Edge::weighted(2, 3, 1),
                Edge::weighted(2, 3, 2),
                Edge::weighted(2, 3, 3),
            ],
            deletions: edges(&[(1, 2)]),
        });
        let report = sys.flush();
        assert_eq!(report.duplicate_inserts, 2);
        let snap = sys.snapshot();
        assert_eq!((snap.weight(1, 2), snap.weight(2, 3)), (Some(4), Some(3)));
    }

    #[test]
    fn flush_reports_replayable_delta() {
        use crate::delta::apply_delta;
        let dev = Device::new(DeviceConfig::deterministic());
        let mut sys = DynamicGraphSystem::new(dev, 8, &edges(&[(0, 1), (1, 2)]), 100);
        let before = sys.snapshot();
        sys.ingest(&UpdateBatch {
            insertions: vec![Edge::weighted(2, 3, 7), Edge::weighted(2, 3, 9)],
            deletions: edges(&[(0, 1), (6, 7)]),
        });
        let report = sys.flush();
        assert_eq!(report.delta.epoch(), report.epoch);
        assert_eq!(report.delta.inserted(), &[Edge::weighted(2, 3, 9)]);
        // Deleting the absent (6,7) still rides in the delta (a no-op on
        // replay, exactly as it was on the store).
        assert_eq!(
            report.delta.deleted_keys(),
            &[Edge::new(0, 1).key(), Edge::new(6, 7).key()]
        );
        assert_eq!(apply_delta(&before, &report.delta), sys.snapshot());
    }

    #[test]
    fn ad_hoc_queries_see_fresh_state() {
        let dev = Device::new(DeviceConfig::deterministic());
        let mut sys = DynamicGraphSystem::new(dev, 8, &edges(&[(2, 3)]), 1);
        sys.ingest(&UpdateBatch {
            insertions: edges(&[(3, 4)]),
            deletions: vec![],
        });
        let n = sys.ad_hoc(|_, g| g.storage.num_edges());
        assert_eq!(n, 2);
    }
}
