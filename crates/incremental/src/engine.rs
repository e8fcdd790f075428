//! The incremental engine: one [`DeltaGraph`] (the published image plus its
//! transpose) feeding any subset of the three maintainers, packaged as a
//! drop-in
//! [`DeltaMonitor`](gpma_service::DeltaMonitor) for `gpma-service` workers
//! and `gpma-cluster` coordinated cuts.
//!
//! Because the service hands monitors to a dedicated thread, results are
//! read through a shared handle: [`IncrementalEngine::into_shared`] splits
//! the engine into an [`EngineMonitor`] (give to the service/cluster) and an
//! [`EngineHandle`] (keep, query from anywhere).

use std::sync::Arc;

use gpma_core::delta::SnapshotDelta;
use gpma_core::framework::GraphSnapshot;
use gpma_service::DeltaMonitor;
use parking_lot::Mutex;

use crate::bfs::IncrementalBfs;
use crate::cc::IncrementalCc;
use crate::graph::{AppliedDelta, DeltaGraph};
use crate::pagerank::DeltaPageRank;

/// Cumulative engine accounting, split per maintainer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Epoch deltas applied since the last rebase.
    pub epochs: u64,
    /// Rebases performed (1 at startup; more only after ring lag).
    pub rebases: u64,
    /// Topology changes (added + removed edges) consumed.
    pub changed_edges: u64,
    /// Incremental BFS work units (0 when not enabled).
    pub bfs_work: u64,
    /// Incremental CC work units (0 when not enabled).
    pub cc_work: u64,
    /// PageRank vertex + edge visits, `V + E` per sweep (0 when not
    /// enabled).
    pub pagerank_work: u64,
}

/// A shared-graph bundle of incremental maintainers.
///
/// Build with the fluent constructors, then either drive it directly
/// ([`rebase`](Self::rebase) / [`apply`](Self::apply)) or split it with
/// [`into_shared`](Self::into_shared) and register the monitor half with a
/// streaming service or cluster.
#[derive(Debug, Default)]
pub struct IncrementalEngine {
    graph: DeltaGraph,
    bfs: Vec<IncrementalBfs>,
    cc: Option<IncrementalCc>,
    pagerank: Option<DeltaPageRank>,
    stats: EngineStats,
}

impl IncrementalEngine {
    /// An engine with no maintainers (tracks the graph only).
    pub fn new() -> Self {
        IncrementalEngine::default()
    }

    /// Maintain BFS distances from `root`. May be called repeatedly with
    /// distinct roots — each adds an independent maintainer over the same
    /// shared graph (re-adding an existing root is a no-op).
    pub fn with_bfs(mut self, root: u32) -> Self {
        if !self.bfs.iter().any(|m| m.root() == root) {
            self.bfs.push(IncrementalBfs::new(root));
        }
        self
    }

    /// Maintain connected components (undirected semantics).
    pub fn with_cc(mut self) -> Self {
        self.cc = Some(IncrementalCc::new());
        self
    }

    /// Maintain PageRank at `damping` / `epsilon` (the oracle's parameter
    /// shape).
    pub fn with_pagerank(mut self, damping: f64, epsilon: f64) -> Self {
        self.pagerank = Some(DeltaPageRank::new(damping, epsilon));
        self
    }

    /// The tracked graph state.
    pub fn graph(&self) -> &DeltaGraph {
        &self.graph
    }

    /// The first BFS maintainer, when any is enabled.
    pub fn bfs(&self) -> Option<&IncrementalBfs> {
        self.bfs.first()
    }

    /// Every enabled BFS maintainer, in registration order.
    pub fn bfs_all(&self) -> &[IncrementalBfs] {
        &self.bfs
    }

    /// The CC maintainer, when enabled.
    pub fn cc(&self) -> Option<&IncrementalCc> {
        self.cc.as_ref()
    }

    /// The PageRank maintainer, when enabled.
    pub fn pagerank(&self) -> Option<&DeltaPageRank> {
        self.pagerank.as_ref()
    }

    /// Cumulative accounting.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        s.bfs_work = self.bfs.iter().map(|m| m.work()).sum();
        s.cc_work = self.cc.as_ref().map_or(0, |m| m.work());
        s.pagerank_work = self.pagerank.as_ref().map_or(0, |m| m.work());
        s
    }

    /// Rebase graph and every maintainer on a copy of `snapshot` (an image
    /// clone shares its slabs). Callers that hold the published `Arc` use
    /// [`rebase_shared`](Self::rebase_shared) and share the image itself.
    pub fn rebase(&mut self, snapshot: &GraphSnapshot) {
        self.rebase_shared(Arc::new(snapshot.clone()));
    }

    /// Rebase graph and every maintainer on `image`, which the engine
    /// adopts as its forward adjacency without copying it.
    pub fn rebase_shared(&mut self, image: Arc<GraphSnapshot>) {
        self.graph = DeltaGraph::from_image(image);
        for m in &mut self.bfs {
            m.rebase(&self.graph);
        }
        if let Some(m) = self.cc.as_mut() {
            m.rebase(&self.graph);
        }
        if let Some(m) = self.pagerank.as_mut() {
            m.rebase(&self.graph);
        }
        self.stats.rebases += 1;
        self.stats.epochs = 0;
    }

    /// Apply one epoch delta and repair every maintainer, advancing a
    /// private image — for callers that drive the engine from a bare delta
    /// stream. A [`DeltaMonitor`] is handed the published image and uses
    /// [`apply_at`](Self::apply_at).
    pub fn apply(&mut self, delta: &SnapshotDelta) {
        let next = Arc::new(self.graph.image().advance(delta).0);
        self.apply_at(delta, next);
    }

    /// Apply one epoch delta and repair every maintainer, adopting `next` —
    /// the image published for `delta.epoch()` — instead of advancing one
    /// ([`DeltaGraph::apply_at`]). Returns the changes the delta really
    /// made, for callers that repair answers of their own from them.
    pub fn apply_at(&mut self, delta: &SnapshotDelta, next: Arc<GraphSnapshot>) -> AppliedDelta {
        let applied = self.graph.apply_at(delta, next);
        self.stats.epochs += 1;
        self.stats.changed_edges += applied.topology_changes() as u64;
        for m in &mut self.bfs {
            m.apply(&self.graph, &applied);
        }
        if let Some(m) = self.cc.as_mut() {
            m.apply(&self.graph, &applied);
        }
        if let Some(m) = self.pagerank.as_mut() {
            m.apply(&self.graph, &applied);
        }
        applied
    }

    /// Split into the monitor half (register with a service/cluster) and
    /// the query half (keep).
    pub fn into_shared(self) -> (EngineMonitor, EngineHandle) {
        let shared = Arc::new(Mutex::new(self));
        (EngineMonitor(shared.clone()), EngineHandle(shared))
    }
}

/// The [`DeltaMonitor`] half of a shared engine — hand this to
/// [`StreamingService::spawn_with_delta_monitors`] or
/// [`GraphCluster::spawn_with_delta_monitors`]. It adopts the image each
/// callback carries, so the engine keeps no graph copy of its own.
///
/// [`StreamingService::spawn_with_delta_monitors`]:
///     gpma_service::StreamingService::spawn_with_delta_monitors
/// [`GraphCluster::spawn_with_delta_monitors`]:
///     gpma_cluster::GraphCluster::spawn_with_delta_monitors
pub struct EngineMonitor(Arc<Mutex<IncrementalEngine>>);

impl DeltaMonitor for EngineMonitor {
    fn name(&self) -> &str {
        "incremental-engine"
    }

    fn on_rebase(&mut self, image: &Arc<GraphSnapshot>) {
        self.0.lock().rebase_shared(image.clone());
    }

    fn on_delta(&mut self, delta: &SnapshotDelta, image: &Arc<GraphSnapshot>) {
        self.0.lock().apply_at(delta, image.clone());
    }
}

/// The query half of a shared engine: read live results from any thread
/// while the monitor half keeps them current.
#[derive(Clone)]
pub struct EngineHandle(Arc<Mutex<IncrementalEngine>>);

impl EngineHandle {
    /// Run `f` against the engine under its lock (keep `f` short — the
    /// monitor thread waits while it runs).
    pub fn with<R>(&self, f: impl FnOnce(&mut IncrementalEngine) -> R) -> R {
        f(&mut self.0.lock())
    }

    /// Epoch of the last state the engine absorbed.
    pub fn epoch(&self) -> u64 {
        self.0.lock().graph().epoch()
    }

    /// Cumulative accounting snapshot.
    pub fn stats(&self) -> EngineStats {
        self.0.lock().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_analytics::{bfs_host, cc_host, pagerank_host};
    use gpma_graph::{Edge, UpdateBatch};

    #[test]
    fn engine_keeps_all_three_maintainers_live() {
        let mut engine = IncrementalEngine::new()
            .with_bfs(0)
            .with_cc()
            .with_pagerank(0.85, 1e-9);
        let snap = GraphSnapshot::from_edges(
            0,
            8,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(3, 4)],
        );
        engine.rebase(&snap);
        for (epoch, (ins, del)) in [
            (vec![(2u32, 3u32)], vec![]),
            (vec![(4, 5), (5, 0)], vec![(0u32, 1u32)]),
            (vec![(0, 6)], vec![(2, 3)]),
        ]
        .into_iter()
        .enumerate()
        {
            let delta = SnapshotDelta::from_batch(
                epoch as u64 + 1,
                &UpdateBatch {
                    insertions: ins.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
                    deletions: del.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
                },
            );
            engine.apply(&delta);
            let g = engine.graph().clone();
            assert_eq!(engine.bfs().unwrap().distances(), bfs_host(&g, 0));
            assert_eq!(engine.cc().unwrap().labels(), cc_host(&g));
            let expect = pagerank_host(&g, 0.85, 1e-9, 100_000).ranks;
            for (x, y) in engine.pagerank().unwrap().ranks().iter().zip(&expect) {
                assert!((x - y).abs() < 1e-6, "{x} vs {y}");
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.epochs, 3);
        assert_eq!(stats.rebases, 1);
        assert_eq!(stats.changed_edges, 6);
        assert!(stats.bfs_work > 0 && stats.cc_work > 0 && stats.pagerank_work > 0);
    }

    #[test]
    fn multi_root_bfs_maintainers_are_independent_and_exact() {
        let mut engine = IncrementalEngine::new().with_bfs(0).with_bfs(3).with_bfs(0);
        assert_eq!(engine.bfs_all().len(), 2, "duplicate root must be a no-op");
        let snap = GraphSnapshot::from_edges(
            0,
            8,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(3, 4)],
        );
        engine.rebase(&snap);
        let delta = SnapshotDelta::from_batch(
            1,
            &UpdateBatch {
                insertions: vec![Edge::new(2, 3), Edge::new(4, 5)],
                deletions: vec![Edge::new(0, 1)],
            },
        );
        engine.apply(&delta);
        let g = engine.graph().clone();
        for (m, root) in engine.bfs_all().iter().zip([0u32, 3]) {
            assert_eq!(m.root(), root);
            assert_eq!(m.distances(), bfs_host(&g, root), "root {root}");
        }
        assert_eq!(engine.bfs().unwrap().root(), 0, "bfs() is the first root");
        assert!(engine.stats().bfs_work > 0);
    }

    #[test]
    fn shared_halves_stay_consistent() {
        let engine = IncrementalEngine::new().with_cc();
        let (mut monitor, handle) = engine.into_shared();
        let snap = Arc::new(GraphSnapshot::from_edges(0, 4, vec![Edge::new(0, 1)]));
        monitor.on_rebase(&snap);
        assert_eq!(handle.epoch(), 0);
        let delta = SnapshotDelta::from_batch(
            1,
            &UpdateBatch {
                insertions: vec![Edge::new(2, 3)],
                deletions: vec![],
            },
        );
        let next = Arc::new(snap.advance(&delta).0);
        monitor.on_delta(&delta, &next);
        assert_eq!(handle.epoch(), 1);
        assert!(handle.with(|e| Arc::ptr_eq(e.graph().image(), &next)), "adopted, not copied");
        let components = handle.with(|e| e.cc().unwrap().component_count());
        assert_eq!(components, 2);
        assert_eq!(handle.stats().epochs, 1);
    }

    #[test]
    fn service_monitor_holds_the_published_image() {
        use gpma_core::framework::DynamicGraphSystem;
        use gpma_service::{ServiceConfig, StreamingService};
        use gpma_sim::{Device, DeviceConfig};

        let (monitor, handle) = IncrementalEngine::new().with_cc().into_shared();
        let dev = Device::new(DeviceConfig::deterministic());
        let sys = DynamicGraphSystem::new(dev, 16, &[Edge::new(0, 1)], 2);
        let svc = StreamingService::spawn_with_delta_monitors(
            ServiceConfig::default(),
            sys,
            vec![Box::new(monitor)],
        );
        let h = svc.handle();
        for i in 1..8u32 {
            h.insert(Edge::new(i, i + 1)).unwrap();
        }
        let barrier = svc.barrier().unwrap();
        svc.shutdown(); // joins the monitor thread
        handle.with(|e| {
            assert!(Arc::ptr_eq(e.graph().image(), &barrier), "no private copy");
            assert_eq!(e.stats().epochs, barrier.epoch());
        });
    }
}
