//! The incremental engine: one [`DeltaGraph`] (the published image plus its
//! transpose) feeding any subset of the three maintainers. A reader keeps
//! it current by pulling: it reads a backend's latest image and its delta
//! chain (`deltas_since` of `gpma-service` or `gpma-cluster`) and hands
//! both to [`IncrementalEngine::catch_up`], the one catch-up rule.

use std::sync::Arc;

use gpma_core::delta::{DeltaCatchUp, NetDelta, SnapshotDelta};
use gpma_core::framework::GraphSnapshot;

use crate::bfs::IncrementalBfs;
use crate::cc::IncrementalCc;
use crate::graph::DeltaGraph;
use crate::pagerank::DeltaPageRank;

/// Cumulative engine accounting, split per maintainer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Deltas applied since the last rebase (a catch-up's folded span
    /// counts once).
    pub epochs: u64,
    /// Rebases performed (1 at startup; more after ring lag or a reshard
    /// marker).
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

/// What one [`IncrementalEngine::catch_up`] did.
#[derive(Debug, Clone, PartialEq)]
pub enum CatchUp {
    /// `latest` was not ahead of the engine: nothing changed.
    Current,
    /// The missed span was composed into one net delta and applied: the
    /// publisher's own `Arc` when the span is one delta.
    Applied(Arc<NetDelta>),
    /// The engine rebased on a full image: the reader was outrun, or the
    /// chain fell short of `latest`.
    Rebased,
}

/// A shared-graph bundle of incremental maintainers.
///
/// Build with the fluent constructors, then drive it from a delta stream
/// ([`rebase`](Self::rebase) / [`apply`](Self::apply)) or keep it current
/// with a publisher by pulling ([`catch_up`](Self::catch_up)).
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

    /// Apply one blind epoch delta and repair every maintainer: classify it
    /// against the engine's image and advance a private image by it — for
    /// callers that drive the engine from a bare delta stream. A reader of
    /// a publisher has the net delta and the published image and uses
    /// [`apply_at`](Self::apply_at).
    pub fn apply(&mut self, delta: &SnapshotDelta) {
        let net = self.graph.apply(delta);
        self.repair(&net);
    }

    /// Apply one net delta and repair every maintainer, adopting `next` —
    /// the image published for `delta.epoch()` — instead of advancing one
    /// ([`DeltaGraph::apply_at`]).
    pub fn apply_at(&mut self, delta: &NetDelta, next: Arc<GraphSnapshot>) {
        self.graph.apply_at(delta, next);
        self.repair(delta);
    }

    /// Count one applied delta and repair every maintainer from it.
    fn repair(&mut self, delta: &NetDelta) {
        self.stats.epochs += 1;
        self.stats.changed_edges += delta.topology_changes() as u64;
        for m in &mut self.bfs {
            m.apply(&self.graph, delta);
        }
        if let Some(m) = self.cc.as_mut() {
            m.apply(&self.graph, delta);
        }
        if let Some(m) = self.pagerank.as_mut() {
            m.apply(&self.graph, delta);
        }
    }

    /// Catch up to `latest`, a publisher's newest image, from `catchup`,
    /// which the publisher returned for [`graph`](Self::graph)'s epoch.
    /// When the chain's span `(epoch, latest.epoch()]` starts right after
    /// the engine's epoch and reaches `latest`, it is composed into one net
    /// delta ([`NetDelta::then`]) and applied once, adopting `latest`
    /// itself. A chain head that leads `latest` (a publish between the two
    /// reads) stops at `latest`, so the engine holds exactly that image.
    /// Otherwise — the reader was outrun, or the chain starts past the
    /// engine's epoch or falls short of `latest` — the engine rebases on
    /// the newer of the two images.
    pub fn catch_up(
        &mut self,
        latest: Arc<GraphSnapshot>,
        catchup: DeltaCatchUp<Arc<GraphSnapshot>>,
    ) -> CatchUp {
        let (from, to) = (self.graph.epoch(), latest.epoch());
        if to <= from {
            return CatchUp::Current;
        }
        let image = match catchup {
            DeltaCatchUp::Deltas(chain) => {
                let mut span = chain.into_iter().filter(|d| d.epoch() > from && d.epoch() <= to);
                match span.next() {
                    Some(first) if first.epoch() == from + 1 => {
                        let net = span.fold(first, |net, d| Arc::new(net.then(&d)));
                        if net.epoch() == to {
                            self.apply_at(&net, latest);
                            return CatchUp::Applied(net);
                        }
                        latest
                    }
                    _ => latest,
                }
            }
            DeltaCatchUp::Snapshot(s) if s.epoch() >= to => s,
            DeltaCatchUp::Snapshot(_) => latest,
        };
        self.rebase_shared(image);
        CatchUp::Rebased
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

    fn delta(epoch: u64, ins: &[(u32, u32)], del: &[(u32, u32)]) -> SnapshotDelta {
        SnapshotDelta::from_batch(
            epoch,
            &UpdateBatch {
                insertions: ins.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
                deletions: del.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
            },
        )
    }

    /// Images `s0..=s3` and the net deltas `d1..=d3` between them, as a
    /// publisher classifies them; `d2` undoes part of `d1`, so composing
    /// the chain is not concatenating it.
    fn chain() -> (Vec<Arc<GraphSnapshot>>, Vec<Arc<NetDelta>>) {
        let s0 = Arc::new(GraphSnapshot::from_edges(
            0,
            8,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(3, 4)],
        ));
        let blind = [
            delta(1, &[(2, 3), (4, 5)], &[(0, 1)]),
            delta(2, &[(0, 1), (5, 6)], &[(2, 3)]),
            delta(3, &[(6, 7)], &[(1, 2)]),
        ];
        let (mut images, mut deltas) = (vec![s0], Vec::new());
        for d in blind {
            let pre = images.last().unwrap();
            let net = d.classify(pre);
            images.push(Arc::new(pre.advance(net.blind()).0));
            deltas.push(Arc::new(net));
        }
        (images, deltas)
    }

    fn engine_at(image: &Arc<GraphSnapshot>) -> IncrementalEngine {
        let mut engine = IncrementalEngine::new().with_bfs(0).with_cc();
        engine.rebase_shared(image.clone());
        engine
    }

    fn assert_exact(engine: &IncrementalEngine) {
        let g = engine.graph().image();
        assert_eq!(engine.bfs().unwrap().distances(), bfs_host(&**g, 0));
        assert_eq!(engine.cc().unwrap().labels(), cc_host(&**g));
    }

    #[test]
    fn catch_up_folds_the_span_into_one_apply() {
        let (s, d) = chain();
        let mut engine = engine_at(&s[0]);
        let caught = engine.catch_up(s[3].clone(), DeltaCatchUp::Deltas(d.clone()));
        let CatchUp::Applied(net) = caught else {
            panic!("the chain covers the span");
        };
        // The oracle classifies the blind merge of the span against s[0].
        // It drops (0, 1), removed and re-added at its old weight; the
        // composition, which keeps no old weights, calls that a reweight.
        let mut merged = d[0].blind().clone();
        merged.merge(d[1].blind());
        merged.merge(d[2].blind());
        let oracle = merged.classify(&s[0]);
        assert!(net.added().eq(oracle.added()) && net.removed().eq(oracle.removed()), "{net:?}");
        assert_eq!(oracle.reweighted().count(), 0);
        assert!(net.reweighted().eq([&Edge::new(0, 1)]), "{net:?}");
        assert_eq!(net.epoch(), 3);
        assert!(Arc::ptr_eq(engine.graph().image(), &s[3]), "adopted, not copied");
        assert_eq!(engine.stats().epochs, 1, "one apply for the whole span");
        assert_exact(&engine);
    }

    #[test]
    fn a_chain_head_past_latest_stops_at_latest() {
        let (s, d) = chain();
        let mut engine = engine_at(&s[0]);
        let caught = engine.catch_up(s[2].clone(), DeltaCatchUp::Deltas(d.clone()));
        assert_eq!(caught, CatchUp::Applied(Arc::new(d[0].then(&d[1]))));
        assert!(Arc::ptr_eq(engine.graph().image(), &s[2]));
        assert_exact(&engine);
    }

    #[test]
    fn a_one_delta_span_passes_the_published_delta_through() {
        let (s, d) = chain();
        let mut engine = engine_at(&s[1]);
        let CatchUp::Applied(net) = engine.catch_up(s[2].clone(), DeltaCatchUp::Deltas(d.clone()))
        else {
            panic!("the chain covers the span");
        };
        assert!(Arc::ptr_eq(&net, &d[1]), "the publisher's delta, not a copy");
        assert_exact(&engine);
    }

    #[test]
    fn a_chain_that_starts_past_the_engine_rebases() {
        // Fetched for a reader at epoch 1, handed to an engine at epoch 0:
        // applying it would skip epoch 1's changes.
        let (s, d) = chain();
        let mut engine = engine_at(&s[0]);
        let caught = engine.catch_up(s[3].clone(), DeltaCatchUp::Deltas(d[1..].to_vec()));
        assert_eq!(caught, CatchUp::Rebased);
        assert!(Arc::ptr_eq(engine.graph().image(), &s[3]));
        assert_exact(&engine);
    }

    #[test]
    fn a_chain_short_of_latest_rebases_on_latest() {
        let (s, d) = chain();
        for chain in [d[..2].to_vec(), Vec::new()] {
            let mut engine = engine_at(&s[0]);
            let caught = engine.catch_up(s[3].clone(), DeltaCatchUp::Deltas(chain));
            assert_eq!(caught, CatchUp::Rebased);
            assert!(Arc::ptr_eq(engine.graph().image(), &s[3]));
            assert_eq!(engine.stats().rebases, 2);
            assert_exact(&engine);
        }
    }

    #[test]
    fn a_snapshot_fallback_rebases_on_the_newer_image() {
        let (s, _) = chain();
        for (latest, fallback, newer) in [(2, 3, 3), (3, 1, 3), (2, 2, 2)] {
            let mut engine = engine_at(&s[0]);
            let caught =
                engine.catch_up(s[latest].clone(), DeltaCatchUp::Snapshot(s[fallback].clone()));
            assert_eq!(caught, CatchUp::Rebased);
            assert!(Arc::ptr_eq(engine.graph().image(), &s[newer]));
            assert_exact(&engine);
        }
    }

    #[test]
    fn catch_up_is_current_unless_latest_leads() {
        let (s, d) = chain();
        let mut engine = engine_at(&s[2]);
        let before = engine.stats();
        for latest in [&s[1], &s[2]] {
            let pulled = [
                DeltaCatchUp::Deltas(d.clone()),
                DeltaCatchUp::Snapshot(s[3].clone()),
            ];
            for catchup in pulled {
                assert_eq!(engine.catch_up(latest.clone(), catchup), CatchUp::Current);
            }
        }
        assert!(Arc::ptr_eq(engine.graph().image(), &s[2]));
        assert_eq!(engine.stats(), before);
    }
}
