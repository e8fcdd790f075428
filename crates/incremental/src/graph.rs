//! The graph every incremental maintainer reads: the published
//! [`GraphSnapshot`] image itself for the forward adjacency, plus the one
//! thing the image does not hold — sorted in-neighbour rows, built from the
//! image once and patched from each [`NetDelta`]'s added and removed edges.
//! The publisher classified the delta against the image it advanced, so
//! nothing here looks the pre-state up.

use std::sync::Arc;

use gpma_analytics::HostGraph;
use gpma_core::delta::{NetDelta, SnapshotDelta};
use gpma_core::framework::GraphSnapshot;

/// The image an engine is current with, plus its transpose.
///
/// Every forward read (`weight`, `out_neighbors`, `out_degree`, the
/// [`HostGraph`] contract the from-scratch oracles run on) goes to the
/// shared image — the engine keeps no copy of the edges. Only the reverse
/// rows are engine-owned: `incoming[v]` is the ascending list of `v`'s
/// in-neighbours, which the decremental repairs (BFS parent checks, CC
/// fragment searches) need and the image does not index.
#[derive(Debug, Clone)]
pub struct DeltaGraph {
    image: Arc<GraphSnapshot>,
    incoming: Vec<Vec<u32>>,
}

impl Default for DeltaGraph {
    fn default() -> Self {
        DeltaGraph::new(0)
    }
}

impl DeltaGraph {
    /// An empty graph over `num_vertices` vertices at epoch 0.
    pub fn new(num_vertices: u32) -> Self {
        DeltaGraph::from_image(Arc::new(GraphSnapshot::from_edges(
            0,
            num_vertices,
            Vec::new(),
        )))
    }

    /// Adopt a copy of `snap` (cheap: an image clone shares its slabs).
    pub fn from_snapshot(snap: &GraphSnapshot) -> Self {
        DeltaGraph::from_image(Arc::new(snap.clone()))
    }

    /// Adopt `image` as it is — the very `Arc` the service published, when
    /// the caller has it — and build the in-neighbour rows from it: one
    /// pass to size each row exactly, one to fill it. The image's edges come
    /// in `(src, dst)` order, so every row fills in ascending order.
    pub fn from_image(image: Arc<GraphSnapshot>) -> Self {
        let mut in_degree = vec![0usize; image.num_vertices() as usize];
        for e in image.edges() {
            in_degree[e.dst as usize] += 1;
        }
        let mut incoming: Vec<Vec<u32>> =
            in_degree.into_iter().map(Vec::with_capacity).collect();
        for e in image.edges() {
            incoming[e.dst as usize].push(e.src);
        }
        DeltaGraph { image, incoming }
    }

    /// The image this graph is current with. After
    /// [`apply_at`](Self::apply_at) / [`from_image`](Self::from_image) it is
    /// the `Arc` the caller handed in, not a copy.
    pub fn image(&self) -> &Arc<GraphSnapshot> {
        &self.image
    }

    /// Epoch of the image (the last applied delta, or the rebase snapshot).
    pub fn epoch(&self) -> u64 {
        self.image.epoch()
    }

    /// Vertex count (fixed at construction; vertex ids are dense `0..n`).
    pub fn num_vertices(&self) -> u32 {
        self.image.num_vertices()
    }

    /// Live edge count.
    pub fn num_edges(&self) -> usize {
        self.image.num_edges()
    }

    /// True when `(src, dst)` is live.
    pub fn contains(&self, src: u32, dst: u32) -> bool {
        self.image.contains(src, dst)
    }

    /// Out-neighbors of `v` in ascending dst order.
    pub fn out_neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.image.neighbors(v).iter().map(|e| (e.dst, e.weight))
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: u32) -> usize {
        self.image.out_degree(v)
    }

    /// In-neighbors of `v` in ascending src order.
    pub fn in_neighbors(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        self.incoming[v as usize].iter().copied()
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: u32) -> usize {
        self.incoming[v as usize].len()
    }

    /// Apply one blind epoch delta when nobody has classified it or has the
    /// image it leads to: classify it against the current image, advance a
    /// private image by it ([`GraphSnapshot::advance`], O(|Δ|)) and adopt
    /// it. Returns the classified delta.
    pub fn apply(&mut self, delta: &SnapshotDelta) -> NetDelta {
        let net = delta.clone().classify(&self.image);
        let next = Arc::new(self.image.advance(net.blind()).0);
        self.apply_at(&net, next);
        net
    }

    /// Apply one net delta and adopt `next`, which must be the image
    /// `delta` produces from the current one (the snapshot the publisher
    /// published for `delta.epoch()`): patch the in-neighbour rows from the
    /// edges it adds and removes.
    pub fn apply_at(&mut self, delta: &NetDelta, next: Arc<GraphSnapshot>) {
        for (s, d) in delta.removed() {
            let row = &mut self.incoming[d as usize];
            let at = row.binary_search(&s);
            debug_assert!(at.is_ok(), "removed ({s}, {d}) is not in the in-rows");
            if let Ok(at) = at {
                row.remove(at);
            }
        }
        for e in delta.added() {
            let row = &mut self.incoming[e.dst as usize];
            let at = row.binary_search(&e.src);
            debug_assert!(at.is_err(), "added ({}, {}) is already in the in-rows", e.src, e.dst);
            if let Err(at) = at {
                row.insert(at, e.src);
            }
        }
        debug_assert_eq!(next.epoch(), delta.epoch(), "adopted image is of another epoch");
        debug_assert_eq!(
            next.num_edges() + delta.removed().count(),
            self.image.num_edges() + delta.num_added(),
            "adopted image is not what the delta produces from the current one"
        );
        self.image = next;
    }
}

impl HostGraph for DeltaGraph {
    #[inline]
    fn num_vertices(&self) -> u32 {
        self.image.num_vertices()
    }

    #[inline]
    fn for_each_neighbor(&self, v: u32, f: &mut dyn FnMut(u32, u64)) {
        HostGraph::for_each_neighbor(&*self.image, v, f)
    }

    #[inline]
    fn out_degree(&self, v: u32) -> usize {
        self.image.out_degree(v)
    }

    #[inline]
    fn for_each_edge(&self, f: &mut dyn FnMut(u32, u32)) {
        HostGraph::for_each_edge(&*self.image, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_graph::{Edge, UpdateBatch};

    fn delta(epoch: u64, ins: &[(u32, u32, u64)], del: &[(u32, u32)]) -> SnapshotDelta {
        SnapshotDelta::from_batch(
            epoch,
            &UpdateBatch {
                insertions: ins.iter().map(|&(s, d, w)| Edge::weighted(s, d, w)).collect(),
                deletions: del.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
            },
        )
    }

    #[test]
    fn apply_classifies_real_changes() {
        let snap = GraphSnapshot::from_edges(
            1,
            8,
            vec![Edge::weighted(0, 1, 5), Edge::weighted(1, 2, 1)],
        );
        let mut g = DeltaGraph::from_snapshot(&snap);
        assert_eq!(g.epoch(), 1);
        assert_eq!(g.num_edges(), 2);
        let applied = g.apply(&delta(
            2,
            &[(0, 1, 5), (1, 2, 9), (3, 4, 2)],
            &[(1, 2), (6, 6)],
        ));
        assert_eq!(applied.epoch(), 2);
        // (0,1,5) is an exact re-insert and (6,6) an absent delete: both
        // dropped. (1,2) is deleted and re-inserted with a new weight in the
        // same batch, which nets to an upsert of a present edge: a reweight.
        assert!(applied.added().eq([&Edge::weighted(3, 4, 2)]));
        assert_eq!(applied.removed().count(), 0);
        assert!(applied.reweighted().eq([&Edge::weighted(1, 2, 9)]));
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.image().weight(1, 2), Some(9));
        assert_eq!(g.epoch(), 2);
        // Real deletion now.
        let applied = g.apply(&delta(3, &[], &[(1, 2)]));
        assert!(applied.removed().eq([(1, 2)]));
        assert_eq!(g.num_edges(), 2);
        assert!(!g.contains(1, 2));
    }

    #[test]
    fn apply_at_adopts_the_published_image() {
        let s0 = Arc::new(GraphSnapshot::from_edges(0, 6, vec![Edge::new(0, 3), Edge::new(3, 2)]));
        let d = delta(1, &[(1, 3, 1), (0, 3, 4)], &[(3, 2), (5, 5)]).classify(&s0);
        let s1 = Arc::new(s0.advance(d.blind()).0);
        let mut adopting = DeltaGraph::from_image(s0.clone());
        assert!(Arc::ptr_eq(adopting.image(), &s0));
        adopting.apply_at(&d, s1.clone());
        assert!(Arc::ptr_eq(adopting.image(), &s1));
        assert_eq!(adopting.in_neighbors(3).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(adopting.in_degree(2), 0);
    }

    /// Apply `deltas` to `s0` one by one and compose what each really
    /// changed; the oracle classifies the merged delta against `s0` in one
    /// step.
    fn composed_and_merged(s0: &GraphSnapshot, deltas: &[SnapshotDelta]) -> (NetDelta, NetDelta) {
        let mut g = DeltaGraph::from_snapshot(s0);
        let composed = deltas
            .iter()
            .map(|d| g.apply(d))
            .reduce(|net, later| net.then(&later))
            .expect("at least one delta");
        let mut merged = deltas[0].clone();
        for d in &deltas[1..] {
            merged.merge(d);
        }
        (composed, DeltaGraph::from_snapshot(s0).apply(&merged))
    }

    /// Whether `composed` is `oracle`'s change, but for reweights back to
    /// `s0`'s weight, which a composition cannot tell from a change.
    fn same_change(composed: &NetDelta, oracle: &NetDelta, s0: &GraphSnapshot) -> bool {
        let restored = |e: &&Edge| s0.weight(e.src, e.dst) == Some(e.weight);
        composed.added().eq(oracle.added())
            && composed.removed().eq(oracle.removed())
            && composed.reweighted().filter(|e| !restored(e)).eq(oracle.reweighted())
    }

    #[test]
    fn composition_cancels_and_reweights_like_the_merged_delta() {
        let s0 = GraphSnapshot::from_edges(
            0,
            8,
            vec![
                Edge::weighted(0, 1, 5),
                Edge::weighted(1, 2, 1),
                Edge::weighted(2, 3, 4),
            ],
        );
        let cases: [(&str, Vec<SnapshotDelta>); 7] = [
            (
                "add then remove",
                vec![delta(1, &[(4, 5, 1)], &[]), delta(2, &[], &[(4, 5)])],
            ),
            (
                "remove then re-add",
                vec![delta(1, &[], &[(0, 1)]), delta(2, &[(0, 1, 5)], &[])],
            ),
            (
                "remove then re-add heavier",
                vec![delta(1, &[], &[(0, 1)]), delta(2, &[(0, 1, 9)], &[])],
            ),
            (
                "reweight and back",
                vec![delta(1, &[(1, 2, 7)], &[]), delta(2, &[(1, 2, 1)], &[])],
            ),
            (
                "reweight then remove",
                vec![delta(1, &[(1, 2, 7)], &[]), delta(2, &[], &[(1, 2)])],
            ),
            (
                "add then reweight",
                vec![delta(1, &[(6, 7, 2)], &[]), delta(2, &[(6, 7, 3)], &[])],
            ),
            (
                "empty deltas",
                vec![
                    delta(1, &[], &[]),
                    delta(2, &[(5, 6, 1)], &[(2, 3)]),
                    delta(3, &[], &[]),
                ],
            ),
        ];
        for (name, deltas) in cases {
            let (composed, oracle) = composed_and_merged(&s0, &deltas);
            assert!(same_change(&composed, &oracle, &s0), "{name}: {composed:?} vs {oracle:?}");
            assert_eq!(composed.epoch(), deltas.len() as u64, "{name}");
        }
        let (cancelled, _) = composed_and_merged(
            &s0,
            &[delta(1, &[(4, 5, 1)], &[]), delta(2, &[], &[(4, 5)])],
        );
        assert!(cancelled.blind().is_empty());
        let (heavier, _) = composed_and_merged(
            &s0,
            &[delta(1, &[], &[(0, 1)]), delta(2, &[(0, 1, 9)], &[])],
        );
        assert!(heavier.reweighted().eq([&Edge::weighted(0, 1, 9)]));
    }

    #[test]
    fn composition_matches_the_merged_delta_on_random_chains() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..200 {
            // Six vertices and two weights, so keys and weights collide.
            let pick = |rng: &mut SmallRng| {
                (
                    rng.gen_range(0..6u32),
                    rng.gen_range(0..6u32),
                    rng.gen_range(1..3u64),
                )
            };
            let initial: Vec<Edge> = (0..8)
                .map(|_| pick(&mut rng))
                .map(|(s, d, w)| Edge::weighted(s, d, w))
                .collect();
            let mut initial = initial;
            initial.sort_by_key(|e| (e.src, e.dst));
            initial.dedup_by_key(|e| (e.src, e.dst));
            let s0 = GraphSnapshot::from_edges(0, 6, initial);
            let deltas: Vec<SnapshotDelta> = (1..=rng.gen_range(1..6u64))
                .map(|epoch| {
                    let ins: Vec<_> = (0..rng.gen_range(0..5)).map(|_| pick(&mut rng)).collect();
                    let del: Vec<_> = (0..rng.gen_range(0..5))
                        .map(|_| pick(&mut rng))
                        .map(|(s, d, _)| (s, d))
                        .collect();
                    delta(epoch, &ins, &del)
                })
                .collect();
            let (composed, oracle) = composed_and_merged(&s0, &deltas);
            assert!(same_change(&composed, &oracle, &s0), "{deltas:?}");
        }
    }


    #[test]
    fn reverse_adjacency_tracks_edges() {
        let mut g = DeltaGraph::new(6);
        g.apply(&delta(1, &[(0, 3, 1), (1, 3, 1), (3, 2, 1)], &[]));
        assert_eq!(g.in_neighbors(3).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(g.in_degree(2), 1);
        g.apply(&delta(2, &[], &[(1, 3)]));
        assert_eq!(g.in_neighbors(3).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn host_graph_contract_matches_snapshot() {
        let edges = vec![
            Edge::weighted(0, 1, 3),
            Edge::weighted(1, 2, 1),
            Edge::weighted(2, 0, 7),
        ];
        let snap = GraphSnapshot::from_edges(4, 3, edges);
        let g = DeltaGraph::from_snapshot(&snap);
        for v in 0..3u32 {
            let collect = |h: &dyn HostGraph| {
                let mut out = Vec::new();
                h.for_each_neighbor(v, &mut |d, w| out.push((d, w)));
                out
            };
            assert_eq!(collect(&g), collect(&snap), "row {v}");
            assert_eq!(HostGraph::out_degree(&g, v), HostGraph::out_degree(&snap, v));
        }
    }
}
