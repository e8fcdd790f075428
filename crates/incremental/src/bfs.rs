//! Incremental BFS: keep a single-source distance vector live across epoch
//! deltas, repairing only the *affected* region instead of re-traversing
//! the whole reachable graph.
//!
//! * **Insertions** can only lower distances: each added edge `(u, v)` with
//!   `dist[u] + 1 < dist[v]` seeds a decrease-only relaxation (a bounded
//!   Dijkstra on unit weights) that cascades through exactly the vertices
//!   whose distance improves.
//! * **Deletions** can only raise distances: starting from the targets of
//!   removed tree-relevant edges, the maintainer finds the *orphaned* set —
//!   vertices with no surviving in-neighbor one level closer to the root —
//!   invalidates it, and re-runs a bounded multi-source search from the
//!   surviving boundary (the classic Ramalingam–Reps style repair).
//!
//! Per-epoch cost is O(affected vertices + their incident edges), versus
//! O(V + E) for a from-scratch traversal; [`IncrementalBfs::work`] counts
//! the units the benchmark reports as `incremental.bfs_work_per_delta`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use gpma_analytics::{bfs_host, UNREACHED};
use gpma_core::delta::NetDelta;

use crate::graph::DeltaGraph;

/// A live BFS distance vector maintained from epoch deltas.
#[derive(Debug, Clone)]
pub struct IncrementalBfs {
    root: u32,
    dist: Vec<u32>,
    work: u64,
}

impl IncrementalBfs {
    /// A maintainer for distances from `root`; call
    /// [`rebase`](Self::rebase) before the first [`apply`](Self::apply).
    pub fn new(root: u32) -> Self {
        IncrementalBfs {
            root,
            dist: Vec::new(),
            work: 0,
        }
    }

    /// A maintainer that takes over `dist`, the exact distances from
    /// `root` on the graph some later [`apply`](Self::apply) starts from
    /// (an answer computed earlier), instead of traversing a graph itself.
    /// Hand the repaired vector back with
    /// [`into_distances`](Self::into_distances).
    pub fn seeded(root: u32, dist: Vec<u32>) -> Self {
        IncrementalBfs {
            root,
            dist,
            work: 0,
        }
    }

    /// The distance vector, giving the maintainer up.
    pub fn into_distances(self) -> Vec<u32> {
        self.dist
    }

    /// The BFS root.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Current distances (`UNREACHED` for unreachable vertices); exact for
    /// the graph state after the last applied delta.
    pub fn distances(&self) -> &[u32] {
        &self.dist
    }

    /// Cumulative repair work in vertex/edge examination units (rebases
    /// count their full traversal).
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Recompute from scratch on `g` (initial state or ring-lag fallback).
    pub fn rebase(&mut self, g: &DeltaGraph) {
        self.dist = bfs_host(g, self.root);
        self.work += (g.num_vertices() as usize + g.num_edges()) as u64;
    }

    /// Repair the distance vector for one applied delta (`g` is the
    /// post-delta graph).
    pub fn apply(&mut self, g: &DeltaGraph, changes: &NetDelta) {
        if changes.topology_changes() == 0 {
            return;
        }
        self.repair_removals(g, changes);
        self.repair_insertions(g, changes);
    }

    /// Decrease-only relaxation from the added edges.
    fn repair_insertions(&mut self, g: &DeltaGraph, changes: &NetDelta) {
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        for e in changes.added() {
            let du = self.dist[e.src as usize];
            if du != UNREACHED && du + 1 < self.dist[e.dst as usize] {
                heap.push(Reverse((du + 1, e.dst)));
            }
            self.work += 1;
        }
        while let Some(Reverse((d, v))) = heap.pop() {
            self.work += 1;
            if d >= self.dist[v as usize] {
                continue; // superseded by a better candidate
            }
            self.dist[v as usize] = d;
            for (w, _) in g.out_neighbors(v) {
                self.work += 1;
                if d + 1 < self.dist[w as usize] {
                    heap.push(Reverse((d + 1, w)));
                }
            }
        }
    }

    /// Orphan detection + bounded recompute for the removed edges.
    fn repair_removals(&mut self, g: &DeltaGraph, changes: &NetDelta) {
        // Candidate orphans: targets of removed edges that just lost a
        // potential parent.
        let mut queue: VecDeque<u32> = VecDeque::new();
        for (src, dst) in changes.removed() {
            let (du, dv) = (self.dist[src as usize], self.dist[dst as usize]);
            if du != UNREACHED && dv != UNREACHED && dv == du + 1 {
                queue.push_back(dst);
            }
            self.work += 1;
        }
        if queue.is_empty() {
            return;
        }
        // Fixpoint: a vertex is orphaned when no un-orphaned in-neighbor
        // sits exactly one level closer. Orphaning a vertex re-suspects its
        // BFS-tree children, so support lost transitively is found too.
        let mut orphaned: Vec<bool> = vec![false; self.dist.len()];
        let mut affected: Vec<u32> = Vec::new();
        while let Some(v) = queue.pop_front() {
            if v == self.root || orphaned[v as usize] || self.dist[v as usize] == UNREACHED {
                continue;
            }
            let dv = self.dist[v as usize];
            let mut supported = false;
            for u in g.in_neighbors(v) {
                self.work += 1;
                if !orphaned[u as usize]
                    && self.dist[u as usize] != UNREACHED
                    && self.dist[u as usize] + 1 == dv
                {
                    supported = true;
                    break;
                }
            }
            if supported {
                continue;
            }
            orphaned[v as usize] = true;
            affected.push(v);
            for (w, _) in g.out_neighbors(v) {
                self.work += 1;
                if self.dist[w as usize] == dv + 1 {
                    queue.push_back(w);
                }
            }
        }
        // Invalidate, then repair from the surviving boundary: a bounded
        // multi-source unit-weight Dijkstra, decrease-only like
        // `repair_insertions`. It must not stop at the orphaned set: `g` is
        // the post-delta graph, so an orphan can re-attach through an edge
        // added by the same delta *below* its old distance, and that
        // decrease has to reach its non-orphaned out-neighbours too.
        for &v in &affected {
            self.dist[v as usize] = UNREACHED;
        }
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        for &v in &affected {
            let mut best = UNREACHED;
            for u in g.in_neighbors(v) {
                self.work += 1;
                let du = self.dist[u as usize];
                if du != UNREACHED && du + 1 < best {
                    best = du + 1;
                }
            }
            if best != UNREACHED {
                heap.push(Reverse((best, v)));
            }
        }
        while let Some(Reverse((d, v))) = heap.pop() {
            self.work += 1;
            if d >= self.dist[v as usize] {
                continue; // already repaired at an equal-or-better level
            }
            self.dist[v as usize] = d;
            for (w, _) in g.out_neighbors(v) {
                self.work += 1;
                if d + 1 < self.dist[w as usize] {
                    heap.push(Reverse((d + 1, w)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_core::delta::SnapshotDelta;
    use gpma_core::framework::GraphSnapshot;
    use gpma_graph::{Edge, UpdateBatch};

    fn step(
        g: &mut DeltaGraph,
        bfs: &mut IncrementalBfs,
        epoch: u64,
        ins: &[(u32, u32)],
        del: &[(u32, u32)],
    ) {
        let delta = SnapshotDelta::from_batch(
            epoch,
            &UpdateBatch {
                insertions: ins.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
                deletions: del.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
            },
        );
        let applied = g.apply(&delta);
        bfs.apply(g, &applied);
        assert_eq!(bfs.distances(), bfs_host(g, bfs.root()), "epoch {epoch}");
    }

    #[test]
    fn insertions_lower_distances_incrementally() {
        let snap = GraphSnapshot::from_edges(
            0,
            6,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)],
        );
        let mut g = DeltaGraph::from_snapshot(&snap);
        let mut bfs = IncrementalBfs::new(0);
        bfs.rebase(&g);
        assert_eq!(bfs.distances(), &[0, 1, 2, 3, UNREACHED, UNREACHED]);
        // Shortcut 0→3 and attach 4 off it.
        step(&mut g, &mut bfs, 1, &[(0, 3), (3, 4)], &[]);
        assert_eq!(bfs.distances(), &[0, 1, 2, 1, 2, UNREACHED]);
    }

    #[test]
    fn deletions_orphan_and_repair() {
        let snap = GraphSnapshot::from_edges(
            0,
            6,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 2),
                Edge::new(2, 3),
                Edge::new(0, 4),
                Edge::new(4, 3),
            ],
        );
        let mut g = DeltaGraph::from_snapshot(&snap);
        let mut bfs = IncrementalBfs::new(0);
        bfs.rebase(&g);
        assert_eq!(bfs.distances(), &[0, 1, 2, 2, 1, UNREACHED]);
        // Cut 1→2: vertex 2 must reroute through 3? No — 3 is its child;
        // 2 becomes unreachable, 3 survives via 4.
        step(&mut g, &mut bfs, 1, &[], &[(1, 2)]);
        assert_eq!(bfs.distances(), &[0, 1, UNREACHED, 2, 1, UNREACHED]);
        // Cut 0→4 too: now 3 and 4 both drop.
        step(&mut g, &mut bfs, 2, &[], &[(0, 4)]);
        assert_eq!(
            bfs.distances(),
            &[0, 1, UNREACHED, UNREACHED, UNREACHED, UNREACHED]
        );
    }

    #[test]
    fn same_level_cycle_does_not_fake_support() {
        // 0→1, 0→2, 1→3, 2→3, 3→4, and the cycle 4→3. Cutting both paths
        // into 3 must orphan {3, 4} even though 4 (in-neighbor of 3 at
        // dist+1... actually dist[4]=dist[3]+1) never supports 3.
        let snap = GraphSnapshot::from_edges(
            0,
            5,
            vec![
                Edge::new(0, 1),
                Edge::new(0, 2),
                Edge::new(1, 3),
                Edge::new(2, 3),
                Edge::new(3, 4),
                Edge::new(4, 3),
            ],
        );
        let mut g = DeltaGraph::from_snapshot(&snap);
        let mut bfs = IncrementalBfs::new(0);
        bfs.rebase(&g);
        step(&mut g, &mut bfs, 1, &[], &[(1, 3), (2, 3)]);
        assert_eq!(bfs.distances()[3], UNREACHED);
        assert_eq!(bfs.distances()[4], UNREACHED);
    }

    #[test]
    fn mixed_epoch_insert_and_delete() {
        let snap = GraphSnapshot::from_edges(
            0,
            7,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)],
        );
        let mut g = DeltaGraph::from_snapshot(&snap);
        let mut bfs = IncrementalBfs::new(0);
        bfs.rebase(&g);
        // One epoch both cuts the chain and reroutes it further out.
        step(&mut g, &mut bfs, 1, &[(0, 5), (5, 6), (6, 2)], &[(1, 2)]);
        assert_eq!(bfs.distances(), &[0, 1, 3, 4, UNREACHED, 1, 2]);
    }

    #[test]
    fn sliding_window_deltas_stay_exact() {
        // Every slide both removes and adds edges, so orphans re-attach
        // through edges of the same delta — sometimes closer to the root
        // than they were, which must then pull their old neighbourhood in.
        let edges = gpma_graph::datasets::pokec_like(2_000, 40_000, 1).edges;
        let window = edges.len() / 2;
        let snap = GraphSnapshot::from_edges(0, 2_000, edges[..window].to_vec());
        let mut g = DeltaGraph::from_snapshot(&snap);
        let mut bfs = IncrementalBfs::new(0);
        bfs.rebase(&g);
        // 128 consecutive edges of the distinct-edge stream, walked
        // circularly.
        let run = |from: usize| -> Vec<(u32, u32)> {
            (from..from + 128)
                .map(|i| edges[i % edges.len()])
                .map(|e| (e.src, e.dst))
                .collect()
        };
        for epoch in 1..=200usize {
            // 256 updates: the 128 next edges in, the 128 oldest out.
            let slid = (epoch - 1) * 128;
            step(&mut g, &mut bfs, epoch as u64, &run(window + slid), &run(slid));
        }
    }

    #[test]
    fn work_stays_local_for_local_changes() {
        // A long chain; toggling one far-end leaf edge must not re-traverse
        // the chain.
        let n = 2000u32;
        let chain: Vec<Edge> = (0..n - 2).map(|i| Edge::new(i, i + 1)).collect();
        let snap = GraphSnapshot::from_edges(0, n, chain);
        let mut g = DeltaGraph::from_snapshot(&snap);
        let mut bfs = IncrementalBfs::new(0);
        bfs.rebase(&g);
        let base = bfs.work();
        for epoch in 1..=20u64 {
            let toggle = [(n - 2, n - 1)];
            type Ops<'a> = (&'a [(u32, u32)], &'a [(u32, u32)]);
            let (ins, del): Ops = if epoch % 2 == 1 {
                (&toggle, &[])
            } else {
                (&[], &toggle)
            };
            step(&mut g, &mut bfs, epoch, ins, del);
        }
        let incremental = bfs.work() - base;
        assert!(
            incremental < base / 10,
            "20 leaf toggles cost {incremental} vs one rebase {base}"
        );
    }
}
