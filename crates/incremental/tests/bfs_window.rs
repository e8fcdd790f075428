//! `IncrementalBfs` under a sliding window: every delta both removes and
//! adds edges, so an orphaned vertex can re-attach through an edge of the
//! same delta below its old distance. Held to a fresh `bfs_host` after
//! every epoch, and after one repair over the composed net change of
//! several deltas (how the serving cache repairs a memoized answer).

use gpma_analytics::bfs_host;
use gpma_core::delta::SnapshotDelta;
use gpma_core::framework::GraphSnapshot;
use gpma_graph::{Edge, UpdateBatch};
use gpma_incremental::{DeltaGraph, IncrementalBfs, IncrementalEngine, NetDelta};

const VERTICES: u32 = 2_000;
const ROOTS: [u32; 3] = [0, 1, 977];

/// A `pokec_like` edge stream and a window over its first half.
struct Window {
    edges: Vec<Edge>,
    size: usize,
    slid: usize,
    epoch: u64,
}

impl Window {
    fn new() -> (Self, GraphSnapshot) {
        let edges = gpma_graph::datasets::pokec_like(VERTICES, 20_000, 1).edges;
        let size = edges.len() / 2;
        let snap = GraphSnapshot::from_edges(0, VERTICES, edges[..size].to_vec());
        let window = Window {
            edges,
            size,
            slid: 0,
            epoch: 0,
        };
        (window, snap)
    }

    /// The next 256-update delta: 112 edges enter the window and 112 leave
    /// it, 16 edges already in it are re-inserted (no-ops) and 16 edges not
    /// in it are deleted (dropped), all walked circularly.
    fn next(&mut self) -> SnapshotDelta {
        let at = |i: usize| self.edges[i % self.edges.len()];
        let (head, tail) = (self.slid + self.size, self.slid);
        let mut insertions: Vec<Edge> = (head..head + 112).map(at).collect();
        insertions.extend((tail + 200..tail + 216).map(at));
        let mut deletions: Vec<Edge> = (tail..tail + 112).map(at).collect();
        deletions.extend((head + 500..head + 516).map(at));
        self.slid += 112;
        self.epoch += 1;
        SnapshotDelta::from_batch(
            self.epoch,
            &UpdateBatch {
                insertions,
                deletions,
            },
        )
    }
}

#[test]
fn maintained_bfs_equals_a_fresh_one_after_every_sliding_delta() {
    let (mut window, snap) = Window::new();
    let mut engine = ROOTS
        .iter()
        .fold(IncrementalEngine::new(), |e, &r| e.with_bfs(r));
    engine.rebase(&snap);
    for _ in 0..200 {
        engine.apply(&window.next());
        let g = engine.graph();
        for m in engine.bfs_all() {
            assert!(
                m.distances() == bfs_host(g, m.root()),
                "root {} differs from a fresh BFS at epoch {}",
                m.root(),
                g.epoch()
            );
        }
    }
}

#[test]
fn one_repair_over_five_composed_deltas_equals_a_fresh_bfs() {
    let (mut window, snap) = Window::new();
    let mut g = DeltaGraph::from_snapshot(&snap);
    for round in 0..20 {
        let before: Vec<Vec<u32>> = ROOTS.iter().map(|&r| bfs_host(&g, r)).collect();
        let net = (0..5)
            .map(|_| g.apply(&window.next()))
            .reduce(|net, later| net.then(&later))
            .expect("five deltas");
        assert_eq!(net.epoch(), g.epoch());
        for (&root, dist) in ROOTS.iter().zip(before) {
            let mut bfs = IncrementalBfs::seeded(root, dist);
            bfs.apply(&g, &net);
            assert!(
                bfs.distances() == bfs_host(&g, root),
                "root {root} differs from a fresh BFS after round {round}"
            );
        }
    }
}

#[test]
fn the_composed_change_is_what_the_window_moved() {
    let (mut window, snap) = Window::new();
    let mut g = DeltaGraph::from_snapshot(&snap);
    let net: NetDelta = (0..5)
        .map(|_| g.apply(&window.next()))
        .reduce(|net, later| net.then(&later))
        .expect("five deltas");
    // Five slides of 112 distinct edges each, none of them back again.
    assert_eq!((net.added().count(), net.removed().count()), (560, 560));
    assert_eq!(net.reweighted().count(), 0);
}
