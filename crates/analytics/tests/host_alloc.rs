//! `bfs_host`, `cc_host` and `pagerank_host` do their per-neighbour work
//! inside the visitor closure: a run allocates its result and its few
//! `|V|`-sized working arrays up front and nothing per vertex or per sweep,
//! so the number of allocations is a constant whatever the vertex count.

mod common;

use gpma_analytics::{bfs_host, cc_host, pagerank_host, DAMPING};
use gpma_core::framework::GraphSnapshot;
use gpma_graph::Edge;

/// Allocations (and reallocations) this thread made while `f` ran.
fn allocations_during(f: impl FnOnce()) -> u64 {
    common::allocated_during(f).0
}

/// A ring with two chords per vertex: one component, every vertex has
/// out-neighbours, BFS from 0 discovers from every vertex it visits.
fn ring_with_chords(nv: u32) -> GraphSnapshot {
    let edges = (0..nv)
        .flat_map(|v| [1, 7, 31].map(|step| Edge::new(v, (v + step) % nv)))
        .collect();
    GraphSnapshot::from_edges(0, nv, edges)
}

/// Result + the one queue, allocated at its final size.
const BFS_CEILING: u64 = 2;
/// Parent array + result.
const CC_CEILING: u64 = 4;
/// Start vector (returned as the ranks) + degrees + `y` + shares.
const PAGERANK_CEILING: u64 = 4;

#[test]
fn bfs_host_allocations_do_not_grow_with_the_graph() {
    for nv in [500, 2_000] {
        let g = ring_with_chords(nv);
        let mut reached = 0;
        let allocs = allocations_during(|| {
            reached = bfs_host(&g, 0).iter().filter(|&&d| d != u32::MAX).count();
        });
        assert_eq!(reached, nv as usize);
        assert!(allocs <= BFS_CEILING, "{nv} vertices: {allocs} allocations");
    }
}

#[test]
fn cc_host_allocations_do_not_grow_with_the_graph() {
    for nv in [500, 2_000] {
        let g = ring_with_chords(nv);
        let mut labels = Vec::new();
        let allocs = allocations_during(|| labels = cc_host(&g));
        assert!(labels.iter().all(|&l| l == 0));
        assert!(allocs <= CC_CEILING, "{nv} vertices: {allocs} allocations");
    }
}

#[test]
fn pagerank_host_allocations_do_not_grow_with_the_graph() {
    for nv in [500, 2_000] {
        let g = ring_with_chords(nv);
        let mut iterations = 0;
        // ε = 0 never converges: all 20 sweeps run.
        let allocs = allocations_during(|| {
            iterations = pagerank_host(&g, DAMPING, 0.0, 20).iterations;
        });
        assert_eq!(iterations, 20);
        assert!(allocs <= PAGERANK_CEILING, "{nv} vertices: {allocs} allocations");
    }
}
