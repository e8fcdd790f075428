//! Breadth-First Search (§6.3): level-synchronous frontier expansion with
//! the gap-aware Neighbour Gathering of Algorithms 2–3, plus the standard
//! single-threaded CPU reference used by the AdjLists/PMA baselines.

use gpma_sim::{launch, primitives, Device, DeviceBuffer};

use crate::view::{DeviceGraphView, HostGraph};

/// Distance assigned to unreached vertices.
pub const UNREACHED: u32 = u32::MAX;

/// Device BFS from `root`; returns the distance vector (Algorithm 2 with
/// Algorithm 3's gathering: each frontier vertex's slot range is walked,
/// skipping gaps/guards via `IsEntryExist`).
pub fn bfs_device<G: DeviceGraphView>(dev: &Device, g: &G, root: u32) -> DeviceBuffer<u32> {
    let nv = g.num_vertices() as usize;
    assert!((root as usize) < nv, "root out of range");
    let mut dist = DeviceBuffer::<u32>::filled(UNREACHED, nv);
    dist.host_write(root as usize, 0);
    let mut frontier = DeviceBuffer::<u32>::from_slice(&[root]);
    // Discovery flags of the level being expanded; all zero between levels
    // (the compaction clears each flag it reads).
    let next_flags = DeviceBuffer::<u32>::new(nv);
    let mut level = 0u32;
    while !frontier.is_empty() {
        {
            let f = &frontier;
            let d = &dist;
            let nf = &next_flags;
            launch!(dev, "bfs_gather", frontier.len(), |lane| {
                let v = f.get(lane, lane.tid);
                for slot in g.row_range(lane, v) {
                    // Algorithm 3 line 4: IsEntryExist.
                    if let Some((_, dst)) = g.slot_entry(lane, slot) {
                        if d.get(lane, dst as usize) == UNREACHED
                            && d.atomic_cas(lane, dst as usize, UNREACHED, level + 1) == UNREACHED
                        {
                            nf.set(lane, dst as usize, 1);
                        }
                    }
                }
            });
        }
        // Compact the next frontier (the paper: "compacted to contiguous
        // memory in advance for higher memory efficiency").
        let (positions, count) = primitives::exclusive_scan_u32(dev, &next_flags);
        let next = DeviceBuffer::<u32>::new(count as usize);
        if count > 0 {
            let nf = &next_flags;
            let pos = &positions;
            let nx = &next;
            launch!(dev, "bfs_frontier_compact", nv, |lane| {
                let v = lane.tid;
                if nf.get(lane, v) != 0 {
                    nf.set(lane, v, 0);
                    let p = pos.get(lane, v) as usize;
                    nx.set(lane, p, v as u32);
                }
            });
        }
        frontier = next;
        level += 1;
    }
    dist
}

/// Reference CPU BFS (the "standard single thread algorithm" of Table 1).
///
/// The queue is one array: every vertex enters it at most once, so `nv`
/// places plus a spare hold any run. The neighbour step has no branch on
/// whether the neighbour is new, which the hardware cannot predict well
/// and which cost more than the visit itself: it selects the distance to
/// store, writes the neighbour at the queue's tail either way and advances
/// the tail by one only for a new vertex (a write past the last vertex
/// lands in the spare place).
pub fn bfs_host<G: HostGraph + ?Sized>(g: &G, root: u32) -> Vec<u32> {
    let nv = g.num_vertices() as usize;
    let mut dist = vec![UNREACHED; nv];
    dist[root as usize] = 0;
    let mut queue = vec![0u32; nv + 1];
    queue[0] = root;
    let (mut head, mut tail) = (0, 1);
    while head < tail {
        let u = queue[head];
        head += 1;
        let next = dist[u as usize] + 1;
        g.for_each_neighbor(u, &mut |v, _| {
            let old = dist[v as usize];
            let new = old == UNREACHED;
            dist[v as usize] = if new { next } else { old };
            queue[tail] = v;
            tail += new as usize;
        });
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{GpmaView, RebuildView};
    use gpma_baselines::{AdjLists, RebuildCsr};
    use gpma_core::GpmaPlus;
    use gpma_graph::{Edge, UpdateBatch};
    use gpma_sim::DeviceConfig;

    fn dev() -> Device {
        Device::new(DeviceConfig::deterministic())
    }

    fn chain_and_branch() -> Vec<Edge> {
        // 0→1→2→3, 0→4, 5 isolated (6 vertices)
        vec![
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 3),
            Edge::new(0, 4),
        ]
    }

    #[test]
    fn device_bfs_matches_host_reference() {
        let d = dev();
        let edges = chain_and_branch();
        let g = GpmaPlus::build(&d, 6, &edges);
        let view = GpmaView::build(&d, &g.storage);
        let got = bfs_device(&d, &view, 0).to_vec();
        let expect = bfs_host(&AdjLists::build(6, &edges), 0);
        assert_eq!(got, expect);
        assert_eq!(got, vec![0, 1, 2, 3, 1, UNREACHED]);
    }

    #[test]
    fn bfs_on_rebuild_view_matches() {
        let d = dev();
        let edges = chain_and_branch();
        let csr = RebuildCsr::build(&d, 6, &edges);
        let view = RebuildView::build(&d, &csr);
        assert_eq!(
            bfs_device(&d, &view, 0).to_vec(),
            vec![0, 1, 2, 3, 1, UNREACHED]
        );
    }

    #[test]
    fn bfs_sees_updates_and_gaps() {
        let d = dev();
        let mut g = GpmaPlus::build(&d, 6, &chain_and_branch());
        // Cut 1→2 (lazy tombstone = a mid-row hole) and add 4→5.
        g.update_batch_lazy(
            &d,
            &UpdateBatch {
                insertions: vec![Edge::new(4, 5)],
                deletions: vec![Edge::new(1, 2)],
            },
        );
        let view = GpmaView::build(&d, &g.storage);
        let got = bfs_device(&d, &view, 0).to_vec();
        assert_eq!(got, vec![0, 1, UNREACHED, UNREACHED, 1, 2]);
    }

    #[test]
    fn bfs_random_graph_cross_checked() {
        use rand::{Rng, SeedableRng};
        let d = dev();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(13);
        let n = 64u32;
        let edges: Vec<Edge> = (0..400)
            .map(|_| {
                let s = rng.gen_range(0..n);
                let t = rng.gen_range(0..n - 1);
                Edge::new(s, if t == s { n - 1 } else { t })
            })
            .collect();
        let g = GpmaPlus::build(&d, n, &edges);
        let view = GpmaView::build(&d, &g.storage);
        let oracle = AdjLists::build(n, &edges);
        for root in [0u32, 7, 63] {
            assert_eq!(
                bfs_device(&d, &view, root).to_vec(),
                bfs_host(&oracle, root),
                "root {root}"
            );
        }
    }

    #[test]
    fn bfs_over_a_slid_array_matches_host_on_both_views_call_after_call() {
        use crate::util::{slid_pokec, ISOLATED};
        let d = dev();
        let (g, live) = slid_pokec(&d);
        let nv = g.storage.num_vertices();
        let gv = GpmaView::build(&d, &g.storage);
        let rc = RebuildCsr::build(&d, nv, &live);
        let rv = RebuildView::build(&d, &rc);
        let oracle = AdjLists::build(nv, &live);
        for root in [0, 1, ISOLATED] {
            let want = bfs_host(&oracle, root);
            let reached = want.iter().filter(|&&x| x != UNREACHED).count();
            assert_eq!(reached == 1, root == ISOLATED);
            for _ in 0..2 {
                assert_eq!(bfs_device(&d, &gv, root).to_vec(), want, "gpma, root {root}");
                assert_eq!(bfs_device(&d, &rv, root).to_vec(), want, "rebuild, root {root}");
            }
        }
    }

    #[test]
    fn single_vertex_graph() {
        let d = dev();
        let g = GpmaPlus::build(&d, 1, &[]);
        let view = GpmaView::build(&d, &g.storage);
        assert_eq!(bfs_device(&d, &view, 0).to_vec(), vec![0]);
    }
}
