//! Connected Components (§6.3): the GPU algorithm follows Soman et al. —
//! iterative edge-centric *hooking* (atomic-min label exchange over every
//! live entry) plus *pointer jumping* until a fixpoint. Edges are treated as
//! undirected, matching the paper's partition semantics. The CPU reference
//! is union-find.

use gpma_sim::{launch, Device, DeviceBuffer};

use crate::view::{DeviceGraphView, HostGraph};

/// Hooking: every live entry (u, v) pulls both endpoints' labels to their
/// minimum (edge-centric scan over the whole slot array — the paper's
/// edge-centric execution model for CC). Sets `changed[0]` when a label
/// dropped.
pub(crate) fn cc_hook<G: DeviceGraphView>(
    dev: &Device,
    g: &G,
    labels: &DeviceBuffer<u32>,
    changed: &DeviceBuffer<u32>,
) {
    launch!(dev, "cc_hook", g.num_slots(), |lane| {
        if let Some((u, v)) = g.slot_entry(lane, lane.tid) {
            let lu = labels.get(lane, u as usize);
            let lv = labels.get(lane, v as usize);
            if lu < lv {
                if labels.atomic_min(lane, v as usize, lu) > lu {
                    changed.set(lane, 0, 1);
                }
            } else if lv < lu && labels.atomic_min(lane, u as usize, lv) > lv {
                changed.set(lane, 0, 1);
            }
        }
    });
}

/// Device connected components; returns per-vertex component labels
/// (the minimum vertex id in each component).
pub fn cc_device<G: DeviceGraphView>(dev: &Device, g: &G) -> DeviceBuffer<u32> {
    let nv = g.num_vertices() as usize;
    let labels = DeviceBuffer::<u32>::new(nv);
    {
        let l = &labels;
        launch!(dev, "cc_init", nv, |lane| {
            l.set(lane, lane.tid, lane.tid as u32);
        });
    }
    let mut changed = DeviceBuffer::<u32>::new(1);
    loop {
        changed.host_write(0, 0);
        cc_hook(dev, g, &labels, &changed);
        // Pointer jumping: compress label chains (multi-pass shortcutting).
        {
            let l = &labels;
            launch!(dev, "cc_jump", nv, |lane| {
                let v = lane.tid;
                let mut root = l.get(lane, v);
                while l.get(lane, root as usize) != root {
                    root = l.get(lane, root as usize);
                }
                l.set(lane, v, root);
            });
        }
        if changed.host_read(0) == 0 {
            break;
        }
    }
    labels
}

/// Number of distinct components in a label vector. Labels are vertex ids
/// (each component's minimum), so one bit per vertex marks the labels seen.
pub fn component_count(labels: &[u32]) -> usize {
    let mut seen = vec![0u64; labels.len().div_ceil(64)];
    let mut count = 0;
    for &l in labels {
        debug_assert!((l as usize) < labels.len(), "label {l} is not a vertex id");
        let (word, bit) = (&mut seen[l as usize / 64], 1u64 << (l % 64));
        count += usize::from(*word & bit == 0);
        *word |= bit;
    }
    count
}

/// CPU reference: union-find with path halving, undirected semantics.
pub fn cc_host<G: HostGraph + ?Sized>(g: &G) -> Vec<u32> {
    let nv = g.num_vertices() as usize;
    let mut parent: Vec<u32> = (0..nv as u32).collect();

    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }

    g.for_each_edge(&mut |u, v| {
        let ru = find(&mut parent, u);
        let rv = find(&mut parent, v);
        if ru != rv {
            let (lo, hi) = if ru < rv { (ru, rv) } else { (rv, ru) };
            parent[hi as usize] = lo;
        }
    });
    // Canonicalize to minimum-id labels.
    (0..nv as u32).map(|v| find(&mut parent, v)).collect()
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

    fn two_components() -> Vec<Edge> {
        // {0,1,2} ring and {3,4} pair; 5 isolated.
        vec![
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 0),
            Edge::new(3, 4),
        ]
    }

    #[test]
    fn device_cc_matches_host() {
        let d = dev();
        let edges = two_components();
        let g = GpmaPlus::build(&d, 6, &edges);
        let view = GpmaView::build(&d, &g.storage);
        let got = cc_device(&d, &view).to_vec();
        let expect = cc_host(&AdjLists::build(6, &edges));
        assert_eq!(got, expect);
        assert_eq!(got, vec![0, 0, 0, 3, 3, 5]);
        assert_eq!(component_count(&got), 3);
    }

    #[test]
    fn cc_on_rebuild_view() {
        let d = dev();
        let csr = RebuildCsr::build(&d, 6, &two_components());
        let view = RebuildView::build(&d, &csr);
        assert_eq!(component_count(&cc_device(&d, &view).to_vec()), 3);
    }

    #[test]
    fn cc_tracks_updates() {
        let d = dev();
        let mut g = GpmaPlus::build(&d, 6, &two_components());
        // Bridge the components, then cut the {3,4} pair from inside.
        g.update_batch_lazy(
            &d,
            &UpdateBatch {
                insertions: vec![Edge::new(2, 3)],
                deletions: vec![],
            },
        );
        let view = GpmaView::build(&d, &g.storage);
        assert_eq!(component_count(&cc_device(&d, &view).to_vec()), 2);
        g.update_batch_lazy(
            &d,
            &UpdateBatch {
                insertions: vec![],
                deletions: vec![Edge::new(2, 3), Edge::new(3, 4)],
            },
        );
        let view = GpmaView::build(&d, &g.storage);
        let labels = cc_device(&d, &view).to_vec();
        assert_eq!(component_count(&labels), 4); // {0,1,2}, {3}, {4}, {5}
    }

    #[test]
    fn cc_random_cross_check() {
        use rand::{Rng, SeedableRng};
        let d = dev();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(21);
        let n = 80u32;
        let edges: Vec<Edge> = (0..120)
            .map(|_| {
                let s = rng.gen_range(0..n);
                let t = rng.gen_range(0..n - 1);
                Edge::new(s, if t == s { n - 1 } else { t })
            })
            .collect();
        let g = GpmaPlus::build(&d, n, &edges);
        let view = GpmaView::build(&d, &g.storage);
        let got = cc_device(&d, &view).to_vec();
        let expect = cc_host(&AdjLists::build(n, &edges));
        assert_eq!(got, expect);
    }

    #[test]
    fn cc_over_a_slid_array_matches_host_on_both_views_call_after_call() {
        use crate::util::{slid_pokec, ISOLATED};
        let d = dev();
        let (g, live) = slid_pokec(&d);
        let nv = g.storage.num_vertices();
        let gv = GpmaView::build(&d, &g.storage);
        let rc = RebuildCsr::build(&d, nv, &live);
        let rv = RebuildView::build(&d, &rc);
        let want = cc_host(&AdjLists::build(nv, &live));
        assert_eq!(want[ISOLATED as usize], ISOLATED);
        for _ in 0..2 {
            assert_eq!(cc_device(&d, &gv).to_vec(), want, "gpma");
            assert_eq!(cc_device(&d, &rv).to_vec(), want, "rebuild");
        }
    }

    #[test]
    fn component_count_equals_the_distinct_labels() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        assert_eq!(component_count(&[]), 0);
        for len in [1usize, 63, 64, 65, 200, 1000] {
            // Drawn from a third of the ids: repeats, and ids never used.
            let labels: Vec<u32> = (0..len)
                .map(|_| rng.gen_range(0..(len as u32).div_ceil(3)))
                .collect();
            let distinct: std::collections::HashSet<u32> = labels.iter().copied().collect();
            assert_eq!(component_count(&labels), distinct.len(), "{len} labels");
        }
    }

    #[test]
    fn empty_graph_all_singletons() {
        let d = dev();
        let g = GpmaPlus::build(&d, 5, &[]);
        let view = GpmaView::build(&d, &g.storage);
        let labels = cc_device(&d, &view).to_vec();
        assert_eq!(labels, vec![0, 1, 2, 3, 4]);
    }
}
