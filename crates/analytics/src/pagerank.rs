//! PageRank (§6.3): power iteration over the adjacency matrix — the SpMV
//! kernel executed edge-centrically with atomic scatter, damping 0.85,
//! terminating when the L1 error drops below 1e-3 (the paper's standard
//! setup). Dangling mass is redistributed uniformly.
//!
//! Device kernels: `pr_init` once (uniform ranks, their shares and
//! dangling partials), then per iteration `pr_spmv` (a slot-wide scatter of
//! `share[u] = x[u] / outdeg[u]` into `y[v]`: one key load, one share load,
//! one atomic add per live entry) and `pr_update` (per vertex: the new rank
//! from `y[v]`, then `|rank − old|`, the dangling partial, the next share
//! and `y[v] = 0` written in the same pass), followed by the two
//! `reduce_f64` sums the stopping rule and the next update need. Five
//! `|V|`-sized buffers, allocated once per call.

use gpma_sim::{Device, DeviceBuffer, Lane};

use crate::util::{atomic_add_f64, filled_f64, load_f64, reduce_f64, store_f64};
use crate::view::{DeviceGraphView, HostGraph};

/// The paper's standard parameters.
pub const DAMPING: f64 = 0.85;
/// L1 convergence threshold on the rank vector (paper's stopping rule).
pub const EPSILON: f64 = 1e-3;
/// Hard iteration cap so non-converging runs still terminate.
pub const MAX_ITERS: usize = 200;

/// Result of a PageRank computation.
#[derive(Debug, Clone)]
pub struct PageRank {
    /// Final rank per vertex.
    pub ranks: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the L1 delta between two sweeps fell below the `epsilon`
    /// argument.
    pub converged: bool,
}

/// SpMV scatter: every live entry (u → v) adds `share[u]` to `y[v]`, where
/// `share[u]` is `x[u] / outdeg[u]` divided once per vertex, not per edge.
pub(crate) fn pr_scatter<G: DeviceGraphView>(
    dev: &Device,
    g: &G,
    share: &DeviceBuffer<u64>,
    y: &DeviceBuffer<u64>,
) {
    dev.launch("pr_spmv", g.num_slots(), |lane| {
        if let Some((u, v)) = g.slot_entry(lane, lane.tid) {
            let s = load_f64(lane, share, u as usize);
            atomic_add_f64(lane, y, v as usize, s);
        }
    });
}

/// Device PageRank via iterated SpMV: per iteration one scatter
/// (`pr_spmv`), one fused per-vertex pass (`pr_update`) and the two
/// reductions (L1 error, dangling mass) over what that pass wrote.
pub fn pagerank_device<G: DeviceGraphView>(
    dev: &Device,
    g: &G,
    damping: f64,
    epsilon: f64,
    max_iters: usize,
) -> PageRank {
    let nv = g.num_vertices() as usize;
    assert!(nv > 0);
    let deg = g.degrees();
    // The whole buffer set, allocated once: ranks, scattered sums, the
    // pre-divided shares, and the two per-vertex reduction inputs.
    let x = DeviceBuffer::<u64>::new(nv);
    let y = filled_f64(0.0, nv);
    let share = DeviceBuffer::<u64>::new(nv);
    let diff = DeviceBuffer::<u64>::new(nv);
    let dangling_parts = DeviceBuffer::<u64>::new(nv);
    // Rank, share and dangling partial of one vertex, as `pr_init` and
    // `pr_update` both leave them for the next scatter.
    let publish = |lane: &mut Lane, v: usize, rank: f64, d: u32| {
        store_f64(lane, &x, v, rank);
        let (s, dangling) = if d == 0 { (0.0, rank) } else { (rank / d as f64, 0.0) };
        store_f64(lane, &share, v, s);
        store_f64(lane, &dangling_parts, v, dangling);
    };
    dev.launch("pr_init", nv, |lane| {
        let v = lane.tid;
        let d = deg.get(lane, v);
        publish(lane, v, 1.0 / nv as f64, d);
    });
    // Mass held by out-degree-0 vertices.
    let mut dangling = reduce_f64(dev, &dangling_parts);
    let mut iterations = 0;
    let mut converged = false;

    while iterations < max_iters {
        iterations += 1;
        pr_scatter(dev, g, &share, &y);
        // rank = (1-d)/N + d * (y + dangling/N), with everything the next
        // iteration reads derived from it in the same pass.
        dev.launch("pr_update", nv, |lane| {
            let v = lane.tid;
            let raw = load_f64(lane, &y, v);
            let old = load_f64(lane, &x, v);
            let d = deg.get(lane, v);
            let rank = (1.0 - damping) / nv as f64 + damping * (raw + dangling / nv as f64);
            publish(lane, v, rank, d);
            store_f64(lane, &diff, v, (rank - old).abs());
            store_f64(lane, &y, v, 0.0);
        });
        let err = reduce_f64(dev, &diff);
        dangling = reduce_f64(dev, &dangling_parts);
        if err < epsilon {
            converged = true;
            break;
        }
    }

    PageRank {
        ranks: x.to_vec().into_iter().map(f64::from_bits).collect(),
        iterations,
        converged,
    }
}

/// CPU reference power iteration (same math, sequential), from the uniform
/// start vector.
pub fn pagerank_host<G: HostGraph + ?Sized>(
    g: &G,
    damping: f64,
    epsilon: f64,
    max_iters: usize,
) -> PageRank {
    let nv = g.num_vertices() as usize;
    assert!(nv > 0);
    pagerank_host_from(g, vec![1.0 / nv as f64; nv], damping, epsilon, max_iters)
}

/// The host power iteration started from `start` (one entry per vertex)
/// instead of the uniform vector: a caller holding the ranks of a graph a
/// small delta ago re-converges in a few sweeps.
pub fn pagerank_host_from<G: HostGraph + ?Sized>(
    g: &G,
    start: Vec<f64>,
    damping: f64,
    epsilon: f64,
    max_iters: usize,
) -> PageRank {
    let nv = g.num_vertices() as usize;
    assert_eq!(start.len(), nv, "one start rank per vertex");
    let mut x = start;
    let mut y = vec![0.0f64; nv];
    let degs: Vec<usize> = (0..nv as u32).map(|v| g.out_degree(v)).collect();
    let mut iterations = 0;
    let mut converged = false;
    while iterations < max_iters {
        iterations += 1;
        y.fill(0.0);
        let mut dangling = 0.0;
        for u in 0..nv as u32 {
            if degs[u as usize] == 0 {
                dangling += x[u as usize];
                continue;
            }
            let share = x[u as usize] / degs[u as usize] as f64;
            g.for_each_neighbor(u, &mut |v, _| {
                y[v as usize] += share;
            });
        }
        let err = finalize_host(&mut y, &x, dangling, damping);
        std::mem::swap(&mut x, &mut y);
        if err < epsilon {
            converged = true;
            break;
        }
    }
    PageRank {
        ranks: x,
        iterations,
        converged,
    }
}

/// The finalize step every host sweep ends with, in place on the scattered
/// sums: `y ← (1−d)/N + d·(y + dangling/N)`. Returns the L1 distance
/// `Σ|y − x|` to the previous ranks `x`.
pub(crate) fn finalize_host(y: &mut [f64], x: &[f64], dangling: f64, damping: f64) -> f64 {
    let nv = y.len();
    let mut err = 0.0;
    for (yv, xv) in y.iter_mut().zip(x) {
        *yv = (1.0 - damping) / nv as f64 + damping * (*yv + dangling / nv as f64);
        err += (*yv - xv).abs();
    }
    err
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

    #[test]
    fn two_cycle_converges_to_uniform() {
        let d = dev();
        let edges = vec![Edge::new(0, 1), Edge::new(1, 0)];
        let g = GpmaPlus::build(&d, 2, &edges);
        let view = GpmaView::build(&d, &g.storage);
        let pr = pagerank_device(&d, &view, DAMPING, 1e-10, 500);
        assert!(pr.converged);
        assert!((pr.ranks[0] - 0.5).abs() < 1e-6);
        assert!((pr.ranks[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn device_matches_host_reference() {
        use rand::{Rng, SeedableRng};
        let d = dev();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let n = 50u32;
        let edges: Vec<Edge> = (0..300)
            .map(|_| {
                let s = rng.gen_range(0..n);
                let t = rng.gen_range(0..n - 1);
                Edge::new(s, if t == s { n - 1 } else { t })
            })
            .collect();
        let g = GpmaPlus::build(&d, n, &edges);
        let view = GpmaView::build(&d, &g.storage);
        let got = pagerank_device(&d, &view, DAMPING, 1e-9, 300);
        let expect = pagerank_host(&AdjLists::build(n, &edges), DAMPING, 1e-9, 300);
        assert!(got.converged && expect.converged);
        for v in 0..n as usize {
            assert!(
                (got.ranks[v] - expect.ranks[v]).abs() < 1e-7,
                "vertex {v}: {} vs {}",
                got.ranks[v],
                expect.ranks[v]
            );
        }
    }

    /// The device loop as it stood before the iteration was fused: eight
    /// launches and three fresh `|V|`-sized buffers per iteration, the
    /// division done per edge (kernel labels prefixed `ref_`). The
    /// bit-for-bit reference.
    fn pagerank_device_ref<G: DeviceGraphView>(
        dev: &Device,
        g: &G,
        damping: f64,
        epsilon: f64,
        max_iters: usize,
    ) -> PageRank {
        let nv = g.num_vertices() as usize;
        assert!(nv > 0);
        let slots = g.num_slots();
        let deg = g.degrees();
        let mut x = filled_f64(1.0 / nv as f64, nv);
        let mut iterations = 0;
        let mut converged = false;

        while iterations < max_iters {
            iterations += 1;
            let y = filled_f64(0.0, nv);
            // SpMV scatter: every live entry (u → v) sends x[u]/outdeg[u] to v.
            {
                let xr = &x;
                let yr = &y;
                dev.launch("ref_spmv", slots, |lane| {
                    if let Some((u, v)) = g.slot_entry(lane, lane.tid) {
                        let xu = load_f64(lane, xr, u as usize);
                        let d = deg.get(lane, u as usize) as f64;
                        atomic_add_f64(lane, yr, v as usize, xu / d);
                    }
                });
            }
            // Dangling mass (out-degree-0 vertices).
            let dangling_parts = DeviceBuffer::<u64>::new(nv);
            {
                let xr = &x;
                let dp = &dangling_parts;
                dev.launch("ref_dangling", nv, |lane| {
                    let v = lane.tid;
                    let val = if deg.get(lane, v) == 0 {
                        load_f64(lane, xr, v)
                    } else {
                        0.0
                    };
                    store_f64(lane, dp, v, val);
                });
            }
            let dangling = reduce_f64(dev, &dangling_parts);
            // Finalize: y = (1-d)/N + d * (y + dangling/N).
            {
                let yr = &y;
                dev.launch("ref_finalize", nv, |lane| {
                    let v = lane.tid;
                    let raw = load_f64(lane, yr, v);
                    let rank =
                        (1.0 - damping) / nv as f64 + damping * (raw + dangling / nv as f64);
                    store_f64(lane, yr, v, rank);
                });
            }
            // L1 error.
            let diff = DeviceBuffer::<u64>::new(nv);
            {
                let xr = &x;
                let yr = &y;
                let df = &diff;
                dev.launch("ref_l1", nv, |lane| {
                    let v = lane.tid;
                    let e = (load_f64(lane, yr, v) - load_f64(lane, xr, v)).abs();
                    store_f64(lane, df, v, e);
                });
            }
            let err = reduce_f64(dev, &diff);
            x = y;
            if err < epsilon {
                converged = true;
                break;
            }
        }

        PageRank {
            ranks: x.to_vec().into_iter().map(f64::from_bits).collect(),
            iterations,
            converged,
        }
    }

    #[test]
    fn fused_iteration_is_bit_identical_to_the_loop_it_replaced() {
        fn check<G: DeviceGraphView>(d: &Device, g: &G) {
            let bits = |pr: &PageRank| pr.ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            // Cut short by the iteration cap, and converging.
            for (epsilon, max_iters) in [(0.0, 10), (EPSILON, MAX_ITERS)] {
                let got = pagerank_device(d, g, DAMPING, epsilon, max_iters);
                let want = pagerank_device_ref(d, g, DAMPING, epsilon, max_iters);
                assert_eq!(bits(&got), bits(&want));
                assert_eq!(got.iterations, want.iterations);
                assert_eq!(got.converged, want.converged);
                assert_eq!(want.converged, epsilon > 0.0);
            }
        }
        let d = dev();
        let (g, live) = crate::util::slid_pokec(&d);
        let gv = GpmaView::build(&d, &g.storage);
        assert!(gv.num_slots() > live.len(), "the array must carry gaps");
        assert!(gv.degrees().as_slice().iter().filter(|&&deg| deg == 0).count() >= 40);
        check(&d, &gv);
        let rc = RebuildCsr::build(&d, g.storage.num_vertices(), &live);
        check(&d, &RebuildView::build(&d, &rc));
    }

    /// The host loop as it stood before it took a start vector (a fresh
    /// `y` per sweep, finalize written out): the bit-for-bit reference.
    fn pagerank_host_ref(g: &AdjLists, damping: f64, epsilon: f64, max_iters: usize) -> PageRank {
        let nv = g.num_vertices() as usize;
        let mut x = vec![1.0 / nv as f64; nv];
        let degs: Vec<usize> = (0..nv as u32).map(|v| g.out_degree(v)).collect();
        let mut iterations = 0;
        let mut converged = false;
        while iterations < max_iters {
            iterations += 1;
            let mut y = vec![0.0f64; nv];
            let mut dangling = 0.0;
            for u in 0..nv as u32 {
                if degs[u as usize] == 0 {
                    dangling += x[u as usize];
                    continue;
                }
                let share = x[u as usize] / degs[u as usize] as f64;
                for (v, _) in g.neighbors(u) {
                    y[v as usize] += share;
                }
            }
            let mut err = 0.0;
            for v in 0..nv {
                y[v] = (1.0 - damping) / nv as f64 + damping * (y[v] + dangling / nv as f64);
                err += (y[v] - x[v]).abs();
            }
            x = y;
            if err < epsilon {
                converged = true;
                break;
            }
        }
        PageRank {
            ranks: x,
            iterations,
            converged,
        }
    }

    #[test]
    fn host_sweep_is_bit_identical_to_the_loop_it_replaced() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(21);
        let n = 50u32;
        // Sources 0..40 only: vertices 40..50 are dangling.
        let edges: Vec<Edge> = (0..260)
            .map(|_| Edge::new(rng.gen_range(0..40), rng.gen_range(0..n)))
            .collect();
        let g = AdjLists::build(n, &edges);
        assert!((40..n).all(|v| g.out_degree(v) == 0));
        let bits = |pr: &PageRank| pr.ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        // Converging, and cut short by the iteration cap.
        for (epsilon, max_iters) in [(1e-9, 300), (1e-12, 7)] {
            let want = pagerank_host_ref(&g, DAMPING, epsilon, max_iters);
            let got = pagerank_host(&g, DAMPING, epsilon, max_iters);
            let uniform = vec![1.0 / n as f64; n as usize];
            let from = pagerank_host_from(&g, uniform, DAMPING, epsilon, max_iters);
            for pr in [&got, &from] {
                assert_eq!(bits(pr), bits(&want));
                assert_eq!(pr.iterations, want.iterations);
                assert_eq!(pr.converged, want.converged);
            }
            assert_eq!(want.converged, max_iters == 300);
        }
    }

    #[test]
    fn warm_start_reaches_the_same_fixpoint_in_fewer_sweeps() {
        // Skewed in-degrees, so the uniform start is far from the fixpoint.
        let edges: Vec<Edge> = (0..200u32)
            .flat_map(|v| [Edge::new(v, (v + 1) % 200), Edge::new(v, v % 10)])
            .collect();
        let before = pagerank_host(&AdjLists::build(200, &edges), DAMPING, 1e-9, 300);
        let mut after = edges;
        after.push(Edge::new(3, 150));
        let g = AdjLists::build(200, &after);
        let cold = pagerank_host(&g, DAMPING, 1e-9, 300);
        let warm = pagerank_host_from(&g, before.ranks, DAMPING, 1e-9, 300);
        assert!(cold.converged && warm.converged);
        assert!(warm.iterations < cold.iterations);
        for (w, c) in warm.ranks.iter().zip(&cold.ranks) {
            assert!((w - c).abs() < 1e-7, "{w} vs {c}");
        }
    }

    #[test]
    fn ranks_sum_to_one_with_dangling_vertices() {
        let d = dev();
        // Vertex 2 is dangling.
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2)];
        let g = GpmaPlus::build(&d, 3, &edges);
        let view = GpmaView::build(&d, &g.storage);
        let pr = pagerank_device(&d, &view, DAMPING, 1e-10, 500);
        let sum: f64 = pr.ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "rank mass {sum}");
    }

    #[test]
    fn hub_gets_higher_rank_and_updates_shift_it() {
        let d = dev();
        let star: Vec<Edge> = (1..8u32).map(|v| Edge::new(v, 0)).collect();
        let mut g = GpmaPlus::build(&d, 8, &star);
        let view = GpmaView::build(&d, &g.storage);
        let pr = pagerank_device(&d, &view, DAMPING, EPSILON, MAX_ITERS);
        let max = pr.ranks.iter().cloned().fold(0.0, f64::max);
        assert_eq!(pr.ranks[0], max, "hub must have the top rank");
        // Redirect everything to vertex 1 (including cutting 1→0, so rank
        // no longer chains through to the old hub) and re-rank — the
        // continuous-monitoring pattern.
        g.update_batch(
            &d,
            &UpdateBatch {
                insertions: (2..8u32).map(|v| Edge::new(v, 1)).collect(),
                deletions: (1..8u32).map(|v| Edge::new(v, 0)).collect(),
            },
        );
        let view = GpmaView::build(&d, &g.storage);
        let pr2 = pagerank_device(&d, &view, DAMPING, EPSILON, MAX_ITERS);
        assert!(pr2.ranks[1] > pr2.ranks[0], "rank must follow the edges");
    }

    #[test]
    fn rebuild_view_agrees_with_gpma_view() {
        let d = dev();
        let edges = vec![
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 0),
            Edge::new(2, 1),
        ];
        let g = GpmaPlus::build(&d, 3, &edges);
        let vg = GpmaView::build(&d, &g.storage);
        let rc = RebuildCsr::build(&d, 3, &edges);
        let vr = RebuildView::build(&d, &rc);
        let a = pagerank_device(&d, &vg, DAMPING, 1e-9, 300);
        let b = pagerank_device(&d, &vr, DAMPING, 1e-9, 300);
        for v in 0..3 {
            assert!((a.ranks[v] - b.ranks[v]).abs() < 1e-9);
        }
    }
}
