//! PageRank (§6.3): power iteration over the adjacency matrix, damping
//! 0.85, terminating when the L1 error drops below 1e-3 (the paper's
//! standard setup). Dangling mass is redistributed uniformly.
//!
//! The device SpMV *pulls*, the form Gunrock runs PageRank in: each vertex
//! gathers over its in-edges, so no lane writes another vertex's sum and no
//! atomic is needed per edge. GPMA+ is keyed by source, so the in-edges are
//! indexed once per call by a counting sort over the slot array
//! (`in_edges`): `pr_in_count` counts each destination's live entries,
//! `exclusive_scan_u32` turns the counts into row offsets, and
//! `pr_in_place` writes every entry's source at its destination's cursor.
//! Then `pr_init` (uniform ranks, their shares `x[v] / outdeg[v]`, dangling
//! partials), and per iteration one per-vertex launch, `pr_pull`: sum
//! `share[u]` over `v`'s in-edges, compute the rank, write it with
//! `|rank − old|`, the dangling partial and the next share — into the other
//! of two share buffers, as the sweep still reads this one — followed by
//! the two `reduce_f64` sums the stopping rule and the next sweep need.
//! Five `|V|`-sized f64 buffers and the index, allocated once per call.
//!
//! On an inline device the cursors hand out places in slot order, which is
//! the order the edge-centric push scatter this replaced added the shares
//! in, so the ranks are bit-identical to it. On a pooled device a row's
//! order, and with it the last bits of a sum, vary between runs.
//! `pagerank_multi` (`multi.rs`) still pushes, one atomic scatter per shard.

use gpma_sim::primitives::exclusive_scan_u32;
use gpma_sim::{launch, Device, DeviceBuffer, Lane, LaneMode};

use crate::util::{load_f64, reduce_f64, store_f64};
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

/// The live entries grouped by destination, CSR-style: the sources of
/// `v`'s in-edges are `sources[offsets[v]..offsets[v + 1]]`.
pub(crate) struct InEdges {
    /// `|V| + 1` row offsets; the last is the number of live entries.
    pub(crate) offsets: DeviceBuffer<u32>,
    /// One source per live entry.
    pub(crate) sources: DeviceBuffer<u32>,
}

/// Index `g`'s in-edges by counting sort: count each destination's live
/// entries, scan the counts into offsets, then place every entry's source
/// at an atomic per-destination cursor. Two slot-wide launches and a scan,
/// one atomic per live entry in each pass.
pub(crate) fn in_edges<G: DeviceGraphView>(dev: &Device, g: &G) -> InEdges {
    let nv = g.num_vertices() as usize;
    // One count past the last vertex, so the scan ends on the total.
    let counts = DeviceBuffer::<u32>::new(nv + 1);
    launch!(dev, "pr_in_count", g.num_slots(), |lane| {
        if let Some((_, v)) = g.slot_entry(lane, lane.tid) {
            counts.atomic_add(lane, v as usize, 1);
        }
    });
    let (offsets, entries) = exclusive_scan_u32(dev, &counts);
    let sources = DeviceBuffer::<u32>::new(entries as usize);
    let cursors = DeviceBuffer::<u32>::new(nv);
    launch!(dev, "pr_in_place", g.num_slots(), |lane| {
        if let Some((u, v)) = g.slot_entry(lane, lane.tid) {
            let at = offsets.get(lane, v as usize) + cursors.atomic_add(lane, v as usize, 1);
            sources.set(lane, at as usize, u);
        }
    });
    InEdges { offsets, sources }
}

/// Device PageRank via iterated SpMV over the in-edge index: per iteration
/// one per-vertex gather (`pr_pull`) and the two reductions (L1 error,
/// dangling mass) over what it wrote.
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
    let InEdges { offsets, sources } = in_edges(dev, g);
    // The whole buffer set, allocated once: ranks, the pre-divided shares
    // one sweep reads and the next one's (swapped every sweep), and the two
    // per-vertex reduction inputs.
    let x = DeviceBuffer::<u64>::new(nv);
    let shares = [DeviceBuffer::<u64>::new(nv), DeviceBuffer::<u64>::new(nv)];
    let diff = DeviceBuffer::<u64>::new(nv);
    let dangling_parts = DeviceBuffer::<u64>::new(nv);
    launch!(dev, "pr_init", nv, |lane| {
        let v = lane.tid;
        let d = deg.get(lane, v);
        publish(lane, [&x, &shares[0], &dangling_parts], v, 1.0 / nv as f64, d);
    });
    // Mass held by out-degree-0 vertices.
    let mut dangling = reduce_f64(dev, &dangling_parts);
    let mut iterations = 0;
    let mut converged = false;

    while iterations < max_iters {
        let (share, next) = (&shares[iterations % 2], &shares[(iterations + 1) % 2]);
        iterations += 1;
        // rank = (1-d)/N + d * (Σ share[u] over in-edges + dangling/N), with
        // everything the next sweep reads derived from it in the same pass.
        launch!(dev, "pr_pull", nv, |lane| {
            let v = lane.tid;
            let old = load_f64(lane, &x, v);
            let d = deg.get(lane, v);
            let mut raw = 0.0;
            for i in offsets.get(lane, v)..offsets.get(lane, v + 1) {
                let u = sources.get(lane, i as usize);
                raw += load_f64(lane, share, u as usize);
            }
            let rank = (1.0 - damping) / nv as f64 + damping * (raw + dangling / nv as f64);
            publish(lane, [&x, next, &dangling_parts], v, rank, d);
            store_f64(lane, &diff, v, (rank - old).abs());
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

/// Rank, share and dangling partial of vertex `v` of out-degree `d`, into
/// `[ranks, shares, dangling parts]`, as `pr_init` and `pr_pull` both leave
/// them for the next sweep.
#[inline]
fn publish<M: LaneMode>(
    lane: &mut Lane<'_, M>,
    out: [&DeviceBuffer<u64>; 3],
    v: usize,
    rank: f64,
    d: u32,
) {
    let [x, share, dangling_parts] = out;
    store_f64(lane, x, v, rank);
    let (s, dangling) = if d == 0 { (0.0, rank) } else { (rank / d as f64, 0.0) };
    store_f64(lane, share, v, s);
    store_f64(lane, dangling_parts, v, dangling);
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
    let mut share = vec![0.0f64; nv];
    let degs: Vec<usize> = (0..nv as u32).map(|v| g.out_degree(v)).collect();
    let mut iterations = 0;
    let mut converged = false;
    while iterations < max_iters {
        iterations += 1;
        // Vertex pass: each rank's share per out-edge, and the mass of the
        // dangling vertices summed in vertex order.
        let mut dangling = 0.0;
        for ((s, &xu), &d) in share.iter_mut().zip(&x).zip(&degs) {
            *s = if d == 0 {
                dangling += xu;
                0.0
            } else {
                xu / d as f64
            };
        }
        // Edge pass: rows in vertex order, so every `y[v]` gets the same
        // shares added in the same order as a row-by-row scatter.
        y.fill(0.0);
        g.for_each_edge(&mut |u, v| y[v as usize] += share[u as usize]);
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
    use crate::util::{atomic_add_f64, filled_f64};
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

    /// The device loop as it stood before the iteration was fused and
    /// turned into a pull: an edge-centric atomic scatter, eight launches
    /// and three fresh `|V|`-sized buffers per iteration, the division done
    /// per edge (kernel labels prefixed `ref_`). The bit-for-bit reference.
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

    /// Each vertex's in-edge sources, as `in_edges` lays them out.
    fn index_rows(index: &InEdges) -> Vec<Vec<u32>> {
        let (offsets, sources) = (index.offsets.to_vec(), index.sources.to_vec());
        offsets.windows(2).map(|w| sources[w[0] as usize..w[1] as usize].to_vec()).collect()
    }

    #[test]
    fn in_edge_index_is_the_host_transpose_on_both_views() {
        use crate::util::{slid_pokec, ISOLATED};
        fn check<G: DeviceGraphView>(inline: &Device, pooled: &Device, g: &G, want: &[Vec<u32>]) {
            // Inline lanes place sources in slot order, exactly.
            let index = in_edges(inline, g);
            assert_eq!(index.offsets.len(), want.len() + 1);
            assert_eq!(index.sources.len(), want.iter().map(Vec::len).sum::<usize>());
            assert_eq!(index_rows(&index), want);
            // Pooled lanes race for the cursors: the same rows as multisets.
            let mut rows = index_rows(&in_edges(pooled, g));
            rows.iter_mut().for_each(|row| row.sort_unstable());
            assert_eq!(rows, want);
            // The pooled sums differ from the inline ones only in the order
            // of their additions.
            let a = pagerank_device(inline, g, DAMPING, 0.0, 10);
            let b = pagerank_device(pooled, g, DAMPING, 0.0, 10);
            for (v, (ra, rb)) in a.ranks.iter().zip(&b.ranks).enumerate() {
                assert!((ra - rb).abs() < 1e-12, "vertex {v}: {ra} vs {rb}");
            }
            let sum: f64 = b.ranks.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "rank mass {sum}");
        }
        let inline = dev();
        let pooled = Device::new(DeviceConfig {
            host_parallelism: 4,
            ..DeviceConfig::deterministic()
        });
        let (g, live) = slid_pokec(&inline);
        // The host transpose. Both views' arrays are sorted by the key
        // `src << 32 | dst`, so slot order within a destination is
        // ascending source: the order a sorted edge list visits them in.
        let mut by_key: Vec<(u32, u32)> = live.iter().map(|e| (e.src, e.dst)).collect();
        by_key.sort_unstable();
        let mut want = vec![Vec::new(); g.storage.num_vertices() as usize];
        for (s, d) in by_key {
            want[d as usize].push(s);
        }
        assert!(want[ISOLATED as usize].is_empty());
        let gv = GpmaView::build(&inline, &g.storage);
        assert!(gv.num_slots() > live.len(), "the array must carry gaps");
        check(&inline, &pooled, &gv, &want);
        let rc = RebuildCsr::build(&inline, g.storage.num_vertices(), &live);
        check(&inline, &pooled, &RebuildView::build(&inline, &rc), &want);
    }

    #[test]
    fn empty_graph_has_an_empty_index_and_uniform_ranks() {
        fn check<G: DeviceGraphView>(d: &Device, g: &G) {
            let index = in_edges(d, g);
            assert_eq!(index.offsets.to_vec(), vec![0; 6]);
            assert_eq!(index.sources.len(), 0);
            let pr = pagerank_device(d, g, DAMPING, EPSILON, MAX_ITERS);
            assert!(pr.converged);
            for r in &pr.ranks {
                assert!((r - 0.2).abs() < 1e-12, "{r}");
            }
        }
        let d = dev();
        let g = GpmaPlus::build(&d, 5, &[]);
        check(&d, &GpmaView::build(&d, &g.storage));
        let rc = RebuildCsr::build(&d, 5, &[]);
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
        g.update_batch_lazy(
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
