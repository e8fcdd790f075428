//! PageRank kept current across epoch deltas by *warm-starting* the host
//! power iteration ([`pagerank_host_from`]): after a delta the previous
//! ranks are a start vector already within the delta's perturbation of the
//! new fixpoint, so re-converging takes a few full sweeps over the image
//! where a uniform start takes tens.
//!
//! Every sweep visits the whole graph, so a delta costs
//! `sweeps × (V + E)` whatever its size. Residual pushing from the changed
//! endpoints (Gauss–Southwell) is cheaper only for deltas of a few updates;
//! at the batch sizes this system publishes (≥ 256 updates per flush) it
//! ties or loses per delta and is 9× slower to rebase — the measurements
//! are in DESIGN.md §9 — so the sweep every other layer already runs is the
//! only host implementation.

use gpma_analytics::{pagerank_host, pagerank_host_from, PageRank, MAX_ITERS};
use gpma_core::delta::NetDelta;

use crate::graph::DeltaGraph;

/// A live PageRank vector re-converged from its previous value after every
/// epoch delta.
#[derive(Debug, Clone)]
pub struct DeltaPageRank {
    damping: f64,
    /// Stopping rule of [`pagerank_host_from`]: L1 change of one sweep.
    epsilon: f64,
    ranks: Vec<f64>,
    work: u64,
}

impl DeltaPageRank {
    /// A maintainer that stops sweeping once a sweep moves the ranks by
    /// less than `epsilon` in L1, which leaves them within
    /// `epsilon · damping / (1 - damping)` of the fixpoint — the guarantee
    /// of the from-scratch oracle at the same parameters. Call
    /// [`rebase`](Self::rebase) before the first [`apply`](Self::apply).
    pub fn new(damping: f64, epsilon: f64) -> Self {
        DeltaPageRank {
            damping,
            epsilon,
            ranks: Vec::new(),
            work: 0,
        }
    }

    /// Current rank estimates (sum = 1 up to rounding, like the oracle's).
    pub fn ranks(&self) -> &[f64] {
        &self.ranks
    }

    /// Cumulative vertex + edge visits: `V + E` per sweep.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Solve from scratch on `g`: the oracle itself, uniform start.
    pub fn rebase(&mut self, g: &DeltaGraph) {
        self.adopt(g, pagerank_host(g, self.damping, self.epsilon, MAX_ITERS));
    }

    /// Repair the ranks for one applied delta (`g` is the post-delta
    /// graph): re-converge from the pre-delta ranks.
    pub fn apply(&mut self, g: &DeltaGraph, changes: &NetDelta) {
        if changes.topology_changes() == 0 {
            return;
        }
        let start = std::mem::take(&mut self.ranks);
        self.adopt(g, pagerank_host_from(g, start, self.damping, self.epsilon, MAX_ITERS));
    }

    /// Keep the ranks `pr` converged to on `g` and count its sweeps.
    fn adopt(&mut self, g: &DeltaGraph, pr: PageRank) {
        self.work += pr.iterations as u64 * (g.num_vertices() as u64 + g.num_edges() as u64);
        self.ranks = pr.ranks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_core::delta::SnapshotDelta;
    use gpma_core::framework::GraphSnapshot;
    use gpma_graph::datasets::pokec_like;
    use gpma_graph::{Edge, UpdateBatch};
    use proptest::prelude::*;

    const D: f64 = 0.85;
    const EPS: f64 = 1e-9;

    fn assert_close(a: &[f64], b: &[f64], tag: &str) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() < 1e-6,
                "{tag}: vertex {i}: {x} vs {y}"
            );
        }
    }

    fn oracle(g: &DeltaGraph) -> Vec<f64> {
        pagerank_host(g, D, EPS, 100_000).ranks
    }

    fn step(g: &mut DeltaGraph, pr: &mut DeltaPageRank, epoch: u64, ins: &[(u32, u32)], del: &[(u32, u32)]) {
        let delta = SnapshotDelta::from_batch(
            epoch,
            &UpdateBatch {
                insertions: ins.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
                deletions: del.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
            },
        );
        let applied = g.apply(&delta);
        pr.apply(g, &applied);
        assert_close(pr.ranks(), &oracle(g), &format!("epoch {epoch}"));
    }

    #[test]
    fn rebase_matches_oracle_with_dangling_mass() {
        // 2 is dangling; its mass spreads uniformly.
        let snap = GraphSnapshot::from_edges(0, 3, vec![Edge::new(0, 1), Edge::new(1, 2)]);
        let g = DeltaGraph::from_snapshot(&snap);
        let mut pr = DeltaPageRank::new(D, EPS);
        pr.rebase(&g);
        assert_close(pr.ranks(), &oracle(&g), "rebase");
        let sum: f64 = pr.ranks().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "rank mass {sum}");
    }

    #[test]
    fn rank_follows_the_edges_incrementally() {
        let star: Vec<Edge> = (1..8u32).map(|v| Edge::new(v, 0)).collect();
        let snap = GraphSnapshot::from_edges(0, 8, star);
        let mut g = DeltaGraph::from_snapshot(&snap);
        let mut pr = DeltaPageRank::new(D, EPS);
        pr.rebase(&g);
        let hub = pr.ranks()[0];
        assert!(pr.ranks().iter().all(|&x| x <= hub));
        // Redirect the spokes to vertex 1 (and cut 1→0 so rank does not
        // chain through) — the §6.3 continuous-monitoring scenario.
        let ins: Vec<(u32, u32)> = (2..8).map(|v| (v, 1)).collect();
        let del: Vec<(u32, u32)> = (1..8).map(|v| (v, 0)).collect();
        step(&mut g, &mut pr, 1, &ins, &del);
        assert!(pr.ranks()[1] > pr.ranks()[0], "rank must follow the edges");
    }

    #[test]
    fn dangling_transitions_both_ways() {
        let snap = GraphSnapshot::from_edges(0, 4, vec![Edge::new(0, 1), Edge::new(1, 2)]);
        let mut g = DeltaGraph::from_snapshot(&snap);
        let mut pr = DeltaPageRank::new(D, EPS);
        pr.rebase(&g);
        // 2 gains an out-edge: dangling → non-dangling.
        step(&mut g, &mut pr, 1, &[(2, 3)], &[]);
        // 1 loses its only out-edge: non-dangling → dangling.
        step(&mut g, &mut pr, 2, &[], &[(1, 2)]);
        // And back.
        step(&mut g, &mut pr, 3, &[(1, 0)], &[]);
    }

    #[test]
    fn incremental_work_beats_recompute_for_local_deltas() {
        // A long chain: a change at the far end perturbs only a small
        // neighborhood of the rank vector, so the previous ranks are a
        // start a few sweeps from the new fixpoint.
        let n = 1000u32;
        let chain: Vec<Edge> = (0..n - 2).map(|i| Edge::new(i, i + 1)).collect();
        let snap = GraphSnapshot::from_edges(0, n, chain);
        let mut g = DeltaGraph::from_snapshot(&snap);
        let mut pr = DeltaPageRank::new(D, 1e-5);
        pr.rebase(&g);
        let rebase_work = pr.work();
        // From-scratch oracle work at the matched tolerance: iterations ×
        // (N + E) per epoch — what a recompute-per-epoch monitor would pay.
        let mut oracle_work = 0u64;
        for epoch in 1..=10u64 {
            if epoch % 2 == 1 {
                step_quiet(&mut g, &mut pr, epoch, &[(n - 2, n - 1)], &[]);
            } else {
                step_quiet(&mut g, &mut pr, epoch, &[], &[(n - 2, n - 1)]);
            }
            let scratch = pagerank_host(&g, D, 1e-5, 100_000);
            oracle_work += scratch.iterations as u64 * (n as u64 + g.num_edges() as u64);
        }
        let incremental = pr.work() - rebase_work;
        assert!(
            incremental < oracle_work / 2,
            "10 leaf-edge epochs ({incremental}) must cost well under \
             10 from-scratch recomputes ({oracle_work})"
        );
        // Still exact at the end.
        let expect = pagerank_host(&g, D, 1e-9, 100_000).ranks;
        for (x, y) in pr.ranks().iter().zip(&expect) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    fn step_quiet(g: &mut DeltaGraph, pr: &mut DeltaPageRank, epoch: u64, ins: &[(u32, u32)], del: &[(u32, u32)]) {
        let delta = SnapshotDelta::from_batch(
            epoch,
            &UpdateBatch {
                insertions: ins.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
                deletions: del.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
            },
        );
        let applied = g.apply(&delta);
        pr.apply(g, &applied);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The traffic the maintainer serves: 256-update mixed slides of a
        /// 20 k-edge window over 2 k vertices at the serving tolerance.
        #[test]
        fn mixed_256_update_deltas_stay_within_the_oracles_bound(
            seed in 0u64..1_000,
            epochs in 3u64..8,
        ) {
            const NV: u32 = 2_000;
            const WINDOW: usize = 20_000;
            const HALF: usize = 128;
            let eps = 1e-3;
            let stream = pokec_like(NV, 2 * WINDOW, seed).edges;
            let snap = GraphSnapshot::from_edges(0, NV, stream[..WINDOW].to_vec());
            let mut g = DeltaGraph::from_snapshot(&snap);
            let mut pr = DeltaPageRank::new(D, eps);
            pr.rebase(&g);
            for epoch in 1..=epochs {
                let at = (epoch as usize - 1) * HALF;
                let delta = SnapshotDelta::from_batch(
                    epoch,
                    &UpdateBatch {
                        insertions: stream[WINDOW + at..WINDOW + at + HALF].to_vec(),
                        deletions: stream[at..at + HALF].to_vec(),
                    },
                );
                let applied = g.apply(&delta);
                prop_assert_eq!(applied.topology_changes(), 2 * HALF);
                pr.apply(&g, &applied);
                let reference = pagerank_host(&g, D, 1e-12, 100_000);
                prop_assert!(reference.converged);
                let l1: f64 = pr
                    .ranks()
                    .iter()
                    .zip(&reference.ranks)
                    .map(|(x, y)| (x - y).abs())
                    .sum();
                prop_assert!(l1 <= eps * D / (1.0 - D), "epoch {}: L1 {}", epoch, l1);
                let sum: f64 = pr.ranks().iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-9, "epoch {}: rank mass {}", epoch, sum);
            }
        }
    }
}
