//! Delta-PageRank: maintain ranks across epoch deltas by *residual
//! pushing* from the endpoints of changed edges (Gauss–Southwell style),
//! instead of re-running power iteration from a cold start.
//!
//! The maintainer keeps the pair `(p, r)` with the invariant
//! `p* = p + solve(r)` for the PageRank fixpoint
//! `p* = (1-d)/N + d·(Aᵀ D⁻¹ p* + dangling(p*)/N)`. A *push* at `v` moves
//! `v`'s residual into its rank and forwards `d·res/outdeg(v)` to its
//! out-neighbors; work is proportional to the residual mass actually moved,
//! which after a small edge delta is concentrated around the changed
//! endpoints. Dangling vertices spread their push uniformly — tracked as a
//! scalar *uniform residual* that is folded into the per-vertex residuals
//! (one O(N) sweep) only when it accumulates past the push threshold, so a
//! dangling push stays O(1).
//!
//! On an edge change at source `u`, only `u`'s old and new out-rows see a
//! residual adjustment (`O(deg(u))`), replacing `u`'s old per-neighbor
//! contribution `d·p[u]/deg_old` with the new one. Ranks converge to the
//! same fixpoint power iteration approximates: the proptests compare
//! against [`pagerank_host`](gpma_analytics::pagerank_host) at matched
//! tolerances.

use crate::graph::{AppliedDelta, DeltaGraph};

/// A live PageRank vector maintained from epoch deltas by residual pushing.
#[derive(Debug, Clone)]
pub struct DeltaPageRank {
    damping: f64,
    /// Target total L1 distance to the fixpoint.
    epsilon: f64,
    /// Per-vertex push threshold derived from `epsilon` at rebase.
    tol: f64,
    p: Vec<f64>,
    r: Vec<f64>,
    /// Residual carried by *every* vertex (the dangling spread), folded
    /// into `r` lazily.
    uniform_r: f64,
    work: u64,
}

impl DeltaPageRank {
    /// A maintainer targeting `|p - p*|₁ ≲ epsilon / (1 - damping)` (the
    /// same guarantee shape power iteration's L1 stopping rule gives);
    /// call [`rebase`](Self::rebase) before the first
    /// [`apply`](Self::apply).
    pub fn new(damping: f64, epsilon: f64) -> Self {
        DeltaPageRank {
            damping,
            epsilon,
            tol: epsilon,
            p: Vec::new(),
            r: Vec::new(),
            uniform_r: 0.0,
            work: 0,
        }
    }

    /// Current rank estimates (sum ≈ 1, like the oracle's).
    pub fn ranks(&self) -> &[f64] {
        &self.p
    }

    /// Cumulative pushes + residual adjustments + fold sweeps.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Solve from scratch on `g` by pushing from a zero start.
    pub fn rebase(&mut self, g: &DeltaGraph) {
        let nv = g.num_vertices() as usize;
        assert!(nv > 0, "PageRank needs at least one vertex");
        self.tol = self.epsilon / (1.5 * nv as f64);
        self.p = vec![0.0; nv];
        self.r = vec![(1.0 - self.damping) / nv as f64; nv];
        self.uniform_r = 0.0;
        self.push_to_convergence(g);
    }

    /// Repair the ranks for one applied delta (`g` is the post-delta
    /// graph): adjust residuals at the changed sources, then push.
    pub fn apply(&mut self, g: &DeltaGraph, changes: &AppliedDelta) {
        if changes.added.is_empty() && changes.removed.is_empty() {
            return;
        }
        let nv = self.p.len() as f64;
        let d = self.damping;
        // Both lists are key-sorted: visit each source whose out-row
        // changed once, ascending, with its runs of added / removed edges.
        let (mut added_rest, mut removed_rest) = (&changes.added[..], &changes.removed[..]);
        loop {
            let heads = added_rest.first().into_iter().chain(removed_rest.first());
            let Some(u) = heads.map(|e| e.src).min() else {
                break;
            };
            let n_added = added_rest.partition_point(|e| e.src == u);
            let n_removed = removed_rest.partition_point(|e| e.src == u);
            let (added, removed) = (&added_rest[..n_added], &removed_rest[..n_removed]);
            (added_rest, removed_rest) = (&added_rest[n_added..], &removed_rest[n_removed..]);
            let pu = self.p[u as usize];
            let deg_new = g.out_degree(u);
            let deg_old = deg_new + removed.len() - added.len();
            // Retract u's old contribution...
            if deg_old == 0 {
                self.uniform_r -= d * pu / nv;
            } else {
                let c_old = d * pu / deg_old as f64;
                for (v, _) in g.out_neighbors(u) {
                    if !added.iter().any(|e| e.dst == v) {
                        self.r[v as usize] -= c_old;
                        self.work += 1;
                    }
                }
                for e in removed {
                    self.r[e.dst as usize] -= c_old;
                    self.work += 1;
                }
            }
            // ...and grant the new one.
            if deg_new == 0 {
                self.uniform_r += d * pu / nv;
            } else {
                let c_new = d * pu / deg_new as f64;
                for (v, _) in g.out_neighbors(u) {
                    self.r[v as usize] += c_new;
                    self.work += 1;
                }
            }
        }
        self.push_to_convergence(g);
    }

    /// Push until every effective residual `|r[v] + uniform_r|` is within
    /// the per-vertex tolerance.
    fn push_to_convergence(&mut self, g: &DeltaGraph) {
        let nv = self.p.len();
        let d = self.damping;
        let tol = self.tol;
        let mut queued = vec![false; nv];
        let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
        fn enqueue_all(
            tol: f64,
            r: &[f64],
            uniform_r: f64,
            queued: &mut [bool],
            queue: &mut std::collections::VecDeque<u32>,
        ) {
            for (v, rv) in r.iter().enumerate() {
                if !queued[v] && (rv + uniform_r).abs() > tol {
                    queued[v] = true;
                    queue.push_back(v as u32);
                }
            }
        }
        enqueue_all(tol, &self.r, self.uniform_r, &mut queued, &mut queue);
        self.work += nv as u64;
        loop {
            while let Some(v) = queue.pop_front() {
                queued[v as usize] = false;
                let res = self.r[v as usize] + self.uniform_r;
                if res.abs() <= self.tol {
                    continue;
                }
                self.work += 1;
                self.p[v as usize] += res;
                self.r[v as usize] = -self.uniform_r;
                let deg = g.out_degree(v);
                if deg == 0 {
                    // Dangling: the spread goes to everyone, as a scalar.
                    self.uniform_r += d * res / nv as f64;
                    // Folding decides when that scalar matters; but v
                    // itself may immediately exceed tolerance again, so
                    // recheck it cheaply.
                    if (self.r[v as usize] + self.uniform_r).abs() > self.tol
                        && !queued[v as usize]
                    {
                        queued[v as usize] = true;
                        queue.push_back(v);
                    }
                } else {
                    let share = d * res / deg as f64;
                    for (w, _) in g.out_neighbors(v) {
                        self.r[w as usize] += share;
                        self.work += 1;
                        if !queued[w as usize]
                            && (self.r[w as usize] + self.uniform_r).abs() > self.tol
                        {
                            queued[w as usize] = true;
                            queue.push_back(w);
                        }
                    }
                }
            }
            // The queue is empty under the *current* uniform residual. If
            // the accumulated dangling spread is big enough to push any
            // vertex past tolerance, fold it in and rescan once.
            if self.uniform_r.abs() > self.tol * 0.5 {
                for v in 0..nv {
                    self.r[v] += self.uniform_r;
                }
                self.uniform_r = 0.0;
                self.work += nv as u64;
                enqueue_all(tol, &self.r, 0.0, &mut queued, &mut queue);
                if queue.is_empty() {
                    break;
                }
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_analytics::pagerank_host;
    use gpma_core::delta::SnapshotDelta;
    use gpma_core::framework::GraphSnapshot;
    use gpma_graph::{Edge, UpdateBatch};

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
        // A long chain: changes at the far end perturb only a small
        // neighborhood of the rank vector, which is exactly the case
        // residual pushing localizes and power iteration cannot.
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
}
