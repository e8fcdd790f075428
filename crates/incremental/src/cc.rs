//! Incremental connected components over the undirected edge set (the
//! paper's partition view and `cc_host`'s semantics), kept with a spanning
//! forest: the first level of Holm–de Lichtenberg–Thorup dynamic
//! connectivity, with a delta's deletions classified once, as Meerkat
//! (arXiv:2305.17813) does.
//!
//! - Every component is one tree of `parent` pointers. A root is its own
//!   parent, the root is the component's id, and every tree edge is live in
//!   at least one direction.
//! - An insertion across two components relabels the smaller one (weighted
//!   quick-find over per-component member rings), everts the smaller side's
//!   tree at its endpoint and hangs it from the other endpoint.
//! - Deleting a non-tree edge costs nothing. Every gone tree edge is cut
//!   first, and each cut-off child becomes a fragment root. Each fragment
//!   then searches the post-delta graph from its root for the first edge
//!   that leaves it, and relinks there. A fragment whose search exhausts is
//!   a whole component and is split off.
//!
//! Labels are the per-component minimum vertex id, tracked across merges
//! and splits, so they are bit-identical to
//! [`cc_host`](gpma_analytics::cc_host).

use gpma_core::delta::NetDelta;

use crate::graph::DeltaGraph;

/// The root of `x`'s set in the union-find `uf`, halving the path walked.
fn find(uf: &mut [u32], mut x: u32) -> u32 {
    while uf[x as usize] != x {
        uf[x as usize] = uf[uf[x as usize] as usize];
        x = uf[x as usize];
    }
    x
}

/// `x`'s neighbours over the undirected edge set: the out-row, then the
/// in-row. A vertex joined to `x` both ways comes twice.
fn undirected_neighbors(g: &DeltaGraph, x: u32) -> impl Iterator<Item = u32> + '_ {
    g.out_neighbors(x).map(|(w, _)| w).chain(g.in_neighbors(x))
}

/// A live component labeling over the undirected edge set, maintained from
/// epoch deltas.
#[derive(Debug, Clone, Default)]
pub struct IncrementalCc {
    /// Spanning-forest parent per vertex; a root is its own parent.
    parent: Vec<u32>,
    /// Component id per vertex: the root of the component's tree.
    comp: Vec<u32>,
    /// Successor and predecessor in the component's circular member ring.
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Member count per component id.
    size: Vec<u32>,
    /// Minimum member per component id: the canonical label.
    min: Vec<u32>,
    count: usize,
    work: u64,
    /// Fragment roots the cut pass left. Kept between deltas, like the two
    /// below, so a delta that splits or relinks allocates nothing.
    cut: Vec<u32>,
    /// Search queue; after an exhausted search, the fragment's members.
    queue: Vec<u32>,
    /// Vertices the running search holds; all false between searches.
    seen: Vec<bool>,
}

impl IncrementalCc {
    /// An empty maintainer; call [`rebase`](Self::rebase) before the first
    /// [`apply`](Self::apply).
    pub fn new() -> Self {
        IncrementalCc::default()
    }

    /// Cumulative maintenance work in relabel/edge-scan/pointer-step units.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Canonical min-id component labels (position `v` holds the smallest
    /// vertex id in `v`'s component). Equals `cc_host` on the same graph.
    pub fn labels(&self) -> Vec<u32> {
        self.comp.iter().map(|&c| self.min[c as usize]).collect()
    }

    /// Number of distinct components.
    pub fn component_count(&self) -> usize {
        self.count
    }

    /// Rebuild forest and labeling from scratch on `g`, reading only the
    /// forward rows:
    ///
    /// 1. union-find over every edge, the smaller root winning, so each
    ///    set's root is its minimum — the label and the tree's root. Each
    ///    edge that joins two sets is a tree edge;
    /// 2. a BFS over the tree edges alone from each minimum orients the
    ///    forest;
    /// 3. labels and member rings fill in vertex order.
    ///
    /// The other arrays serve as scratch until step 3 writes them: `comp`
    /// is the union-find, `next` / `prev` hold the tree edges and then the
    /// BFS queue, and `size` / `min` each vertex's tree degree and first
    /// slot in `adj`.
    pub fn rebase(&mut self, g: &DeltaGraph) {
        let n = g.num_vertices() as usize;
        for a in [
            &mut self.parent,
            &mut self.comp,
            &mut self.next,
            &mut self.prev,
            &mut self.size,
            &mut self.min,
        ] {
            a.clear();
            a.resize(n, 0);
        }
        self.seen.clear();
        self.seen.resize(n, false);
        let IncrementalCc {
            parent,
            comp,
            next,
            prev,
            size,
            min,
            ..
        } = self;
        for (v, c) in comp.iter_mut().enumerate() {
            *c = v as u32;
        }
        let mut k = 0;
        for u in 0..n as u32 {
            for (v, _) in g.out_neighbors(u) {
                let (ru, rv) = (find(comp, u), find(comp, v));
                if ru != rv {
                    comp[ru.max(rv) as usize] = ru.min(rv);
                    (next[k], prev[k]) = (u, v);
                    k += 1;
                }
            }
        }
        for e in 0..k {
            size[next[e] as usize] += 1;
            size[prev[e] as usize] += 1;
        }
        let mut at = 0;
        for v in 0..n {
            min[v] = at;
            at += size[v];
        }
        let mut adj = vec![0u32; 2 * k];
        for e in 0..k {
            for (a, b) in [(next[e], prev[e]), (prev[e], next[e])] {
                adj[min[a as usize] as usize] = b;
                min[a as usize] += 1; // ends one past `a`'s last slot
            }
        }
        for r in 0..n as u32 {
            if comp[r as usize] != r {
                continue;
            }
            parent[r as usize] = r;
            next[0] = r;
            let (mut head, mut len) = (0, 1);
            while head < len {
                let x = next[head] as usize;
                head += 1;
                for &w in &adj[(min[x] - size[x]) as usize..min[x] as usize] {
                    if w != parent[x] {
                        parent[w as usize] = x as u32;
                        next[len] = w;
                        len += 1;
                    }
                }
            }
        }
        let mut count = 0;
        for v in 0..n as u32 {
            let r = find(comp, v);
            comp[v as usize] = r;
            if r == v {
                (next[v as usize], prev[v as usize]) = (v, v);
                (size[v as usize], min[v as usize]) = (1, v);
                count += 1;
            } else {
                // Append `v` to the ring of `r` (< `v`, so already started).
                let tail = prev[r as usize];
                (next[tail as usize], prev[v as usize]) = (v, tail);
                (next[v as usize], prev[r as usize]) = (r, v);
                size[r as usize] += 1;
            }
        }
        self.count = count;
        self.work += (n + g.num_edges()) as u64;
    }

    /// Repair forest and labeling for one applied delta (`g` is the
    /// post-delta graph).
    ///
    /// Insertions union first, so the labels cover the whole post-delta
    /// edge set before any search walks it: a search may cross a just-added
    /// edge, and whatever it reaches is in its own component.
    ///
    /// Deletions cut *every* gone tree edge before any search runs, so each
    /// search walks a forest whose edges are all live: a fragment is then
    /// exactly what its search can reach, and one whose search exhausts is
    /// split off whole, never in part.
    pub fn apply(&mut self, g: &DeltaGraph, changes: &NetDelta) {
        for e in changes.added() {
            self.union(e.src, e.dst);
            self.work += 1;
        }
        let mut cut = std::mem::take(&mut self.cut);
        cut.clear();
        for (u, v) in changes.removed() {
            self.work += 1;
            // The edge is gone only when the reverse direction is not live.
            if u == v || g.contains(v, u) {
                continue;
            }
            let child = if self.parent[v as usize] == u {
                v
            } else if self.parent[u as usize] == v {
                u
            } else {
                continue; // a non-tree edge
            };
            self.parent[child as usize] = child;
            cut.push(child);
        }
        for &c in &cut {
            self.search(g, c);
        }
        self.cut = cut;
    }

    /// Search the post-delta graph from fragment root `c` for the first
    /// edge `x – w` that leaves the fragment, then evert the fragment at `x`
    /// and hang it from `w`. A search that exhausts has seen a whole
    /// component of `g`, which is split off.
    ///
    /// `w` is in the fragment when the walk up from it meets a vertex the
    /// search already holds before it meets a root (`c` is held from the
    /// start), so a tree child found from its parent costs one step.
    // lint: hot-path
    fn search(&mut self, g: &DeltaGraph, c: u32) {
        debug_assert_eq!(self.parent[c as usize], c, "fragment root {c} was relinked");
        let IncrementalCc {
            parent,
            queue,
            seen,
            work,
            ..
        } = self;
        queue.clear();
        queue.push(c);
        seen[c as usize] = true;
        let mut head = 0;
        let mut link = None;
        while let Some(&x) = queue.get(head) {
            head += 1;
            *work += 1;
            let out = undirected_neighbors(g, x).find(|&w| {
                *work += 1;
                if seen[w as usize] {
                    return false;
                }
                let mut v = w;
                loop {
                    let p = parent[v as usize];
                    if p == v {
                        return true; // another fragment's root
                    }
                    *work += 1;
                    v = p;
                    if seen[v as usize] {
                        break;
                    }
                }
                seen[w as usize] = true;
                queue.push(w);
                false
            });
            if let Some(w) = out {
                link = Some((x, w));
                break;
            }
        }
        for &m in queue.iter() {
            seen[m as usize] = false;
        }
        match link {
            Some((x, w)) => {
                self.evert(x);
                self.parent[x as usize] = w;
            }
            None => self.split_off(c),
        }
    }

    /// Make the exhausted fragment rooted at `c` — every vertex in `queue` —
    /// a component of its own with id `c`: O(fragment), plus a walk of the
    /// remainder's ring when the canonical minimum moved away. The remainder
    /// keeps its id, because its root is not in the fragment.
    // lint: hot-path
    fn split_off(&mut self, c: u32) {
        let IncrementalCc {
            comp,
            next,
            prev,
            size,
            min,
            queue,
            work,
            ..
        } = self;
        let old = comp[c as usize];
        let moved = queue.len() as u32;
        debug_assert!(
            moved < size[old as usize],
            "split side was the whole component"
        );
        let mut lo = u32::MAX;
        for &m in queue.iter() {
            let (p, s) = (prev[m as usize], next[m as usize]);
            next[p as usize] = s;
            prev[s as usize] = p;
            comp[m as usize] = c;
            lo = lo.min(m);
        }
        for (&a, &b) in queue.iter().zip(queue.iter().cycle().skip(1)) {
            next[a as usize] = b;
            prev[b as usize] = a;
        }
        size[c as usize] = moved;
        min[c as usize] = lo;
        size[old as usize] -= moved;
        *work += u64::from(moved);
        if min[old as usize] == lo {
            let (mut m, mut rest_min) = (next[old as usize], old);
            while m != old {
                rest_min = rest_min.min(m);
                m = next[m as usize];
            }
            min[old as usize] = rest_min;
            *work += u64::from(size[old as usize]);
        }
        self.count += 1;
    }

    /// Merge the components of `a` and `b`: relabel the smaller one's ring,
    /// splice the two rings, and hang the smaller one's tree, everted at its
    /// endpoint, from the other endpoint.
    fn union(&mut self, a: u32, b: u32) {
        let (ia, ib) = (self.comp[a as usize], self.comp[b as usize]);
        if ia == ib {
            return;
        }
        let (winner, keep, hang) = if self.size[ia as usize] >= self.size[ib as usize] {
            (ia, a, b)
        } else {
            (ib, b, a)
        };
        let loser = self.comp[hang as usize];
        let mut m = hang;
        loop {
            self.comp[m as usize] = winner;
            m = self.next[m as usize];
            if m == hang {
                break;
            }
        }
        let (kn, hn) = (self.next[keep as usize], self.next[hang as usize]);
        self.next[keep as usize] = hn;
        self.prev[hn as usize] = keep;
        self.next[hang as usize] = kn;
        self.prev[kn as usize] = hang;
        let moved = self.size[loser as usize];
        self.size[winner as usize] += moved;
        self.min[winner as usize] = self.min[winner as usize].min(self.min[loser as usize]);
        self.work += u64::from(moved);
        self.count -= 1;
        self.evert(hang);
        self.parent[hang as usize] = keep;
    }

    /// Make `x` the root of its tree by reversing the parent pointers on
    /// its path to the old root.
    fn evert(&mut self, x: u32) {
        let (mut child, mut v) = (x, self.parent[x as usize]);
        self.parent[x as usize] = x;
        while v != child {
            let up = self.parent[v as usize];
            self.parent[v as usize] = child;
            self.work += 1;
            (child, v) = (v, up);
        }
    }

    /// Panic unless the forest and the rings describe `g`'s components:
    /// every tree edge is live in one direction, every root walk ends at
    /// the vertex's component id, there is one root per component, and each
    /// ring holds exactly its component with the recorded size and minimum.
    #[cfg(test)]
    fn check_forest(&self, g: &DeltaGraph) {
        let n = self.parent.len();
        for v in 0..n as u32 {
            let p = self.parent[v as usize];
            assert!(
                p == v || g.contains(v, p) || g.contains(p, v),
                "tree edge {v}-{p} is not live"
            );
            let (mut r, mut steps) = (v, 0);
            while self.parent[r as usize] != r {
                r = self.parent[r as usize];
                steps += 1;
                assert!(steps <= n, "root walk from {v} does not terminate");
            }
            assert_eq!(
                r, self.comp[v as usize],
                "{v}'s tree root is not its component id"
            );
        }
        let roots: Vec<u32> = (0..n as u32)
            .filter(|&v| self.parent[v as usize] == v)
            .collect();
        assert_eq!(roots.len(), self.count, "one root per component");
        let mut members = 0;
        for &r in &roots {
            let (mut m, mut size, mut lo) = (r, 0, r);
            loop {
                assert_eq!(self.comp[m as usize], r, "{m} is in the ring of {r}");
                assert_eq!(
                    self.prev[self.next[m as usize] as usize], m,
                    "ring links at {m}"
                );
                size += 1;
                lo = lo.min(m);
                m = self.next[m as usize];
                if m == r {
                    break;
                }
            }
            assert_eq!(size, self.size[r as usize], "size of {r}");
            assert_eq!(lo, self.min[r as usize], "minimum of {r}");
            members += size as usize;
        }
        assert_eq!(members, n, "the rings cover every vertex once");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_analytics::{cc_host, component_count};
    use gpma_core::delta::SnapshotDelta;
    use gpma_core::framework::GraphSnapshot;
    use gpma_graph::{Edge, UpdateBatch};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn step(
        g: &mut DeltaGraph,
        cc: &mut IncrementalCc,
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
        cc.apply(g, &applied);
        check(g, cc, epoch);
    }

    fn check(g: &DeltaGraph, cc: &IncrementalCc, epoch: u64) {
        let labels = cc.labels();
        assert_eq!(labels, cc_host(g), "epoch {epoch}");
        assert_eq!(
            cc.component_count(),
            component_count(&labels),
            "epoch {epoch}"
        );
        cc.check_forest(g);
    }

    #[test]
    fn unions_on_insert_splits_on_delete() {
        let snap = GraphSnapshot::from_edges(
            0,
            6,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(3, 4)],
        );
        let mut g = DeltaGraph::from_snapshot(&snap);
        let mut cc = IncrementalCc::new();
        cc.rebase(&g);
        assert_eq!(cc.labels(), vec![0, 0, 0, 3, 3, 5]);
        assert_eq!(cc.component_count(), 3);
        // Bridge the two components.
        step(&mut g, &mut cc, 1, &[(2, 3)], &[]);
        assert_eq!(cc.component_count(), 2);
        // Cut the bridge again: must split back.
        step(&mut g, &mut cc, 2, &[], &[(2, 3)]);
        assert_eq!(cc.labels(), vec![0, 0, 0, 3, 3, 5]);
        // A non-bridge deletion must not split.
        step(&mut g, &mut cc, 3, &[(0, 2)], &[]);
        step(&mut g, &mut cc, 4, &[], &[(0, 1)]);
        assert_eq!(cc.component_count(), 3, "0-2-1 still connected via 2");
    }

    #[test]
    fn deletion_with_same_epoch_rewire() {
        let snap = GraphSnapshot::from_edges(
            0,
            5,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(3, 4)],
        );
        let mut g = DeltaGraph::from_snapshot(&snap);
        let mut cc = IncrementalCc::new();
        cc.rebase(&g);
        // One epoch cuts 1→2 and attaches 2 to the {3,4} component: the
        // search must see the post-delta adjacency (the cut link gone, the
        // fresh link present), and the insertion pass must union the fresh
        // cross-component edge.
        step(&mut g, &mut cc, 1, &[(2, 3)], &[(1, 2)]);
        assert_eq!(cc.labels(), vec![0, 0, 2, 2, 2]);
    }

    #[test]
    fn canonical_minimum_follows_splits() {
        // Component {0,1,2,3} where the minimum vertex 0 hangs off a
        // bridge: cutting it must re-derive the remainder's minimum.
        let snap = GraphSnapshot::from_edges(
            0,
            4,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 2),
                Edge::new(2, 3),
                Edge::new(3, 1),
            ],
        );
        let mut g = DeltaGraph::from_snapshot(&snap);
        let mut cc = IncrementalCc::new();
        cc.rebase(&g);
        assert_eq!(cc.labels(), vec![0, 0, 0, 0]);
        step(&mut g, &mut cc, 1, &[], &[(0, 1)]);
        assert_eq!(cc.labels(), vec![0, 1, 1, 1]);
        // And merge back.
        step(&mut g, &mut cc, 2, &[(3, 0)], &[]);
        assert_eq!(cc.labels(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn same_epoch_insert_must_not_leak_foreign_vertices_into_a_split() {
        // One epoch deletes (0,1) and inserts (0,5): the search from 0
        // crosses the just-added edge to 5. If insertions were not unioned
        // first, the carved side {0,5} would steal 5 from its singleton
        // component and corrupt the size/count bookkeeping.
        let snap = GraphSnapshot::from_edges(
            0,
            6,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)],
        );
        let mut g = DeltaGraph::from_snapshot(&snap);
        let mut cc = IncrementalCc::new();
        cc.rebase(&g);
        step(&mut g, &mut cc, 1, &[(0, 5)], &[(0, 1)]);
        assert_eq!(cc.labels(), vec![0, 1, 1, 1, 4, 0]);
        assert_eq!(cc.component_count(), 3);
        // The bookkeeping survives follow-up splits of the remainder.
        step(&mut g, &mut cc, 2, &[], &[(2, 3)]);
        step(&mut g, &mut cc, 3, &[], &[(1, 2)]);
        assert_eq!(cc.component_count(), 5);
    }

    #[test]
    fn shared_endpoint_double_deletion_splits_three_ways() {
        // u = 2 connects the otherwise-disjoint regions {0,1} and {3,4}
        // only through the two edges removed in ONE epoch: both cuts land
        // before either fragment searches, so {2} and {3,4} both split off.
        let snap = GraphSnapshot::from_edges(
            0,
            5,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 2),
                Edge::new(2, 3),
                Edge::new(3, 4),
            ],
        );
        let mut g = DeltaGraph::from_snapshot(&snap);
        let mut cc = IncrementalCc::new();
        cc.rebase(&g);
        assert_eq!(cc.component_count(), 1);
        step(&mut g, &mut cc, 1, &[], &[(1, 2), (2, 3)]);
        assert_eq!(cc.labels(), vec![0, 0, 2, 3, 3]);
        assert_eq!(cc.component_count(), 3);
    }

    #[test]
    fn fragments_relink_to_each_other_before_a_split_is_missed() {
        // Tree r–x, r–y (r = 0, x = 1, y = 2) with the live non-tree edge
        // x–y. Deleting both tree edges leaves {x, y} whole: x's fragment
        // must hang from y's, or a later deletion of x–y — a non-tree edge
        // then — would miss that {x} and {y} came apart.
        let snap = GraphSnapshot::from_edges(
            0,
            3,
            vec![Edge::new(0, 1), Edge::new(0, 2), Edge::new(1, 2)],
        );
        let mut g = DeltaGraph::from_snapshot(&snap);
        let mut cc = IncrementalCc::new();
        cc.rebase(&g);
        assert_eq!((cc.parent[1], cc.parent[2]), (0, 0), "x and y hang from r");
        step(&mut g, &mut cc, 1, &[], &[(0, 1), (0, 2)]);
        assert_eq!(cc.labels(), vec![0, 1, 1]);
        step(&mut g, &mut cc, 2, &[], &[(1, 2)]);
        assert_eq!(cc.labels(), vec![0, 1, 2]);
    }

    #[test]
    fn undirected_semantics_mirror_cc_host() {
        // Directed edges in both orientations; deleting one of a mutual
        // pair must not split (the reverse edge still connects).
        let snap = GraphSnapshot::from_edges(
            0,
            4,
            vec![Edge::new(0, 1), Edge::new(1, 0), Edge::new(2, 3)],
        );
        let mut g = DeltaGraph::from_snapshot(&snap);
        let mut cc = IncrementalCc::new();
        cc.rebase(&g);
        step(&mut g, &mut cc, 1, &[], &[(0, 1)]);
        assert_eq!(component_count(&cc.labels()), 2);
        step(&mut g, &mut cc, 2, &[], &[(1, 0)]);
        assert_eq!(component_count(&cc.labels()), 3);
    }

    #[test]
    fn non_bridge_deletions_in_a_dense_component_stay_cheap() {
        // A ring plus chords: every deletion reconnects immediately, so
        // per-epoch work must stay far below a rebase.
        let n = 1500u32;
        let mut edges: Vec<Edge> = (0..n).map(|i| Edge::new(i, (i + 1) % n)).collect();
        edges.extend((0..n).step_by(3).map(|i| Edge::new(i, (i + 7) % n)));
        let snap = GraphSnapshot::from_edges(0, n, edges.clone());
        let mut g = DeltaGraph::from_snapshot(&snap);
        let mut cc = IncrementalCc::new();
        cc.rebase(&g);
        let base = cc.work();
        for epoch in 1..=30u64 {
            let e = edges[(epoch as usize * 11) % edges.len()];
            let toggle = [(e.src, e.dst)];
            type Ops<'a> = (&'a [(u32, u32)], &'a [(u32, u32)]);
            let (ins, del): Ops = if epoch % 2 == 1 {
                (&[], &toggle)
            } else {
                (&toggle, &[])
            };
            step(&mut g, &mut cc, epoch, ins, del);
        }
        let incremental = cc.work() - base;
        assert!(
            incremental < base / 4,
            "30 non-bridge toggles cost {incremental} vs one rebase {base}"
        );
    }

    /// The sizing soak (DESIGN.md §9): 20 000 slides of 128 insertions and
    /// 128 deletions over a 100 k-edge Pokec-like window on 20 k vertices,
    /// 25 window turnovers. Labels equal `cc_host` every 2 000 slides, where
    /// the forest's mean and maximum depth are printed. Run with
    /// `cargo test --release -p gpma-incremental --lib soak -- --ignored --nocapture`.
    #[test]
    #[ignore = "a sizing run: ~3 s in release"]
    fn soak_slides_a_100k_window_through_25_turnovers() {
        const NV: u32 = 20_000;
        const WINDOW: usize = 100_000;
        const HALF: usize = 128;
        let stream = gpma_graph::datasets::pokec_like(NV, 2 * WINDOW, 1).edges;
        let at = |i: usize| stream[i % stream.len()];
        let snap = GraphSnapshot::from_edges(0, NV, stream[..WINDOW].to_vec());
        let mut g = DeltaGraph::from_snapshot(&snap);
        let mut cc = IncrementalCc::new();
        cc.rebase(&g);
        for epoch in 0..=20_000u64 {
            if epoch > 0 {
                let from = (epoch as usize - 1) * HALF;
                let batch = UpdateBatch {
                    insertions: (from..from + HALF).map(|i| at(WINDOW + i)).collect(),
                    deletions: (from..from + HALF).map(at).collect(),
                };
                let applied = g.apply(&SnapshotDelta::from_batch(epoch, &batch));
                cc.apply(&g, &applied);
            }
            if epoch % 2_000 == 0 {
                assert_eq!(cc.labels(), cc_host(&g), "slide {epoch}");
                let depth = |mut v: u32| {
                    let mut d = 0;
                    while cc.parent[v as usize] != v {
                        v = cc.parent[v as usize];
                        d += 1;
                    }
                    d
                };
                let depths: Vec<u32> = (0..NV).map(depth).collect();
                let mean = depths.iter().sum::<u32>() as f64 / f64::from(NV);
                let max = depths.iter().max().unwrap();
                println!("slide {epoch}: labels equal cc_host; depth mean {mean:.1}, max {max}");
            }
        }
    }

    /// A random directed edge over `n` vertices: now and then a self-loop,
    /// now and then the reverse of a live edge, so mutual pairs occur.
    fn random_edge(rng: &mut SmallRng, n: u32, live: &[Edge]) -> (u32, u32) {
        match rng.gen_range(0..10u32) {
            0 => {
                let v = rng.gen_range(0..n);
                (v, v)
            }
            1 if !live.is_empty() => {
                let e = live[rng.gen_range(0..live.len())];
                (e.dst, e.src)
            }
            _ => (rng.gen_range(0..n), rng.gen_range(0..n)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random deltas on sparse (m ≈ n) and dense graphs, with mutual
        /// pairs, self-loops, same-delta delete + re-insert, and deletions
        /// drawn from the current forest's tree edges, so relinks and
        /// multi-way splits happen. After every delta the labels equal
        /// `cc_host`, the count equals the distinct labels, and the forest
        /// check holds.
        #[test]
        fn forest_stays_exact_under_random_deltas(
            seed in any::<u64>(),
            dense in any::<bool>(),
            epochs in 4u64..12,
        ) {
            const N: u32 = 64;
            let mut rng = SmallRng::seed_from_u64(seed);
            let (m, inserts) = if dense { (6 * N, 8) } else { (N, 3) };
            let mut initial = Vec::new();
            for _ in 0..m {
                let (s, d) = random_edge(&mut rng, N, &initial);
                initial.push(Edge::new(s, d));
            }
            let snap = GraphSnapshot::from_edges(0, N, initial);
            let mut g = DeltaGraph::from_snapshot(&snap);
            let mut cc = IncrementalCc::new();
            cc.rebase(&g);
            check(&g, &cc, 0);
            for epoch in 1..=epochs {
                let live: Vec<Edge> = g.image().edges().into_iter().copied().collect();
                let mut ins = Vec::new();
                let mut del = Vec::new();
                // Tree edges of the current forest, usually both directions.
                for _ in 0..rng.gen_range(0..6u32) {
                    let v = rng.gen_range(0..N);
                    let p = cc.parent[v as usize];
                    if p != v {
                        del.push((v, p));
                        if rng.gen_bool(0.8) {
                            del.push((p, v));
                        }
                    }
                }
                for _ in 0..rng.gen_range(0..4usize) {
                    if !live.is_empty() {
                        let e = live[rng.gen_range(0..live.len())];
                        del.push((e.src, e.dst));
                        if rng.gen_bool(0.25) {
                            ins.push((e.src, e.dst)); // deleted and re-inserted
                        }
                    }
                }
                for _ in 0..rng.gen_range(0..inserts) {
                    ins.push(random_edge(&mut rng, N, &live));
                }
                step(&mut g, &mut cc, epoch, &ins, &del);
            }
        }
    }
}
