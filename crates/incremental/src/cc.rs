//! Incremental connected components (undirected semantics, matching the
//! paper's partition view and `cc_host`): insertions merge components by
//! relabeling the smaller side (weighted quick-find — O(1) lookups,
//! amortized O(log N) relabels per vertex); a deletion first runs a
//! *bidirectional reconnection search* around the removed edge — if the
//! endpoints reconnect (the common case inside a well-connected component)
//! nothing changes and the cost is the local search; only a genuine split
//! pays O(smaller side) to relabel it.
//!
//! Internal component ids are synthetic; canonical minimum-vertex-id
//! labels — bit-identical to [`cc_host`](gpma_analytics::cc_host) — come
//! from the per-component minimum tracked across merges and splits.

use std::collections::{HashMap, VecDeque};

use gpma_analytics::cc_host;

use crate::graph::{AppliedDelta, DeltaGraph};

/// One frontier of a reconnection search. The maintainer keeps both across
/// calls, so a search that finds the component still whole — nearly every
/// one — allocates nothing. Between calls every `visited` flag is false.
#[derive(Debug, Clone, Default)]
struct SearchSide {
    visited: Vec<bool>,
    queue: VecDeque<u32>,
    /// Every vertex this side marked visited, in discovery order.
    touched: Vec<u32>,
    /// Vertices expanded plus neighbours looked at, this search.
    traversed: u64,
}

impl SearchSide {
    fn start_at(&mut self, v: u32) {
        self.queue.clear();
        self.touched.clear();
        self.traversed = 0;
        self.visited[v as usize] = true;
        self.queue.push_back(v);
        self.touched.push(v);
    }
}

/// A live component labeling over the undirected edge set, maintained from
/// epoch deltas.
#[derive(Debug, Clone, Default)]
pub struct IncrementalCc {
    /// Component id per vertex (synthetic ids, O(1) membership test).
    comp: Vec<u32>,
    /// Member lists per live component id. May carry *stale* entries
    /// (vertices relabeled away by a split); they are filtered out — and
    /// dropped — whenever the list is next walked.
    members: HashMap<u32, Vec<u32>>,
    /// Live vertex count per component id.
    size: HashMap<u32, u32>,
    /// Minimum member id per component — the canonical label.
    cmin: HashMap<u32, u32>,
    next_id: u32,
    work: u64,
    sides: [SearchSide; 2],
}

impl IncrementalCc {
    /// An empty maintainer; call [`rebase`](Self::rebase) before the first
    /// [`apply`](Self::apply).
    pub fn new() -> Self {
        IncrementalCc::default()
    }

    /// Cumulative maintenance work in relabel/edge-scan units.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Canonical min-id component labels (position `v` holds the smallest
    /// vertex id in `v`'s component). Equals `cc_host` on the same graph.
    pub fn labels(&mut self) -> Vec<u32> {
        self.comp
            .iter()
            .map(|id| self.cmin[id])
            .collect()
    }

    /// Number of distinct components.
    pub fn component_count(&mut self) -> usize {
        self.size.len()
    }

    /// Rebuild the labeling from scratch on `g`: [`cc_host`] labels every
    /// vertex with the smallest id in its component, which is both a unique
    /// component id and the component's canonical minimum.
    pub fn rebase(&mut self, g: &DeltaGraph) {
        let n = g.num_vertices() as usize;
        self.comp = cc_host(g);
        self.members.clear();
        for (v, &c) in self.comp.iter().enumerate() {
            self.members.entry(c).or_default().push(v as u32);
        }
        self.size = self.members.iter().map(|(&c, m)| (c, m.len() as u32)).collect();
        self.cmin = self.members.keys().map(|&c| (c, c)).collect();
        self.next_id = n as u32;
        self.sides = [(); 2].map(|()| SearchSide {
            visited: vec![false; n],
            ..Default::default()
        });
        self.work += (n + g.num_edges()) as u64;
    }

    /// Repair the labeling for one applied delta (`g` is the post-delta
    /// graph).
    ///
    /// Insertions union first, so the component structure covers the whole
    /// post-delta edge set before any reconnection search walks it — a
    /// search may legitimately cross a just-added edge, and its enumerated
    /// side must stay a subset of one current component.
    ///
    /// Deletions: every piece a component can break into is bounded by
    /// removed edges, so it contains a removed-edge *endpoint*. It is
    /// therefore sufficient (and cheaper than per-edge checks) to verify
    /// that the endpoints sharing a component all still reconnect to one
    /// anchor; each failed verification carves off the enumerated side and
    /// the pass restarts until no split remains — at most one pass per
    /// actual split.
    pub fn apply(&mut self, g: &DeltaGraph, changes: &AppliedDelta) {
        for e in &changes.added {
            self.union(e.src, e.dst);
            self.work += 1;
        }
        if !changes.removed.is_empty() {
            let mut endpoints: Vec<u32> = changes
                .removed
                .iter()
                .flat_map(|e| [e.src, e.dst])
                .collect();
            endpoints.sort_unstable();
            endpoints.dedup();
            self.work += endpoints.len() as u64;
            'verify: loop {
                let mut anchors: HashMap<u32, u32> = HashMap::new();
                for &w in &endpoints {
                    let c = self.comp[w as usize];
                    match anchors.get(&c) {
                        None => {
                            anchors.insert(c, w);
                        }
                        Some(&a) => {
                            if let Some(side) = self.reconnects(g, a, w) {
                                self.split_off(c, side);
                                // Component ids shifted: restart with
                                // fresh anchors (splits are rare).
                                continue 'verify;
                            }
                        }
                    }
                }
                break;
            }
        }
    }

    /// Bidirectional reconnection search in `g` (undirected): expand the
    /// side that has traversed less until the searches meet (`None` — the
    /// component held together) or one side exhausts — returning that
    /// side's full member list, which is then a component of its own.
    // lint: hot-path
    fn reconnects(&mut self, g: &DeltaGraph, u: u32, v: u32) -> Option<Vec<u32>> {
        let [a, b] = &mut self.sides;
        a.start_at(u);
        b.start_at(v);
        // `Some(true)`: side a exhausted; `Some(false)`: side b did.
        let split = loop {
            let expand_a = a.traversed <= b.traversed;
            let (side, other) = if expand_a { (&mut *a, &*b) } else { (&mut *b, &*a) };
            let Some(x) = side.queue.pop_front() else {
                // This side enumerated its whole (new) component without
                // reaching the other endpoint: a genuine split.
                break Some(expand_a);
            };
            let mut met = false;
            side.traversed += 1;
            g.for_each_undirected_neighbor(x, &mut |w| {
                side.traversed += 1;
                if met || other.visited[w as usize] {
                    met = true; // frontiers met: still connected
                } else if !side.visited[w as usize] {
                    side.visited[w as usize] = true;
                    side.touched.push(w);
                    side.queue.push_back(w);
                }
            });
            if met {
                break None;
            }
        };
        self.work += a.traversed + b.traversed;
        // Clear only what the searches touched (O(touched), not O(N)).
        for side in [&mut *a, &mut *b] {
            for &m in &side.touched {
                side.visited[m as usize] = false;
            }
        }
        split.map(|a_side| std::mem::take(if a_side { &mut a.touched } else { &mut b.touched }))
    }

    /// Carve the enumerated `side` out of component `old` as a fresh
    /// component: O(|side|), plus a rare walk of `old`'s members when the
    /// canonical minimum itself moved away.
    fn split_off(&mut self, old: u32, side: Vec<u32>) {
        let new_id = self.next_id;
        self.next_id += 1;
        let mut new_min = u32::MAX;
        for &m in &side {
            self.comp[m as usize] = new_id;
            new_min = new_min.min(m);
        }
        self.work += side.len() as u64;
        let moved = side.len() as u32;
        self.size.insert(new_id, moved);
        self.cmin.insert(new_id, new_min);
        let remaining = self.size[&old] - moved;
        debug_assert!(remaining > 0, "split side was the whole component");
        self.size.insert(old, remaining);
        self.members.insert(new_id, side);
        // Stale entries for the moved vertices stay in members[old] until
        // the next walk drops them. Only the canonical minimum needs fixing
        // now, and only if it moved.
        if self.cmin[&old] == new_min {
            let comp = &self.comp;
            let members = self.members.get_mut(&old).expect("live component");
            members.retain(|&m| comp[m as usize] == old);
            let walked = members.len() as u64;
            let min = members.iter().copied().min().expect("non-empty remainder");
            self.work += walked;
            self.cmin.insert(old, min);
        }
    }

    /// Merge the components of `a` and `b` by relabeling the smaller one.
    fn union(&mut self, a: u32, b: u32) {
        let ia = self.comp[a as usize];
        let ib = self.comp[b as usize];
        if ia == ib {
            return;
        }
        let (winner, loser) = if self.size[&ia] >= self.size[&ib] {
            (ia, ib)
        } else {
            (ib, ia)
        };
        let list = self.members.remove(&loser).expect("live component");
        self.work += list.len() as u64;
        let into = self.members.get_mut(&winner).expect("live component");
        for m in list {
            // Drop stale entries (vertices a split already moved away).
            if self.comp[m as usize] == loser {
                self.comp[m as usize] = winner;
                into.push(m);
            }
        }
        let moved = self.size.remove(&loser).expect("live component");
        *self.size.get_mut(&winner).expect("live component") += moved;
        let lmin = self.cmin.remove(&loser).expect("live component");
        let wmin = self.cmin.get_mut(&winner).expect("live component");
        *wmin = (*wmin).min(lmin);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_analytics::{cc_host, component_count};
    use gpma_core::delta::SnapshotDelta;
    use gpma_core::framework::GraphSnapshot;
    use gpma_graph::{Edge, UpdateBatch};

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
        assert_eq!(cc.labels(), cc_host(g), "epoch {epoch}");
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
        // reconnection search must see the post-delta adjacency (the cut
        // link gone, the fresh link present), and the insertion pass must
        // union the fresh cross-component edge.
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
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3), Edge::new(3, 1)],
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
        // One epoch deletes (0,1) and inserts (0,5): the reconnection
        // search from 0 crosses the just-added edge to 5. If insertions
        // were not unioned first, the carved side {0,5} would steal 5 from
        // its singleton component and corrupt the size/count bookkeeping.
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
        // only through the two edges removed in ONE epoch. Naive per-edge
        // checks would carve {2} off and never notice that {0,1} and
        // {3,4} separated too — the endpoint-anchor verification must.
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
    fn undirected_semantics_mirror_cc_host() {
        // Directed edges in both orientations; deleting one of a mutual
        // pair must not split (the reverse edge still connects).
        let snap =
            GraphSnapshot::from_edges(0, 4, vec![Edge::new(0, 1), Edge::new(1, 0), Edge::new(2, 3)]);
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
}
