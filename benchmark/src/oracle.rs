//! The sequential oracle: a `BTreeMap` of live edges that every workload's
//! final state (and sampled intermediate states) must equal.
//!
//! Semantics are the repo's: batches apply in arrival order; inside one
//! batch deletions apply before insertions; re-inserting a live key
//! overwrites its weight. The oracle is the benchmark's own state — callers
//! update it outside timed sections, with the allocation counter paused.

use std::collections::BTreeMap;

use gpma_core::framework::GraphSnapshot;
use gpma_graph::{Edge, UpdateBatch};

/// Live edge set keyed by the row-major `(src, dst)` storage key.
#[derive(Debug, Default, Clone)]
pub struct Oracle {
    live: BTreeMap<u64, Edge>,
}

impl Oracle {
    /// An oracle holding `initial` (later duplicates of a key win).
    pub fn new(initial: &[Edge]) -> Self {
        Oracle {
            live: initial.iter().map(|e| (e.key(), *e)).collect(),
        }
    }

    /// Apply one batch: its deletions, then its insertions.
    pub fn apply(&mut self, batch: &UpdateBatch) {
        for d in &batch.deletions {
            self.live.remove(&d.key());
        }
        for i in &batch.insertions {
            self.live.insert(i.key(), *i);
        }
    }

    /// Number of live edges.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when no edge is live.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Whether `(src, dst)` is live.
    pub fn contains(&self, src: u32, dst: u32) -> bool {
        self.live
            .contains_key(&gpma_graph::edge::encode_key(src, dst))
    }

    /// The oracle's state as an independent snapshot (for cross-checking
    /// query answers through `gpma_serving::execute`).
    pub fn to_snapshot(&self, num_vertices: u32) -> GraphSnapshot {
        GraphSnapshot::from_edges(0, num_vertices, self.live.values().copied().collect())
    }

    /// Whether `snap` holds exactly the oracle's edges, weights included.
    pub fn matches(&self, snap: &GraphSnapshot) -> bool {
        snap.num_edges() == self.live.len() && snap.edges().iter().eq(self.live.values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(ins: &[(u32, u32, u64)], del: &[(u32, u32)]) -> UpdateBatch {
        UpdateBatch {
            insertions: ins
                .iter()
                .map(|&(s, d, w)| Edge::weighted(s, d, w))
                .collect(),
            deletions: del.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
        }
    }

    #[test]
    fn follows_a_hand_built_stream() {
        let mut o = Oracle::new(&[Edge::new(0, 1), Edge::new(1, 2)]);
        // Delete-then-insert of the same key inside one batch nets to present.
        o.apply(&batch(&[(0, 1, 5), (2, 3, 1)], &[(0, 1)]));
        assert!(o.contains(0, 1) && o.contains(2, 3) && o.contains(1, 2));
        assert_eq!(o.len(), 3);
        // Across batches arrival order wins: insert, then delete → absent.
        o.apply(&batch(&[(4, 5, 1)], &[]));
        o.apply(&batch(&[], &[(4, 5), (9, 9)]));
        assert!(!o.contains(4, 5));
        // Re-insert overwrites the weight.
        o.apply(&batch(&[(1, 2, 7)], &[]));
        let want = GraphSnapshot::from_edges(
            3,
            6,
            vec![
                Edge::weighted(0, 1, 5),
                Edge::weighted(1, 2, 7),
                Edge::new(2, 3),
            ],
        );
        assert!(o.matches(&want));
        assert_eq!(o.to_snapshot(6).edges(), want.edges());
    }

    #[test]
    fn detects_a_missing_extra_or_reweighted_edge() {
        let o = Oracle::new(&[Edge::new(0, 1), Edge::new(1, 2)]);
        let snap = |edges: Vec<Edge>| GraphSnapshot::from_edges(0, 4, edges);
        assert!(o.matches(&snap(vec![Edge::new(1, 2), Edge::new(0, 1)])));
        assert!(!o.matches(&snap(vec![Edge::new(0, 1)])));
        assert!(!o.matches(&snap(vec![
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 3)
        ])));
        assert!(!o.matches(&snap(vec![Edge::new(0, 1), Edge::weighted(1, 2, 9)])));
        assert!(!o.matches(&snap(vec![Edge::new(0, 1), Edge::new(1, 3)])));
    }
}
