//! PMA (CPU) baseline (§6.1): the sequential Packed Memory Array of
//! `gpma-pma` adopted for the CSR format — edges stored under their
//! row-major `(src, dst)` key, neighbor scans via range queries.

use gpma_graph::{decode_key, encode_key, row_start_key, Edge, UpdateBatch, VertexId};
use gpma_pma::{Pma, EMPTY};

/// A dynamic graph stored in a single CPU PMA.
#[derive(Clone)]
pub struct PmaGraph {
    pma: Pma<u64>,
    num_vertices: u32,
}

impl PmaGraph {
    /// An empty graph over `num_vertices` vertices.
    pub fn new(num_vertices: u32) -> Self {
        PmaGraph {
            pma: Pma::new(),
            num_vertices,
        }
    }

    /// Bulk-build (sorted load, like the device structures).
    pub fn build(num_vertices: u32, edges: &[Edge]) -> Self {
        let mut pairs: Vec<(u64, u64)> = edges.iter().map(|e| (e.key(), e.weight)).collect();
        pairs.sort_by_key(|&(k, _)| k);
        pairs.reverse();
        pairs.dedup_by_key(|&mut (k, _)| k);
        pairs.reverse();
        PmaGraph {
            pma: Pma::from_sorted(&pairs),
            num_vertices,
        }
    }

    /// Number of vertices (fixed at construction).
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of live edges (PMA entries).
    pub fn num_edges(&self) -> usize {
        self.pma.len()
    }

    /// Insert or overwrite; returns `true` when newly inserted.
    pub fn insert(&mut self, e: &Edge) -> bool {
        self.pma.insert(e.key(), e.weight)
    }

    /// Remove; returns `true` when the edge existed.
    pub fn remove(&mut self, src: VertexId, dst: VertexId) -> bool {
        self.pma.remove(encode_key(src, dst))
    }

    /// Weight of `(src, dst)`, if present.
    pub fn weight(&self, src: VertexId, dst: VertexId) -> Option<u64> {
        self.pma.get(encode_key(src, dst))
    }

    /// Apply a batch: deletions first, then insertions.
    pub fn update_batch(&mut self, batch: &UpdateBatch) {
        for e in &batch.deletions {
            self.remove(e.src, e.dst);
        }
        for e in &batch.insertions {
            self.insert(e);
        }
    }

    /// Out-neighbors of `v` via a PMA range scan — the CSR access pattern.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.pma
            .range(row_start_key(v), row_start_key(v + 1))
            .map(|(k, w)| (k as u32, w))
    }

    /// Every edge as `(src, dst)` in key order — rows in vertex order: one
    /// scan of the array, skipping its gaps, with no per-row search.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.pma.raw_keys().iter().filter(|&&k| k != EMPTY).map(|&k| decode_key(k))
    }

    /// Number of out-neighbors of `v` (counted via a range scan).
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.neighbors(v).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_neighbors() {
        let g = PmaGraph::build(
            3,
            &[Edge::weighted(1, 2, 3), Edge::weighted(1, 0, 1), Edge::weighted(2, 1, 9)],
        );
        let n1: Vec<(u32, u64)> = g.neighbors(1).collect();
        assert_eq!(n1, vec![(0, 1), (2, 3)]);
        assert_eq!(g.out_degree(0), 0);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn updates_match_semantics() {
        let mut g = PmaGraph::build(3, &[Edge::new(0, 1), Edge::new(1, 2)]);
        g.update_batch(&UpdateBatch {
            insertions: vec![Edge::weighted(0, 2, 4)],
            deletions: vec![Edge::new(1, 2)],
        });
        assert_eq!(g.weight(0, 2), Some(4));
        assert_eq!(g.weight(1, 2), None);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn heavy_churn_stays_consistent() {
        let mut g = PmaGraph::new(32);
        for round in 0..10u64 {
            for i in 0..200u64 {
                let s = ((i * 7 + round) % 32) as u32;
                let t = ((i * 13 + round * 5) % 31) as u32;
                let t = if t == s { 31 } else { t };
                g.insert(&Edge::new(s, t));
            }
            for i in 0..100u64 {
                let s = ((i * 7 + round) % 32) as u32;
                let t = ((i * 13 + round * 5) % 31) as u32;
                let t = if t == s { 31 } else { t };
                g.remove(s, t);
            }
        }
        // Row scans must remain sorted and in range.
        for v in 0..32u32 {
            let ns: Vec<u32> = g.neighbors(v).map(|(d, _)| d).collect();
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "row {v} unsorted");
            assert!(ns.iter().all(|&d| d < 32));
        }
    }
}
