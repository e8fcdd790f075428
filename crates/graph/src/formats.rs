//! Host-side sparse formats: COO and CSR (Section 2.3's storage-format
//! background). These are the reference representations the device
//! structures are checked against and the input format for bulk loads.

use crate::edge::{decode_key, Edge, VertexId};

/// Coordinate-format edge list (sorted or not).
#[derive(Debug, Clone, Default)]
pub struct Coo {
    /// Number of vertices.
    pub num_vertices: u32,
    /// Edge list, in arbitrary order.
    pub edges: Vec<Edge>,
}

impl Coo {
    /// A COO over `num_vertices` vertices with the given edge list.
    pub fn new(num_vertices: u32, edges: Vec<Edge>) -> Self {
        Coo { num_vertices, edges }
    }

    /// Number of stored (possibly duplicate) edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Convert to CSR (sorts and deduplicates internally).
    pub fn to_csr(&self) -> Csr {
        Csr::from_coo(self)
    }
}

/// Compressed Sparse Row: the format the paper adapts onto GPMA (§4.2).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Csr {
    /// `offsets.len() == num_vertices + 1`.
    pub offsets: Vec<u32>,
    /// Column (destination) ids, row-major.
    pub dsts: Vec<u32>,
    /// Weights aligned with `dsts`.
    pub weights: Vec<u64>,
}

impl Csr {
    /// Number of vertices (`offsets.len() - 1`).
    pub fn num_vertices(&self) -> u32 {
        (self.offsets.len().saturating_sub(1)) as u32
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.dsts.len()
    }

    /// Build from a COO (which need not be sorted or deduplicated).
    pub fn from_coo(coo: &Coo) -> Csr {
        let mut keys: Vec<(u64, u64)> = coo.edges.iter().map(|e| (e.key(), e.weight)).collect();
        keys.sort_by_key(|&(k, _)| k);
        keys.dedup_by_key(|&mut (k, _)| k);
        let n = coo.num_vertices as usize;
        let mut offsets = vec![0u32; n + 1];
        for &(k, _) in &keys {
            let (src, _) = decode_key(k);
            offsets[src as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let dsts = keys.iter().map(|&(k, _)| k as u32).collect();
        let weights = keys.iter().map(|&(_, w)| w).collect();
        Csr { offsets, dsts, weights }
    }

    /// Out-neighbors of `u` with weights.
    pub fn neighbors(&self, u: VertexId) -> impl Iterator<Item = (u32, u64)> + '_ {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        self.dsts[lo..hi]
            .iter()
            .zip(self.weights[lo..hi].iter())
            .map(|(&d, &w)| (d, w))
    }

    /// Out-degree of `u` from the offset array.
    pub fn out_degree(&self, u: VertexId) -> u32 {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// Structural sanity: offsets monotone, column ids in range and sorted
    /// within each row.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.is_empty() {
            return Err("offsets empty".into());
        }
        if *self.offsets.last().unwrap() as usize != self.dsts.len() {
            return Err("last offset != nnz".into());
        }
        if self.dsts.len() != self.weights.len() {
            return Err("dsts/weights length mismatch".into());
        }
        for w in self.offsets.windows(2) {
            if w[0] > w[1] {
                return Err("offsets not monotone".into());
            }
        }
        let n = self.num_vertices();
        for u in 0..n {
            let row: Vec<u32> = self.neighbors(u).map(|(d, _)| d).collect();
            for pair in row.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(format!("row {u} not strictly sorted"));
                }
            }
            if row.iter().any(|&d| d >= n) {
                return Err(format!("row {u} has out-of-range column"));
            }
        }
        Ok(())
    }

    /// All edges in row-major order.
    pub fn iter_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_vertices()).flat_map(move |u| {
            self.neighbors(u)
                .map(move |(d, w)| Edge::weighted(u, d, w))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig5_graph() -> Coo {
        // The 3-vertex, 6-edge example of Figure 5.
        Coo::new(
            3,
            vec![
                Edge::weighted(0, 0, 1),
                Edge::weighted(0, 2, 2),
                Edge::weighted(1, 2, 3),
                Edge::weighted(2, 0, 4),
                Edge::weighted(2, 1, 5),
                Edge::weighted(2, 2, 6),
            ],
        )
    }

    #[test]
    fn fig5_csr_layout() {
        // Figure 5: Row Offset [0 2 3 6], Column Index [0 2 2 0 1 2],
        // Value [1 2 3 4 5 6].
        let csr = fig5_graph().to_csr();
        assert_eq!(csr.offsets, vec![0, 2, 3, 6]);
        assert_eq!(csr.dsts, vec![0, 2, 2, 0, 1, 2]);
        assert_eq!(csr.weights, vec![1, 2, 3, 4, 5, 6]);
        csr.validate().unwrap();
    }

    #[test]
    fn csr_from_unsorted_coo() {
        let mut coo = fig5_graph();
        coo.edges.reverse();
        let csr = coo.to_csr();
        assert_eq!(csr.offsets, vec![0, 2, 3, 6]);
        csr.validate().unwrap();
    }

    #[test]
    fn neighbors_and_degree() {
        let csr = fig5_graph().to_csr();
        assert_eq!(csr.out_degree(0), 2);
        assert_eq!(csr.out_degree(1), 1);
        assert_eq!(csr.out_degree(2), 3);
        let n2: Vec<(u32, u64)> = csr.neighbors(2).collect();
        assert_eq!(n2, vec![(0, 4), (1, 5), (2, 6)]);
    }

    #[test]
    fn iter_edges_roundtrip() {
        let coo = fig5_graph();
        let csr = coo.to_csr();
        let edges: Vec<Edge> = csr.iter_edges().collect();
        assert_eq!(edges, coo.edges);
    }

    #[test]
    fn validate_catches_corruption() {
        let mut csr = fig5_graph().to_csr();
        csr.dsts[0] = 99;
        assert!(csr.validate().is_err());
        let mut csr2 = fig5_graph().to_csr();
        csr2.offsets[1] = 5;
        assert!(csr2.validate().is_err());
    }

    #[test]
    fn empty_graph() {
        let csr = Coo::new(4, vec![]).to_csr();
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_edges(), 0);
        csr.validate().unwrap();
        assert_eq!(csr.neighbors(0).count(), 0);
    }
}
