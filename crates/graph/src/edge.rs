//! Edge and key encoding shared across the whole reproduction.
//!
//! GPMA stores one edge per PMA entry, keyed by the row-major `(src, dst)`
//! coordinate exactly like the paper's CSR-on-GPMA (Figure 5): the 64-bit key
//! is `src << 32 | dst`, so key order equals CSR entry order. `dst =
//! u32::MAX` is reserved for the per-row *guard* entries of Figure 5.

use serde::{Deserialize, Serialize};

/// Vertex identifier.
pub type VertexId = u32;

/// Sentinel destination for per-row guard entries `(r, ∞)`.
pub const GUARD_DST: u32 = u32::MAX;

/// Largest destination a real edge may use (one below the guard sentinel).
pub const MAX_DST: u32 = u32::MAX - 1;

/// A weighted directed edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Edge weight (1 when unweighted).
    pub weight: u64,
}

impl Edge {
    /// An edge with the default weight 1.
    pub fn new(src: VertexId, dst: VertexId) -> Self {
        Edge { src, dst, weight: 1 }
    }

    /// An edge with an explicit weight.
    pub fn weighted(src: VertexId, dst: VertexId, weight: u64) -> Self {
        Edge { src, dst, weight }
    }

    /// Row-major 64-bit storage key.
    pub fn key(&self) -> u64 {
        encode_key(self.src, self.dst)
    }

    /// The reversed edge (used to symmetrize directed inputs).
    pub fn reversed(&self) -> Edge {
        Edge {
            src: self.dst,
            dst: self.src,
            weight: self.weight,
        }
    }
}

/// `src << 32 | dst` — key order is CSR (row, column) order.
#[inline]
pub fn encode_key(src: VertexId, dst: VertexId) -> u64 {
    ((src as u64) << 32) | dst as u64
}

/// Inverse of [`encode_key`].
#[inline]
pub fn decode_key(key: u64) -> (VertexId, VertexId) {
    ((key >> 32) as u32, key as u32)
}

/// Guard key `(row, ∞)` for [`GUARD_DST`]-style row delimiters.
#[inline]
pub fn guard_key(row: VertexId) -> u64 {
    encode_key(row, GUARD_DST)
}

/// First possible key of a row: `(row, 0)`.
#[inline]
pub fn row_start_key(row: VertexId) -> u64 {
    encode_key(row, 0)
}

/// The bits an edge key can set when both ends are below `num_vertices`:
/// `2·⌈log₂|V|⌉` of them, the low `⌈log₂|V|⌉` of each half. Sorting by
/// these bits alone orders such keys exactly as sorting by all 64 does.
#[inline]
pub fn edge_key_mask(num_vertices: u32) -> u64 {
    let id_bits = u32::BITS - num_vertices.saturating_sub(1).leading_zeros();
    // `id_bits <= 32`, so the shift cannot overflow.
    let ids = (1u64 << id_bits) - 1;
    (ids << 32) | ids
}

/// True if `key` is a guard entry.
#[inline]
pub fn is_guard(key: u64) -> bool {
    (key as u32) == GUARD_DST
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrip() {
        for (s, d) in [(0u32, 0u32), (1, 2), (u32::MAX - 1, 12345), (7, u32::MAX - 1)] {
            let k = encode_key(s, d);
            assert_eq!(decode_key(k), (s, d));
        }
    }

    #[test]
    fn key_order_is_row_major() {
        assert!(encode_key(0, 100) < encode_key(1, 0));
        assert!(encode_key(5, 3) < encode_key(5, 4));
        assert!(encode_key(5, MAX_DST) < guard_key(5));
        assert!(guard_key(5) < row_start_key(6));
    }

    #[test]
    fn guard_detection() {
        assert!(is_guard(guard_key(9)));
        assert!(!is_guard(encode_key(9, 0)));
        assert!(!is_guard(encode_key(9, MAX_DST)));
    }

    #[test]
    fn edge_key_mask_is_exact_at_every_width_boundary() {
        // The largest |V| an update may name: every id below it is a real
        // vertex and none is the guard sentinel.
        let largest = GUARD_DST;
        for nv in [0u32, 1, 2, 256, 257, 65_536, 65_537, largest] {
            let mask = edge_key_mask(nv);
            // The ids that set each bit an id below `nv` can set: the
            // largest id and every power of two below `nv`.
            let ids: Vec<u32> = (0..32)
                .map(|b| 1u32 << b)
                .chain(nv.checked_sub(1))
                .filter(|&v| v < nv)
                .collect();
            let mut union = 0u64;
            for &s in &ids {
                for &d in &ids {
                    let k = encode_key(s, d);
                    assert_eq!(k & !mask, 0, "({s}, {d}) at |V| = {nv}");
                    union |= k;
                }
            }
            assert_eq!(union, mask, "|V| = {nv}");
        }
        assert_eq!(edge_key_mask(0), 0);
        assert_eq!(edge_key_mask(1), 0);
        assert_eq!(edge_key_mask(2), 0x1_0000_0001);
        assert_eq!(edge_key_mask(256), 0xFF_0000_00FF);
        assert_eq!(edge_key_mask(257), 0x1FF_0000_01FF);
        assert_eq!(edge_key_mask(20_000), 0x7FFF_0000_7FFF);
        assert_eq!(edge_key_mask(65_537), 0x1_FFFF_0001_FFFF);
        assert_eq!(edge_key_mask(largest), u64::MAX);
    }

    #[test]
    fn every_key_below_a_small_vertex_count_lies_inside_its_mask() {
        for nv in [1u32, 2, 3, 17, 256, 257] {
            let mask = edge_key_mask(nv);
            let mut union = 0u64;
            for s in 0..nv {
                for d in 0..nv {
                    let k = encode_key(s, d);
                    assert_eq!(k & !mask, 0, "({s}, {d}) at |V| = {nv}");
                    union |= k;
                }
            }
            // Exact: every mask bit is set by some in-range key.
            assert_eq!(union, mask, "|V| = {nv}");
        }
    }

    #[test]
    fn edge_helpers() {
        let e = Edge::weighted(3, 4, 9);
        assert_eq!(e.key(), encode_key(3, 4));
        assert_eq!(e.reversed(), Edge::weighted(4, 3, 9));
        assert_eq!(Edge::new(1, 2).weight, 1);
    }
}
