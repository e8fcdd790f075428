//! The generated input: a Pokec-like edge stream replayed as an endless
//! sliding window.
//!
//! `--seed` picks the stream; the program under test sees only the batches
//! cut from it. The stream holds twice the window in *distinct* edges and is
//! walked circularly: each batch inserts the next `n` edges and deletes the
//! `n` oldest live ones, so the window size is constant, every deletion hits
//! a live edge, every insertion a dead one, and no batch ever names a key
//! twice — no operation can fail, and batch-order and arrival-order
//! semantics agree.

use gpma_graph::datasets::pokec_like;
use gpma_graph::{Edge, UpdateBatch};

use crate::alloc;

/// A circular sliding-window update source over a generated edge stream.
pub struct SlideStream {
    edges: Vec<Edge>,
    num_vertices: u32,
    window: usize,
    /// Index of the oldest live edge.
    tail: usize,
    /// Index of the next edge to insert.
    head: usize,
}

impl SlideStream {
    /// Generate the stream for `seed`: `2 × window` distinct Pokec-like
    /// edges over `num_vertices` vertices. The stream is the benchmark's
    /// own state, so its memory is not counted.
    pub fn generate(num_vertices: u32, window: usize, seed: u64) -> Self {
        assert!(window > 0, "window must be positive");
        let edges = alloc::paused(|| pokec_like(num_vertices, 2 * window, seed).edges);
        assert_eq!(edges.len(), 2 * window, "generator must fill the stream");
        SlideStream {
            edges,
            num_vertices,
            window,
            tail: 0,
            head: window,
        }
    }

    /// Vertex count of the generated graph.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Live edges per window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The initial window (the graph every workload bulk-builds).
    pub fn initial(&self) -> &[Edge] {
        &self.edges[..self.window]
    }

    /// Start over from the initial window (for a second consumer that
    /// builds from [`Self::initial`] again).
    pub fn rewind(&mut self) {
        self.tail = 0;
        self.head = self.window;
    }

    /// The next slide of `updates` updates: `updates / 2` insertions of the
    /// newest edges and as many deletions of the oldest live ones.
    pub fn next_batch(&mut self, updates: usize) -> UpdateBatch {
        let n = updates / 2;
        UpdateBatch {
            insertions: self.advance_head(n),
            deletions: self.advance_tail(n),
        }
    }

    /// `count` consecutive slides of `batch` updates each.
    pub fn next_batches(&mut self, count: usize, batch: usize) -> Vec<UpdateBatch> {
        (0..count).map(|_| self.next_batch(batch)).collect()
    }

    fn advance_head(&mut self, n: usize) -> Vec<Edge> {
        assert!(n > 0 && n <= self.window, "slide must fit the window");
        let len = self.edges.len();
        let out = (0..n).map(|i| self.edges[(self.head + i) % len]).collect();
        self.head = (self.head + n) % len;
        out
    }

    fn advance_tail(&mut self, n: usize) -> Vec<Edge> {
        let len = self.edges.len();
        let out = (0..n).map(|i| self.edges[(self.tail + i) % len]).collect();
        self.tail = (self.tail + n) % len;
        out
    }
}

/// The benchmark's own small PRNG (splitmix64) for query mixes and
/// sampling, so those do not depend on the vendored `rand` stub.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let mut a = SlideStream::generate(500, 2000, 7);
        let mut b = SlideStream::generate(500, 2000, 7);
        let mut c = SlideStream::generate(500, 2000, 8);
        assert_eq!(a.initial(), b.initial());
        assert_ne!(a.initial(), c.initial());
        assert_eq!(a.next_batch(64), b.next_batch(64));
        assert_ne!(a.next_batch(64), c.next_batch(64));
    }

    #[test]
    fn window_stays_constant_and_updates_never_conflict_across_wraps() {
        let mut s = SlideStream::generate(300, 1000, 1);
        let mut live: HashSet<u64> = s.initial().iter().map(Edge::key).collect();
        assert_eq!(live.len(), 1000, "initial edges are distinct");
        // 40 slides of 300 updates walk the 2000-edge stream three times.
        for _ in 0..40 {
            let b = s.next_batch(300);
            assert_eq!((b.insertions.len(), b.deletions.len()), (150, 150));
            for d in &b.deletions {
                assert!(live.remove(&d.key()), "deletion must hit a live edge");
            }
            for i in &b.insertions {
                assert!(live.insert(i.key()), "insertion must be a dead edge");
            }
            assert_eq!(live.len(), 1000);
        }
    }
}
