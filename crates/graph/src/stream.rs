//! Graph edge streams and the sliding-window model of Section 3.
//!
//! A [`GraphStream`] is an edge sequence in timestamp order. Following §6.1's
//! stream setup, the first half of the edges (`Es` in Table 2) form the
//! initial graph; the window then holds a fixed number of the most recent
//! edges, and every slide of `b` edges inserts the `b` newest and deletes the
//! `b` oldest. Explicit random insert/delete streams (the §6.3 extended
//! experiment) are also provided.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::edge::Edge;
use crate::formats::Coo;

/// One update batch handed to a dynamic graph store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdateBatch {
    /// Edges to insert (or overwrite).
    pub insertions: Vec<Edge>,
    /// Edges to delete.
    pub deletions: Vec<Edge>,
}

impl UpdateBatch {
    /// A batch holding the one insertion `e`.
    pub fn single_insert(e: Edge) -> Self {
        UpdateBatch {
            insertions: vec![e],
            deletions: Vec::new(),
        }
    }

    /// A batch holding the one deletion `e`.
    pub fn single_delete(e: Edge) -> Self {
        UpdateBatch {
            insertions: Vec::new(),
            deletions: vec![e],
        }
    }

    /// Total updates in the batch (insertions plus deletions).
    pub fn len(&self) -> usize {
        self.insertions.len() + self.deletions.len()
    }

    /// Whether the batch holds no updates.
    pub fn is_empty(&self) -> bool {
        self.insertions.is_empty() && self.deletions.is_empty()
    }
}

/// An edge stream in arrival (timestamp) order.
#[derive(Debug, Clone)]
pub struct GraphStream {
    /// Dataset name, used in reports.
    pub name: String,
    /// Number of vertices.
    pub num_vertices: u32,
    /// Edges in timestamp order.
    pub edges: Vec<Edge>,
}

impl GraphStream {
    /// A stream from edges already in arrival order.
    pub fn new(name: impl Into<String>, num_vertices: u32, edges: Vec<Edge>) -> Self {
        GraphStream {
            name: name.into(),
            num_vertices,
            edges,
        }
    }

    /// Build a stream from a generated graph by shuffling its edges into a
    /// random arrival order (the paper randomizes timestamps for Pokec,
    /// Graph500 and Random).
    pub fn from_coo_shuffled(name: impl Into<String>, coo: Coo, seed: u64) -> Self {
        let mut edges = coo.edges;
        let mut rng = SmallRng::seed_from_u64(seed);
        // Fisher–Yates.
        for i in (1..edges.len()).rev() {
            let j = rng.gen_range(0..=i);
            edges.swap(i, j);
        }
        GraphStream::new(name, coo.num_vertices, edges)
    }

    /// Total number of edges in the stream.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the stream holds no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// `|Es|`: size of the initial graph (first half of the stream, §6.1).
    pub fn initial_size(&self) -> usize {
        self.edges.len() / 2
    }

    /// The initial graph's edges.
    pub fn initial_edges(&self) -> &[Edge] {
        &self.edges[..self.initial_size()]
    }

    /// Sliding-window batches: each slide inserts the next `batch` edges and
    /// deletes the `batch` oldest edges in the window (window size stays
    /// `initial_size()`).
    pub fn sliding(&self, batch: usize) -> SlidingWindow<'_> {
        assert!(batch > 0, "batch must be positive");
        SlidingWindow {
            stream: self,
            window_start: 0,
            window_end: self.initial_size(),
            batch,
        }
    }

    /// Batch size corresponding to a paper-style slide ratio (e.g. `0.01`
    /// for the "1%" slide size of Figures 8–10): a fraction of `|E|`.
    pub fn slide_batch_size(&self, ratio: f64) -> usize {
        ((self.edges.len() as f64 * ratio).round() as usize).max(1)
    }

    /// Explicit random insert/delete batches (§6.3 extended experiment):
    /// starts from the initial graph; each batch inserts fresh stream edges
    /// and deletes uniformly random *live* edges with ratio
    /// `delete_fraction`.
    pub fn explicit(&self, batch: usize, delete_fraction: f64, seed: u64) -> ExplicitStream<'_> {
        assert!((0.0..=1.0).contains(&delete_fraction));
        ExplicitStream {
            stream: self,
            live: self.initial_edges().to_vec(),
            next: self.initial_size(),
            batch,
            delete_fraction,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// A locality-stressing variant of the stream: edges arrive in key
    /// order, so every batch hits adjacent PMA segments (the §6.2 "sorted
    /// graph stream" extreme case — GPMA's lock-conflict worst case).
    pub fn sorted_by_key(&self) -> GraphStream {
        let mut edges = self.edges.clone();
        edges.sort_by_key(|e| e.key());
        GraphStream::new(format!("{}-sorted", self.name), self.num_vertices, edges)
    }
}

/// Iterator of sliding-window update batches.
pub struct SlidingWindow<'a> {
    stream: &'a GraphStream,
    window_start: usize,
    window_end: usize,
    batch: usize,
}

impl<'a> Iterator for SlidingWindow<'a> {
    type Item = UpdateBatch;

    fn next(&mut self) -> Option<UpdateBatch> {
        if self.window_end >= self.stream.edges.len() {
            return None;
        }
        let b = self.batch.min(self.stream.edges.len() - self.window_end);
        let insertions = self.stream.edges[self.window_end..self.window_end + b].to_vec();
        let deletions = self.stream.edges[self.window_start..self.window_start + b].to_vec();
        self.window_start += b;
        self.window_end += b;
        Some(UpdateBatch {
            insertions,
            deletions,
        })
    }
}

/// Iterator of explicit insert/delete batches.
pub struct ExplicitStream<'a> {
    stream: &'a GraphStream,
    live: Vec<Edge>,
    next: usize,
    batch: usize,
    delete_fraction: f64,
    rng: SmallRng,
}

impl<'a> Iterator for ExplicitStream<'a> {
    type Item = UpdateBatch;

    fn next(&mut self) -> Option<UpdateBatch> {
        if self.next >= self.stream.edges.len() {
            return None;
        }
        let n_del = ((self.batch as f64) * self.delete_fraction).round() as usize;
        let n_ins = self.batch - n_del.min(self.batch);
        let n_ins = n_ins.min(self.stream.edges.len() - self.next);

        let insertions = self.stream.edges[self.next..self.next + n_ins].to_vec();
        self.next += n_ins;

        let mut deletions = Vec::with_capacity(n_del);
        for _ in 0..n_del.min(self.live.len()) {
            let i = self.rng.gen_range(0..self.live.len());
            deletions.push(self.live.swap_remove(i));
        }
        self.live.extend_from_slice(&insertions);
        if insertions.is_empty() && deletions.is_empty() {
            return None;
        }
        Some(UpdateBatch {
            insertions,
            deletions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Stream of `m` *distinct* edges (required by the live-set tests).
    fn stream_of(n: u32, m: usize) -> GraphStream {
        assert!(m <= (n as usize) * (n as usize - 1));
        let edges: Vec<Edge> = (0..)
            .map(|i| ((i / n as usize) as u32, (i % n as usize) as u32))
            .filter(|(s, d)| s != d)
            .take(m)
            .map(|(s, d)| Edge::new(s, d))
            .collect();
        GraphStream::new("test", n, edges)
    }

    #[test]
    fn initial_graph_is_first_half() {
        let s = stream_of(100, 1000);
        assert_eq!(s.initial_size(), 500);
        assert_eq!(s.initial_edges().len(), 500);
        assert_eq!(s.initial_edges()[0], s.edges[0]);
    }

    #[test]
    fn sliding_window_conserves_edges() {
        let s = stream_of(50, 200);
        let mut window: Vec<Edge> = s.initial_edges().to_vec();
        let mut slides = 0;
        for batch in s.sliding(17) {
            assert_eq!(batch.insertions.len(), batch.deletions.len());
            for d in &batch.deletions {
                let pos = window.iter().position(|e| e == d).expect("deleting live edge");
                window.remove(pos);
            }
            window.extend_from_slice(&batch.insertions);
            assert_eq!(window.len(), s.initial_size(), "window size is invariant");
            slides += 1;
        }
        assert_eq!(slides, 100usize.div_ceil(17));
        // After all slides the window holds exactly the last |Es| edges.
        assert_eq!(window, s.edges[100..].to_vec());
    }

    #[test]
    fn sliding_batches_cover_whole_stream_tail() {
        let s = stream_of(20, 101);
        let total_inserted: usize = s.sliding(7).map(|b| b.insertions.len()).sum();
        assert_eq!(total_inserted, 101 - 50);
    }

    #[test]
    fn explicit_stream_mixes_inserts_and_deletes() {
        let s = stream_of(30, 400);
        let mut n_ins = 0;
        let mut n_del = 0;
        for b in s.explicit(20, 0.5, 9) {
            n_ins += b.insertions.len();
            n_del += b.deletions.len();
        }
        assert_eq!(n_ins, 200);
        assert!(n_del > 150, "should delete roughly half per batch: {n_del}");
    }

    #[test]
    fn explicit_deletes_only_live_edges() {
        let s = stream_of(30, 200);
        let mut live: HashSet<(u32, u32)> = s.initial_edges().iter().map(|e| (e.src, e.dst)).collect();
        for b in s.explicit(10, 0.3, 1) {
            for d in &b.deletions {
                // Multigraph-free test stream: (src,dst) identifies the edge.
                assert!(live.remove(&(d.src, d.dst)), "deleted dead edge");
            }
            for i in &b.insertions {
                live.insert((i.src, i.dst));
            }
        }
    }

    #[test]
    fn shuffle_is_seeded_permutation() {
        let coo = Coo::new(10, (0..50).map(|i| Edge::new(i % 10, (i + 1) % 10)).collect());
        let a = GraphStream::from_coo_shuffled("a", coo.clone(), 4);
        let b = GraphStream::from_coo_shuffled("b", coo.clone(), 4);
        let c = GraphStream::from_coo_shuffled("c", coo.clone(), 5);
        assert_eq!(a.edges, b.edges);
        assert_ne!(a.edges, c.edges);
        let mut sa = a.edges.clone();
        let mut so = coo.edges.clone();
        sa.sort_by_key(|e| e.key());
        so.sort_by_key(|e| e.key());
        assert_eq!(sa, so, "shuffle must be a permutation");
    }

    #[test]
    fn sorted_stream_is_key_ordered() {
        let s = stream_of(20, 100).sorted_by_key();
        assert!(s.edges.windows(2).all(|w| w[0].key() <= w[1].key()));
    }

    #[test]
    fn slide_batch_size_ratio() {
        let s = stream_of(40, 1000);
        assert_eq!(s.slide_batch_size(0.01), 10);
        assert_eq!(s.slide_batch_size(0.000001), 1, "ratio floors at one edge");
    }
}
