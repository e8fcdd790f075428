//! Stinger-like baseline (§6.1): the CPU-parallel dynamic graph structure of
//! Ediger et al. — per-vertex chains of *fixed-size edge blocks* updated in
//! parallel.
//!
//! The fixed block size is deliberately faithful: it is the documented cause
//! of Stinger's poor behaviour on the heavily skewed Graph500 dataset
//! (§6.2 cites \[8\]) — hub vertices grow long block chains (slow scans) while
//! low-degree vertices waste most of their block (memory blow-up). Both
//! effects are measurable through [`StingerGraph::memory_stats`].

use crossbeam::thread;
use gpma_graph::{Edge, UpdateBatch, VertexId};

/// Edges per block (Stinger's default region is similarly small and fixed).
pub const BLOCK_EDGES: usize = 16;

#[derive(Debug, Clone)]
struct EdgeBlock {
    dsts: [u32; BLOCK_EDGES],
    weights: [u64; BLOCK_EDGES],
    /// Occupancy bitmap: bit i set ⇔ slot i holds a live edge.
    valid: u16,
}

impl EdgeBlock {
    fn new() -> Self {
        EdgeBlock {
            dsts: [0; BLOCK_EDGES],
            weights: [0; BLOCK_EDGES],
            valid: 0,
        }
    }

    fn is_full(&self) -> bool {
        self.valid == u16::MAX >> (16 - BLOCK_EDGES)
    }

    fn live_count(&self) -> usize {
        self.valid.count_ones() as usize
    }
}

/// A Stinger-style dynamic graph.
pub struct StingerGraph {
    /// Per-vertex block chain.
    chains: Vec<Vec<EdgeBlock>>,
    num_edges: std::sync::atomic::AtomicUsize,
    threads: usize,
}

/// Memory utilization report: the skew pathology of fixed blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StingerMemoryStats {
    /// Allocated edge blocks.
    pub blocks: usize,
    /// Total edge slots across those blocks.
    pub slots: usize,
    /// Live (valid) edges.
    pub live_edges: usize,
    /// `live / slots` — low on skewed graphs.
    pub utilization: f64,
}

impl StingerGraph {
    /// An empty graph over `num_vertices` vertices, with a default worker count.
    pub fn new(num_vertices: u32) -> Self {
        StingerGraph {
            chains: vec![Vec::new(); num_vertices as usize],
            num_edges: std::sync::atomic::AtomicUsize::new(0),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(16),
        }
    }

    /// Build from an initial edge list via one parallel batch.
    pub fn build(num_vertices: u32, edges: &[Edge]) -> Self {
        let mut g = StingerGraph::new(num_vertices);
        g.update_batch(&UpdateBatch {
            insertions: edges.to_vec(),
            deletions: vec![],
        });
        g
    }

    /// Override the number of batch-update worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Number of vertices (fixed at construction).
    pub fn num_vertices(&self) -> u32 {
        self.chains.len() as u32
    }

    /// Number of live edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn insert_into_chain(chain: &mut Vec<EdgeBlock>, dst: u32, weight: u64) -> bool {
        // Pass 1: modification?
        for b in chain.iter_mut() {
            for i in 0..BLOCK_EDGES {
                if b.valid & (1 << i) != 0 && b.dsts[i] == dst {
                    b.weights[i] = weight;
                    return false;
                }
            }
        }
        // Pass 2: first free slot.
        for b in chain.iter_mut() {
            if !b.is_full() {
                let i = (!b.valid).trailing_zeros() as usize;
                b.dsts[i] = dst;
                b.weights[i] = weight;
                b.valid |= 1 << i;
                return true;
            }
        }
        // Pass 3: append a block.
        let mut b = EdgeBlock::new();
        b.dsts[0] = dst;
        b.weights[0] = weight;
        b.valid = 1;
        chain.push(b);
        true
    }

    fn remove_from_chain(chain: &mut [EdgeBlock], dst: u32) -> bool {
        for b in chain.iter_mut() {
            for i in 0..BLOCK_EDGES {
                if b.valid & (1 << i) != 0 && b.dsts[i] == dst {
                    b.valid &= !(1 << i);
                    return true;
                }
            }
        }
        false
    }

    /// Parallel batch update: updates are grouped by source vertex and the
    /// vertex groups are processed by a crossbeam thread pool (each vertex
    /// is owned by exactly one worker, so chains need no locks).
    pub fn update_batch(&mut self, batch: &UpdateBatch) {
        // (src, dst, weight, is_delete), grouped by src.
        let mut work: Vec<(u32, u32, u64, bool)> = Vec::with_capacity(batch.len());
        for e in &batch.deletions {
            work.push((e.src, e.dst, 0, true));
        }
        for e in &batch.insertions {
            work.push((e.src, e.dst, e.weight, false));
        }
        if work.is_empty() {
            return;
        }
        work.sort_by_key(|&(s, _, _, del)| (s, !del)); // deletions first per src
        let nv = self.chains.len();
        // Scoped threads cost ~tens of µs each to spawn; only fan out when
        // the batch amortizes it (Stinger proper keeps a resident pool).
        let threads = self.threads.min(work.len() / 512 + 1).max(1);
        let chains = &mut self.chains;
        let num_edges = &self.num_edges;
        let work = &work;
        if threads == 1 {
            let mut delta = 0isize;
            for &(s, d, w, del) in work {
                delta += apply_one(&mut chains[s as usize], d, w, del);
            }
            add_delta(num_edges, delta);
            return;
        }
        // Partition vertices into contiguous ranges; each worker takes the
        // updates whose src falls in its range.
        let per = nv.div_ceil(threads);
        // SAFETY-free split: split chains into per-range slices.
        let mut slices: Vec<&mut [Vec<EdgeBlock>]> = Vec::with_capacity(threads);
        let mut rest: &mut [Vec<EdgeBlock>] = chains.as_mut_slice();
        for _ in 0..threads {
            let take = per.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            slices.push(head);
            rest = tail;
        }
        thread::scope(|scope| {
            for (t, slice) in slices.into_iter().enumerate() {
                let lo = (t * per) as u32;
                let hi = lo + slice.len() as u32;
                scope.spawn(move |_| {
                    let start = work.partition_point(|&(s, _, _, _)| s < lo);
                    let end = work.partition_point(|&(s, _, _, _)| s < hi);
                    let mut delta = 0isize;
                    for &(s, d, w, del) in &work[start..end] {
                        delta += apply_one(&mut slice[(s - lo) as usize], d, w, del);
                    }
                    add_delta(num_edges, delta);
                });
            }
        })
        .expect("stinger worker panicked");
    }

    /// Out-neighbors of `v` as `(dst, weight)`, walking the block chain.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.chains[v as usize].iter().flat_map(|b| {
            // The occupancy bitmap with its lowest set bit cleared each step.
            std::iter::successors(Some(b.valid), |m| Some(m & m.wrapping_sub(1)))
                .take_while(|&m| m != 0)
                .map(move |m| {
                    let i = m.trailing_zeros() as usize;
                    (b.dsts[i], b.weights[i])
                })
        })
    }

    /// Number of live edges in `v`'s block chain.
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.chains[v as usize].iter().map(|b| b.live_count()).sum()
    }

    /// Whether the edge `(src, dst)` is present.
    pub fn contains(&self, src: VertexId, dst: VertexId) -> bool {
        self.neighbors(src).any(|(d, _)| d == dst)
    }

    /// Block-allocation statistics (the skew pathology of §6.2).
    pub fn memory_stats(&self) -> StingerMemoryStats {
        let blocks: usize = self.chains.iter().map(|c| c.len()).sum();
        let slots = blocks * BLOCK_EDGES;
        let live_edges = self.num_edges();
        StingerMemoryStats {
            blocks,
            slots,
            live_edges,
            utilization: if slots == 0 {
                1.0
            } else {
                live_edges as f64 / slots as f64
            },
        }
    }
}

fn apply_one(chain: &mut Vec<EdgeBlock>, dst: u32, weight: u64, is_delete: bool) -> isize {
    if is_delete {
        if StingerGraph::remove_from_chain(chain, dst) {
            -1
        } else {
            0
        }
    } else if StingerGraph::insert_into_chain(chain, dst, weight) {
        1
    } else {
        0
    }
}

fn add_delta(counter: &std::sync::atomic::AtomicUsize, delta: isize) {
    if delta >= 0 {
        counter.fetch_add(delta as usize, std::sync::atomic::Ordering::Relaxed);
    } else {
        counter.fetch_sub((-delta) as usize, std::sync::atomic::Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_remove_modify() {
        let mut g = StingerGraph::new(4);
        g.update_batch(&UpdateBatch {
            insertions: vec![Edge::weighted(0, 1, 5), Edge::weighted(0, 2, 6)],
            deletions: vec![],
        });
        assert_eq!(g.num_edges(), 2);
        assert!(g.contains(0, 1));
        g.update_batch(&UpdateBatch {
            insertions: vec![Edge::weighted(0, 1, 9)],
            deletions: vec![Edge::new(0, 2)],
        });
        assert_eq!(g.num_edges(), 1);
        let n: Vec<(u32, u64)> = g.neighbors(0).collect();
        assert_eq!(n, vec![(1, 9)]);
    }

    #[test]
    fn chains_grow_past_one_block() {
        let ins: Vec<Edge> = (0..50u32).map(|i| Edge::new(0, i % 2 + 2)).collect();
        // Only 2 distinct dsts — dedup via modification.
        let mut g2 = StingerGraph::new(4);
        g2.update_batch(&UpdateBatch { insertions: ins, deletions: vec![] });
        assert_eq!(g2.num_edges(), 2);
        // Distinct dsts exceed a block.
        let ins: Vec<Edge> = (0..50u32).map(|i| Edge::new(1, i)).collect();
        let mut g = StingerGraph::new(64);
        g.update_batch(&UpdateBatch { insertions: ins, deletions: vec![] });
        assert_eq!(g.out_degree(1), 50);
        assert!(g.chains[1].len() >= 50usize.div_ceil(BLOCK_EDGES));
    }

    #[test]
    fn deleted_slots_are_reused() {
        let mut g = StingerGraph::new(8);
        g.update_batch(&UpdateBatch {
            insertions: (0..BLOCK_EDGES as u32).map(|i| Edge::new(0, i + 1)).collect(),
            deletions: vec![],
        });
        let blocks_before = g.chains[0].len();
        g.update_batch(&UpdateBatch {
            insertions: vec![Edge::new(0, 100)],
            deletions: vec![Edge::new(0, 1)],
        });
        assert_eq!(g.chains[0].len(), blocks_before, "hole must be recycled");
        assert!(g.contains(0, 100));
        assert!(!g.contains(0, 1));
    }

    #[test]
    fn parallel_update_matches_sequential() {
        let edges: Vec<Edge> = (0..2000u64)
            .map(|i| {
                let s = (i * 2654435761 % 64) as u32;
                let t = (i * 40503 % 63) as u32;
                Edge::weighted(s, if t == s { 63 } else { t }, i)
            })
            .collect();
        let batch = UpdateBatch {
            insertions: edges.clone(),
            deletions: vec![],
        };
        let mut seq = StingerGraph::new(64).with_threads(1);
        seq.update_batch(&batch);
        let mut par = StingerGraph::new(64).with_threads(8);
        par.update_batch(&batch);
        assert_eq!(seq.num_edges(), par.num_edges());
        for v in 0..64u32 {
            let a: BTreeSet<(u32, u64)> = seq.neighbors(v).collect();
            let b: BTreeSet<(u32, u64)> = par.neighbors(v).collect();
            assert_eq!(a, b, "vertex {v} mismatch");
        }
    }

    #[test]
    fn memory_utilization_reflects_skew() {
        // Uniform graph: decent utilization. Star graph with many 1-degree
        // vertices: one slot used per 16-slot block → poor utilization.
        let uniform = StingerGraph::build(
            16,
            &(0..16u32)
                .flat_map(|s| (0..15u32).map(move |i| Edge::new(s, (s + i + 1) % 16)))
                .collect::<Vec<_>>(),
        );
        let sparse = StingerGraph::build(
            512,
            &(1..512u32).map(|v| Edge::new(v, 0)).collect::<Vec<_>>(),
        );
        let u_uni = uniform.memory_stats().utilization;
        let u_sparse = sparse.memory_stats().utilization;
        assert!(u_uni > 0.8, "uniform utilization {u_uni}");
        assert!(u_sparse < 0.1, "sparse utilization {u_sparse}");
    }
}
