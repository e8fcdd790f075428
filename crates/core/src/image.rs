//! The published graph image: one persistent, row-indexed host copy of the
//! live edge set, advanced by each flush's delta.
//!
//! A [`GraphSnapshot`] is a vector of *row blocks* over a handful of shared
//! *slabs*. Block `b` describes the out-edges of the [`ROWS_PER_BLOCK`]
//! consecutive vertices `b * ROWS_PER_BLOCK ..`: where they sit, key-sorted
//! and contiguous, inside one slab, plus the row offsets into that range
//! (`ceil(num_vertices / ROWS_PER_BLOCK)` blocks, every one present, the
//! short last block padded with empty rows). A slab is one allocation of
//! edges that any number of images share; a block itself is plain data.
//!
//! Readers take the edges a row at a time ([`GraphSnapshot::neighbors`], a
//! block/offset lookup) or all at once: [`GraphSnapshot::edge_runs`] hands
//! out each block's edges as one key-sorted slice, so a pass over the whole
//! graph (the host PageRank's edge sweep, the host CC's unions) streams the
//! slabs run by run with no per-row lookup.
//!
//! Images are *persistent*: [`GraphSnapshot::advance`] (the body of
//! [`apply_delta`](crate::delta::apply_delta)) copies the block vector,
//! writes the blocks a delta touches into **one** new slab and leaves every
//! other block pointing where it pointed, so its input stays valid and
//! unchanged. It visits only the touched blocks, and merges each by copying
//! the runs of old edges between the delta's keys; its row offsets come
//! from the old ones and each row's count of edges gained and lost.
//! Advancing an epoch costs O(|Δ| · block) plus one O(V / `ROWS_PER_BLOCK`)
//! copy of the block vector — never O(E) — and takes one allocation however
//! many blocks the delta touches; cloning or dropping an image touches one
//! reference count per slab, not per block.
//!
//! What a rewritten block leaves behind in its old slab is garbage that
//! lives as long as the slab does. It is bounded: when the garbage in an
//! image's slabs passes a quarter of its live edges, `advance` also moves
//! the live blocks of the emptiest slabs into the new one, which frees those
//! slabs once older images let go of them (the budget trades copying for
//! memory: at an eighth both get worse, at a half a cluster's cuts pin too
//! much). Only such a step walks the whole block vector, to find the blocks
//! it moves and to renumber the slabs that stay. Where a block's edges sit
//! is therefore a matter of history, not content; equality ([`PartialEq`])
//! compares content only. The from-scratch builders
//! ([`GraphSnapshot::from_edges`], [`GraphSnapshot::from_store`],
//! [`GraphSnapshot::merged`]) produce one slab and are the only O(E) paths.
//! `merged` copies a row that one part holds and sorts only a row that
//! several parts hold.
//!
//! Why slabs and not one allocation per block: the worker that advances the
//! image also allocates the long-lived entries of the delta ring, and the
//! allocator places those in the holes that freed blocks leave. A few
//! thousand small blocks then drift apart over the whole heap while the
//! ring fills — the image of a 100 k-edge shard spread from 1 200 to 1 900
//! pages over 400 cuts, and a cut's latency grew by a fifth with it — and
//! every clone or drop of an image walks one reference count per block
//! through that. A slab is contiguous wherever it lands.

use std::ops::Range;
use std::sync::Arc;

use gpma_graph::edge::GUARD_DST;
use gpma_graph::{decode_key, Edge};

use crate::delta::{SnapshotDelta, BYTES_PER_EDGE};
use crate::storage::{GpmaStorage, EMPTY};

/// Vertex rows per block. Smaller blocks copy less per touched row but make
/// the per-epoch block-vector copy longer; 8 keeps a block of a degree-10
/// graph near 1 KiB.
pub const ROWS_PER_BLOCK: usize = 8;

/// Most slabs one image references. Reaching it makes the next `advance`
/// empty a slab whatever the garbage budget says, so the per-image slab list
/// (and the reference counts a clone touches) stays short under a stream of
/// very small deltas.
const MAX_SLABS: usize = 32;

/// Where the edges of [`ROWS_PER_BLOCK`] consecutive rows sit.
#[derive(Debug, Clone, Copy)]
struct RowBlock {
    /// Row `r` of the block is `start + offsets[r] .. start + offsets[r + 1]`
    /// of its slab; `offsets[0]` is 0.
    offsets: [u32; ROWS_PER_BLOCK + 1],
    /// First edge of the block inside its slab.
    start: u32,
    /// Index of the slab in the image's slab list.
    slab: u8,
}

impl RowBlock {
    /// A block without edges; it points at the start of slab 0, which every
    /// image has.
    const EMPTY: RowBlock = RowBlock {
        offsets: [0; ROWS_PER_BLOCK + 1],
        start: 0,
        slab: 0,
    };

    fn len(&self) -> usize {
        self.offsets[ROWS_PER_BLOCK] as usize
    }

    fn range(&self) -> Range<usize> {
        self.start as usize..self.start as usize + self.len()
    }
}

/// One shared allocation of edges and how much of it this image still uses.
#[derive(Debug, Clone)]
struct Slab {
    /// Written once, front to back, before it is shared; never after.
    edges: Arc<Vec<Edge>>,
    /// Edges of this image's blocks that sit in the slab; the rest of it is
    /// garbage as far as this image is concerned.
    live: usize,
}

/// The longest prefix of the key-sorted `edges` that belongs to the block
/// whose first row is `first_row`: its row offsets and its length.
fn block_prefix(first_row: usize, edges: &[Edge]) -> ([u32; ROWS_PER_BLOCK + 1], usize) {
    let mut offsets = [0u32; ROWS_PER_BLOCK + 1];
    let mut len = 0usize;
    for e in edges {
        let r = (e.src as usize).wrapping_sub(first_row);
        if r >= ROWS_PER_BLOCK {
            break;
        }
        offsets[r + 1] += 1;
        len += 1;
    }
    for r in 0..ROWS_PER_BLOCK {
        offsets[r + 1] += offsets[r];
    }
    (offsets, len)
}

/// Sort `edges` by key and keep one edge per key: the one that came last.
pub(crate) fn sort_last_write_wins(edges: &mut Vec<Edge>) {
    // Stable, so equal keys stay in arrival order and the last of each run
    // is the latest write.
    edges.sort_by_key(Edge::key);
    edges.dedup_by(|later, kept| {
        let same = later.key() == kept.key();
        if same {
            *kept = *later;
        }
        same
    });
}

fn num_blocks_for(num_vertices: u32) -> usize {
    (num_vertices as usize).div_ceil(ROWS_PER_BLOCK)
}

/// Room for a slab of at most `capacity` edges.
fn new_slab(capacity: usize) -> Vec<Edge> {
    assert!(
        capacity <= u32::MAX as usize,
        "a slab of {capacity} edges is past the 32-bit block offsets"
    );
    Vec::with_capacity(capacity)
}

/// An immutable, epoch-stamped host image of the active graph — the read
/// side of the concurrent streaming facade (`gpma-service`).
///
/// An image is *consistent*: every update of epochs `1..=epoch` is
/// reflected, none of the still-queued ones are. Readers (continuous
/// monitors, ad-hoc queries) work on it while the writer keeps mutating the
/// live [`GpmaPlus`](crate::GpmaPlus), which is the paper's "concurrent
/// streams and queries" scenario (§6.5) expressed in host memory. Rows are
/// indexed directly ([`Self::neighbors`] is a block/offset lookup) and
/// consecutive epochs share every block the epoch's delta did not touch
/// (module docs). Two images are equal when they hold the same epoch,
/// vertex count and edges, wherever their blocks sit.
///
/// Every edge's `src` must be below [`Self::num_vertices`]; the builders
/// panic otherwise (the device store enforces the same bound).
#[derive(Debug, Clone)]
pub struct GraphSnapshot {
    epoch: u64,
    num_vertices: u32,
    num_edges: usize,
    blocks: Vec<RowBlock>,
    /// The slabs the blocks point into, oldest first; never empty.
    slabs: Vec<Slab>,
}

impl PartialEq for GraphSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.epoch == other.epoch
            && self.num_vertices == other.num_vertices
            && self.num_edges == other.num_edges
            && self.blocks.len() == other.blocks.len()
            && self
                .blocks
                .iter()
                .zip(&other.blocks)
                .all(|(a, b)| a.offsets == b.offsets && self.block_edges(a) == other.block_edges(b))
    }
}

impl GraphSnapshot {
    /// An image whose blocks all sit in `slab`, every edge of which is live.
    fn single_slab(epoch: u64, num_vertices: u32, blocks: Vec<RowBlock>, slab: Vec<Edge>) -> Self {
        assert_eq!(blocks.len(), num_blocks_for(num_vertices));
        let live = slab.len();
        GraphSnapshot {
            epoch,
            num_vertices,
            num_edges: live,
            blocks,
            slabs: vec![Slab {
                edges: Arc::new(slab),
                live,
            }],
        }
    }

    fn block_edges(&self, block: &RowBlock) -> &[Edge] {
        &self.slabs[block.slab as usize].edges[block.range()]
    }

    fn row(&self, block: &RowBlock, r: usize) -> &[Edge] {
        let start = block.start as usize;
        let row = start + block.offsets[r] as usize..start + block.offsets[r + 1] as usize;
        &self.slabs[block.slab as usize].edges[row]
    }

    /// Build an image from parts; `edges` may arrive unsorted and may
    /// repeat `(src, dst)` keys — the later occurrence wins, matching the
    /// store's modification semantics.
    pub fn from_edges(epoch: u64, num_vertices: u32, mut edges: Vec<Edge>) -> Self {
        sort_last_write_wins(&mut edges);
        if let Some(e) = edges.last() {
            assert!(
                e.src < num_vertices,
                "edge source {} outside the image's {num_vertices} vertices",
                e.src
            );
        }
        assert!(
            edges.len() <= u32::MAX as usize,
            "more edges than block offsets can address"
        );
        // Spare capacity would count as garbage from the first advance on.
        edges.shrink_to_fit();
        let mut blocks = Vec::with_capacity(num_blocks_for(num_vertices));
        let mut start = 0;
        for index in 0..num_blocks_for(num_vertices) {
            let (offsets, len) = block_prefix(index * ROWS_PER_BLOCK, &edges[start..]);
            blocks.push(match len {
                0 => RowBlock::EMPTY,
                _ => RowBlock {
                    offsets,
                    start: start as u32,
                    slab: 0,
                },
            });
            start += len;
        }
        Self::single_slab(epoch, num_vertices, blocks, edges)
    }

    /// Read the device store back into a fresh image stamped `epoch` — the
    /// O(E) from-scratch build. One pass over the slot array straight into
    /// the image's one exactly-sized slab: a row's guard entry closes the
    /// row, a block's last guard closes the block — no intermediate flat
    /// edge list and no per-block allocation.
    pub fn from_store(epoch: u64, store: &GpmaStorage) -> Self {
        let num_vertices = store.num_vertices();
        let mut out = new_slab(store.num_edges());
        let mut blocks = Vec::with_capacity(num_blocks_for(num_vertices));
        let mut offsets = [0u32; ROWS_PER_BLOCK + 1];
        let mut block_start = 0usize;
        // The row whose guard comes next: the store keeps one guard per
        // vertex, in vertex order, after the row's edges.
        let mut row = 0u32;
        for (&k, &w) in store.keys.as_slice().iter().zip(store.vals.as_slice()) {
            if k == EMPTY {
                continue;
            }
            let (s, d) = decode_key(k);
            if d != GUARD_DST {
                out.push(Edge::weighted(s, d, w));
                continue;
            }
            assert_eq!(s, row, "the store's row guards are out of order");
            row += 1;
            let r = s as usize % ROWS_PER_BLOCK;
            offsets[r + 1] = (out.len() - block_start) as u32;
            if r + 1 == ROWS_PER_BLOCK || row == num_vertices {
                // The short last block: its missing rows are empty.
                offsets[r + 1..].fill((out.len() - block_start) as u32);
                blocks.push(match out.len() - block_start {
                    0 => RowBlock::EMPTY,
                    _ => RowBlock {
                        offsets,
                        start: block_start as u32,
                        slab: 0,
                    },
                });
                block_start = out.len();
            }
        }
        assert!(
            row == num_vertices && block_start == out.len(),
            "the store lost a row guard or holds an edge past its {num_vertices} vertices"
        );
        Self::single_slab(epoch, num_vertices, blocks, out)
    }

    /// The union of `parts` (all over `num_vertices` vertices) stamped
    /// `epoch`, merged row by row into one slab. Where two parts hold the
    /// same key the later part wins.
    ///
    /// A block one part populates is copied whole with its offsets; in a
    /// block several parts populate, a row one part holds is copied and only
    /// a row several parts hold is sorted. Row offsets are written as the
    /// rows are appended.
    pub fn merged(epoch: u64, num_vertices: u32, parts: &[&GraphSnapshot]) -> Self {
        assert!(
            parts.iter().all(|p| p.num_vertices == num_vertices),
            "merged parts must span the same {num_vertices} vertices"
        );
        let mut out = new_slab(parts.iter().map(|p| p.num_edges).sum());
        let mut blocks = Vec::with_capacity(num_blocks_for(num_vertices));
        let mut shared_row: Vec<Edge> = Vec::new();
        for index in 0..num_blocks_for(num_vertices) {
            let start = out.len();
            let mut live = parts.iter().filter(|p| p.blocks[index].len() > 0);
            match (live.next(), live.next()) {
                (None, _) => blocks.push(RowBlock::EMPTY),
                (Some(only), None) => {
                    let block = &only.blocks[index];
                    out.extend_from_slice(only.block_edges(block));
                    blocks.push(RowBlock {
                        start: start as u32,
                        slab: 0,
                        ..*block
                    });
                }
                _ => {
                    let mut offsets = [0u32; ROWS_PER_BLOCK + 1];
                    for r in 0..ROWS_PER_BLOCK {
                        let mut held = parts
                            .iter()
                            .map(|p| p.row(&p.blocks[index], r))
                            .filter(|row| !row.is_empty());
                        match (held.next(), held.next()) {
                            (None, _) => {}
                            (Some(only), None) => out.extend_from_slice(only),
                            (Some(first), Some(second)) => {
                                // Part order in, so of a key two parts hold
                                // the later part's copy survives the sort.
                                shared_row.clear();
                                shared_row.extend_from_slice(first);
                                shared_row.extend_from_slice(second);
                                held.for_each(|row| shared_row.extend_from_slice(row));
                                sort_last_write_wins(&mut shared_row);
                                out.extend_from_slice(&shared_row);
                            }
                        }
                        offsets[r + 1] = (out.len() - start) as u32;
                    }
                    blocks.push(RowBlock {
                        offsets,
                        start: start as u32,
                        slab: 0,
                    });
                }
            }
        }
        Self::single_slab(epoch, num_vertices, blocks, out)
    }

    /// Which slabs the next `advance` empties into its new slab, one flag
    /// per slab, given the `incoming` edges the delta itself will write:
    ///
    /// * every slab no block uses any more;
    /// * while the garbage in the slabs passes a quarter of the live edges:
    ///   the slab with the smallest live share, which frees the most space
    ///   per edge copied — but never a slab an older image still holds,
    ///   whose garbage moving its blocks would not free;
    /// * when there is no room for one more slab: the slab with the fewest
    ///   live edges, and after it every slab no larger than what the new
    ///   slab has grown to — small slabs merge into ones of doubling size,
    ///   so a stream of tiny deltas recopies an edge O(log) times, not once
    ///   per [`MAX_SLABS`] deltas.
    fn slabs_to_empty(&self, incoming: usize) -> Vec<bool> {
        let mut empty: Vec<bool> = self.slabs.iter().map(|s| s.live == 0).collect();
        let mut kept = empty.iter().filter(|&&e| !e).count();
        // Emptying a slab an older image still holds frees nothing: moving
        // its blocks would only add a second copy of them.
        let pinned = |i: usize| Arc::strong_count(&self.slabs[i].edges) > 1;
        let dead = |i: usize| self.slabs[i].edges.capacity() - self.slabs[i].live;
        let mut garbage: usize = (0..self.slabs.len())
            .filter(|&i| !pinned(i))
            .map(dead)
            .sum();
        // What the new slab will hold: the delta's blocks and the moved ones.
        let mut writes = incoming;
        let candidates = |empty: &[bool]| {
            (0..self.slabs.len())
                .filter(|&i| !empty[i] && !pinned(i))
                .collect::<Vec<_>>()
        };
        // live_a / len_a < live_b / len_b, without the division.
        let share = |i: usize| {
            (
                self.slabs[i].live as u128,
                self.slabs[i].edges.capacity() as u128,
            )
        };
        while garbage > self.num_edges / 4 {
            let emptiest = candidates(&empty).into_iter().min_by(|&a, &b| {
                let ((live_a, len_a), (live_b, len_b)) = (share(a), share(b));
                (live_a * len_b).cmp(&(live_b * len_a))
            });
            let Some(i) = emptiest else { break };
            empty[i] = true;
            kept -= 1;
            garbage -= dead(i);
            writes += self.slabs[i].live;
        }
        if kept >= MAX_SLABS {
            loop {
                let smallest = (0..self.slabs.len())
                    .filter(|&i| !empty[i])
                    .min_by_key(|&i| self.slabs[i].live);
                match smallest {
                    Some(i) if kept >= MAX_SLABS || self.slabs[i].live <= writes => {
                        empty[i] = true;
                        kept -= 1;
                        writes += self.slabs[i].live;
                    }
                    _ => break,
                }
            }
        }
        empty
    }

    /// Replay `delta` on this image: the next epoch's image plus the modeled
    /// bytes of the blocks that were written for it ([`BYTES_PER_EDGE`] per
    /// edge: the blocks the delta changed and the blocks moved out of slabs
    /// being emptied, see the module docs). `self` is left unchanged and
    /// shares every other block with the result.
    ///
    /// The merge rule per key: the delta's upsert wins; otherwise a deleted
    /// key drops; otherwise the edge carries over. A block whose content the
    /// delta does not change (deletes of absent keys, identical upserts)
    /// stays where it is.
    ///
    /// Cost: one copy of the block vector, plus the touched blocks rewritten
    /// as runs; a step that empties a slab also walks every block and copies
    /// the ones that lived there. The copy is the cost: on the benchmark's
    /// `stream-small` window (200 k edges) a 256-update flush rewrites ~25 k
    /// edges of touched blocks and, amortised, moves ~41 k more, about 1 MB.
    pub fn advance(&self, delta: &SnapshotDelta) -> (GraphSnapshot, usize) {
        // Key-sorted, so the last upsert has the largest source.
        if let Some(e) = delta.inserted().last() {
            assert!(
                e.src < self.num_vertices,
                "edge source {} outside the image's {} vertices",
                e.src,
                self.num_vertices
            );
        }
        // The delta's entries grouped by the block they touch, in block
        // order: (block, upserts, deleted keys).
        let block_of = |src: u32| src as usize / ROWS_PER_BLOCK;
        let mut touched: Vec<(usize, &[Edge], &[u64])> = Vec::new();
        let mut touched_edges = 0usize;
        let (mut ins, mut del) = (delta.inserted(), delta.deleted_keys());
        loop {
            let next_ins = ins.first().map(|e| block_of(e.src));
            let next_del = del.first().map(|&k| block_of(decode_key(k).0));
            let Some(index) = next_ins.into_iter().chain(next_del).min() else {
                break;
            };
            let n_ins = ins.partition_point(|e| block_of(e.src) == index);
            let n_del = del.partition_point(|&k| block_of(decode_key(k).0) == index);
            // A deletion past the last block names a key no row of this
            // image can hold: a no-op, as it was on the store.
            if index < self.blocks.len() {
                touched.push((index, &ins[..n_ins], &del[..n_del]));
                touched_edges += self.blocks[index].len();
            }
            (ins, del) = (&ins[n_ins..], &del[n_del..]);
        }
        if touched.is_empty() {
            let mut next = self.clone();
            next.epoch = delta.epoch();
            return (next, 0);
        }

        let emptied = self.slabs_to_empty(touched_edges + delta.inserted().len());
        // Slabs that stay keep their order; the new slab goes last.
        let mut slabs: Vec<Slab> = Vec::with_capacity(self.slabs.len() + 1);
        let mut new_index = vec![0u8; self.slabs.len()];
        for (i, slab) in self.slabs.iter().enumerate() {
            if !emptied[i] {
                new_index[i] = slabs.len() as u8;
                slabs.push(slab.clone());
            }
        }
        let fresh = slabs.len();
        let moved: usize = (0..self.slabs.len())
            .filter(|&i| emptied[i])
            .map(|i| self.slabs[i].live)
            .sum();
        let mut out = new_slab(touched_edges + delta.inserted().len() + moved);

        // Every block starts out where it was; the new slab takes the
        // touched blocks and the ones that leave emptied slabs, in block
        // order. Only a step that empties a slab visits every block: to find
        // those and to renumber the kept slabs that shift down.
        let mut blocks = self.blocks.clone();
        let mut num_edges = self.num_edges;
        let mut visit = |index: usize, part: Option<(&[Edge], &[u64])>| {
            let old = self.blocks[index];
            // An empty block sits nowhere, so it never moves.
            let moves = old.len() > 0 && emptied[old.slab as usize];
            let start = out.len();
            let offsets = match part {
                Some((ins, del)) => merge_runs(&old, self.block_edges(&old), ins, del, &mut out),
                None if moves => {
                    out.extend_from_slice(self.block_edges(&old));
                    None
                }
                None => None,
            };
            blocks[index] = match offsets {
                // Unchanged and staying.
                None if !moves => {
                    out.truncate(start);
                    match old.len() {
                        0 => RowBlock::EMPTY,
                        _ => RowBlock {
                            slab: new_index[old.slab as usize],
                            ..old
                        },
                    }
                }
                // Moved as it is.
                None => RowBlock {
                    start: start as u32,
                    slab: fresh as u8,
                    ..old
                },
                Some(offsets) => {
                    if old.len() > 0 && !moves {
                        slabs[new_index[old.slab as usize] as usize].live -= old.len();
                    }
                    num_edges = num_edges - old.len() + (out.len() - start);
                    match out.len() - start {
                        0 => RowBlock::EMPTY,
                        _ => RowBlock {
                            offsets,
                            start: start as u32,
                            slab: fresh as u8,
                        },
                    }
                }
            };
        };
        if emptied.contains(&true) {
            let mut touched = touched.into_iter().peekable();
            for index in 0..self.blocks.len() {
                let part = touched.next_if(|&(i, _, _)| i == index);
                visit(index, part.map(|(_, ins, del)| (ins, del)));
            }
        } else {
            for (index, ins, del) in touched {
                visit(index, Some((ins, del)));
            }
        }
        let written = out.len();
        // Slab 0 must exist even when nothing was written and nothing stays.
        if written > 0 || slabs.is_empty() {
            slabs.push(Slab {
                edges: Arc::new(out),
                live: written,
            });
        }
        let copied = written * BYTES_PER_EDGE;
        let next = GraphSnapshot {
            epoch: delta.epoch(),
            num_vertices: self.num_vertices,
            num_edges,
            blocks,
            slabs,
        };
        (next, copied)
    }

    /// Epoch stamp: the number of flushes reflected in this image.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Vertex count of the underlying store.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Live edges at this epoch.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// True when the graph had no live edges at this epoch.
    pub fn is_empty(&self) -> bool {
        self.num_edges == 0
    }

    /// All live edges in row-major `(src, dst)` order.
    pub fn edges(&self) -> Edges<'_> {
        Edges { image: self }
    }

    /// The same edges as [`Self::edges`], in the same order, as the
    /// contiguous key-sorted runs the row blocks already are: one slice per
    /// block, in block order (empty for a block without edges). A reader
    /// that visits every edge walks each run as a plain slice, with no
    /// per-row lookup and no per-edge iterator state.
    pub fn edge_runs(&self) -> impl Iterator<Item = &[Edge]> + '_ {
        self.blocks.iter().map(|block| self.block_edges(block))
    }

    /// Row of vertex `v`: its out-edges as a contiguous `dst`-sorted slice
    /// (empty for `v >= num_vertices`).
    pub fn neighbors(&self, v: u32) -> &[Edge] {
        match self.blocks.get(v as usize / ROWS_PER_BLOCK) {
            Some(block) => self.row(block, v as usize % ROWS_PER_BLOCK),
            None => &[],
        }
    }

    /// Out-degree of vertex `v`.
    pub fn out_degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }

    /// Weight of edge `(src, dst)` at this epoch, if live.
    pub fn weight(&self, src: u32, dst: u32) -> Option<u64> {
        let row = self.neighbors(src);
        // A short row spans a cache line or two, which a scan reads in
        // order: on a cold image a binary search's probes cost a third more.
        let at = match row.len() {
            0..=16 => row.iter().position(|e| e.dst >= dst).unwrap_or(row.len()),
            _ => row.partition_point(|e| e.dst < dst),
        };
        row.get(at).filter(|e| e.dst == dst).map(|e| e.weight)
    }

    /// True when edge `(src, dst)` was live at this epoch.
    pub fn contains(&self, src: u32, dst: u32) -> bool {
        self.weight(src, dst).is_some()
    }

    /// Number of row blocks (`ceil(num_vertices / ROWS_PER_BLOCK)`).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of slabs the blocks point into.
    pub fn num_slabs(&self) -> usize {
        self.slabs.len()
    }

    /// Edges the image's slabs have room for, live or not: what the image
    /// keeps allocated. With no older image holding on to slabs, at most a
    /// quarter more than [`Self::num_edges`] plus what the latest delta
    /// wrote and replaced.
    #[cfg(test)]
    fn held_edges(&self) -> usize {
        self.slabs.iter().map(|s| s.edges.capacity()).sum()
    }

    /// How many blocks of `self` sit in the very memory `other`'s block of
    /// the same index sits in — the structural sharing between two epochs.
    pub fn shared_blocks(&self, other: &GraphSnapshot) -> usize {
        let at = |image: &GraphSnapshot, b: &RowBlock| image.block_edges(b).as_ptr_range();
        self.blocks
            .iter()
            .zip(&other.blocks)
            // An empty block occupies no memory, wherever it points.
            .filter(|(a, b)| a.len() + b.len() == 0 || at(self, a) == at(other, b))
            .count()
    }

    /// Check the layout invariants the readers rely on; `Err` names the
    /// first violation. The block count matches the vertex count, every
    /// block lies inside its slab, its offsets start at 0 and are monotone,
    /// every edge sits in the row its `src` names, rows are strictly
    /// `dst`-sorted, no edge lives in a row at or past `num_vertices`, no two
    /// blocks overlap, every slab's live count is the sum of its blocks and
    /// `num_edges` is the sum of the block lengths.
    pub fn check_layout(&self) -> Result<(), String> {
        if self.blocks.len() != num_blocks_for(self.num_vertices) {
            return Err(format!(
                "{} blocks for {} vertices",
                self.blocks.len(),
                self.num_vertices
            ));
        }
        if self.slabs.is_empty() || self.slabs.len() > MAX_SLABS {
            return Err(format!("{} slabs", self.slabs.len()));
        }
        let mut live = vec![0usize; self.slabs.len()];
        let mut placed: Vec<(u8, u32, usize)> = Vec::new();
        for (index, block) in self.blocks.iter().enumerate() {
            let off = &block.offsets;
            let Some(slab) = self.slabs.get(block.slab as usize) else {
                return Err(format!("block {index}: no slab {}", block.slab));
            };
            if block.range().end > slab.edges.len() {
                return Err(format!(
                    "block {index}: edges {:?} of a slab of {}",
                    block.range(),
                    slab.edges.len()
                ));
            }
            if off[0] != 0 || off.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("block {index}: offsets not monotone from 0"));
            }
            for r in 0..ROWS_PER_BLOCK {
                let v = index * ROWS_PER_BLOCK + r;
                let row = self.row(block, r);
                if v >= self.num_vertices as usize && !row.is_empty() {
                    return Err(format!("row {v} is past the last vertex but holds edges"));
                }
                if let Some(e) = row.iter().find(|e| e.src as usize != v) {
                    return Err(format!("row {v} holds edge ({}, {})", e.src, e.dst));
                }
                if let Some(w) = row.windows(2).find(|w| w[0].dst >= w[1].dst) {
                    return Err(format!(
                        "row {v} not strictly dst-sorted at dst {}",
                        w[1].dst
                    ));
                }
            }
            if block.len() > 0 {
                live[block.slab as usize] += block.len();
                placed.push((block.slab, block.start, block.len()));
            }
        }
        placed.sort_unstable();
        if let Some(w) = placed
            .windows(2)
            .find(|w| w[0].0 == w[1].0 && w[0].1 as usize + w[0].2 > w[1].1 as usize)
        {
            return Err(format!(
                "two blocks overlap in slab {} at edge {}",
                w[1].0, w[1].1
            ));
        }
        for (i, slab) in self.slabs.iter().enumerate() {
            if slab.live != live[i] {
                return Err(format!(
                    "slab {i} says {} live edges, its blocks hold {}",
                    slab.live, live[i]
                ));
            }
        }
        let total: usize = live.iter().sum();
        if total != self.num_edges {
            return Err(format!(
                "num_edges says {}, blocks hold {total}",
                self.num_edges
            ));
        }
        Ok(())
    }

    /// Seeded corruption for the audit tests: swap the `i`-th and `j`-th
    /// edges (row-major positions) of block `block` in place.
    #[cfg(feature = "audit")]
    pub fn corrupt_swap(&mut self, block: usize, i: usize, j: usize) {
        let at = self.blocks[block];
        let slab = &mut self.slabs[at.slab as usize];
        Arc::make_mut(&mut slab.edges).swap(at.start as usize + i, at.start as usize + j);
    }
}

/// One block's merge: `old_edges` (the edges of block `old`) with `ins`
/// upserted and `del` dropped, appended to `out`, all three inputs
/// key-sorted. The old edges between two delta keys are copied as one run.
/// Returns the merged block's row offsets, or `None` when the delta leaves
/// its content as it was (deletes of absent keys, identical upserts) — the
/// edges are appended either way.
fn merge_runs(
    old: &RowBlock,
    old_edges: &[Edge],
    ins: &[Edge],
    del: &[u64],
    out: &mut Vec<Edge>,
) -> Option<[u32; ROWS_PER_BLOCK + 1]> {
    // Edges each row gains (inserted keys) or loses (deleted live keys).
    let mut grown = [0i64; ROWS_PER_BLOCK];
    let mut changed = false;
    let (mut pos, mut i, mut d) = (0, 0, 0);
    loop {
        let k = match (ins.get(i), del.get(d)) {
            (None, None) => break,
            (Some(e), Some(&k)) => e.key().min(k),
            (Some(e), None) => e.key(),
            (None, Some(&k)) => k,
        };
        let run = pos + old_edges[pos..].partition_point(|e| e.key() < k);
        out.extend_from_slice(&old_edges[pos..run]);
        pos = run;
        let present = old_edges.get(pos).is_some_and(|e| e.key() == k);
        let row = decode_key(k).0 as usize % ROWS_PER_BLOCK;
        // An upsert goes first, so a delete of the same key finds it gone:
        // the upsert wins.
        match ins.get(i).filter(|e| e.key() == k) {
            Some(&e) => {
                out.push(e);
                i += 1;
                if present {
                    changed |= old_edges[pos] != e;
                } else {
                    grown[row] += 1;
                    changed = true;
                }
            }
            None => {
                d += 1;
                if present {
                    grown[row] -= 1;
                    changed = true;
                }
            }
        }
        pos += present as usize;
    }
    out.extend_from_slice(&old_edges[pos..]);
    changed.then(|| {
        let mut offsets = old.offsets;
        let mut shift = 0i64;
        for r in 0..ROWS_PER_BLOCK {
            shift += grown[r];
            offsets[r + 1] = (offsets[r + 1] as i64 + shift) as u32;
        }
        offsets
    })
}

/// All edges of a [`GraphSnapshot`] in row-major `(src, dst)` order — what
/// [`GraphSnapshot::edges`] returns now that the edges live in blocks
/// rather than one slice.
#[derive(Clone, Copy)]
pub struct Edges<'a> {
    image: &'a GraphSnapshot,
}

impl<'a> Edges<'a> {
    /// Iterate the edges in key order.
    pub fn iter(&self) -> EdgeIter<'a> {
        EdgeIter {
            image: self.image,
            blocks: self.image.blocks.iter(),
            current: Default::default(),
        }
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.image.num_edges
    }

    /// True when the image holds no edge.
    pub fn is_empty(&self) -> bool {
        self.image.num_edges == 0
    }

    /// Copy the edges into one flat, key-sorted vector.
    pub fn to_vec(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.len());
        for run in self.image.edge_runs() {
            out.extend_from_slice(run);
        }
        out
    }
}

impl<'a> IntoIterator for Edges<'a> {
    type Item = &'a Edge;
    type IntoIter = EdgeIter<'a>;

    fn into_iter(self) -> EdgeIter<'a> {
        self.iter()
    }
}

impl PartialEq for Edges<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for Edges<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over a [`GraphSnapshot`]'s edges in key order.
#[derive(Clone)]
pub struct EdgeIter<'a> {
    image: &'a GraphSnapshot,
    blocks: std::slice::Iter<'a, RowBlock>,
    current: std::slice::Iter<'a, Edge>,
}

impl<'a> Iterator for EdgeIter<'a> {
    type Item = &'a Edge;

    fn next(&mut self) -> Option<&'a Edge> {
        loop {
            if let Some(e) = self.current.next() {
                return Some(e);
            }
            self.current = self.image.block_edges(self.blocks.next()?).iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_graph::UpdateBatch;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn e(s: u32, d: u32, w: u64) -> Edge {
        Edge::weighted(s, d, w)
    }

    #[test]
    fn rows_and_lookups() {
        let snap = GraphSnapshot::from_edges(
            7,
            5,
            vec![
                e(2, 0, 9),
                Edge::new(0, 1),
                Edge::new(0, 3),
                Edge::new(2, 4),
            ],
        );
        assert_eq!(snap.epoch(), 7);
        assert_eq!(snap.num_vertices(), 5);
        assert_eq!(snap.num_edges(), 4);
        assert!(!snap.is_empty());
        assert_eq!(snap.out_degree(0), 2);
        assert_eq!(snap.out_degree(1), 0);
        let row2: Vec<u32> = snap.neighbors(2).iter().map(|e| e.dst).collect();
        assert_eq!(row2, vec![0, 4]);
        assert_eq!(snap.weight(2, 0), Some(9));
        assert!(snap.contains(0, 3));
        assert!(!snap.contains(3, 0));
        assert!(snap.neighbors(5).is_empty() && snap.neighbors(u32::MAX).is_empty());
        // Edges come back sorted in row-major key order.
        let keys: Vec<u64> = snap.edges().iter().map(Edge::key).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        snap.check_layout().unwrap();
    }

    #[test]
    fn from_edges_dedups_last_write_wins() {
        let snap = GraphSnapshot::from_edges(1, 3, vec![e(0, 1, 5), e(1, 2, 1), e(0, 1, 9)]);
        assert_eq!(snap.num_edges(), 2);
        assert_eq!(snap.weight(0, 1), Some(9), "later duplicate wins");
        assert_eq!(snap.out_degree(0), 1);
    }

    #[test]
    fn edges_view_behaves_like_the_flat_slice_it_replaced() {
        let list = vec![e(0, 1, 1), e(7, 2, 2), e(8, 0, 3), e(17, 16, 4)];
        let snap = GraphSnapshot::from_edges(0, 18, list.clone());
        assert_eq!(snap.num_blocks(), 3);
        assert_eq!(snap.edges().len(), 4);
        assert!(!snap.edges().is_empty());
        assert_eq!(snap.edges().to_vec(), list);
        assert!(snap.edges().iter().eq(list.iter()));
        let mut seen = Vec::new();
        for e in snap.edges() {
            seen.push(*e);
        }
        assert_eq!(seen, list);
        let same = GraphSnapshot::from_edges(9, 18, list.clone());
        assert_eq!(snap.edges(), same.edges());
        assert_ne!(snap, same, "the epoch is part of image equality");
        assert_eq!(format!("{:?}", snap.edges()), format!("{list:?}"));
    }

    #[test]
    fn advance_shares_untouched_blocks_and_leaves_its_input_alone() {
        let base = GraphSnapshot::from_edges(0, 32, vec![e(0, 1, 1), e(9, 2, 2), e(31, 0, 3)]);
        let before = base.clone();
        let delta = SnapshotDelta::from_parts(
            1,
            vec![e(9, 2, 7), e(10, 0, 1)],
            vec![Edge::new(0, 5).key(), Edge::new(200, 0).key()],
        );
        let (next, copied) = base.advance(&delta);
        assert_eq!(base, before);
        assert_eq!(next.epoch(), 1);
        assert_eq!(
            next.edges().to_vec(),
            vec![e(0, 1, 1), e(9, 2, 7), e(10, 0, 1), e(31, 0, 3)]
        );
        // Block 1 was rebuilt; block 0 saw only a delete of an absent key.
        assert_eq!(next.shared_blocks(&base), 3);
        assert_eq!(copied, 2 * BYTES_PER_EDGE);
        next.check_layout().unwrap();
        // Emptying a block keeps the layout canonical.
        let (emptied, _) = next.advance(&SnapshotDelta::from_parts(
            2,
            vec![],
            vec![Edge::new(9, 2).key(), Edge::new(10, 0).key()],
        ));
        assert_eq!(
            emptied,
            GraphSnapshot::from_edges(2, 32, vec![e(0, 1, 1), e(31, 0, 3)])
        );
    }

    #[test]
    #[should_panic(expected = "outside the image's 8 vertices")]
    fn upsert_past_the_last_vertex_is_rejected() {
        let base = GraphSnapshot::from_edges(0, 8, vec![]);
        base.advance(&SnapshotDelta::from_parts(1, vec![e(8, 0, 1)], vec![]));
    }

    #[test]
    fn merged_unions_parts_row_by_row() {
        let a = GraphSnapshot::from_edges(1, 20, vec![e(0, 1, 1), e(9, 5, 1), e(9, 0, 1)]);
        let b = GraphSnapshot::from_edges(4, 20, vec![e(9, 3, 2), e(9, 5, 8), e(17, 0, 2)]);
        let m = GraphSnapshot::merged(6, 20, &[&a, &b]);
        let mut flat = a.edges().to_vec();
        flat.extend(b.edges().to_vec());
        assert_eq!(m, GraphSnapshot::from_edges(6, 20, flat));
        assert_eq!(m.weight(9, 5), Some(8), "the later part wins a shared key");
        assert_eq!(
            (m.num_slabs(), m.held_edges()),
            (1, 6),
            "one slab sized for both parts"
        );
        m.check_layout().unwrap();
    }

    /// 64 blocks of 8 rows x 4 edges.
    fn grid_image() -> GraphSnapshot {
        let all: Vec<Edge> = (0..512)
            .flat_map(|v| (0..4).map(move |d| e(v, d, 1)))
            .collect();
        GraphSnapshot::from_edges(0, 512, all)
    }

    /// Re-weight one edge in each of 8 blocks, a different 8 every epoch.
    fn grid_delta(epoch: u64) -> SnapshotDelta {
        let rows = (0..8).map(|i| ((epoch * 8 + i) * 8 % 512) as u32);
        SnapshotDelta::from_parts(epoch, rows.map(|v| e(v, 0, epoch + 1)).collect(), vec![])
    }

    #[test]
    fn garbage_stays_within_a_quarter_of_the_live_edges() {
        let mut image = grid_image();
        assert_eq!((image.num_slabs(), image.held_edges()), (1, 2048));
        let mut most_slabs = 0;
        for epoch in 1..=200u64 {
            let (next, copied) = image.advance(&grid_delta(epoch));
            next.check_layout().unwrap();
            assert_eq!(next.num_edges(), 2048);
            // What is held beyond the live edges: at most a quarter of them
            // from before, plus the 8 blocks this delta replaced.
            assert!(
                next.held_edges() <= 2048 + 512 + 8 * 32 + 8,
                "epoch {epoch}: {} edges held",
                next.held_edges()
            );
            assert!(
                copied <= 2048 * BYTES_PER_EDGE,
                "epoch {epoch}: {copied} bytes"
            );
            most_slabs = most_slabs.max(next.num_slabs());
            image = next;
        }
        assert!((2..=MAX_SLABS).contains(&most_slabs), "{most_slabs} slabs");
        let flat: Vec<Edge> = image.edges().to_vec();
        assert_eq!(image, GraphSnapshot::from_edges(200, 512, flat));
    }

    #[test]
    fn slabs_an_older_image_holds_are_left_alone() {
        let base = grid_image();
        let mut image = base.clone();
        let mut touched = std::collections::BTreeSet::new();
        for epoch in 1..=40u64 {
            let delta = grid_delta(epoch);
            touched.extend(
                delta
                    .inserted()
                    .iter()
                    .map(|e| e.src as usize / ROWS_PER_BLOCK),
            );
            image = image.advance(&delta).0;
            // Every block no delta touched is still where `base` has it,
            // however much garbage `base`'s slab holds by now.
            assert_eq!(
                image.shared_blocks(&base),
                64 - touched.len(),
                "epoch {epoch}"
            );
        }
        assert_eq!(touched.len(), 64, "the deltas went round all blocks");
        // Let go of the old image: the next advances empty its slab.
        drop(base);
        for epoch in 41..=44u64 {
            image = image.advance(&grid_delta(epoch)).0;
        }
        assert!(
            image.held_edges() <= 2048 + 512 + 8 * 32 + 8,
            "{}",
            image.held_edges()
        );
        image.check_layout().unwrap();
    }

    #[test]
    fn a_stream_of_tiny_deltas_keeps_the_slab_list_short() {
        let nv = 8 * 1024u32;
        let all: Vec<Edge> = (0..nv).map(|v| e(v, 0, 1)).collect();
        let mut image = GraphSnapshot::from_edges(0, nv, all);
        let mut total = 0;
        for epoch in 1..=2_000u64 {
            let v = (epoch * 8 * 37 % nv as u64) as u32;
            let delta = SnapshotDelta::from_parts(epoch, vec![e(v, 0, epoch + 1)], vec![]);
            let (next, copied) = image.advance(&delta);
            assert!(next.num_slabs() <= MAX_SLABS);
            total += copied;
            image = next;
        }
        image.check_layout().unwrap();
        assert_eq!(image.num_edges(), nv as usize);
        // One block of 8 edges per delta; making room merges small slabs
        // into larger ones, which recopies a block a few times, not a share
        // of the graph per delta.
        let per_delta = total / 2_000 / BYTES_PER_EDGE;
        assert!(
            per_delta <= 8 * 6,
            "{per_delta} edges copied per one-key delta"
        );
    }

    /// The full-walk `advance` the run-copy one replaced, kept as its
    /// layout oracle: it visits every block, merges a touched block edge by
    /// edge, compares the result with the old block and rescans it for its
    /// row offsets.
    fn advance_full_walk(image: &GraphSnapshot, delta: &SnapshotDelta) -> (GraphSnapshot, usize) {
        let block_of = |src: u32| src as usize / ROWS_PER_BLOCK;
        let mut touched: Vec<(usize, &[Edge], &[u64])> = Vec::new();
        let mut touched_edges = 0usize;
        let (mut ins, mut del) = (delta.inserted(), delta.deleted_keys());
        loop {
            let next_ins = ins.first().map(|e| block_of(e.src));
            let next_del = del.first().map(|&k| block_of(decode_key(k).0));
            let Some(index) = next_ins.into_iter().chain(next_del).min() else {
                break;
            };
            let n_ins = ins.partition_point(|e| block_of(e.src) == index);
            let n_del = del.partition_point(|&k| block_of(decode_key(k).0) == index);
            if index < image.blocks.len() {
                touched.push((index, &ins[..n_ins], &del[..n_del]));
                touched_edges += image.blocks[index].len();
            }
            (ins, del) = (&ins[n_ins..], &del[n_del..]);
        }
        if touched.is_empty() {
            let mut next = image.clone();
            next.epoch = delta.epoch();
            return (next, 0);
        }

        let emptied = image.slabs_to_empty(touched_edges + delta.inserted().len());
        let mut slabs: Vec<Slab> = Vec::with_capacity(image.slabs.len() + 1);
        let mut new_index = vec![0u8; image.slabs.len()];
        for (i, slab) in image.slabs.iter().enumerate() {
            if !emptied[i] {
                new_index[i] = slabs.len() as u8;
                slabs.push(slab.clone());
            }
        }
        let fresh = slabs.len();
        let moved: usize = (0..image.slabs.len())
            .filter(|&i| emptied[i])
            .map(|i| image.slabs[i].live)
            .sum();
        let mut out = new_slab(touched_edges + delta.inserted().len() + moved);

        let mut blocks = Vec::with_capacity(image.blocks.len());
        let mut num_edges = image.num_edges;
        let mut touched = touched.into_iter().peekable();
        for (index, old) in image.blocks.iter().enumerate() {
            let old_edges = image.block_edges(old);
            let moves = old.len() > 0 && emptied[old.slab as usize];
            let start = out.len();
            let mut changed = false;
            if let Some((_, ins, del)) = touched.next_if(|(i, _, _)| *i == index) {
                merge_edge_by_edge(old_edges, ins, del, &mut out);
                changed = out[start..] != *old_edges;
                if !changed && !moves {
                    out.truncate(start);
                }
            } else if moves {
                out.extend_from_slice(old_edges);
            }
            if !changed && !moves {
                blocks.push(match old.len() {
                    0 => RowBlock::EMPTY,
                    _ => RowBlock {
                        slab: new_index[old.slab as usize],
                        ..*old
                    },
                });
                continue;
            }
            if old.len() > 0 && !moves {
                slabs[new_index[old.slab as usize] as usize].live -= old.len();
            }
            num_edges = num_edges - old.len() + (out.len() - start);
            blocks.push(match changed {
                true => rescanned(&out, start, index * ROWS_PER_BLOCK, fresh),
                false => RowBlock {
                    start: start as u32,
                    slab: fresh as u8,
                    ..*old
                },
            });
        }
        let written = out.len();
        if written > 0 || slabs.is_empty() {
            slabs.push(Slab {
                edges: Arc::new(out),
                live: written,
            });
        }
        let next = GraphSnapshot {
            epoch: delta.epoch(),
            num_vertices: image.num_vertices,
            num_edges,
            blocks,
            slabs,
        };
        (next, written * BYTES_PER_EDGE)
    }

    fn merge_edge_by_edge(old: &[Edge], ins: &[Edge], del: &[u64], out: &mut Vec<Edge>) {
        let (mut i, mut d) = (0, 0);
        for e in old {
            let k = e.key();
            while i < ins.len() && ins[i].key() < k {
                out.push(ins[i]);
                i += 1;
            }
            if i < ins.len() && ins[i].key() == k {
                continue;
            }
            while d < del.len() && del[d] < k {
                d += 1;
            }
            if d < del.len() && del[d] == k {
                continue;
            }
            out.push(*e);
        }
        out.extend_from_slice(&ins[i..]);
    }

    fn rescanned(slab: &[Edge], start: usize, first_row: usize, number: usize) -> RowBlock {
        let edges = &slab[start..];
        if edges.is_empty() {
            return RowBlock::EMPTY;
        }
        let (offsets, len) = block_prefix(first_row, edges);
        assert_eq!(len, edges.len());
        RowBlock {
            offsets,
            start: start as u32,
            slab: number as u8,
        }
    }

    /// A slab as the layout test compares it: one `input` already had is
    /// named by its address, a new one by its capacity and contents; either
    /// way with this image's live count.
    #[derive(Debug, PartialEq)]
    enum SlabLayout {
        Kept(*const Vec<Edge>, usize),
        New(usize, Vec<Edge>, usize),
    }

    type Layout = (
        u64,
        usize,
        Vec<(u32, u8, [u32; ROWS_PER_BLOCK + 1])>,
        Vec<SlabLayout>,
    );

    /// Where every block and edge of `next`, advanced from `input`, sits.
    fn layout(input: &GraphSnapshot, next: &GraphSnapshot) -> Layout {
        let slabs = next.slabs.iter().map(|s| {
            let ptr = Arc::as_ptr(&s.edges);
            match input.slabs.iter().any(|old| Arc::as_ptr(&old.edges) == ptr) {
                true => SlabLayout::Kept(ptr, s.live),
                false => SlabLayout::New(s.edges.capacity(), s.edges.to_vec(), s.live),
            }
        });
        (
            next.epoch,
            next.num_edges,
            next.blocks
                .iter()
                .map(|b| (b.start, b.slab, b.offsets))
                .collect(),
            slabs.collect(),
        )
    }

    /// One random step: upserts (new keys, weight changes and identical
    /// re-upserts), deletes (live keys, absent keys, keys past the last
    /// vertex) and cleared blocks, over a few blocks — now and then many.
    fn random_delta(rng: &mut SmallRng, image: &GraphSnapshot, epoch: u64) -> SnapshotDelta {
        let nv = image.num_vertices();
        let mut batch = UpdateBatch::default();
        let blocks = match rng.gen_range(0..10) {
            0 => rng.gen_range(8..40),
            _ => rng.gen_range(1..4),
        };
        for _ in 0..blocks {
            let v = rng.gen_range(0..nv);
            let row = image.neighbors(v);
            match rng.gen_range(0..8) {
                0 | 1 => batch.insertions.push(Edge::weighted(
                    v,
                    rng.gen_range(0..8),
                    rng.gen_range(1..3),
                )),
                2 => batch.insertions.extend(row.first().copied()),
                3 => batch
                    .deletions
                    .extend(row.last().map(|e| Edge::new(e.src, e.dst))),
                4 => batch.deletions.push(Edge::new(v, rng.gen_range(8..16))),
                5 => batch
                    .deletions
                    .push(Edge::new(nv + rng.gen_range(0..8u32), 0)),
                6 => {
                    let first = v - v % ROWS_PER_BLOCK as u32;
                    let last = (first + ROWS_PER_BLOCK as u32).min(nv);
                    for u in first..last {
                        let doomed = image.neighbors(u).iter();
                        batch
                            .deletions
                            .extend(doomed.map(|e| Edge::new(e.src, e.dst)));
                    }
                }
                _ => {
                    let w = rng.gen_range(1..3);
                    batch
                        .insertions
                        .push(Edge::weighted(v, rng.gen_range(0..8), w));
                    batch.deletions.push(Edge::new(v, rng.gen_range(0..8)));
                }
            }
        }
        SnapshotDelta::from_batch(epoch, &batch)
    }

    #[test]
    fn run_copy_advance_lays_out_every_block_like_the_full_walk() {
        let mut rng = SmallRng::seed_from_u64(34);
        // Steps that emptied a slab, advanced a pinned image, found the
        // slab list full, and emptied a block to zero.
        let (mut emptying, mut pinned, mut full, mut cleared) = (0, 0, 0, 0);
        for case in 0..24u64 {
            let nv = [27u32, 200, 4096][case as usize % 3];
            let degree = rng.gen_range(1..5);
            let initial: Vec<Edge> = (0..nv)
                .flat_map(|v| (0..rng.gen_range(0..=degree)).map(move |d| Edge::new(v, d)))
                .collect();
            let mut image = GraphSnapshot::from_edges(0, nv, initial);
            let mut held: Option<GraphSnapshot> = None;
            for epoch in 1..=80u64 {
                match rng.gen_range(0..12) {
                    0 => held = Some(image.clone()),
                    1 => held = None,
                    _ => {}
                }
                let delta = random_delta(&mut rng, &image, epoch);
                let (want, want_copied) = advance_full_walk(&image, &delta);
                let want_layout = layout(&image, &want);
                // The oracle's image would pin the input's slabs.
                drop(want);
                let (next, copied) = image.advance(&delta);
                assert_eq!(
                    layout(&image, &next),
                    want_layout,
                    "case {case} epoch {epoch}"
                );
                assert_eq!(copied, want_copied, "case {case} epoch {epoch}");
                next.check_layout().unwrap();

                let kept = |s: &Slab| next.slabs.iter().any(|n| Arc::ptr_eq(&n.edges, &s.edges));
                emptying += image.slabs.iter().any(|s| s.live > 0 && !kept(s)) as usize;
                pinned += (held.is_some()
                    && image.slabs.iter().any(|s| Arc::strong_count(&s.edges) > 1))
                    as usize;
                full += (image.num_slabs() == MAX_SLABS) as usize;
                cleared += image
                    .blocks
                    .iter()
                    .zip(&next.blocks)
                    .any(|(a, b)| a.len() > 0 && b.len() == 0) as usize;
                image = next;
            }
        }
        assert!(
            emptying > 0 && pinned > 0 && full > 0 && cleared > 0,
            "emptying {emptying}, pinned {pinned}, full {full}, cleared {cleared}"
        );
    }
}
