//! Device-resident GPMA storage: the PMA slot array in simulated GPU global
//! memory, shared by the lock-based (GPMA) and lock-free (GPMA+) update
//! algorithms.
//!
//! Layout (Figure 5): one edge per slot, keyed `src << 32 | dst`, sorted with
//! gaps (`EMPTY`). Every vertex owns an immortal *guard* entry `(v, ∞)` so
//! row boundaries survive arbitrary edge churn. An implicit segment tree over
//! fixed-size leaves carries the density thresholds of Figure 3.
//!
//! # The leaf index and its routing invariant
//!
//! [`GpmaStorage::leaf_max_prefix`] holds one *routing bound* per leaf and
//! makes leaf lookup a coalesced binary search ([`GpmaStorage::find_leaf`]:
//! the first leaf whose bound is `>= key`). It only has to satisfy the
//! **routing invariant**:
//!
//! * bounds are non-decreasing, and
//! * every live key in leaf `j` lies in `(bound[j-1], bound[j]]`
//!   (`bound[-1]` = −∞).
//!
//! That is all the search needs: a present key is found in the leaf it
//! routes to, and an absent key routes to a leaf where inserting it keeps
//! the array globally sorted. A bound may *overstate* its leaf's largest
//! key — the state lazy deletions leave behind — and an empty leaf may carry
//! any bound between its neighbours'.
//!
//! Who maintains it: whoever redistributes a window writes that window's
//! bounds while placing the keys — [`GpmaStorage::redispatch_window`] and
//! the GPMA+ small-tier merge lane set `bound[leaf]` to the last key placed
//! in the leaf; the window's trailing empty leaves (even left-packing
//! leaves no others empty) take the window's largest key; a window left
//! with no entries keeps its old bounds; lazy deletion touches nothing.
//! Each rule preserves the invariant: every key merged into a window was
//! routed there, so it lies in `(bound[first-1], bound[last]]` of the old
//! bounds; the new bounds are exact, so they never exceed the old last
//! bound, and the keys to the window's right still exceed it. A GPMA+ batch
//! therefore costs work proportional to the windows it touches, never to
//! the array. [`GpmaStorage::rebuild_leaf_max`] is the from-scratch path
//! (exact prefix maxima) for `build`, `resize_to` and the lock-based
//! [`Gpma`](crate::Gpma), whose single-entry merges do not write bounds.

use gpma_graph::edge::{guard_key, Edge, GUARD_DST};
use gpma_pma::{DensityConfig, Geometry};
use gpma_sim::{launch, primitives, Device, DeviceBuffer, Lane, LaneMode};

use crate::update::UpdateScratch;

/// Gap sentinel in the device key array (same as the CPU PMA).
pub const EMPTY: u64 = u64::MAX;

/// The device-resident dynamic graph store.
pub struct GpmaStorage {
    /// Slot keys; `EMPTY` marks gaps.
    pub keys: DeviceBuffer<u64>,
    /// Slot values (edge weights; unused for guards).
    pub vals: DeviceBuffer<u64>,
    /// The device-side leaf index: one routing bound per leaf, non-decreasing,
    /// every live key of leaf `j` in `(bound[j-1], bound[j]]` (module docs).
    /// Written by the kernels that redistribute a window; exact prefix
    /// maxima right after [`Self::rebuild_leaf_max`].
    pub leaf_max_prefix: DeviceBuffer<u64>,
    geom: Geometry,
    density: DensityConfig,
    num_vertices: u32,
    /// Live entries including guards, tracked on the device so concurrent
    /// segment merges can adjust it atomically.
    len_counter: DeviceBuffer<u64>,
}

impl GpmaStorage {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Bulk-build from an edge list (duplicates keep the last weight).
    /// Inserts one guard entry per vertex. Sized for ~60% root density.
    pub fn build(dev: &Device, num_vertices: u32, edges: &[Edge]) -> Self {
        let mut entries: Vec<(u64, u64)> = edges
            .iter()
            .map(|e| {
                assert!(e.dst != GUARD_DST, "dst {} is the guard sentinel", e.dst);
                assert!(e.src < num_vertices && e.dst < num_vertices, "edge out of range");
                (e.key(), e.weight)
            })
            .collect();
        entries.extend((0..num_vertices).map(|v| (guard_key(v), 0)));
        entries.sort_by_key(|&(k, _)| k);
        // Last write wins for duplicate (src, dst) pairs.
        entries.reverse();
        entries.dedup_by_key(|&mut (k, _)| k);
        entries.reverse();

        let n = entries.len();
        let geom = Self::geometry_for(n);
        let mut storage = GpmaStorage {
            keys: DeviceBuffer::filled(EMPTY, geom.capacity()),
            vals: DeviceBuffer::new(geom.capacity()),
            leaf_max_prefix: DeviceBuffer::new(geom.num_segs),
            geom,
            density: DensityConfig::default(),
            num_vertices,
            len_counter: DeviceBuffer::new(1),
        };
        storage.len_counter.host_write(0, n as u64);

        // Upload sorted entries and redispatch evenly (device kernels so the
        // build is charged like the paper's initial load).
        let src_keys = DeviceBuffer::from_slice(&entries.iter().map(|&(k, _)| k).collect::<Vec<_>>());
        let src_vals = DeviceBuffer::from_slice(&entries.iter().map(|&(_, v)| v).collect::<Vec<_>>());
        storage.redispatch_window(dev, 0..storage.geom.capacity(), &src_keys, &src_vals, n);
        storage.rebuild_leaf_max(dev);
        storage
    }

    /// Geometry for `n` live entries at ~60% root density.
    pub(crate) fn geometry_for(n: usize) -> Geometry {
        let min_slots = ((n as f64 / 0.6).ceil() as usize).max(64);
        Geometry::for_capacity(min_slots)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Segment-tree geometry (leaf size, level count, capacity).
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// The density thresholds of Figure 3.
    pub fn density_config(&self) -> DensityConfig {
        self.density
    }

    /// Vertex count this store was built for (one guard entry each).
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Total slots in the PMA array (live entries + gaps).
    pub fn capacity(&self) -> usize {
        self.geom.capacity()
    }

    /// Live entries (including the `num_vertices` guards).
    pub fn len(&self) -> usize {
        self.len_counter.host_read(0) as usize
    }

    /// True when the store holds no live entries (not even guards).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live real edges (excluding guards).
    pub fn num_edges(&self) -> usize {
        self.len() - self.num_vertices as usize
    }

    pub(crate) fn add_len_delta<M: LaneMode>(&self, lane: &mut Lane<'_, M>, delta: i64) {
        // Two's-complement wrapping add implements signed deltas on the u64
        // counter (same trick CUDA code uses with atomicAdd of negatives).
        self.len_counter.atomic_add(lane, 0, delta as u64);
    }

    /// Is the slot a live, real edge (Algorithm 2/3's `IsEntryExist`)?
    #[inline]
    pub fn is_entry(key: u64) -> bool {
        key != EMPTY && (key as u32) != GUARD_DST
    }

    /// Host-side length adjustment (used by host-orchestrated merges, which
    /// run between launches and therefore cannot race device lanes).
    pub(crate) fn host_adjust_len(&mut self, delta: i64) {
        let cur = self.len_counter.host_read(0);
        self.len_counter.host_write(0, cur.wrapping_add(delta as u64));
    }

    /// Lazy deletions for the sliding-window model (§6.1): mark each slot
    /// `EMPTY` without density maintenance; the holes are recycled by later
    /// insert merges. A CAS guards against duplicate deletes of one key.
    /// Routing bounds are left alone (an overstated bound still routes).
    /// Keys and the deleted count are staged through `scratch`.
    // lint: hot-path
    pub fn delete_lazy(&mut self, dev: &Device, edges: &[Edge], scratch: &mut UpdateScratch) -> usize {
        if edges.is_empty() {
            return 0;
        }
        let (del_keys, deleted) = scratch.stage_deletions(edges);
        let keys = &self.keys;
        let this = &*self;
        launch!(dev, "lazy_delete", edges.len(), |lane| {
            let key = del_keys.get(lane, lane.tid);
            if let Some(slot) = this.find_slot(lane, key) {
                if keys.atomic_cas(lane, slot, key, EMPTY) == key {
                    deleted.atomic_add(lane, 0, 1);
                }
            }
        });
        let n = deleted.host_read(0) as usize;
        self.host_adjust_len(-(n as i64));
        n
    }

    // ------------------------------------------------------------------
    // Leaf search
    // ------------------------------------------------------------------

    /// Rebuild the leaf index from scratch with device kernels: leaf-local
    /// max, then a blocked inclusive max-scan (empty leaves inherit). Reads
    /// every slot — for `build`, `resize_to` and the lock-based baseline,
    /// not for the GPMA+ batch path.
    pub fn rebuild_leaf_max(&mut self, dev: &Device) {
        let seg_len = self.geom.seg_len;
        let num_segs = self.geom.num_segs;
        let keys = &self.keys;
        let local = DeviceBuffer::<u64>::new(num_segs);
        launch!(dev, "leaf_local_max", num_segs, |lane| {
            let l = lane.tid;
            let mut max = 0u64;
            for i in l * seg_len..(l + 1) * seg_len {
                let k = keys.get(lane, i);
                if k != EMPTY {
                    max = max.max(k);
                }
            }
            local.set(lane, l, max);
        });
        inclusive_max_scan(dev, &local, &self.leaf_max_prefix);
    }

    /// Device-side binary search: index of the leaf where `key` belongs
    /// (first leaf whose routing bound is `>= key`, else the last leaf).
    #[inline]
    pub fn find_leaf<M: LaneMode>(&self, lane: &mut Lane<'_, M>, key: u64) -> usize {
        let n = self.geom.num_segs;
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.leaf_max_prefix.get(lane, mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo.min(n - 1)
    }

    /// Slot index of the first live entry with key `>= key`; monotone in
    /// `key` even with mid-leaf holes from lazy deletions.
    pub fn lower_bound_slot<M: LaneMode>(&self, lane: &mut Lane<'_, M>, key: u64) -> usize {
        let leaf = self.find_leaf(lane, key);
        let seg_len = self.geom.seg_len;
        for i in leaf * seg_len..(leaf + 1) * seg_len {
            let k = self.keys.get(lane, i);
            if k != EMPTY && k >= key {
                return i;
            }
        }
        (leaf + 1) * seg_len
    }

    /// Exact slot of `key`, if present.
    pub fn find_slot<M: LaneMode>(&self, lane: &mut Lane<'_, M>, key: u64) -> Option<usize> {
        let leaf = self.find_leaf(lane, key);
        let seg_len = self.geom.seg_len;
        for i in leaf * seg_len..(leaf + 1) * seg_len {
            let k = self.keys.get(lane, i);
            if k == key {
                return Some(i);
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Window machinery (shared by GPMA, GPMA+ and the rebuild baseline)
    // ------------------------------------------------------------------

    /// Evenly redistribute the first `n` entries of `src_keys`/`src_vals`
    /// (sorted) across `window`, left-packing each leaf — the "re-dispatch
    /// entries evenly" step. Fully parallel: one lane per leaf, which also
    /// writes the leaf's routing bound (module docs).
    pub fn redispatch_window(
        &self,
        dev: &Device,
        window: std::ops::Range<usize>,
        src_keys: &DeviceBuffer<u64>,
        src_vals: &DeviceBuffer<u64>,
        n: usize,
    ) {
        let seg_len = self.geom.seg_len;
        debug_assert_eq!(window.start % seg_len, 0);
        debug_assert_eq!(window.len() % seg_len, 0);
        assert!(n <= window.len(), "redispatch overflow: {n} > {}", window.len());
        let leaves = window.len() / seg_len;
        let first_leaf = window.start / seg_len;
        let base = n / leaves;
        let extra = n % leaves;
        let keys = &self.keys;
        let vals = &self.vals;
        let bounds = &self.leaf_max_prefix;
        launch!(dev, "redispatch", leaves, |lane| {
            let j = lane.tid;
            let take = base + usize::from(j < extra);
            let src_from = j * base + j.min(extra);
            let dst_from = (first_leaf + j) * seg_len;
            // The leaf's routing bound: its last key, or the window's for a
            // trailing empty leaf; an emptied window keeps its old bounds.
            let mut bound = None;
            for i in 0..seg_len {
                if i < take {
                    let k = src_keys.get(lane, src_from + i);
                    let v = src_vals.get(lane, src_from + i);
                    keys.set(lane, dst_from + i, k);
                    vals.set(lane, dst_from + i, v);
                    bound = Some(k);
                } else {
                    keys.set(lane, dst_from + i, EMPTY);
                }
            }
            if bound.is_none() && n > 0 {
                bound = Some(src_keys.get(lane, n - 1));
            }
            if let Some(b) = bound {
                bounds.set(lane, first_leaf + j, b);
            }
        });
    }

    /// Compact the live entries of `window` into caller-owned scratch
    /// (parallel flags + scan + scatter), so the GPMA+ device tier, the
    /// resize path and GPMA's root doubling reuse one buffer set. Returns
    /// the live-entry count; the entries live in `scratch.keys` /
    /// `scratch.vals` (over-sized: only the first `count` slots are
    /// meaningful).
    // lint: hot-path
    pub fn compact_window_into(
        &self,
        dev: &Device,
        window: std::ops::Range<usize>,
        scratch: &mut CompactScratch,
    ) -> usize {
        let len = window.len();
        let start = window.start;
        scratch.ensure(len);
        let CompactScratch {
            flags,
            positions,
            keys: out_keys,
            vals: out_vals,
        } = &*scratch;
        let keys = &self.keys;
        launch!(dev, "window_flags", len, |lane| {
            let occupied = keys.get(lane, start + lane.tid) != EMPTY;
            flags.set(lane, lane.tid, occupied as u32);
        });
        let count = primitives::exclusive_scan_u32_into(dev, flags, len, positions);
        let vals = &self.vals;
        launch!(dev, "window_compact", len, |lane| {
            let i = lane.tid;
            if flags.get(lane, i) != 0 {
                let p = positions.get(lane, i) as usize;
                let k = keys.get(lane, start + i);
                let v = vals.get(lane, start + i);
                out_keys.set(lane, p, k);
                out_vals.set(lane, p, v);
            }
        });
        count as usize
    }

    /// Replace the whole array with `entries` (sorted, deduplicated) under a
    /// new geometry — the grow/shrink path ("double the space of the root").
    pub fn resize_to(
        &mut self,
        dev: &Device,
        merged_keys: &DeviceBuffer<u64>,
        merged_vals: &DeviceBuffer<u64>,
        n: usize,
    ) {
        let geom = Self::geometry_for(n);
        self.keys = DeviceBuffer::filled(EMPTY, geom.capacity());
        self.vals = DeviceBuffer::new(geom.capacity());
        self.leaf_max_prefix = DeviceBuffer::new(geom.num_segs);
        self.geom = geom;
        self.redispatch_window(dev, 0..geom.capacity(), merged_keys, merged_vals, n);
        self.len_counter.host_write(0, n as u64);
        self.rebuild_leaf_max(dev);
    }

    // ------------------------------------------------------------------
    // Host-side verification helpers (tests, oracles)
    // ------------------------------------------------------------------

    /// All live entries (including guards) in key order — host readback.
    pub fn host_entries(&self) -> Vec<(u64, u64)> {
        let keys = self.keys.as_slice();
        let vals = self.vals.as_slice();
        keys.iter()
            .zip(vals.iter())
            .filter(|(k, _)| **k != EMPTY)
            .map(|(k, v)| (*k, *v))
            .collect()
    }

    /// Live real edges in key order — host readback as one flat list (one
    /// pass, one exactly-sized allocation).
    pub fn host_edges(&self) -> Vec<Edge> {
        let mut edges = Vec::with_capacity(self.num_edges());
        for (&k, &w) in self.keys.as_slice().iter().zip(self.vals.as_slice()) {
            if Self::is_entry(k) {
                let (s, d) = gpma_graph::decode_key(k);
                edges.push(Edge::weighted(s, d, w));
            }
        }
        edges
    }

    /// Check the leaf index's routing invariant (module docs) on the host;
    /// `Err` names the first leaf that breaks it.
    pub fn check_routing(&self) -> Result<(), String> {
        let keys = self.keys.as_slice();
        let bounds = self.leaf_max_prefix.as_slice();
        let mut below: Option<u64> = None;
        for (l, (leaf, &bound)) in keys.chunks(self.geom.seg_len).zip(bounds).enumerate() {
            if below.is_some_and(|b| bound < b) {
                return Err(format!("routing bounds not monotone at leaf {l}"));
            }
            for &k in leaf.iter().filter(|&&k| k != EMPTY) {
                if k > bound {
                    return Err(format!(
                        "leaf {l} routing bound understated: {bound:#x} < key {k:#x}"
                    ));
                }
                if let Some(b) = below.filter(|&b| k <= b) {
                    return Err(format!(
                        "leaf {l} holds key {k:#x} at or below leaf {}'s routing bound {b:#x}",
                        l - 1
                    ));
                }
            }
            below = Some(bound);
        }
        Ok(())
    }

    /// Check structural invariants on the host; panics on violation.
    pub fn check_invariants(&self) {
        let keys = self.keys.as_slice();
        // Sorted with gaps, no duplicates.
        let mut prev: Option<u64> = None;
        let mut live = 0usize;
        for &k in keys {
            if k == EMPTY {
                continue;
            }
            live += 1;
            if let Some(p) = prev {
                assert!(p < k, "device keys out of order: {p:#x} !< {k:#x}");
            }
            prev = Some(k);
        }
        assert_eq!(live, self.len(), "len counter out of sync");
        // Every vertex keeps its guard.
        let mut guards = 0usize;
        for &k in keys {
            if k != EMPTY && (k as u32) == GUARD_DST {
                guards += 1;
            }
        }
        assert_eq!(guards, self.num_vertices as usize, "guards lost");
        if let Err(m) = self.check_routing() {
            panic!("{m}");
        }
    }
}

/// Reusable buffer set for [`GpmaStorage::compact_window_into`]: the
/// occupancy mask, its scan, and the compacted output pair (sized to the
/// window length, an upper bound on the live count). Capacities only grow
/// ([`DeviceBuffer::grow_to`]), so a steady-state stream of equally sized
/// windows reallocates none of these buffers after the first call; the
/// scan's own intermediates are still allocated per call
/// ([`primitives::exclusive_scan_u32_into`]).
pub struct CompactScratch {
    flags: DeviceBuffer<u32>,
    positions: DeviceBuffer<u32>,
    /// Compacted live keys, valid for the count returned by the call that
    /// filled this scratch.
    pub keys: DeviceBuffer<u64>,
    /// Compacted live values, index-aligned with [`Self::keys`].
    pub vals: DeviceBuffer<u64>,
}

impl Default for CompactScratch {
    fn default() -> Self {
        CompactScratch {
            flags: DeviceBuffer::new(0),
            positions: DeviceBuffer::new(0),
            keys: DeviceBuffer::new(0),
            vals: DeviceBuffer::new(0),
        }
    }
}

impl CompactScratch {
    fn ensure(&mut self, n: usize) {
        self.flags.grow_to(n);
        self.positions.grow_to(n);
        self.keys.grow_to(n);
        self.vals.grow_to(n);
    }
}

/// Blocked inclusive max-scan over `u64` (primitive used by the leaf index).
pub fn inclusive_max_scan(dev: &Device, input: &DeviceBuffer<u64>, output: &DeviceBuffer<u64>) {
    let n = input.len();
    assert_eq!(n, output.len());
    if n == 0 {
        return;
    }
    const B: usize = primitives::BLOCK;
    if n <= B {
        launch!(dev, "max_scan_small", 1, |lane| {
            let mut acc = 0u64;
            for i in 0..n {
                acc = acc.max(input.get(lane, i));
                output.set(lane, i, acc);
            }
        });
        return;
    }
    let nb = n.div_ceil(B);
    let block_max = DeviceBuffer::<u64>::new(nb);
    launch!(dev, "max_scan_blocks", nb, |lane| {
        let b = lane.tid;
        let start = b * B;
        let end = (start + B).min(n);
        let mut acc = 0u64;
        for i in start..end {
            acc = acc.max(input.get(lane, i));
        }
        block_max.set(lane, b, acc);
    });
    let block_prefix = DeviceBuffer::<u64>::new(nb);
    inclusive_max_scan(dev, &block_max, &block_prefix);
    launch!(dev, "max_scan_add", nb, |lane| {
        let b = lane.tid;
        let start = b * B;
        let end = (start + B).min(n);
        let mut acc = if b > 0 { block_prefix.get(lane, b - 1) } else { 0 };
        for i in start..end {
            acc = acc.max(input.get(lane, i));
            output.set(lane, i, acc);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_graph::encode_key;
    use gpma_sim::DeviceConfig;

    fn dev() -> Device {
        Device::new(DeviceConfig::deterministic())
    }

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs.iter().map(|&(s, d)| Edge::new(s, d)).collect()
    }

    #[test]
    fn build_holds_edges_and_guards_sorted() {
        let d = dev();
        let s = GpmaStorage::build(&d, 3, &edges(&[(0, 1), (2, 0), (1, 2), (0, 2)]));
        s.check_invariants();
        assert_eq!(s.len(), 4 + 3);
        assert_eq!(s.num_edges(), 4);
        let got: Vec<(u32, u32)> = s.host_edges().iter().map(|e| (e.src, e.dst)).collect();
        assert_eq!(got, vec![(0, 1), (0, 2), (1, 2), (2, 0)]);
    }

    #[test]
    fn build_dedups_last_weight_wins() {
        let d = dev();
        let s = GpmaStorage::build(
            &d,
            2,
            &[Edge::weighted(0, 1, 5), Edge::weighted(0, 1, 9)],
        );
        assert_eq!(s.num_edges(), 1);
        assert_eq!(s.host_edges()[0].weight, 9);
    }

    #[test]
    fn find_slot_and_lower_bound() {
        let d = dev();
        let s = GpmaStorage::build(&d, 4, &edges(&[(0, 1), (1, 3), (2, 2)]));
        let mut lane = Lane::test_lane(0);
        assert!(s.find_slot(&mut lane, encode_key(1, 3)).is_some());
        assert!(s.find_slot(&mut lane, encode_key(1, 2)).is_none());
        let lb = s.lower_bound_slot(&mut lane, encode_key(1, 0));
        let k = s.keys.host_read(lb);
        assert!(k >= encode_key(1, 0), "lower bound landed before row 1");
    }

    #[test]
    fn compact_then_redispatch_roundtrips() {
        let d = dev();
        let s = GpmaStorage::build(&d, 8, &edges(&[(0, 1), (1, 2), (3, 4), (5, 6), (7, 0)]));
        let before = s.host_entries();
        let cap = s.capacity();
        let mut scratch = CompactScratch::default();
        let n = s.compact_window_into(&d, 0..cap, &mut scratch);
        assert_eq!(n, before.len());
        s.redispatch_window(&d, 0..cap, &scratch.keys, &scratch.vals, n);
        assert_eq!(s.host_entries(), before);
        s.check_invariants();
    }

    #[test]
    fn redispatch_bounds_trailing_empty_leaves_by_the_window_max() {
        // 48 entries over 16 leaves; shrink the left half (8 leaves) to its
        // three largest keys, as a merge full of deletions would. Leaves
        // 3..8 end up empty under old bounds *below* the new leaf 2's key
        // unless the redispatch lifts them to the window's max.
        let d = dev();
        let all: Vec<Edge> = (0..8).flat_map(|s| (0..6).map(move |i| Edge::new(s, (s + i + 1) % 8))).collect();
        let s = GpmaStorage::build(&d, 8, &all);
        assert_eq!(s.geometry().num_segs, 16);
        let half = s.capacity() / 2;
        let mut scratch = CompactScratch::default();
        let n = s.compact_window_into(&d, 0..half, &mut scratch);
        let (ck, cv) = (&scratch.keys, &scratch.vals);
        let tail = |b: &DeviceBuffer<u64>| DeviceBuffer::from_slice(&b.to_vec()[n - 3..]);
        s.redispatch_window(&d, 0..half, &tail(ck), &tail(cv), 3);
        s.check_routing().expect("routing invariant after a sparse redispatch");
        let window_max = ck.host_read(n - 1);
        assert_eq!(s.leaf_max_prefix.as_slice()[2..8], [window_max; 6]);
        // An emptied window keeps its old bounds.
        let before = s.leaf_max_prefix.to_vec();
        s.redispatch_window(&d, 0..half, ck, cv, 0);
        assert_eq!(s.leaf_max_prefix.to_vec(), before);
        s.check_routing().expect("routing invariant after emptying a window");
    }

    /// One scratch reused across shrinking windows compacts what a freshly
    /// allocated scratch does, and both equal the host-side live slots.
    #[test]
    fn compact_window_scratch_matches_allocating_variant() {
        let d = dev();
        let s = GpmaStorage::build(&d, 8, &edges(&[(0, 1), (1, 2), (3, 4), (5, 6), (7, 0)]));
        let cap = s.capacity();
        let slots = s.keys.to_vec();
        let weights = s.vals.to_vec();
        let mut scratch = CompactScratch::default();
        // Shrinking windows across calls: the reused buffers keep stale
        // tails that the bounded `n` must mask out.
        for window in [0..cap, 0..cap / 2, cap / 2..cap] {
            let live: Vec<usize> = window.clone().filter(|&i| slots[i] != EMPTY).collect();
            let mut fresh = CompactScratch::default();
            let n = s.compact_window_into(&d, window.clone(), &mut fresh);
            assert_eq!(s.compact_window_into(&d, window, &mut scratch), n);
            assert_eq!(n, live.len());
            let pairs = [
                (&scratch.keys, &fresh.keys, &slots),
                (&scratch.vals, &fresh.vals, &weights),
            ];
            for (reused, first, host) in pairs {
                assert_eq!(reused.to_vec()[..n], first.to_vec()[..n]);
                assert_eq!(first.to_vec()[..n], live.iter().map(|&i| host[i]).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn resize_preserves_entries() {
        let d = dev();
        let mut s = GpmaStorage::build(&d, 4, &edges(&[(0, 1), (1, 2), (2, 3)]));
        let before = s.host_entries();
        let cap = s.capacity();
        let mut scratch = CompactScratch::default();
        let n = s.compact_window_into(&d, 0..cap, &mut scratch);
        s.resize_to(&d, &scratch.keys, &scratch.vals, n);
        assert_eq!(s.host_entries(), before);
        s.check_invariants();
    }

    #[test]
    fn max_scan_matches_reference() {
        let d = dev();
        for n in [1usize, 7, 256, 257, 5000] {
            let data: Vec<u64> = (0..n).map(|i| ((i * 37) % 101) as u64).collect();
            let input = DeviceBuffer::from_slice(&data);
            let output = DeviceBuffer::new(n);
            inclusive_max_scan(&d, &input, &output);
            let mut acc = 0u64;
            let expect: Vec<u64> = data
                .iter()
                .map(|&v| {
                    acc = acc.max(v);
                    acc
                })
                .collect();
            assert_eq!(output.to_vec(), expect, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "guard sentinel")]
    fn guard_dst_rejected_in_edges() {
        let d = dev();
        GpmaStorage::build(&d, 2, &[Edge::new(0, GUARD_DST)]);
    }

    #[test]
    fn is_entry_predicate() {
        assert!(GpmaStorage::is_entry(encode_key(1, 2)));
        assert!(!GpmaStorage::is_entry(EMPTY));
        assert!(!GpmaStorage::is_entry(guard_key(5)));
    }
}
