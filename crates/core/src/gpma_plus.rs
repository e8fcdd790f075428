//! GPMA+ — the lock-free, segment-oriented batch update algorithm
//! (Section 5.2, Algorithm 4).
//!
//! The batch is sorted once, leaf segments are located by coalesced binary
//! search (the batch's lazy deletions ride in the same launch), and updates
//! are then processed **level by level**: updates grouped into the same
//! segment are merged together by `TryInsert+` wherever the density
//! threshold permits; survivors move to their parent segment. No locks are
//! taken anywhere, thread workloads at one level are identical by
//! construction, and the root overflow path doubles the array.
//!
//! Tiers (§5.2's warp/block/device optimization): segments whose window fits
//! a block-sized scratch are merged by a single lane over fast local memory,
//! in **one launch per level** over the level's updates — the lane heading
//! a segment's run finds the run's end, reads its window once, merges,
//! decides, writes back only the slots that change and marks the run
//! consumed or promoted (all windows at one level have equal capacity, so
//! the merges are perfectly balanced). Larger windows switch to a fully
//! parallel count + compact + rank-merge + redispatch pipeline over global
//! memory.
//!
//! Algorithm 4's lines in the code: line 3 is `locate_leaves`. Line 7
//! (`UniqueSegments`) has two forms: on the warp/block tier each run's head
//! lane in `tryinsert_small` finds its run, and on the device tier it is
//! the run-length encoding + exclusive scan of the paper's CUB primitives
//! (`run_length_encode_u32_into`). `TryInsert+` (lines 23-28) is
//! `tryinsert_small` on the warp/block tier and `tryinsert_count` (23-25)
//! plus the parallel merge (26-28) on the device tier; lines 12-15 (drop the
//! consumed updates, promote the rest) are the keep-mask scan and
//! `compact_promote`, skipped at the level whose merges consumed the whole
//! batch; line 16 is the root resize.

use gpma_graph::{Edge, UpdateBatch};
use gpma_sim::{launch, primitives, Device, DeviceBuffer, Lane, LaneMode};

use crate::storage::{CompactScratch, GpmaStorage, EMPTY};
use crate::update::{
    merge_parallel_into, merge_window_into, merged_count_serial, prepare_insertions,
    with_merge_scratch, DeviceUpdates, MergeScratch, UpdateScratch, WindowMerge,
};

/// Windows with at most this many slots are merged by the warp/block tier
/// (single lane over local scratch); larger windows use the device tier.
pub const SMALL_WINDOW_MAX: usize = 2048;

/// Per-batch statistics for GPMA+ updates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlusStats {
    /// Tree levels visited before the batch fully applied.
    pub levels: usize,
    /// Segments merged by the warp/block (small) tier.
    pub small_merges: u64,
    /// Segments merged by the device (large) tier.
    pub device_merges: u64,
    /// Full-array resizes (root doublings or shrinks).
    pub resizes: u64,
    /// Deletions that tombstoned a live edge.
    pub lazy_deletes: usize,
}

/// The GPMA+ dynamic graph store.
pub struct GpmaPlus {
    /// The shared device-resident PMA slot array.
    pub storage: GpmaStorage,
    /// Tier threshold: windows up to this many slots use the warp/block
    /// (serial-lane) merge; larger ones the device tier. Exposed for the
    /// tier ablation study; leave at [`SMALL_WINDOW_MAX`] normally.
    pub tier_max: usize,
    /// Reusable host staging for batch uploads (amortizes the per-flush
    /// `Vec` growth out of the streaming hot path).
    scratch: UpdateScratch,
    /// Reusable device buffers for the per-level survivor compaction in
    /// [`Self::apply_sorted`].
    level_scratch: LevelScratch,
    /// Reusable window-compaction buffers for the device merge tier and the
    /// resize path ([`GpmaStorage::compact_window_into`]).
    compact_scratch: CompactScratch,
    /// Reusable parallel-merge staging for the device tier and the resize
    /// path ([`merge_parallel_into`]).
    merge_scratch: MergeScratch,
    /// Route the warp/block tier through the three-launch reference the
    /// layout-identity tests hold the one-pass kernel to.
    #[cfg(test)]
    reference_small_tier: bool,
}

/// Device-buffer set the level loop ping-pongs survivors through instead
/// of allocating three fresh buffers (plus a scan buffer) per level.
/// Capacities only grow ([`DeviceBuffer::grow_to`]), so a steady-state
/// stream of equally sized batches reallocates none of these buffers after
/// the first; the keep-mask scan, and on the device tier the RLE's scan of
/// its block counts above one [`primitives::BLOCK`], still allocate their
/// intermediates per call ([`primitives::exclusive_scan_u32_into`]).
struct LevelScratch {
    keep: DeviceBuffer<u32>,
    positions: DeviceBuffer<u32>,
    keys: DeviceBuffer<u64>,
    vals: DeviceBuffer<u64>,
    segs: DeviceBuffer<u32>,
    /// Segment id of every pending update at the current level (leaf ids
    /// from `locate_leaves`, then swapped with `segs` on each promotion).
    seg_ids: DeviceBuffer<u32>,
    /// Reused by the device tier's `UniqueSegments` run-length encoding
    /// ([`process_level`](GpmaPlus::process_level)): the level's unique
    /// segments and their update runs (`starts[j]..starts[j + 1]`). The
    /// warp/block tier finds its runs from `seg_ids` itself.
    rle: primitives::RleScratch,
    /// Per-segment accept flags of the device tier's count phase (sized
    /// like the update count, an upper bound on the segment count).
    accept: DeviceBuffer<u32>,
    /// The small tier's tally at the current level (one slot): segments
    /// merged in the high half, updates they consumed in the low half.
    merged_ctr: DeviceBuffer<u64>,
}

impl Default for LevelScratch {
    fn default() -> Self {
        LevelScratch {
            keep: DeviceBuffer::new(0),
            positions: DeviceBuffer::new(0),
            keys: DeviceBuffer::new(0),
            vals: DeviceBuffer::new(0),
            segs: DeviceBuffer::new(0),
            seg_ids: DeviceBuffer::new(0),
            rle: primitives::RleScratch::default(),
            accept: DeviceBuffer::new(0),
            merged_ctr: DeviceBuffer::new(1),
        }
    }
}

impl LevelScratch {
    /// Grow any buffer below `n` slots. Checked per buffer: the ping-pong
    /// swaps hand the key/val/seg slots back buffers of *earlier batch*
    /// sizes, so their capacities evolve independently of the mask pair.
    fn ensure(&mut self, n: usize) {
        self.keep.grow_to(n);
        self.positions.grow_to(n);
        self.keys.grow_to(n);
        self.vals.grow_to(n);
        self.segs.grow_to(n);
        self.seg_ids.grow_to(n);
        self.accept.grow_to(n);
    }
}

impl GpmaPlus {
    /// Bulk-build from an initial edge set.
    pub fn build(dev: &Device, num_vertices: u32, edges: &[Edge]) -> Self {
        GpmaPlus {
            storage: GpmaStorage::build(dev, num_vertices, edges),
            tier_max: SMALL_WINDOW_MAX,
            scratch: UpdateScratch::default(),
            level_scratch: LevelScratch::default(),
            compact_scratch: CompactScratch::default(),
            merge_scratch: MergeScratch::default(),
            #[cfg(test)]
            reference_small_tier: false,
        }
    }

    /// Override the tier threshold (ablation: `0` forces every merge through
    /// the device tier, `usize::MAX` disables it entirely).
    pub fn with_tier_max(mut self, tier_max: usize) -> Self {
        self.tier_max = tier_max;
        self
    }

    /// Apply a batch, GPMA+'s one update path (§6.1's sliding-window
    /// model): every deletion marks its slot deleted (the holes are
    /// recycled by later merges) before any merge runs, then the insertions
    /// merge level by level. A key both deleted and inserted in one batch
    /// ends up present with the inserted weight. The deletions ride in the
    /// insertions' `locate_leaves` launch; an insert-free batch runs them
    /// alone ([`GpmaStorage::delete_lazy`]).
    pub fn update_batch_lazy(&mut self, dev: &Device, batch: &UpdateBatch) -> PlusStats {
        let mut stats = PlusStats::default();
        if batch.insertions.is_empty() {
            stats.lazy_deletes = self
                .storage
                .delete_lazy(dev, &batch.deletions, &mut self.scratch);
        } else {
            let nv = self.storage.num_vertices();
            let u = prepare_insertions(dev, nv, &batch.insertions, &mut self.scratch);
            self.apply_sorted(dev, u, &batch.deletions, &mut stats);
        }
        // Post-batch shrink check (delete-heavy workloads): below the root's
        // lower density bound, rebuild at ~60 % density. Rounded up to a
        // power of two, that rebuild lands a 33-40 % dense array on the
        // capacity it has, so it runs only where the capacity shrinks.
        let density = self.storage.density_config();
        let h = self.storage.geometry().height();
        let (len, cap) = (self.storage.len(), self.storage.capacity());
        if cap > 128
            && !density.within_rho(len, cap, h, h)
            && GpmaStorage::geometry_for(len).capacity() < cap
        {
            let empty = DeviceUpdates {
                keys: DeviceBuffer::new(0),
                vals: DeviceBuffer::new(0),
                len: 0,
            };
            self.resize_with_updates(dev, &empty);
            stats.resizes += 1;
        }
        stats
    }

    /// Algorithm 4: `GpmaPlusInsertion` over a sorted, non-empty insertion
    /// set, after the batch's lazy `deletions`.
    // lint: hot-path
    fn apply_sorted(
        &mut self,
        dev: &Device,
        updates: DeviceUpdates,
        deletions: &[Edge],
        stats: &mut PlusStats,
    ) {
        // Size every reused level buffer (incl. the keep mask and accept
        // flags process_level fills) once: the batch only shrinks
        // from here, and the ping-pong swaps below exchange buffers that
        // all hold at least this many slots.
        let mut cur = updates;
        self.level_scratch.ensure(cur.len);

        // Line 3: locate every update's leaf segment (coalesced binary
        // search — updates are sorted, so adjacent lanes walk the same
        // path). The deletions run as the launch's first lanes, so warp 0,
        // which is always sampled, is a deletion warp as it was in a
        // launch of its own. A deletion writes only keys and a lane here
        // reads only the leaf index, so the lanes cannot see each other,
        // and every deletion has landed before the first merge reads a
        // slot.
        {
            let storage = &self.storage;
            let ndel = deletions.len();
            let (del_keys, deleted) = self.scratch.stage_deletions(deletions);
            let keys = &cur.keys;
            let sid = &self.level_scratch.seg_ids;
            launch!(dev, "locate_leaves", ndel + cur.len, |lane| {
                if lane.tid < ndel {
                    let key = del_keys.get(lane, lane.tid);
                    storage.delete_lane(lane, key, deleted);
                } else {
                    let i = lane.tid - ndel;
                    let k = keys.get(lane, i);
                    let leaf = storage.find_leaf(lane, k) as u32;
                    sid.set(lane, i, leaf);
                }
            });
            stats.lazy_deletes = self.storage.settle_deletions(deleted);
        }

        let height = self.storage.geometry().height();
        let mut level = 0usize;
        loop {
            if cur.is_empty() {
                break;
            }
            if level > height {
                // Line 16: root could not absorb the remainder — double.
                self.resize_with_updates(dev, &cur);
                stats.resizes += 1;
                break;
            }
            stats.levels = level + 1;
            if self.process_level(dev, &cur, level, stats) {
                // The level consumed the whole batch: lines 12-15 have
                // nothing to drop or promote, so skip the keep-mask scan.
                break;
            }

            // Lines 12-15: drop consumed updates, promote the rest. The
            // three survivor streams share one keep-mask scan and scatter
            // through reusable ping-pong buffers (capacities only grow),
            // so the steady-state level loop reallocates none of them
            // (the scan still allocates its own intermediates) and runs
            // one fused kernel instead of three scans + four scatters.
            let nupd = cur.len;
            let scratch = &mut self.level_scratch;
            let remaining =
                primitives::exclusive_scan_u32_into(dev, &scratch.keep, nupd, &scratch.positions)
                    as usize;
            if remaining > 0 {
                let k = &scratch.keep;
                let pos = &scratch.positions;
                let (sk, sv, sg) = (&scratch.keys, &scratch.vals, &scratch.segs);
                let (ck, cv) = (&cur.keys, &cur.vals);
                let sid = &scratch.seg_ids;
                launch!(dev, "compact_promote", nupd, |lane| {
                    let i = lane.tid;
                    if k.get(lane, i) != 0 {
                        let p = pos.get(lane, i) as usize;
                        let key = ck.get(lane, i);
                        sk.set(lane, p, key);
                        let val = cv.get(lane, i);
                        sv.set(lane, p, val);
                        // Line 15 fused in: promote to the parent segment.
                        let seg = sid.get(lane, i);
                        sg.set(lane, p, seg >> 1);
                    }
                });
            }
            std::mem::swap(&mut cur.keys, &mut scratch.keys);
            std::mem::swap(&mut cur.vals, &mut scratch.vals);
            std::mem::swap(&mut scratch.seg_ids, &mut scratch.segs);
            cur.len = remaining;
            level += 1;
        }
    }

    /// One level of Algorithm 4's loop: group updates (segment ids in
    /// `level_scratch.seg_ids`, ascending) into their segments' runs, run
    /// `TryInsert+` on each, and fill the per-update keep mask
    /// (`level_scratch.keep`: 1 for an update whose segment was too dense;
    /// pre-sized by the caller's `ensure`). Every merge writes its window's
    /// routing bounds as it places the keys (`storage` module docs).
    /// Returns true when the level consumed every update — the warp/block
    /// tier counts what it merged — so the caller has no survivors to scan
    /// for.
    // lint: hot-path
    fn process_level(
        &mut self,
        dev: &Device,
        cur: &DeviceUpdates,
        level: usize,
        stats: &mut PlusStats,
    ) -> bool {
        #[cfg(test)]
        let reference = self.reference_small_tier;
        let GpmaPlus {
            storage,
            tier_max,
            level_scratch,
            compact_scratch,
            merge_scratch,
            ..
        } = self;
        let geom = storage.geometry();
        let height = geom.height();
        let window_slots = geom.seg_len << level;
        let tau = storage.density_config().tau(level, height);
        let max_entries = (tau * window_slots as f64).floor() as usize;

        // Line 7: UniqueSegments. Length-bounded: seg_ids may be an
        // over-sized reused buffer. The warp/block tier finds each run from
        // its head lane; the device tier encodes them
        // (`run_length_encode_u32_into`, below).
        let nupd = cur.len;
        if window_slots <= *tier_max {
            #[cfg(test)]
            if reference {
                let nseg = primitives::run_length_encode_u32_into(
                    dev,
                    &level_scratch.seg_ids,
                    nupd,
                    &mut level_scratch.rle,
                );
                stats.small_merges += tests::ref_small_tier(
                    dev,
                    storage,
                    level_scratch,
                    cur,
                    nseg,
                    window_slots,
                    max_entries,
                );
                return false;
            }
            // Warp/block tier, `TryInsert+` (lines 23-28) in one launch
            // over the level's updates. A lane whose segment differs from
            // its predecessor's heads its segment's run: it walks to the
            // run's end, merges the window with the run over local scratch,
            // accepts when the merged size fits the threshold, writes the
            // window back (`write_back`) and flags the run consumed (`keep`
            // 0) or promoted (1); every other lane stops at that compare.
            // Every window at this level has identical capacity → perfectly
            // balanced merges (the paper's observation). An accepted
            // segment adds `1 << 32 | run length` to one counter: merges
            // above, consumed updates below.
            let storage = &*storage;
            let seg_len = geom.seg_len;
            let seg_ids = &level_scratch.seg_ids;
            let keep = &level_scratch.keep;
            level_scratch.merged_ctr.host_write(0, 0);
            let merged_ctr = &level_scratch.merged_ctr;
            launch!(dev, "tryinsert_small", nupd, |lane| {
                let s = lane.tid;
                let g = seg_ids.get(lane, s);
                if s > 0 && seg_ids.get(lane, s - 1) == g {
                    return;
                }
                let mut end = s + 1;
                while end < nupd && seg_ids.get(lane, end) == g {
                    end += 1;
                }
                let ws = g as usize * window_slots;
                // The merge stages through the worker's reusable scratch
                // (modeled shared memory) instead of a fresh Vec per
                // segment — the merge-tier hot path stays allocation-free
                // in steady state.
                with_merge_scratch(|m| {
                    let before =
                        merge_window_into(lane, storage, ws..ws + window_slots, cur, s..end, m);
                    let n = m.merged.len();
                    let accepted = n <= max_entries;
                    for i in s..end {
                        keep.set(lane, i, u32::from(!accepted));
                    }
                    if accepted {
                        write_back(lane, storage, ws, seg_len, m);
                        storage.add_len_delta(lane, n as i64 - before as i64);
                        merged_ctr.atomic_add(lane, 0, 1 << 32 | (end - s) as u64);
                    }
                });
            });
            let tally = level_scratch.merged_ctr.host_read(0);
            stats.small_merges += tally >> 32;
            return (tally & 0xffff_ffff) as usize == cur.len;
        }

        // Device tier: few large segments, found by run-length encoding
        // (RunLengthEncoding + ExclusiveScan, into the reused level
        // scratch). The count phase (lines 23-25) sizes each window exactly
        // against the level's threshold; each accepted one is merged by
        // fully parallel kernels (compaction + rank merge + redispatch).
        // Host views (free) instead of per-level `to_vec` copies; only the
        // first `nseg` entries of the reused buffers are meaningful.
        let nseg = primitives::run_length_encode_u32_into(
            dev,
            &level_scratch.seg_ids,
            nupd,
            &mut level_scratch.rle,
        );
        let seg_ids = &level_scratch.seg_ids;
        let rle = &level_scratch.rle;
        let accept = &level_scratch.accept;
        {
            let storage = &*storage;
            let unique = &rle.unique;
            let starts = &rle.starts;
            let acc = accept;
            launch!(dev, "tryinsert_count", nseg, |lane| {
                let j = lane.tid;
                let g = unique.get(lane, j) as usize;
                let s = starts.get(lane, j) as usize;
                let c = starts.get(lane, j + 1) as usize - s;
                let window = g * window_slots..(g + 1) * window_slots;
                let merged = merged_count_serial(lane, storage, window, cur, s..s + c);
                acc.set(lane, j, (merged <= max_entries) as u32);
            });
        }
        let accept_host = &accept.as_slice()[..nseg];
        let unique_host = &rle.unique.as_slice()[..nseg];
        let starts_host = &rle.starts.as_slice()[..=nseg];
        for j in 0..nseg {
            if accept_host[j] == 0 {
                continue;
            }
            let g = unique_host[j] as usize;
            let ws = g * window_slots;
            let ur = starts_host[j] as usize..starts_host[j + 1] as usize;
            let before = storage.compact_window_into(dev, ws..ws + window_slots, compact_scratch);
            let n = merge_parallel_into(
                dev,
                &compact_scratch.keys,
                &compact_scratch.vals,
                before,
                cur,
                ur,
                merge_scratch,
            );
            storage.redispatch_window(
                dev,
                ws..ws + window_slots,
                &merge_scratch.out_keys,
                &merge_scratch.out_vals,
                n,
            );
            storage.host_adjust_len(n as i64 - before as i64);
            stats.device_merges += 1;
        }

        // Per-update keep mask: an update survives to the parent level iff
        // its segment was rejected (binary search into the sorted
        // unique-segment list).
        {
            let unique = &rle.unique;
            let acc = accept;
            let keep = &level_scratch.keep;
            let sid = seg_ids;
            launch!(dev, "mark_consumed", nupd, |lane| {
                let g = sid.get(lane, lane.tid);
                // lower_bound over unique (u32).
                let mut lo = 0usize;
                let mut hi = nseg;
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if unique.get(lane, mid) < g {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                let a = acc.get(lane, lo);
                keep.set(lane, lane.tid, 1 - a);
            });
        }
        false
    }

    /// Root overflow/underflow: rebuild the whole array at ~60% density,
    /// folding any remaining updates in via the parallel merge.
    fn resize_with_updates(&mut self, dev: &Device, cur: &DeviceUpdates) {
        let GpmaPlus {
            storage,
            compact_scratch,
            merge_scratch,
            ..
        } = self;
        let cap = storage.capacity();
        let before = storage.compact_window_into(dev, 0..cap, compact_scratch);
        let n = merge_parallel_into(
            dev,
            &compact_scratch.keys,
            &compact_scratch.vals,
            before,
            cur,
            0..cur.len,
            merge_scratch,
        );
        storage.resize_to(dev, &merge_scratch.out_keys, &merge_scratch.out_vals, n);
    }
}

/// Write a merged window starting at slot `ws` back, redistributed evenly
/// across its leaves and left-packed (lines 26-28), touching only the slots
/// that change: a key where it differs from the slot's old key, a value
/// where the key moved or an update supplied it, `EMPTY` where an entry
/// was. The old keys are the merge's local copy, so each slot costs one
/// compare (`lane.work`) and no read. `bound` carries the last key placed
/// so far: each leaf's routing bound, the window's max for its trailing
/// empty leaves, and nothing to write (old bounds stay) when the window
/// ends up empty.
// lint: hot-path
#[inline]
fn write_back<M: LaneMode>(
    lane: &mut Lane<'_, M>,
    storage: &GpmaStorage,
    ws: usize,
    seg_len: usize,
    m: &WindowMerge,
) {
    let leaves = m.old.len() / seg_len;
    let n = m.merged.len();
    let base = n / leaves;
    let extra = n % leaves;
    let mut it = m.merged.iter();
    let mut bound = None;
    for leaf in 0..leaves {
        let take = base + usize::from(leaf < extra);
        let first = leaf * seg_len;
        for (i, &old) in m.old[first..first + seg_len].iter().enumerate() {
            let slot = ws + first + i;
            lane.work(1);
            if i < take {
                let &(k, v, from_update) = it.next().expect("merge count mismatch");
                if k != old {
                    storage.keys.set(lane, slot, k);
                }
                if k != old || from_update {
                    storage.vals.set(lane, slot, v);
                }
                bound = Some(k);
            } else if old != EMPTY {
                storage.keys.set(lane, slot, EMPTY);
            }
        }
        if let Some(b) = bound {
            storage.leaf_max_prefix.set(lane, ws / seg_len + leaf, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_sim::DeviceConfig;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn dev() -> Device {
        Device::new(DeviceConfig::deterministic())
    }

    /// The three-launch warp/block tier the one-pass `tryinsert_small`
    /// replaced, kept as its layout oracle: size every window
    /// (`ref_tryinsert_count`), merge each accepted one and rewrite every
    /// slot of it (`ref_tryinsert_small`), then look up each update's
    /// verdict (`ref_mark_consumed`). Returns the segments merged.
    pub(super) fn ref_small_tier(
        dev: &Device,
        storage: &GpmaStorage,
        scratch: &mut LevelScratch,
        cur: &DeviceUpdates,
        nseg: usize,
        window_slots: usize,
        max_entries: usize,
    ) -> u64 {
        scratch.merged_ctr.host_write(0, 0);
        let LevelScratch {
            rle,
            accept,
            keep,
            seg_ids,
            merged_ctr,
            ..
        } = &*scratch;
        let (unique, starts) = (&rle.unique, &rle.starts);
        dev.launch("ref_tryinsert_count", nseg, |lane| {
            let j = lane.tid;
            let g = unique.get(lane, j) as usize;
            let s = starts.get(lane, j) as usize;
            let c = starts.get(lane, j + 1) as usize - s;
            let window = g * window_slots..(g + 1) * window_slots;
            let merged = merged_count_serial(lane, storage, window, cur, s..s + c);
            accept.set(lane, j, (merged <= max_entries) as u32);
        });
        let seg_len = storage.geometry().seg_len;
        dev.launch("ref_tryinsert_small", nseg, |lane| {
            let j = lane.tid;
            if accept.get(lane, j) == 0 {
                return;
            }
            let g = unique.get(lane, j) as usize;
            let s = starts.get(lane, j) as usize;
            let c = starts.get(lane, j + 1) as usize - s;
            let ws = g * window_slots;
            let mut before = 0usize;
            for i in ws..ws + window_slots {
                if storage.keys.get(lane, i) != EMPTY {
                    before += 1;
                }
            }
            let merged = ref_merge_window(lane, storage, ws..ws + window_slots, cur, s..s + c);
            let leaves = window_slots / seg_len;
            let n = merged.len();
            let base = n / leaves;
            let extra = n % leaves;
            let mut it = merged.iter().copied();
            let mut bound = None;
            for leaf in 0..leaves {
                let take = base + usize::from(leaf < extra);
                let start = ws + leaf * seg_len;
                for i in 0..seg_len {
                    if i < take {
                        let (k, v) = it.next().expect("merge count mismatch");
                        storage.keys.set(lane, start + i, k);
                        storage.vals.set(lane, start + i, v);
                        bound = Some(k);
                    } else {
                        storage.keys.set(lane, start + i, EMPTY);
                    }
                }
                if let Some(b) = bound {
                    storage.leaf_max_prefix.set(lane, start / seg_len, b);
                }
            }
            storage.add_len_delta(lane, n as i64 - before as i64);
            merged_ctr.atomic_add(lane, 0, 1);
        });
        dev.launch("ref_mark_consumed", cur.len, |lane| {
            let g = seg_ids.get(lane, lane.tid);
            let mut lo = 0usize;
            let mut hi = nseg;
            while lo < hi {
                let mid = (lo + hi) / 2;
                if unique.get(lane, mid) < g {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            let a = accept.get(lane, lo);
            keep.set(lane, lane.tid, 1 - a);
        });
        merged_ctr.host_read(0)
    }

    /// The reference tier's merge: window entries and updates in key order,
    /// last update of a key wins.
    fn ref_merge_window(
        lane: &mut Lane,
        storage: &GpmaStorage,
        window: std::ops::Range<usize>,
        u: &DeviceUpdates,
        ur: std::ops::Range<usize>,
    ) -> Vec<(u64, u64)> {
        let mut merged = Vec::new();
        let mut ui = ur.start;
        macro_rules! drain_updates_below {
            ($bound:expr) => {
                while ui < ur.end {
                    let uk = u.keys.get(lane, ui);
                    if uk >= $bound {
                        break;
                    }
                    if ui + 1 < ur.end && u.keys.get(lane, ui + 1) == uk {
                        ui += 1;
                        continue;
                    }
                    let v = u.vals.get(lane, ui);
                    merged.push((uk, v));
                    lane.work(1);
                    ui += 1;
                }
            };
        }
        for i in window {
            let k = storage.keys.get(lane, i);
            if k == EMPTY {
                continue;
            }
            drain_updates_below!(k);
            if ui < ur.end && u.keys.get(lane, ui) == k {
                while ui + 1 < ur.end && u.keys.get(lane, ui + 1) == k {
                    ui += 1;
                }
                let v = u.vals.get(lane, ui);
                merged.push((k, v));
                ui += 1;
            } else {
                let v = storage.vals.get(lane, i);
                merged.push((k, v));
            }
            lane.work(1);
        }
        drain_updates_below!(u64::MAX);
        merged
    }

    /// A one-pass store and its three-launch reference, built alike.
    fn fused_and_reference(d: &Device, nv: u32, initial: &[Edge], tier_max: usize) -> (GpmaPlus, GpmaPlus) {
        let fused = GpmaPlus::build(d, nv, initial).with_tier_max(tier_max);
        let mut reference = GpmaPlus::build(d, nv, initial).with_tier_max(tier_max);
        reference.reference_small_tier = true;
        (fused, reference)
    }

    /// Apply `batch` to both stores and require the same layout after it:
    /// every slot's key and value, the leaf index, the length and the
    /// batch's stats. Returns the stats.
    fn apply_both(
        d: &Device,
        fused: &mut GpmaPlus,
        reference: &mut GpmaPlus,
        batch: &UpdateBatch,
    ) -> PlusStats {
        let stats = fused.update_batch_lazy(d, batch);
        assert_eq!(stats, reference.update_batch_lazy(d, batch), "PlusStats differ");
        let (a, b) = (&fused.storage, &reference.storage);
        assert_eq!(a.keys.as_slice(), b.keys.as_slice(), "keys differ");
        assert_eq!(a.vals.as_slice(), b.vals.as_slice(), "vals differ");
        assert_eq!(a.leaf_max_prefix.as_slice(), b.leaf_max_prefix.as_slice(), "leaf index differs");
        assert_eq!(a.len(), b.len(), "len differs");
        a.check_invariants();
        stats
    }

    /// A deterministic device whose lanes run inline or on a pool of four.
    fn device(pooled: bool) -> Device {
        Device::new(DeviceConfig {
            host_parallelism: if pooled { 4 } else { 1 },
            ..DeviceConfig::deterministic()
        })
    }

    #[test]
    fn one_pass_small_tier_matches_reference_on_every_shape() {
        // Scripted so that every shape the write-skip rule tells apart
        // provably occurs; the proptest below adds random interleavings.
        const NV: u32 = 64;
        let insert = |insertions: Vec<Edge>| UpdateBatch {
            insertions,
            deletions: vec![],
        };
        let initial: Vec<Edge> = (0..NV)
            .flat_map(|s| (1..4).map(move |k| Edge::weighted(s, (s + 3 * k) % NV, 1)))
            .collect();
        let batches = [
            // Weight upserts: every key keeps its slot.
            insert(initial.iter().map(|e| Edge::weighted(e.src, e.dst, 7)).collect()),
            // Keys past a row's last edge (gaps) and below its first
            // (shifting the row right over its old slots).
            insert(
                (0..NV)
                    .step_by(5)
                    .flat_map(|s| [Edge::new(s, (s + 11) % NV), Edge::new(s, (s + 1) % NV)])
                    .collect(),
            ),
            // A slide: tombstones, and inserts that recycle them.
            UpdateBatch {
                insertions: (0..NV).step_by(3).map(|s| Edge::new(s, (s + 2) % NV)).collect(),
                deletions: initial.iter().skip(1).step_by(4).copied().collect(),
            },
            // Rows filled up: their leaves reject, a parent takes the run
            // and spreads it over its leaves, and past the warp/block tier
            // the device does.
            insert((0..10).map(|t| Edge::weighted(40, t, 3)).collect()),
            insert((0..NV).filter(|&t| t != 9).map(|t| Edge::weighted(9, t, 3)).collect()),
            insert(
                (20..26)
                    .flat_map(|s| (0..NV).filter(move |&t| t != s).map(move |t| Edge::new(s, t)))
                    .collect(),
            ),
        ];
        for pooled in [false, true] {
            let d = device(pooled);
            let seg_len = GpmaPlus::build(&d, NV, &initial).storage.geometry().seg_len;
            // Leaves and their parents merge on the warp/block tier, every
            // larger window on the device tier.
            let (mut fused, mut reference) = fused_and_reference(&d, NV, &initial, 2 * seg_len);
            let mut seen = [false; 7];
            for batch in &batches {
                let keys = fused.storage.keys.to_vec();
                let vals = fused.storage.vals.to_vec();
                let stats = apply_both(&d, &mut fused, &mut reference, batch);
                if fused.storage.capacity() == keys.len() {
                    let (keys2, vals2) = (fused.storage.keys.as_slice(), fused.storage.vals.as_slice());
                    let deleted: Vec<u64> = batch.deletions.iter().map(Edge::key).collect();
                    for i in 0..keys.len() {
                        let (k, k2) = (keys[i], keys2[i]);
                        seen[0] |= k != EMPTY && k2 == k && vals2[i] != vals[i]; // upsert in place
                        seen[1] |= k == EMPTY && k2 != EMPTY; // gap filled
                        seen[2] |= k != EMPTY && k2 != EMPTY && k2 != k; // entry shifted
                        seen[3] |= k != EMPTY && k2 == EMPTY && !deleted.contains(&k); // slot vacated
                    }
                }
                seen[4] |= stats.lazy_deletes > 0;
                seen[5] |= stats.levels >= 2 && stats.small_merges > 0;
                seen[6] |= stats.device_merges > 0;
            }
            assert_eq!(
                seen, [true; 7],
                "upsert, gap, shift, vacate, delete, promoted, device (pooled: {pooled})"
            );
        }
    }

    /// One step of the layout-identity proptest.
    #[derive(Debug, Clone)]
    enum Shape {
        /// Mixed inserts and deletes.
        Mixed(Vec<(u32, u32, u64, bool)>),
        /// Re-insert every other live edge with weight `w`.
        Reweigh(u64),
        /// Insert the whole out-row of a vertex: its leaf rejects.
        Row(u32),
    }

    const PROP_NV: u32 = 24;

    fn shape_strategy() -> impl Strategy<Value = Shape> {
        let ops = || {
            let op = (0..PROP_NV, 0..PROP_NV - 1, 1u64..100, any::<bool>())
                .prop_map(|(s, t, w, del)| (s, if t == s { PROP_NV - 1 } else { t }, w, del));
            prop::collection::vec(op, 1..40)
        };
        prop_oneof![
            7 => ops().prop_map(Shape::Mixed),
            2 => (1u64..100).prop_map(Shape::Reweigh),
            2 => (0..PROP_NV).prop_map(Shape::Row),
        ]
    }

    fn to_batch(ops: &[(u32, u32, u64, bool)]) -> UpdateBatch {
        let mut b = UpdateBatch::default();
        for &(s, t, w, del) in ops {
            if del {
                b.deletions.push(Edge::new(s, t));
            } else {
                b.insertions.push(Edge::weighted(s, t, w));
            }
        }
        b
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn one_pass_small_tier_is_layout_identical_to_the_reference(
            shapes in prop::collection::vec(shape_strategy(), 1..12),
            tier_shift in 0usize..4,
            pooled in any::<bool>(),
        ) {
            let d = device(pooled);
            let seg_len = GpmaPlus::build(&d, PROP_NV, &[]).storage.geometry().seg_len;
            // Shift 3 keeps every window of this small array on the
            // warp/block tier; 0-2 send the larger ones to the device.
            let tier_max = if tier_shift == 3 { SMALL_WINDOW_MAX } else { seg_len << tier_shift };
            let (mut fused, mut reference) = fused_and_reference(&d, PROP_NV, &[], tier_max);
            for shape in &shapes {
                let batch = match shape {
                    Shape::Mixed(ops) => to_batch(ops),
                    Shape::Reweigh(w) => {
                        let insertions = fused.storage.host_edges().into_iter().step_by(2)
                            .map(|e| Edge::weighted(e.src, e.dst, *w)).collect();
                        UpdateBatch { insertions, deletions: vec![] }
                    }
                    Shape::Row(r) => {
                        let insertions = (0..PROP_NV).filter(|t| t != r).map(|t| Edge::new(*r, t)).collect();
                        UpdateBatch { insertions, deletions: vec![] }
                    }
                };
                apply_both(&d, &mut fused, &mut reference, &batch);
            }
        }
    }

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs.iter().map(|&(s, d)| Edge::new(s, d)).collect()
    }

    fn oracle_of(g: &GpmaPlus) -> BTreeMap<(u32, u32), u64> {
        g.storage
            .host_edges()
            .into_iter()
            .map(|e| ((e.src, e.dst), e.weight))
            .collect()
    }

    #[test]
    fn insert_batch_basic() {
        let d = dev();
        let mut g = GpmaPlus::build(&d, 8, &edges(&[(0, 1), (3, 2)]));
        let batch = UpdateBatch {
            insertions: edges(&[(1, 5), (7, 0), (0, 2)]),
            deletions: vec![],
        };
        g.update_batch_lazy(&d, &batch);
        g.storage.check_invariants();
        let keys: Vec<(u32, u32)> = oracle_of(&g).into_keys().collect();
        assert_eq!(keys, vec![(0, 1), (0, 2), (1, 5), (3, 2), (7, 0)]);
    }

    /// A 128-deletion + 128-insertion batch whose merges all land on the
    /// leaves is three launches: the one-tile sort (it carries the
    /// weights), `locate_leaves` (the deletions ride in it) and
    /// `tryinsert_small` (it finds its own runs).
    #[test]
    fn a_256_update_batch_is_three_launches() {
        const NV: u32 = 1024;
        let initial: Vec<Edge> = (0..NV).flat_map(|s| (1..4).map(move |k| Edge::new(s, (s + 2 * k) % NV))).collect();
        let d = dev();
        let mut g = GpmaPlus::build(&d, NV, &initial);
        let batch = UpdateBatch {
            insertions: (0..NV).step_by(8).map(|s| Edge::weighted(s, (s + 7) % NV, 3)).collect(),
            deletions: initial.iter().step_by(24).copied().collect(),
        };
        assert_eq!((batch.insertions.len(), batch.deletions.len()), (128, 128));
        let before = d.metrics().launches;
        let stats = g.update_batch_lazy(&d, &batch);
        assert_eq!((stats.levels, stats.resizes, stats.lazy_deletes), (1, 0, 128));
        assert_eq!(d.metrics().launches - before, 3);
        g.storage.check_invariants();
    }

    /// Launches per batch on a 200 000-edge store, each batch half
    /// insertions and half deletions and consumed at the leaves: the sort
    /// (one tile, then one launch per merge pass), `locate_leaves` and
    /// `tryinsert_small`. An insert-free batch is its `lazy_delete`.
    #[test]
    fn launches_per_batch_are_the_sort_plus_two() {
        const NV: u32 = 20_000;
        const INITIAL: usize = 200_000;
        let edges = gpma_graph::datasets::pokec_like(NV, INITIAL + 11_000, 7).edges;
        let d = Device::new(DeviceConfig {
            host_parallelism: 1,
            ..DeviceConfig::default()
        });
        let mut g = GpmaPlus::build(&d, NV, &edges[..INITIAL]);
        let (mut oldest, mut next) = (0, INITIAL);
        for (inserted, deleted, launches) in [(0, 256, 1), (128, 128, 3), (512, 512, 4), (10_000, 10_000, 9)] {
            let batch = UpdateBatch {
                insertions: edges[next..next + inserted].to_vec(),
                deletions: edges[oldest..oldest + deleted].to_vec(),
            };
            (oldest, next) = (oldest + deleted, next + inserted);
            let before = d.metrics().launches;
            let stats = g.update_batch_lazy(&d, &batch);
            let levels = usize::from(inserted > 0);
            assert_eq!((stats.levels, stats.resizes, stats.lazy_deletes), (levels, 0, deleted));
            assert_eq!(d.metrics().launches - before, launches, "{} updates", inserted + deleted);
        }
        g.storage.check_invariants();
    }

    /// Deletions carried by `locate_leaves` leave every slot, the leaf
    /// index, the length and the deleted count as a `delete_lazy` launch
    /// before the insert-only batch does: on scripted batches (a key
    /// deleted and re-inserted, duplicate deletions, deletions of absent
    /// keys, rows filled past their leaves) and random ones, on inline and
    /// pooled devices.
    #[test]
    fn fused_deletions_lay_out_like_a_delete_launch_first() {
        use rand::{Rng, SeedableRng};
        const NV: u32 = 64;
        let initial: Vec<Edge> = (0..NV)
            .flat_map(|s| (1..4).map(move |k| Edge::weighted(s, (s + 3 * k) % NV, 1)))
            .collect();
        let mut batches = vec![
            // (0, 3) deleted and re-inserted; (5, 6) absent, deleted and
            // inserted.
            UpdateBatch {
                insertions: vec![Edge::weighted(0, 3, 9), Edge::weighted(5, 6, 4), Edge::new(0, 10)],
                deletions: edges(&[(0, 3), (1, 4), (5, 6)]),
            },
            // One key deleted three times, absent keys, and more than a
            // warp of deletions beside the insertions.
            UpdateBatch {
                insertions: (0..NV).step_by(7).map(|s| Edge::new(s, (s + 1) % NV)).collect(),
                deletions: [(2, 5), (2, 5), (3, 4), (2, 5), (7, 8)]
                    .iter()
                    .map(|&(s, t)| Edge::new(s, t))
                    .chain(initial.iter().skip(2).step_by(3).copied())
                    .collect(),
            },
            // Rows filled past their leaves: merges above level 0 read
            // slots the deletions emptied.
            UpdateBatch {
                insertions: (0..NV).filter(|&t| t != 9).map(|t| Edge::weighted(9, t, 3)).collect(),
                deletions: initial.iter().step_by(5).copied().collect(),
            },
        ];
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        for _ in 0..12 {
            let mut edge = || {
                let s = rng.gen_range(0..NV);
                Edge::weighted(s, (s + rng.gen_range(1..NV)) % NV, rng.gen_range(1..100))
            };
            let insertions = (0..40).map(|_| edge()).collect();
            let deletions = (0..40).map(|_| edge()).collect();
            batches.push(UpdateBatch { insertions, deletions });
        }
        for pooled in [false, true] {
            let d = device(pooled);
            let mut fused = GpmaPlus::build(&d, NV, &initial);
            let mut split = GpmaPlus::build(&d, NV, &initial);
            for (i, batch) in batches.iter().enumerate() {
                let stats = fused.update_batch_lazy(&d, batch);
                let deleted = split.storage.delete_lazy(&d, &batch.deletions, &mut split.scratch);
                let insertions = UpdateBatch {
                    insertions: batch.insertions.clone(),
                    deletions: vec![],
                };
                split.update_batch_lazy(&d, &insertions);
                let (a, b) = (&fused.storage, &split.storage);
                assert_eq!(stats.lazy_deletes, deleted, "deleted count differs (pooled: {pooled})");
                assert_eq!(a.keys.as_slice(), b.keys.as_slice(), "keys differ (pooled: {pooled})");
                assert_eq!(a.vals.as_slice(), b.vals.as_slice(), "vals differ (pooled: {pooled})");
                assert_eq!(a.leaf_max_prefix.as_slice(), b.leaf_max_prefix.as_slice(), "leaf index differs");
                assert_eq!(a.len(), b.len(), "len differs (pooled: {pooled})");
                a.check_invariants();
                if i == 0 {
                    let present = oracle_of(&fused);
                    assert_eq!((present[&(0, 3)], present[&(5, 6)]), (9, 4), "the insertion wins");
                }
            }
        }
    }

    /// Of two insertions of one key in a batch, the later one's weight
    /// stays: on the one-tile sort (at most one block of insertions) and on
    /// the multi-block sort, for a key already present and for a new one.
    #[test]
    fn later_of_two_same_key_insertions_wins() {
        use gpma_sim::primitives::BLOCK;
        const NV: u32 = 64;
        let d = dev();
        for n in [4, BLOCK, BLOCK + 1, 3 * BLOCK] {
            for (src, dst) in [(1, 2), (5, 9)] {
                let mut g = GpmaPlus::build(&d, NV, &[Edge::weighted(1, 2, 1)]);
                let filler = (0..n - 2).map(|i| Edge::new(10 + (i as u32 % 50), (i / 50) as u32));
                let mut insertions = vec![Edge::weighted(src, dst, 40)];
                insertions.extend(filler);
                insertions.push(Edge::weighted(src, dst, 41));
                assert_eq!(insertions.len(), n);
                g.update_batch_lazy(&d, &UpdateBatch { insertions, deletions: vec![] });
                assert_eq!(oracle_of(&g)[&(src, dst)], 41, "n={n} key=({src},{dst})");
            }
        }
    }

    #[test]
    fn modification_updates_weight_in_place() {
        let d = dev();
        let mut g = GpmaPlus::build(&d, 4, &[Edge::weighted(0, 1, 5)]);
        let before_len = g.storage.len();
        g.update_batch_lazy(
            &d,
            &UpdateBatch {
                insertions: vec![Edge::weighted(0, 1, 42)],
                deletions: vec![],
            },
        );
        assert_eq!(g.storage.len(), before_len);
        assert_eq!(oracle_of(&g)[&(0, 1)], 42);
    }

    #[test]
    fn fig6_batch_insertions_merge_level_by_level() {
        // The Figure 4/6 worked example: batch {1, 4, 9, 35, 48} into a
        // populated array. We verify the level-by-level semantics: all
        // inserts land, order is preserved, and at least one level beyond
        // the leaves is used when leaves are saturated.
        let d = dev();
        // Dense initial fill so most leaf segments are near tau.
        let initial: Vec<Edge> = (0..48u32).map(|i| Edge::new(0, i * 2 + 2)).collect();
        let mut g = GpmaPlus::build(&d, 128, &initial);
        let batch = UpdateBatch {
            insertions: edges(&[(0, 1), (0, 4 + 1), (0, 9), (0, 35), (0, 48 + 1)]),
            deletions: vec![],
        };
        let stats = g.update_batch_lazy(&d, &batch);
        g.storage.check_invariants();
        assert!(stats.levels >= 1);
        let m = oracle_of(&g);
        for (_, dst) in [(0, 1u32), (0, 5), (0, 9), (0, 35), (0, 49)] {
            assert!(m.contains_key(&(0, dst)), "missing inserted dst {dst}");
        }
        assert_eq!(m.len(), initial.len() + 5);
    }

    #[test]
    fn large_batch_triggers_grow_and_matches_oracle() {
        let d = dev();
        let mut g = GpmaPlus::build(&d, 64, &edges(&[(0, 1)]));
        let mut expect = BTreeMap::new();
        expect.insert((0u32, 1u32), 1u64);
        let ins: Vec<Edge> = (0..2000)
            .map(|i| Edge::new((i * 37 % 64) as u32, (i * 13 % 63) as u32))
            .filter(|e| e.src != e.dst)
            .collect();
        for e in &ins {
            expect.insert((e.src, e.dst), e.weight);
        }
        let stats = g.update_batch_lazy(
            &d,
            &UpdateBatch {
                insertions: ins,
                deletions: vec![],
            },
        );
        g.storage.check_invariants();
        assert_eq!(oracle_of(&g), expect);
        assert!(stats.resizes >= 1 || stats.device_merges >= 1);
    }

    #[test]
    fn lazy_deletion_tombstones_and_recycles() {
        let d = dev();
        let all: Vec<Edge> = (0..100).map(|i| Edge::new(i % 10, i / 10)).collect();
        let all: Vec<Edge> = all.into_iter().filter(|e| e.src != e.dst).collect();
        let mut g = GpmaPlus::build(&d, 10, &all);
        let n0 = g.storage.num_edges();
        let stats = g.update_batch_lazy(
            &d,
            &UpdateBatch {
                insertions: vec![],
                deletions: all[..20].to_vec(),
            },
        );
        assert_eq!(stats.lazy_deletes, 20);
        assert_eq!(g.storage.num_edges(), n0 - 20);
        g.storage.check_invariants();
        // Re-insert into the holes.
        g.update_batch_lazy(
            &d,
            &UpdateBatch {
                insertions: all[..20].to_vec(),
                deletions: vec![],
            },
        );
        assert_eq!(g.storage.num_edges(), n0);
        g.storage.check_invariants();
    }

    #[test]
    fn mass_delete_shrinks_capacity() {
        let d = dev();
        let all: Vec<Edge> = (0..60u32).flat_map(|s| [(s, (s + 1) % 60), (s, (s + 2) % 60)]).map(|(s, t)| Edge::new(s, t)).collect();
        let mut g = GpmaPlus::build(&d, 60, &all);
        let cap0 = g.storage.capacity();
        let stats = g.update_batch_lazy(
            &d,
            &UpdateBatch {
                insertions: vec![],
                deletions: all,
            },
        );
        g.storage.check_invariants();
        assert_eq!(oracle_of(&g), BTreeMap::new());
        assert_eq!(stats.resizes, 1);
        assert!(
            g.storage.capacity() < cap0,
            "mass deletion should shrink ({} -> {})",
            cap0,
            g.storage.capacity()
        );
    }

    /// A 33-40 % dense array is below the root's lower density bound, yet
    /// a rebuild at ~60 % density would land on the capacity it has: an
    /// insertion batch leaves it in place, with no resize.
    #[test]
    fn a_sparse_array_is_not_rebuilt_onto_its_own_capacity() {
        const NV: u32 = 300;
        let initial: Vec<Edge> = (0..NV).flat_map(|s| (1..5).map(move |k| Edge::new(s, (s + 3 * k) % NV))).collect();
        let d = dev();
        let mut g = GpmaPlus::build(&d, NV, &initial);
        let cap = g.storage.capacity();
        let mut oracle = oracle_of(&g);
        let insertions: Vec<Edge> = (0..NV).step_by(10).map(|s| Edge::weighted(s, (s + 1) % NV, 2)).collect();
        oracle.extend(insertions.iter().map(|e| ((e.src, e.dst), e.weight)));
        let stats = g.update_batch_lazy(&d, &UpdateBatch { insertions, deletions: vec![] });
        let density = g.storage.len() as f64 / cap as f64;
        assert!((0.33..0.40).contains(&density), "density {density}");
        assert_eq!((stats.resizes, g.storage.capacity()), (0, cap));
        g.storage.check_invariants();
        assert_eq!(oracle_of(&g), oracle);
    }

    #[test]
    fn empty_batch_is_noop() {
        let d = dev();
        let mut g = GpmaPlus::build(&d, 4, &edges(&[(0, 1)]));
        let before = g.storage.host_entries();
        let stats = g.update_batch_lazy(&d, &UpdateBatch::default());
        assert_eq!(stats, PlusStats::default());
        assert_eq!(g.storage.host_entries(), before);
    }

    #[test]
    fn random_mixed_batches_match_oracle() {
        use rand::{Rng, SeedableRng};
        let d = dev();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        let n = 32u32;
        let mut g = GpmaPlus::build(&d, n, &[]);
        let mut oracle: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for _round in 0..20 {
            let mut batch = UpdateBatch::default();
            for _ in 0..rng.gen_range(1..60) {
                let s = rng.gen_range(0..n);
                let t = rng.gen_range(0..n - 1);
                let t = if t == s { n - 1 } else { t };
                if rng.gen_bool(0.7) {
                    let w = rng.gen_range(1..100);
                    batch.insertions.push(Edge::weighted(s, t, w));
                } else {
                    batch.deletions.push(Edge::new(s, t));
                }
            }
            // Oracle applies deletions first, then insertions (the batch
            // semantics of update_batch_lazy).
            for e in &batch.deletions {
                oracle.remove(&(e.src, e.dst));
            }
            for e in &batch.insertions {
                oracle.insert((e.src, e.dst), e.weight);
            }
            g.update_batch_lazy(&d, &batch);
            g.storage.check_invariants();
            assert_eq!(oracle_of(&g), oracle);
        }
    }

    #[test]
    fn leaf_index_and_sim_time_repeat_across_runs_and_host_parallelism() {
        // The merge lanes write routing bounds for disjoint windows, so the
        // index (and the simulated clock) must not depend on how many host
        // threads execute the lanes, nor differ between two identical runs.
        use rand::{Rng, SeedableRng};
        let run = |host_parallelism: usize| {
            let d = Device::new(DeviceConfig {
                host_parallelism,
                ..DeviceConfig::deterministic()
            });
            let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
            let n = 200u32;
            // Never the same edge twice: two lanes deleting one key would
            // race for its slot, and who wins is not part of this test.
            let mut seen = std::collections::HashSet::new();
            let mut edge = || loop {
                let s = rng.gen_range(0..n);
                let e = Edge::new(s, (s + rng.gen_range(1..n)) % n);
                if seen.insert(e.key()) {
                    return e;
                }
            };
            let initial: Vec<Edge> = (0..4000).map(|_| edge()).collect();
            let mut g = GpmaPlus::build(&d, n, &initial);
            let mut window: std::collections::VecDeque<Edge> = initial.into();
            let mut update_time = Vec::new();
            for _ in 0..30 {
                let insertions: Vec<Edge> = (0..256).map(|_| edge()).collect();
                let deletions: Vec<Edge> = window.drain(..256).collect();
                window.extend(insertions.iter().copied());
                let batch = UpdateBatch { insertions, deletions };
                let (_, t) = d.timed(|d| g.update_batch_lazy(d, &batch));
                update_time.push(t.secs().to_bits());
            }
            g.storage.check_invariants();
            (g.storage.leaf_max_prefix.to_vec(), update_time)
        };
        let first = run(1);
        assert_eq!(run(1), first, "two identical runs differ");
        assert_eq!(run(8), first, "host_parallelism 8 differs from 1");
    }

    #[test]
    fn update_cost_scales_with_compute_units() {
        // Theorem 1's K-scaling: the same batch applied on a 2-SM device
        // must take (substantially) more simulated time than on 32 SMs.
        let mk = |sms: usize| Device::new(DeviceConfig::deterministic().with_sms(sms));
        // Large enough that per-lane work dominates the fixed launch
        // overhead (which does not scale with K).
        let n = 600u32;
        let initial: Vec<Edge> = (0..n)
            .flat_map(|s| (0..40u32).map(move |i| Edge::new(s, (s + i + 1) % n)))
            .collect();
        let batch = UpdateBatch {
            insertions: (0..30_000u64)
                .map(|i| {
                    let s = (i * 7 % n as u64) as u32;
                    let t = ((i * 11 + i / 600 + 41) % n as u64) as u32;
                    Edge::new(s, if t == s { (s + 1) % n } else { t })
                })
                .collect(),
            deletions: vec![],
        };
        let d_slow = mk(2);
        let mut g_slow = GpmaPlus::build(&d_slow, n, &initial);
        let (_, t_slow) = d_slow.timed(|d| {
            g_slow.update_batch_lazy(d, &batch);
        });
        let d_fast = mk(32);
        let mut g_fast = GpmaPlus::build(&d_fast, n, &initial);
        let (_, t_fast) = d_fast.timed(|d| {
            g_fast.update_batch_lazy(d, &batch);
        });
        assert!(
            t_slow.secs() > 1.5 * t_fast.secs(),
            "expected K-scaling: {} vs {}",
            t_slow.secs(),
            t_fast.secs()
        );
    }
}
