//! Shared update-batch plumbing: uploading, device-sorting and slicing
//! update sets, plus the merge routines both update algorithms and the
//! resize path use.

use gpma_graph::edge::GUARD_DST;
use gpma_graph::{edge_key_mask, Edge, UpdateBatch};
use gpma_sim::{primitives, Device, DeviceBuffer, Lane};

use crate::storage::{GpmaStorage, EMPTY};

/// Operation code for an insertion/modification (stored lane-visible).
pub const OP_INSERT: u32 = 0;
/// Operation code for a deletion (stored lane-visible).
pub const OP_DELETE: u32 = 1;

/// A sorted update set resident on the device: `keys` ascending; for runs of
/// equal keys the *last* element wins (update semantics).
pub struct DeviceUpdates {
    /// Edge storage keys (`src << 32 | dst`), ascending.
    pub keys: DeviceBuffer<u64>,
    /// Edge weights, aligned with `keys` (zero for deletions).
    pub vals: DeviceBuffer<u64>,
    /// Operation codes aligned with `keys`: [`OP_INSERT`] or [`OP_DELETE`].
    pub ops: DeviceBuffer<u32>,
    /// Number of updates in the set.
    pub len: usize,
}

impl DeviceUpdates {
    /// True when the set holds no updates.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Reusable host staging for [`prepare_updates_parts`]: the key / value /
/// op upload vectors (and the sort-index iota) are cleared and refilled per
/// batch instead of reallocated, so a steady-state stream of flushes does no
/// per-launch host allocation on the upload path (the ROADMAP profiling
/// item). Also stages the lazy-delete kernel's inputs (device key buffer,
/// capacity only grows, and its one-slot deleted counter).
/// [`crate::GpmaPlus`] owns one and threads it through every batch.
#[derive(Debug)]
pub struct UpdateScratch {
    keys: Vec<u64>,
    vals: Vec<u64>,
    ops: Vec<u32>,
    idx: Vec<u64>,
    del_keys: DeviceBuffer<u64>,
    del_count: DeviceBuffer<u64>,
}

impl Default for UpdateScratch {
    fn default() -> Self {
        UpdateScratch {
            keys: Vec::new(),
            vals: Vec::new(),
            ops: Vec::new(),
            idx: Vec::new(),
            del_keys: DeviceBuffer::new(0),
            del_count: DeviceBuffer::new(1),
        }
    }
}

impl UpdateScratch {
    /// Upload the keys of `edges` for [`GpmaStorage::delete_lazy`] and zero
    /// its counter. Returns `(keys, deleted count)`; only the first
    /// `edges.len()` keys are meaningful.
    // lint: hot-path
    pub(crate) fn stage_deletions(&mut self, edges: &[Edge]) -> (&DeviceBuffer<u64>, &DeviceBuffer<u64>) {
        self.keys.clear();
        self.keys.reserve(edges.len());
        for e in edges {
            assert!(e.dst != GUARD_DST, "cannot delete a guard entry");
            self.keys.push(e.key());
        }
        if self.del_keys.len() < edges.len() {
            self.del_keys = DeviceBuffer::new(edges.len());
        }
        self.del_keys.copy_from_slice(0, &self.keys);
        self.del_count.host_write(0, 0);
        (&self.del_keys, &self.del_count)
    }
}

/// Upload a batch and radix-sort it by key on the device. Deletions are
/// placed *before* insertions so that a slide which deletes and re-inserts
/// the same edge nets out to the edge being present (stable sort keeps the
/// insert last).
pub fn prepare_updates(dev: &Device, num_vertices: u32, batch: &UpdateBatch) -> DeviceUpdates {
    let mut scratch = UpdateScratch::default();
    prepare_updates_parts(
        dev,
        num_vertices,
        &batch.deletions,
        &batch.insertions,
        &mut scratch,
    )
}

/// [`prepare_updates`] over raw slices with caller-owned staging: avoids
/// both the per-batch `Vec` growth and the `UpdateBatch` clone the lazy
/// deletion path would otherwise pay to strip deletions.
pub fn prepare_updates_parts(
    dev: &Device,
    num_vertices: u32,
    deletions: &[Edge],
    insertions: &[Edge],
    scratch: &mut UpdateScratch,
) -> DeviceUpdates {
    let n = deletions.len() + insertions.len();
    let UpdateScratch { keys, vals, ops, idx, .. } = scratch;
    keys.clear();
    vals.clear();
    ops.clear();
    keys.reserve(n);
    vals.reserve(n);
    ops.reserve(n);
    for e in deletions {
        validate_edge(num_vertices, e.src, e.dst);
        keys.push(e.key());
        vals.push(0);
        ops.push(OP_DELETE);
    }
    for e in insertions {
        validate_edge(num_vertices, e.src, e.dst);
        keys.push(e.key());
        vals.push(e.weight);
        ops.push(OP_INSERT);
    }
    idx.clear();
    idx.extend(0..n as u64);
    let mut dkeys = DeviceBuffer::from_slice(keys);
    let mut idx = DeviceBuffer::from_slice(idx);
    // Both ends were just checked below |V|: only the mask's digits vary.
    let mask = edge_key_mask(num_vertices);
    primitives::radix_sort_pairs_u64_masked(dev, &mut dkeys, &mut idx, mask);

    // Gather the payloads into sorted order.
    let src_vals = DeviceBuffer::from_slice(vals.as_slice());
    let src_ops = DeviceBuffer::from_slice(ops.as_slice());
    let out_vals = DeviceBuffer::<u64>::new(n);
    let out_ops = DeviceBuffer::<u32>::new(n);
    if n > 0 {
        dev.launch("gather_payload", n, |lane| {
            let i = lane.tid;
            let j = idx.get(lane, i) as usize;
            let v = src_vals.get(lane, j);
            let o = src_ops.get(lane, j);
            out_vals.set(lane, i, v);
            out_ops.set(lane, i, o);
        });
    }
    DeviceUpdates {
        keys: dkeys,
        vals: out_vals,
        ops: out_ops,
        len: n,
    }
}

fn validate_edge(num_vertices: u32, src: u32, dst: u32) {
    assert!(dst != GUARD_DST, "dst is the guard sentinel");
    assert!(
        src < num_vertices && dst < num_vertices,
        "edge ({src},{dst}) outside vertex set of {num_vertices}"
    );
}

thread_local! {
    /// Per-worker staging for the warp/block merge tier — the simulated
    /// shared-memory buffer one block fills during `TryInsert+`. Kernel
    /// lanes run on the device's persistent host pool, so routing the merge
    /// through a thread-local (instead of a fresh `Vec` per segment) makes
    /// the steady-state merge path allocation-free.
    static MERGE_SCRATCH: std::cell::RefCell<WindowMerge> =
        const { std::cell::RefCell::new(WindowMerge { merged: Vec::new(), old: Vec::new() }) };
}

/// One window merged with its update run by [`merge_window_into`]: the
/// local copy a warp/block keeps while it writes the window back.
#[derive(Debug)]
pub struct WindowMerge {
    /// The merged entries in key order: `(key, value, from_update)`, where
    /// `from_update` marks a value an update supplied (an insertion or a
    /// modification) rather than one carried over from the window.
    pub merged: Vec<(u64, u64, bool)>,
    /// The window's keys as the merge read them, slot by slot (`EMPTY`
    /// included), so the write-back compares against them without a
    /// second read.
    pub old: Vec<u64>,
}

/// Run `f` with this worker thread's merge scratch ([`merge_window_into`]
/// clears it before filling it). Not reentrant (the merge kernels never
/// nest).
pub fn with_merge_scratch<R>(f: impl FnOnce(&mut WindowMerge) -> R) -> R {
    MERGE_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Serial (per-lane) merge of a slot window with a sorted update slice —
/// the work one warp/block performs in GPMA+'s small-segment tier; `out`
/// models shared memory (`lane.work` charges its traffic). Reads every slot
/// of the window once, recording its key in `out.old`, and each carried
/// entry's value as it goes (a deferred value read could land on a slot the
/// write-back already overwrote). Returns the window's live entry count
/// before the merge.
///
/// Semantics per update run of equal keys (last wins): `INSERT` adds or
/// overwrites; `DELETE` removes if present and is a no-op otherwise.
// lint: hot-path
#[inline]
pub fn merge_window_into(
    lane: &mut Lane,
    storage: &GpmaStorage,
    window: std::ops::Range<usize>,
    u: &DeviceUpdates,
    ur: std::ops::Range<usize>,
    out: &mut WindowMerge,
) -> usize {
    let WindowMerge { merged, old } = out;
    merged.clear();
    old.clear();
    merged.reserve(window.len() + ur.len());
    old.reserve(window.len());
    let mut before = 0usize;
    let mut ui = ur.start;

    // Emit all effective updates with keys strictly below `bound`.
    macro_rules! drain_updates_below {
        ($bound:expr) => {
            while ui < ur.end {
                let uk = u.keys.get(lane, ui);
                if uk >= $bound {
                    break;
                }
                // Skip to the last element of this equal-key run.
                if ui + 1 < ur.end && u.keys.get(lane, ui + 1) == uk {
                    ui += 1;
                    continue;
                }
                if u.ops.get(lane, ui) == OP_INSERT {
                    let v = u.vals.get(lane, ui);
                    merged.push((uk, v, true));
                    lane.work(1);
                }
                ui += 1;
            }
        };
    }

    for i in window {
        let k = storage.keys.get(lane, i);
        old.push(k);
        if k == EMPTY {
            continue;
        }
        before += 1;
        drain_updates_below!(k);
        // An update run equal to the existing key overrides it.
        if ui < ur.end && u.keys.get(lane, ui) == k {
            while ui + 1 < ur.end && u.keys.get(lane, ui + 1) == k {
                ui += 1;
            }
            if u.ops.get(lane, ui) == OP_INSERT {
                let v = u.vals.get(lane, ui);
                merged.push((k, v, true)); // modification
            } // DELETE: drop the entry
            ui += 1;
        } else {
            let v = storage.vals.get(lane, i);
            merged.push((k, v, false));
        }
        lane.work(1);
    }
    drain_updates_below!(u64::MAX);
    before
}

/// Count-only version of [`merge_window_into`] (Algorithm 4's
/// `CountSegment` + `CountUpdatesInSegment` combined into an exact
/// post-merge size): the device tier's count phase, which sizes a window
/// before its parallel merge.
pub fn merged_count_serial(
    lane: &mut Lane,
    storage: &GpmaStorage,
    window: std::ops::Range<usize>,
    u: &DeviceUpdates,
    ur: std::ops::Range<usize>,
) -> usize {
    let mut count = 0usize;
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
                if u.ops.get(lane, ui) == OP_INSERT {
                    count += 1;
                }
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
            if u.ops.get(lane, ui) == OP_INSERT {
                count += 1;
            }
            ui += 1;
        } else {
            count += 1;
        }
        lane.work(1);
    }
    drain_updates_below!(u64::MAX);
    count
}

/// Fully parallel merge of compacted entries `A` with the update slice
/// `ur` of `u` — GPMA+'s *device tier* for windows too large for one
/// warp/block, and the engine behind resize and the rebuild baseline.
///
/// Returns merged `(keys, vals, count)` as fresh device buffers.
pub fn merge_parallel(
    dev: &Device,
    a_keys: &DeviceBuffer<u64>,
    a_vals: &DeviceBuffer<u64>,
    u: &DeviceUpdates,
    ur: std::ops::Range<usize>,
) -> (DeviceBuffer<u64>, DeviceBuffer<u64>, usize) {
    let na = a_keys.len();
    let m = ur.len();
    let ustart = ur.start;

    // 1. Slice the updates into dedicated buffers (kept contiguous so the
    //    rank kernels below are coalesced).
    let u_keys = DeviceBuffer::<u64>::new(m);
    let u_vals = DeviceBuffer::<u64>::new(m);
    let u_ops = DeviceBuffer::<u32>::new(m);
    if m > 0 {
        let uk = &u.keys;
        let uv = &u.vals;
        let uo = &u.ops;
        dev.launch("slice_updates", m, |lane| {
            let i = lane.tid;
            let k = uk.get(lane, ustart + i);
            let v = uv.get(lane, ustart + i);
            let o = uo.get(lane, ustart + i);
            u_keys.set(lane, i, k);
            u_vals.set(lane, i, v);
            u_ops.set(lane, i, o);
        });
    }

    // 2. Last-wins dedup of the updates, and drop effective DELETEs (they
    //    act purely by overriding A below).
    let u_flags = DeviceBuffer::<u32>::new(m);
    if m > 0 {
        dev.launch("dedup_updates", m, |lane| {
            let i = lane.tid;
            let k = u_keys.get(lane, i);
            let is_last = i + 1 >= m || u_keys.get(lane, i + 1) != k;
            let keep = is_last && u_ops.get(lane, i) == OP_INSERT;
            u_flags.set(lane, i, keep as u32);
        });
    }

    // 3. Mark surviving A entries: those whose key does NOT appear in the
    //    updates at all (any appearance overrides: insert replaces, delete
    //    removes).
    let a_flags = DeviceBuffer::<u32>::new(na);
    if na > 0 {
        dev.launch("a_survivors", na, |lane| {
            let i = lane.tid;
            let k = a_keys.get(lane, i);
            let overridden = m > 0 && binary_search_contains(lane, &u_keys, k);
            a_flags.set(lane, i, (!overridden) as u32);
        });
    }

    // 4. Compact both sides.
    let a2_keys = primitives::compact_flagged(dev, a_keys, &a_flags);
    let a2_vals = primitives::compact_flagged(dev, a_vals, &a_flags);
    let u2_keys = primitives::compact_flagged(dev, &u_keys, &u_flags);
    let u2_vals = primitives::compact_flagged(dev, &u_vals, &u_flags);
    let na2 = a2_keys.len();
    let m2 = u2_keys.len();
    let total = na2 + m2;

    // 5. Rank-merge scatter: the two sides are disjoint sorted sets, so each
    //    element's merged position is its own index plus its rank in the
    //    other side. One lane per element, O(log) each.
    let out_keys = DeviceBuffer::<u64>::new(total);
    let out_vals = DeviceBuffer::<u64>::new(total);
    if na2 > 0 {
        dev.launch("rank_scatter_a", na2, |lane| {
            let i = lane.tid;
            let k = a2_keys.get(lane, i);
            let r = lower_bound_dev(lane, &u2_keys, k);
            let v = a2_vals.get(lane, i);
            out_keys.set(lane, i + r, k);
            out_vals.set(lane, i + r, v);
        });
    }
    if m2 > 0 {
        dev.launch("rank_scatter_u", m2, |lane| {
            let i = lane.tid;
            let k = u2_keys.get(lane, i);
            let r = lower_bound_dev(lane, &a2_keys, k);
            let v = u2_vals.get(lane, i);
            out_keys.set(lane, i + r, k);
            out_vals.set(lane, i + r, v);
        });
    }
    (out_keys, out_vals, total)
}

/// Reusable buffer set for [`merge_parallel_into`]: the update slice, both
/// flag masks, the shared scan buffer, the two compacted sides and the
/// merged output. Capacities only grow, so a steady-state stream of device-
/// tier merges allocates nothing after the first — the last piece of the
/// ROADMAP allocation de-churn item. Only the first `count` entries of
/// [`Self::out_keys`] / [`Self::out_vals`] are meaningful after a call.
pub struct MergeScratch {
    u_keys: DeviceBuffer<u64>,
    u_vals: DeviceBuffer<u64>,
    u_ops: DeviceBuffer<u32>,
    u_flags: DeviceBuffer<u32>,
    a_flags: DeviceBuffer<u32>,
    positions: DeviceBuffer<u32>,
    a2_keys: DeviceBuffer<u64>,
    a2_vals: DeviceBuffer<u64>,
    u2_keys: DeviceBuffer<u64>,
    u2_vals: DeviceBuffer<u64>,
    /// Merged keys, valid for the count returned by the call that filled
    /// this scratch.
    pub out_keys: DeviceBuffer<u64>,
    /// Merged values, index-aligned with [`Self::out_keys`].
    pub out_vals: DeviceBuffer<u64>,
}

impl Default for MergeScratch {
    fn default() -> Self {
        MergeScratch {
            u_keys: DeviceBuffer::new(0),
            u_vals: DeviceBuffer::new(0),
            u_ops: DeviceBuffer::new(0),
            u_flags: DeviceBuffer::new(0),
            a_flags: DeviceBuffer::new(0),
            positions: DeviceBuffer::new(0),
            a2_keys: DeviceBuffer::new(0),
            a2_vals: DeviceBuffer::new(0),
            u2_keys: DeviceBuffer::new(0),
            u2_vals: DeviceBuffer::new(0),
            out_keys: DeviceBuffer::new(0),
            out_vals: DeviceBuffer::new(0),
        }
    }
}

impl MergeScratch {
    /// Grow every buffer to cover `na` compacted entries and `m` updates.
    fn ensure(&mut self, na: usize, m: usize) {
        fn grow<T: gpma_sim::DevicePod>(buf: &mut DeviceBuffer<T>, n: usize) {
            if buf.len() < n {
                *buf = DeviceBuffer::new(n);
            }
        }
        grow(&mut self.u_keys, m);
        grow(&mut self.u_vals, m);
        grow(&mut self.u_ops, m);
        grow(&mut self.u_flags, m);
        grow(&mut self.a_flags, na);
        grow(&mut self.positions, na.max(m));
        grow(&mut self.a2_keys, na);
        grow(&mut self.a2_vals, na);
        grow(&mut self.u2_keys, m);
        grow(&mut self.u2_vals, m);
        grow(&mut self.out_keys, na + m);
        grow(&mut self.out_vals, na + m);
    }
}

/// [`merge_parallel`] over the first `na` entries of `a_keys`/`a_vals`,
/// staging through caller-owned scratch instead of fresh device buffers —
/// the allocation-free variant the GPMA+ device tier reuses across
/// segments. Returns the merged count; the result lives in
/// `scratch.out_keys` / `scratch.out_vals` (over-sized: only the first
/// `count` entries are meaningful). The kernel launch sequence and every
/// modeled memory access match the allocating variant exactly, so simulated
/// times are bit-identical to it.
// lint: hot-path
pub fn merge_parallel_into(
    dev: &Device,
    a_keys: &DeviceBuffer<u64>,
    a_vals: &DeviceBuffer<u64>,
    na: usize,
    u: &DeviceUpdates,
    ur: std::ops::Range<usize>,
    scratch: &mut MergeScratch,
) -> usize {
    assert!(a_keys.len() >= na && a_vals.len() >= na);
    let m = ur.len();
    let ustart = ur.start;
    scratch.ensure(na, m);
    let MergeScratch {
        u_keys,
        u_vals,
        u_ops,
        u_flags,
        a_flags,
        positions,
        a2_keys,
        a2_vals,
        u2_keys,
        u2_vals,
        out_keys,
        out_vals,
    } = &*scratch;

    // 1. Slice the updates into the contiguous staging buffers.
    if m > 0 {
        let uk = &u.keys;
        let uv = &u.vals;
        let uo = &u.ops;
        dev.launch("slice_updates", m, |lane| {
            let i = lane.tid;
            let k = uk.get(lane, ustart + i);
            let v = uv.get(lane, ustart + i);
            let o = uo.get(lane, ustart + i);
            u_keys.set(lane, i, k);
            u_vals.set(lane, i, v);
            u_ops.set(lane, i, o);
        });
    }

    // 2. Last-wins dedup of the updates, dropping effective DELETEs.
    if m > 0 {
        dev.launch("dedup_updates", m, |lane| {
            let i = lane.tid;
            let k = u_keys.get(lane, i);
            let is_last = i + 1 >= m || u_keys.get(lane, i + 1) != k;
            let keep = is_last && u_ops.get(lane, i) == OP_INSERT;
            u_flags.set(lane, i, keep as u32);
        });
    }

    // 3. Mark surviving A entries (length-bounded search: the staging
    //    buffers may be over-sized).
    if na > 0 {
        dev.launch("a_survivors", na, |lane| {
            let i = lane.tid;
            let k = a_keys.get(lane, i);
            let overridden = m > 0 && binary_search_contains_n(lane, u_keys, m, k);
            a_flags.set(lane, i, (!overridden) as u32);
        });
    }

    // 4. Compact both sides. One scan per compaction, exactly like the
    //    allocating `compact_flagged` chain it replaces (sim-cost parity).
    let na2 = primitives::exclusive_scan_u32_into(dev, a_flags, na, positions) as usize;
    primitives::compact_flagged_into(dev, a_keys, a_flags, na, positions, a2_keys);
    primitives::exclusive_scan_u32_into(dev, a_flags, na, positions);
    primitives::compact_flagged_into(dev, a_vals, a_flags, na, positions, a2_vals);
    let m2 = primitives::exclusive_scan_u32_into(dev, u_flags, m, positions) as usize;
    primitives::compact_flagged_into(dev, u_keys, u_flags, m, positions, u2_keys);
    primitives::exclusive_scan_u32_into(dev, u_flags, m, positions);
    primitives::compact_flagged_into(dev, u_vals, u_flags, m, positions, u2_vals);
    let total = na2 + m2;

    // 5. Rank-merge scatter with length-bounded ranks.
    if na2 > 0 {
        dev.launch("rank_scatter_a", na2, |lane| {
            let i = lane.tid;
            let k = a2_keys.get(lane, i);
            let r = lower_bound_dev_n(lane, u2_keys, m2, k);
            let v = a2_vals.get(lane, i);
            out_keys.set(lane, i + r, k);
            out_vals.set(lane, i + r, v);
        });
    }
    if m2 > 0 {
        dev.launch("rank_scatter_u", m2, |lane| {
            let i = lane.tid;
            let k = u2_keys.get(lane, i);
            let r = lower_bound_dev_n(lane, a2_keys, na2, k);
            let v = u2_vals.get(lane, i);
            out_keys.set(lane, i + r, k);
            out_vals.set(lane, i + r, v);
        });
    }
    total
}

/// Device binary search: first index with `buf[i] >= key`.
#[inline]
pub fn lower_bound_dev(lane: &mut Lane, buf: &DeviceBuffer<u64>, key: u64) -> usize {
    lower_bound_dev_n(lane, buf, buf.len(), key)
}

/// [`lower_bound_dev`] over the first `n` elements — for reused over-sized
/// scratch buffers whose tails hold stale data. Probes the identical index
/// sequence an exactly-sized buffer of length `n` would, so the modeled
/// memory traffic matches the allocating variants bit for bit.
#[inline]
pub fn lower_bound_dev_n(lane: &mut Lane, buf: &DeviceBuffer<u64>, n: usize, key: u64) -> usize {
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        if buf.get(lane, mid) < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[inline]
fn binary_search_contains(lane: &mut Lane, buf: &DeviceBuffer<u64>, key: u64) -> bool {
    binary_search_contains_n(lane, buf, buf.len(), key)
}

#[inline]
fn binary_search_contains_n(lane: &mut Lane, buf: &DeviceBuffer<u64>, n: usize, key: u64) -> bool {
    let i = lower_bound_dev_n(lane, buf, n, key);
    i < n && buf.get(lane, i) == key
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_graph::{encode_key, Edge};
    use gpma_sim::DeviceConfig;

    fn dev() -> Device {
        Device::new(DeviceConfig::deterministic())
    }

    #[test]
    fn prepare_sorts_and_orders_ops() {
        let d = dev();
        let batch = UpdateBatch {
            insertions: vec![Edge::weighted(2, 1, 7), Edge::weighted(0, 5, 3)],
            deletions: vec![Edge::new(1, 1)],
        };
        let u = prepare_updates(&d, 8, &batch);
        assert_eq!(u.len, 3);
        assert_eq!(
            u.keys.to_vec(),
            vec![encode_key(0, 5), encode_key(1, 1), encode_key(2, 1)]
        );
        assert_eq!(u.ops.to_vec(), vec![OP_INSERT, OP_DELETE, OP_INSERT]);
        assert_eq!(u.vals.to_vec(), vec![3, 0, 7]);
    }

    #[test]
    fn delete_then_insert_same_key_keeps_insert_last() {
        let d = dev();
        let batch = UpdateBatch {
            insertions: vec![Edge::weighted(1, 2, 9)],
            deletions: vec![Edge::new(1, 2)],
        };
        let u = prepare_updates(&d, 4, &batch);
        assert_eq!(u.ops.to_vec(), vec![OP_DELETE, OP_INSERT]);
    }

    #[test]
    fn merge_parallel_disjoint_and_overrides() {
        let d = dev();
        // A = keys 10,20,30; updates: delete 20, insert 25 (val 5),
        // insert 10 (val 99, modification), insert 40.
        let a_keys = DeviceBuffer::from_slice(&[10u64, 20, 30]);
        let a_vals = DeviceBuffer::from_slice(&[1u64, 2, 3]);
        let batch_keys = [10u64, 20, 25, 40];
        let batch_vals = [99u64, 0, 5, 7];
        let batch_ops = [OP_INSERT, OP_DELETE, OP_INSERT, OP_INSERT];
        let u = DeviceUpdates {
            keys: DeviceBuffer::from_slice(&batch_keys),
            vals: DeviceBuffer::from_slice(&batch_vals),
            ops: DeviceBuffer::from_slice(&batch_ops),
            len: 4,
        };
        let (mk, mv, n) = merge_parallel(&d, &a_keys, &a_vals, &u, 0..4);
        assert_eq!(n, 4);
        assert_eq!(mk.to_vec(), vec![10, 25, 30, 40]);
        assert_eq!(mv.to_vec(), vec![99, 5, 3, 7]);
    }

    #[test]
    fn merge_parallel_last_wins_within_batch() {
        let d = dev();
        let a_keys = DeviceBuffer::<u64>::new(0);
        let a_vals = DeviceBuffer::<u64>::new(0);
        // insert 5=1, delete 5, insert 5=42 → final 5=42.
        let u = DeviceUpdates {
            keys: DeviceBuffer::from_slice(&[5u64, 5, 5]),
            vals: DeviceBuffer::from_slice(&[1u64, 0, 42]),
            ops: DeviceBuffer::from_slice(&[OP_INSERT, OP_DELETE, OP_INSERT]),
            len: 3,
        };
        let (mk, mv, n) = merge_parallel(&d, &a_keys, &a_vals, &u, 0..3);
        assert_eq!(n, 1);
        assert_eq!(mk.to_vec(), vec![5]);
        assert_eq!(mv.to_vec(), vec![42]);
    }

    #[test]
    fn merge_parallel_delete_of_absent_is_noop() {
        let d = dev();
        let a_keys = DeviceBuffer::from_slice(&[7u64]);
        let a_vals = DeviceBuffer::from_slice(&[1u64]);
        let u = DeviceUpdates {
            keys: DeviceBuffer::from_slice(&[3u64]),
            vals: DeviceBuffer::from_slice(&[0u64]),
            ops: DeviceBuffer::from_slice(&[OP_DELETE]),
            len: 1,
        };
        let (mk, _, n) = merge_parallel(&d, &a_keys, &a_vals, &u, 0..1);
        assert_eq!(n, 1);
        assert_eq!(mk.to_vec(), vec![7]);
    }

    #[test]
    fn merge_parallel_scratch_matches_allocating_variant() {
        fn updates(keys: &[u64], vals: &[u64], ops: &[u32]) -> DeviceUpdates {
            DeviceUpdates {
                keys: DeviceBuffer::from_slice(keys),
                vals: DeviceBuffer::from_slice(vals),
                ops: DeviceBuffer::from_slice(ops),
                len: keys.len(),
            }
        }
        let d = dev();
        let mut scratch = MergeScratch::default();
        // Shrinking inputs across calls: the reused, over-sized scratch
        // keeps stale tails the length-bounded searches must ignore.
        type Case<'a> = (&'a [u64], &'a [u64], (&'a [u64], &'a [u64], &'a [u32]));
        let cases: [Case; 3] = [
            (
                &[10, 20, 30, 50, 60],
                &[1, 2, 3, 5, 6],
                (
                    &[10, 20, 25, 40],
                    &[99, 0, 5, 7],
                    &[OP_INSERT, OP_DELETE, OP_INSERT, OP_INSERT],
                ),
            ),
            (&[7], &[1], (&[3], &[0], &[OP_DELETE])),
            (&[], &[], (&[5, 5, 5], &[1, 0, 42], &[OP_INSERT, OP_DELETE, OP_INSERT])),
        ];
        for (ak, av, (uk, uv, uo)) in cases {
            let a_keys = DeviceBuffer::from_slice(ak);
            let a_vals = DeviceBuffer::from_slice(av);
            let u = updates(uk, uv, uo);
            let (mk, mv, n) = merge_parallel(&d, &a_keys, &a_vals, &u, 0..u.len);
            let n2 = merge_parallel_into(&d, &a_keys, &a_vals, ak.len(), &u, 0..u.len, &mut scratch);
            assert_eq!(n2, n);
            assert_eq!(&scratch.out_keys.to_vec()[..n], mk.to_vec());
            assert_eq!(&scratch.out_vals.to_vec()[..n], mv.to_vec());
        }
        // Sim cost parity: the scratch variant issues the identical kernel
        // sequence, so two fresh devices end at the same simulated clock.
        let ak = [10u64, 20, 30];
        let av = [1u64, 2, 3];
        let d1 = dev();
        let u1 = updates(&[15, 20], &[4, 0], &[OP_INSERT, OP_DELETE]);
        let _ = merge_parallel(
            &d1,
            &DeviceBuffer::from_slice(&ak),
            &DeviceBuffer::from_slice(&av),
            &u1,
            0..2,
        );
        let d2 = dev();
        let u2 = updates(&[15, 20], &[4, 0], &[OP_INSERT, OP_DELETE]);
        let mut s2 = MergeScratch::default();
        let _ = merge_parallel_into(
            &d2,
            &DeviceBuffer::from_slice(&ak),
            &DeviceBuffer::from_slice(&av),
            3,
            &u2,
            0..2,
            &mut s2,
        );
        assert_eq!(d1.elapsed().secs().to_bits(), d2.elapsed().secs().to_bits());
    }

    #[test]
    fn lower_bound_dev_matches_std() {
        let d = dev();
        let data: Vec<u64> = vec![2, 4, 4, 8, 16];
        let buf = DeviceBuffer::from_slice(&data);
        let probe = DeviceBuffer::<u64>::new(6);
        dev().launch("noop", 0, |_| {}); // keep `d` used uniformly
        d.launch("probe", 6, |lane| {
            let keys = [0u64, 2, 3, 4, 16, 99];
            let r = lower_bound_dev(lane, &buf, keys[lane.tid]) as u64;
            probe.set(lane, lane.tid, r);
        });
        let expect: Vec<u64> = [0u64, 2, 3, 4, 16, 99]
            .iter()
            .map(|&k| data.partition_point(|&x| x < k) as u64)
            .collect();
        assert_eq!(probe.to_vec(), expect);
    }

    #[test]
    #[should_panic(expected = "outside vertex set")]
    fn prepare_rejects_out_of_range() {
        let d = dev();
        let batch = UpdateBatch {
            insertions: vec![Edge::new(9, 1)],
            deletions: vec![],
        };
        prepare_updates(&d, 4, &batch);
    }
}
