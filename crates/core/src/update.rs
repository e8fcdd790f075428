//! Shared update-batch plumbing: uploading, device-sorting and slicing
//! update sets, plus the merge routines both update algorithms and the
//! resize path use.

use gpma_graph::edge::GUARD_DST;
use gpma_graph::{edge_key_mask, Edge};
use gpma_sim::{launch, primitives, Device, DeviceBuffer, Lane, LaneMode};

use crate::storage::{GpmaStorage, EMPTY};

/// A sorted insertion set resident on the device: `keys` ascending; for
/// runs of equal keys the *last* element wins (upsert semantics). Deletions
/// never enter it: they are tombstoned in place before the merges run, by
/// the first lanes of GPMA+'s `locate_leaves` launch or, in a batch
/// without insertions, by [`GpmaStorage::delete_lazy`].
pub struct DeviceUpdates {
    /// Edge storage keys (`src << 32 | dst`), ascending in the first
    /// `len` slots (the buffer may be longer).
    pub keys: DeviceBuffer<u64>,
    /// Edge weights, aligned with `keys`.
    pub vals: DeviceBuffer<u64>,
    /// Number of updates in the set.
    pub len: usize,
}

impl DeviceUpdates {
    /// True when the set holds no updates.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Reusable host staging for [`prepare_insertions`]: the key / value
/// upload vectors are cleared and refilled per batch instead of
/// reallocated, so a steady-state stream of flushes does no
/// per-launch host allocation on the upload path (the ROADMAP profiling
/// item). Also stages the lazy deletions' inputs (device key buffer,
/// capacity only grows, and its one-slot deleted counter) and holds the
/// sort's ping-pong pair for batches of more than one
/// [`primitives::BLOCK`]. [`crate::GpmaPlus`] owns one and threads it
/// through every batch.
#[derive(Debug)]
pub struct UpdateScratch {
    keys: Vec<u64>,
    vals: Vec<u64>,
    del_keys: DeviceBuffer<u64>,
    del_count: DeviceBuffer<u64>,
    sort: primitives::SortScratch,
}

impl Default for UpdateScratch {
    fn default() -> Self {
        UpdateScratch {
            keys: Vec::new(),
            vals: Vec::new(),
            del_keys: DeviceBuffer::new(0),
            del_count: DeviceBuffer::new(1),
            sort: primitives::SortScratch::default(),
        }
    }
}

impl UpdateScratch {
    /// Upload the keys of `edges` for a launch of lazy deletions
    /// ([`GpmaStorage::delete_lazy`], or GPMA+'s `locate_leaves`) and zero
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
        self.del_keys.grow_to(edges.len());
        self.del_keys.copy_from_slice(0, &self.keys);
        self.del_count.host_write(0, 0);
        (&self.del_keys, &self.del_count)
    }
}

/// Upload a batch's insertions and sort the `(key, weight)` pairs by key on
/// the device (stable: of two insertions of one key the later stays later,
/// so it wins). Takes a raw slice and caller-owned staging, so a batch
/// costs neither `Vec` growth, an `UpdateBatch` clone nor, batch after
/// equal batch, a new sort scratch.
pub fn prepare_insertions(
    dev: &Device,
    num_vertices: u32,
    insertions: &[Edge],
    scratch: &mut UpdateScratch,
) -> DeviceUpdates {
    let n = insertions.len();
    let UpdateScratch { keys, vals, sort, .. } = scratch;
    keys.clear();
    vals.clear();
    keys.reserve(n);
    vals.reserve(n);
    for e in insertions {
        validate_edge(num_vertices, e.src, e.dst);
        keys.push(e.key());
        vals.push(e.weight);
    }
    let mut dkeys = DeviceBuffer::from_slice(keys);
    let mut dvals = DeviceBuffer::from_slice(vals);
    // Both ends were just checked below |V|: only the mask's digits vary.
    let mask = edge_key_mask(num_vertices);
    // The sorted pairs are the first `n` of the (possibly longer) buffers.
    primitives::sort_pairs_u64_into(dev, &mut dkeys, &mut dvals, mask, sort);
    DeviceUpdates {
        keys: dkeys,
        vals: dvals,
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
/// Semantics per update run of equal keys: the last one adds its key or
/// overwrites the entry's value.
// lint: hot-path
#[inline]
pub fn merge_window_into<M: LaneMode>(
    lane: &mut Lane<'_, M>,
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
                let v = u.vals.get(lane, ui);
                merged.push((uk, v, true));
                lane.work(1);
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
            let v = u.vals.get(lane, ui);
            merged.push((k, v, true)); // modification
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
pub fn merged_count_serial<M: LaneMode>(
    lane: &mut Lane<'_, M>,
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
                count += 1;
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
        // An update run equal to the existing key replaces it: one entry.
        while ui < ur.end && u.keys.get(lane, ui) == k {
            ui += 1;
        }
        count += 1;
        lane.work(1);
    }
    drain_updates_below!(u64::MAX);
    count
}

/// Reusable buffer set for [`merge_parallel_into`]: the update slice, both
/// flag masks, the scan buffer the two compactions share, the two compacted
/// sides and the merged output. Capacities only grow
/// ([`DeviceBuffer::grow_to`]), so a steady-state stream of device-tier
/// merges reallocates none of these buffers after the first; the two scans
/// still allocate their own intermediates per call ([`primitives::exclusive_scan_u32_into`]). Only
/// the first `count` entries of [`Self::out_keys`] / [`Self::out_vals`] are
/// meaningful after a call.
pub struct MergeScratch {
    u_keys: DeviceBuffer<u64>,
    u_vals: DeviceBuffer<u64>,
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
        self.u_keys.grow_to(m);
        self.u_vals.grow_to(m);
        self.u_flags.grow_to(m);
        self.a_flags.grow_to(na);
        self.positions.grow_to(na.max(m));
        self.a2_keys.grow_to(na);
        self.a2_vals.grow_to(na);
        self.u2_keys.grow_to(m);
        self.u2_vals.grow_to(m);
        self.out_keys.grow_to(na + m);
        self.out_vals.grow_to(na + m);
    }
}

/// Fully parallel merge of the first `na` compacted entries `A` of
/// `a_keys`/`a_vals` with the update slice `ur` of `u` — GPMA+'s *device
/// tier* for windows too large for one warp/block, and the engine behind
/// resize. Stages through caller-owned scratch, which the device tier
/// reuses across segments. Returns the merged count; the result lives in
/// `scratch.out_keys` / `scratch.out_vals` (over-sized: only the first
/// `count` entries are meaningful).
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

    // 1. Stage the update slice contiguously (so the rank kernels below
    //    are coalesced), flagging the last of each equal-key run: the
    //    updates' last-wins dedup in the same pass.
    if m > 0 {
        let uk = &u.keys;
        let uv = &u.vals;
        launch!(dev, "stage_updates", m, |lane| {
            let i = lane.tid;
            let k = uk.get(lane, ustart + i);
            let v = uv.get(lane, ustart + i);
            let is_last = i + 1 >= m || uk.get(lane, ustart + i + 1) != k;
            u_keys.set(lane, i, k);
            u_vals.set(lane, i, v);
            u_flags.set(lane, i, is_last as u32);
        });
    }

    // 2. Mark surviving A entries: those whose key does NOT appear in the
    //    updates at all (an update replaces the entry). The search is length-bounded: the staging buffers may be
    //    over-sized.
    if na > 0 {
        launch!(dev, "a_survivors", na, |lane| {
            let i = lane.tid;
            let k = a_keys.get(lane, i);
            let overridden = m > 0 && binary_search_contains_n(lane, u_keys, m, k);
            a_flags.set(lane, i, (!overridden) as u32);
        });
    }

    // 3. Compact both sides, keys and values together: one scan per mask.
    let na2 =
        primitives::compact_pairs_flagged_into(dev, (a_keys, a_vals), a_flags, na, positions, (a2_keys, a2_vals));
    let m2 =
        primitives::compact_pairs_flagged_into(dev, (u_keys, u_vals), u_flags, m, positions, (u2_keys, u2_vals));
    let total = na2 + m2;

    // 4. Rank-merge scatter: the two sides are disjoint sorted sets, so each
    //    element's merged position is its own index plus its rank in the
    //    other side. One lane per element, O(log) each, length-bounded.
    if na2 > 0 {
        launch!(dev, "rank_scatter_a", na2, |lane| {
            let i = lane.tid;
            let k = a2_keys.get(lane, i);
            let r = lower_bound_dev_n(lane, u2_keys, m2, k);
            let v = a2_vals.get(lane, i);
            out_keys.set(lane, i + r, k);
            out_vals.set(lane, i + r, v);
        });
    }
    if m2 > 0 {
        launch!(dev, "rank_scatter_u", m2, |lane| {
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

/// Device binary search over `buf[..n]`: the first index with
/// `buf[i] >= key`, or `n`. Bounded by `n` so reused over-sized scratch
/// buffers whose tails hold stale data probe exactly the index sequence an
/// exactly-sized buffer of length `n` would.
#[inline]
fn lower_bound_dev_n<M: LaneMode>(
    lane: &mut Lane<'_, M>,
    buf: &DeviceBuffer<u64>,
    n: usize,
    key: u64,
) -> usize {
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
fn binary_search_contains_n<M: LaneMode>(
    lane: &mut Lane<'_, M>,
    buf: &DeviceBuffer<u64>,
    n: usize,
    key: u64,
) -> bool {
    let i = lower_bound_dev_n(lane, buf, n, key);
    i < n && buf.get(lane, i) == key
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_graph::{encode_key, Edge, UpdateBatch};
    use gpma_sim::DeviceConfig;

    fn dev() -> Device {
        Device::new(DeviceConfig::deterministic())
    }

    fn prepare(d: &Device, num_vertices: u32, insertions: &[Edge]) -> DeviceUpdates {
        prepare_insertions(d, num_vertices, insertions, &mut UpdateScratch::default())
    }

    fn updates(keys: &[u64], vals: &[u64]) -> DeviceUpdates {
        DeviceUpdates {
            keys: DeviceBuffer::from_slice(keys),
            vals: DeviceBuffer::from_slice(vals),
            len: keys.len(),
        }
    }

    /// Merge `A = (a_keys, a_vals)` with all of `u` through `scratch`;
    /// returns the merged keys and values.
    fn merge(
        d: &Device,
        a_keys: &[u64],
        a_vals: &[u64],
        u: &DeviceUpdates,
        scratch: &mut MergeScratch,
    ) -> (Vec<u64>, Vec<u64>) {
        let (ak, av) = (DeviceBuffer::from_slice(a_keys), DeviceBuffer::from_slice(a_vals));
        let n = merge_parallel_into(d, &ak, &av, a_keys.len(), u, 0..u.len, scratch);
        (scratch.out_keys.to_vec()[..n].to_vec(), scratch.out_vals.to_vec()[..n].to_vec())
    }

    #[test]
    fn prepare_sorts_and_orders_ops() {
        let d = dev();
        let insertions = [Edge::weighted(2, 1, 7), Edge::weighted(0, 5, 3), Edge::weighted(1, 1, 4)];
        let u = prepare(&d, 8, &insertions);
        assert_eq!(u.len, 3);
        assert_eq!(
            u.keys.to_vec(),
            vec![encode_key(0, 5), encode_key(1, 1), encode_key(2, 1)]
        );
        assert_eq!(u.vals.to_vec(), vec![3, 4, 7]);
    }

    /// A slide that deletes and re-inserts one edge leaves it present
    /// with the inserted weight: the deletion tombstones first.
    #[test]
    fn delete_then_insert_same_key_keeps_insert_last() {
        let d = dev();
        let mut g = crate::GpmaPlus::build(&d, 4, &[Edge::weighted(1, 2, 5)]);
        g.update_batch_lazy(
            &d,
            &UpdateBatch {
                insertions: vec![Edge::weighted(1, 2, 9)],
                deletions: vec![Edge::new(1, 2)],
            },
        );
        assert_eq!(g.storage.host_edges(), vec![Edge::weighted(1, 2, 9)]);
    }

    #[test]
    fn merge_parallel_disjoint_and_overrides() {
        let d = dev();
        // A = keys 10,20,30; updates: insert 10 (val 99, modification),
        // insert 25 (val 5), insert 40.
        let u = updates(&[10, 25, 40], &[99, 5, 7]);
        let (mk, mv) = merge(&d, &[10, 20, 30], &[1, 2, 3], &u, &mut MergeScratch::default());
        assert_eq!(mk, vec![10, 20, 25, 30, 40]);
        assert_eq!(mv, vec![99, 2, 5, 3, 7]);
    }

    #[test]
    fn merge_parallel_last_wins_within_batch() {
        let d = dev();
        // insert 5=1, 5=3, 5=42 → final 5=42.
        let u = updates(&[5, 5, 5], &[1, 3, 42]);
        let (mk, mv) = merge(&d, &[], &[], &u, &mut MergeScratch::default());
        assert_eq!(mk, vec![5]);
        assert_eq!(mv, vec![42]);
    }

    /// One scratch reused across shrinking inputs merges what a freshly
    /// allocated scratch does, and both equal the host-computed merge.
    #[test]
    fn merge_parallel_scratch_matches_allocating_variant() {
        let d = dev();
        let mut scratch = MergeScratch::default();
        // Shrinking inputs across calls: the reused, over-sized scratch
        // keeps stale tails the length-bounded searches must ignore.
        type Case<'a> = (&'a [u64], &'a [u64], (&'a [u64], &'a [u64]), &'a [(u64, u64)]);
        let cases: [Case; 3] = [
            (
                &[10, 20, 30, 50, 60],
                &[1, 2, 3, 5, 6],
                (&[10, 25, 25, 40], &[99, 4, 5, 7]),
                &[(10, 99), (20, 2), (25, 5), (30, 3), (40, 7), (50, 5), (60, 6)],
            ),
            (&[7], &[1], (&[3], &[8]), &[(3, 8), (7, 1)]),
            (&[], &[], (&[5, 5, 5], &[1, 3, 42]), &[(5, 42)]),
        ];
        for (ak, av, (uk, uv), expect) in cases {
            let u = updates(uk, uv);
            let fresh = merge(&d, ak, av, &u, &mut MergeScratch::default());
            assert_eq!(merge(&d, ak, av, &u, &mut scratch), fresh);
            let got: Vec<(u64, u64)> = fresh.0.into_iter().zip(fresh.1).collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn lower_bound_dev_matches_std() {
        let d = dev();
        // Over-sized: the stale tail past `n` must not be probed.
        let data: Vec<u64> = vec![2, 4, 4, 8, 16, 0, 0];
        let n = 5;
        let buf = DeviceBuffer::from_slice(&data);
        let keys = [0u64, 2, 3, 4, 16, 99];
        let probe = DeviceBuffer::<u64>::new(keys.len());
        d.launch("probe", keys.len(), |lane| {
            let r = lower_bound_dev_n(lane, &buf, n, keys[lane.tid]) as u64;
            probe.set(lane, lane.tid, r);
        });
        let expect: Vec<u64> = keys
            .iter()
            .map(|&k| data[..n].partition_point(|&x| x < k) as u64)
            .collect();
        assert_eq!(probe.to_vec(), expect);
    }

    #[test]
    #[should_panic(expected = "outside vertex set")]
    fn prepare_rejects_out_of_range() {
        let d = dev();
        prepare(&d, 4, &[Edge::new(9, 1)]);
    }
}
