//! GPMA+ — the lock-free, segment-oriented batch update algorithm
//! (Section 5.2, Algorithm 4).
//!
//! The batch is sorted once, leaf segments are located by coalesced binary
//! search, and updates are then processed **level by level**: updates
//! grouped into the same segment (via run-length encoding + exclusive scan,
//! the CUB primitives of the paper) are merged together by `TryInsert+`
//! wherever the density threshold permits; survivors move to their parent
//! segment. No locks are taken anywhere, thread workloads at one level are
//! identical by construction, and the root overflow path doubles the array.
//!
//! Tiers (§5.2's warp/block/device optimization): segments whose window fits
//! a block-sized scratch are merged by a single lane over fast local memory
//! (all windows at one level have equal capacity, so these launches are
//! perfectly balanced); larger windows switch to a fully parallel
//! compact + rank-merge + redispatch pipeline over global memory.

use gpma_graph::{Edge, UpdateBatch};
use gpma_sim::{primitives, Device, DeviceBuffer};

use crate::storage::{CompactScratch, GpmaStorage, EMPTY};
use crate::update::{
    merge_parallel_into, merge_window_serial_into, merged_count_serial, prepare_updates_parts,
    with_merge_scratch, DeviceUpdates, MergeScratch, UpdateScratch,
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
    /// Lazily tombstoned deletions (sliding-window mode).
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
    /// [`Self::apply_sorted`] (the ROADMAP `compact_flagged`-chain churn).
    level_scratch: LevelScratch,
    /// Reusable window-compaction buffers for the device merge tier and the
    /// resize path (kills `compact_window`'s per-call flag/scan churn).
    compact_scratch: CompactScratch,
    /// Reusable parallel-merge staging for the device tier and the resize
    /// path (kills `merge_parallel`'s per-call output churn).
    merge_scratch: MergeScratch,
}

/// Device-buffer set the level loop ping-pongs survivors through instead
/// of allocating four fresh buffers (plus a scan buffer each) per level.
/// Capacities only grow, so a steady-state stream of equally sized batches
/// allocates nothing after the first.
struct LevelScratch {
    keep: DeviceBuffer<u32>,
    positions: DeviceBuffer<u32>,
    keys: DeviceBuffer<u64>,
    vals: DeviceBuffer<u64>,
    ops: DeviceBuffer<u32>,
    segs: DeviceBuffer<u32>,
    /// Segment id of every pending update at the current level (leaf ids
    /// from `locate_leaves`, then swapped with `segs` on each promotion).
    seg_ids: DeviceBuffer<u32>,
    /// Reused by the per-level `UniqueSegments` run-length encoding
    /// ([`process_level`](GpmaPlus::process_level)) — kills the five fresh
    /// buffers the RLE otherwise allocates each level.
    rle: primitives::RleScratch,
    /// Per-segment accept flags of `TryInsert+` (sized like the update
    /// count, an upper bound on the segment count).
    accept: DeviceBuffer<u32>,
    /// Segments the small tier merged at the current level (one slot).
    merged_ctr: DeviceBuffer<u64>,
}

impl Default for LevelScratch {
    fn default() -> Self {
        LevelScratch {
            keep: DeviceBuffer::new(0),
            positions: DeviceBuffer::new(0),
            keys: DeviceBuffer::new(0),
            vals: DeviceBuffer::new(0),
            ops: DeviceBuffer::new(0),
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
    /// swaps hand the key/val/op/seg slots back buffers of *earlier batch*
    /// sizes, so their capacities evolve independently of the mask pair.
    fn ensure(&mut self, n: usize) {
        fn grow<T: gpma_sim::DevicePod>(buf: &mut DeviceBuffer<T>, n: usize) {
            if buf.len() < n {
                *buf = DeviceBuffer::new(n);
            }
        }
        grow(&mut self.keep, n);
        grow(&mut self.positions, n);
        grow(&mut self.keys, n);
        grow(&mut self.vals, n);
        grow(&mut self.ops, n);
        grow(&mut self.segs, n);
        grow(&mut self.seg_ids, n);
        grow(&mut self.accept, n);
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
        }
    }

    /// Override the tier threshold (ablation: `0` forces every merge through
    /// the device tier, `usize::MAX` disables it entirely).
    pub fn with_tier_max(mut self, tier_max: usize) -> Self {
        self.tier_max = tier_max;
        self
    }

    /// Apply a batch with full merge semantics: deletions travel through the
    /// segment-oriented path as first-class updates (the "dual" operation).
    pub fn update_batch(&mut self, dev: &Device, batch: &UpdateBatch) -> PlusStats {
        let nv = self.storage.num_vertices();
        let u = prepare_updates_parts(
            dev,
            nv,
            &batch.deletions,
            &batch.insertions,
            &mut self.scratch,
        );
        self.apply_sorted(dev, u, 0)
    }

    /// Sliding-window fast path (§6.1): deletions are lazily tombstoned
    /// (recycled by later merges), insertions take the normal path — passed
    /// as a slice so the insert-only view costs no batch clone.
    pub fn update_batch_lazy(&mut self, dev: &Device, batch: &UpdateBatch) -> PlusStats {
        let lazy = self.storage.delete_lazy(dev, &batch.deletions, &mut self.scratch);
        let nv = self.storage.num_vertices();
        let u = prepare_updates_parts(dev, nv, &[], &batch.insertions, &mut self.scratch);
        self.apply_sorted(dev, u, lazy)
    }

    /// Algorithm 4: `GpmaPlusInsertion`, generalized to mixed updates.
    // lint: hot-path
    fn apply_sorted(&mut self, dev: &Device, updates: DeviceUpdates, lazy: usize) -> PlusStats {
        let mut stats = PlusStats {
            lazy_deletes: lazy,
            ..Default::default()
        };
        if updates.is_empty() {
            return stats;
        }

        // Size every reused level buffer (incl. the RLE scratch inputs and
        // the keep mask process_level fills) once: the batch only shrinks
        // from here, and the ping-pong swaps below exchange buffers that
        // all hold at least this many slots.
        let mut cur = updates;
        self.level_scratch.ensure(cur.len);

        // Line 3: locate every update's leaf segment (coalesced binary
        // search — updates are sorted, so adjacent lanes walk the same path).
        {
            let storage = &self.storage;
            let keys = &cur.keys;
            let sid = &self.level_scratch.seg_ids;
            dev.launch("locate_leaves", cur.len, |lane| {
                let k = keys.get(lane, lane.tid);
                let leaf = storage.find_leaf(lane, k) as u32;
                sid.set(lane, lane.tid, leaf);
            });
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
            self.process_level(dev, &cur, level, &mut stats);

            // Lines 12-15: drop consumed updates, promote the rest. The
            // four survivor streams share one keep-mask scan and scatter
            // through reusable ping-pong buffers (capacities only grow),
            // so the steady-state level loop allocates nothing and runs
            // one fused kernel instead of four scans + five scatters.
            let nupd = cur.len;
            let scratch = &mut self.level_scratch;
            let remaining =
                primitives::exclusive_scan_u32_into(dev, &scratch.keep, nupd, &scratch.positions)
                    as usize;
            if remaining > 0 {
                let k = &scratch.keep;
                let pos = &scratch.positions;
                let (sk, sv, so, sg) =
                    (&scratch.keys, &scratch.vals, &scratch.ops, &scratch.segs);
                let (ck, cv, co) = (&cur.keys, &cur.vals, &cur.ops);
                let sid = &scratch.seg_ids;
                dev.launch("compact_promote", nupd, |lane| {
                    let i = lane.tid;
                    if k.get(lane, i) != 0 {
                        let p = pos.get(lane, i) as usize;
                        let key = ck.get(lane, i);
                        sk.set(lane, p, key);
                        let val = cv.get(lane, i);
                        sv.set(lane, p, val);
                        let op = co.get(lane, i);
                        so.set(lane, p, op);
                        // Line 15 fused in: promote to the parent segment.
                        let seg = sid.get(lane, i);
                        sg.set(lane, p, seg >> 1);
                    }
                });
            }
            std::mem::swap(&mut cur.keys, &mut scratch.keys);
            std::mem::swap(&mut cur.vals, &mut scratch.vals);
            std::mem::swap(&mut cur.ops, &mut scratch.ops);
            std::mem::swap(&mut scratch.seg_ids, &mut scratch.segs);
            cur.len = remaining;
            level += 1;
        }

        // Post-batch shrink check (delete-heavy workloads): keep the root
        // above its lower density bound.
        let density = self.storage.density_config();
        let h = self.storage.geometry().height();
        let len = self.storage.len();
        if !density.within_rho(len, self.storage.capacity(), h, h) && self.storage.capacity() > 128
        {
            let empty = DeviceUpdates {
                keys: DeviceBuffer::new(0),
                vals: DeviceBuffer::new(0),
                ops: DeviceBuffer::new(0),
                len: 0,
            };
            self.resize_with_updates(dev, &empty);
            stats.resizes += 1;
        }

        stats
    }

    /// One level of Algorithm 4's loop: group updates (segment ids in
    /// `level_scratch.seg_ids`) into unique segments, run `TryInsert+` on
    /// each, and fill the per-update keep mask (`level_scratch.keep`: 1 for
    /// an update whose segment was too dense; pre-sized by the caller's
    /// `ensure`). Every merge writes its window's routing bounds as it
    /// places the keys (`storage` module docs).
    // lint: hot-path
    fn process_level(
        &mut self,
        dev: &Device,
        cur: &DeviceUpdates,
        level: usize,
        stats: &mut PlusStats,
    ) {
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

        // Line 7: UniqueSegments via RunLengthEncoding + ExclusiveScan.
        // Length-bounded: seg_ids may be an over-sized reused buffer, and
        // the RLE writes into the reused level scratch (the per-call
        // allocation churn the ROADMAP called out).
        let nseg = primitives::run_length_encode_u32_into(
            dev,
            &level_scratch.seg_ids,
            cur.len,
            &mut level_scratch.rle,
        );
        let seg_ids = &level_scratch.seg_ids;
        let rle = &level_scratch.rle;
        let accept = &level_scratch.accept;
        let nupd = cur.len;

        // TryInsert+ count phase (lines 23-25): exact post-merge size vs
        // the level's threshold. Every window at this level has identical
        // capacity → perfectly balanced lanes (the paper's observation).
        {
            let storage = &*storage;
            let unique = &rle.unique;
            let starts = &rle.starts;
            let counts = &rle.counts;
            let acc = accept;
            dev.launch("tryinsert_count", nseg, |lane| {
                let j = lane.tid;
                let g = unique.get(lane, j) as usize;
                let s = starts.get(lane, j) as usize;
                let c = counts.get(lane, j) as usize;
                let window = g * window_slots..(g + 1) * window_slots;
                let merged = merged_count_serial(lane, storage, window, cur, s..s + c);
                acc.set(lane, j, (merged <= max_entries) as u32);
            });
        }

        if window_slots <= *tier_max {
            // Warp/block tier: one lane merges each accepted segment over
            // local scratch and redistributes evenly (lines 26-28).
            let storage = &*storage;
            let seg_len = geom.seg_len;
            let unique = &rle.unique;
            let starts = &rle.starts;
            let counts = &rle.counts;
            let acc = accept;
            let bounds = &storage.leaf_max_prefix;
            level_scratch.merged_ctr.host_write(0, 0);
            let merged_ctr = &level_scratch.merged_ctr;
            dev.launch("tryinsert_small", nseg, |lane| {
                let j = lane.tid;
                if acc.get(lane, j) == 0 {
                    return;
                }
                let g = unique.get(lane, j) as usize;
                let s = starts.get(lane, j) as usize;
                let c = counts.get(lane, j) as usize;
                let ws = g * window_slots;
                let before = storage.count_window(lane, ws..ws + window_slots);
                // The merge stages through the worker's reusable scratch
                // (modeled shared memory) instead of a fresh Vec per
                // accepted segment — the merge-tier hot path stays
                // allocation-free in steady state.
                let n = with_merge_scratch(|merged| {
                    merge_window_serial_into(lane, storage, ws..ws + window_slots, cur, s..s + c, merged);
                    // Redispatch evenly across the window's leaves,
                    // left-packed. `bound` carries the last key placed so
                    // far: each leaf's routing bound, the window's max for
                    // its trailing empty leaves, and nothing to write (old
                    // bounds stay) when the window ends up empty.
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
                            bounds.set(lane, start / seg_len, b);
                        }
                    }
                    n
                });
                storage.add_len_delta(lane, n as i64 - before as i64);
                merged_ctr.atomic_add(lane, 0, 1);
            });
            stats.small_merges += merged_ctr.host_read(0);
        } else {
            // Device tier: few large segments; each is merged by fully
            // parallel kernels (compaction + rank merge + redispatch). Host
            // views (free) instead of per-level `to_vec` copies; only the
            // first `nseg` entries of the reused buffers are meaningful.
            let accept_host = &accept.as_slice()[..nseg];
            let unique_host = &rle.unique.as_slice()[..nseg];
            let starts_host = &rle.starts.as_slice()[..nseg];
            let counts_host = &rle.counts.as_slice()[..nseg];
            for j in 0..nseg {
                if accept_host[j] == 0 {
                    continue;
                }
                let g = unique_host[j] as usize;
                let ws = g * window_slots;
                let ur = starts_host[j] as usize..(starts_host[j] + counts_host[j]) as usize;
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
        }

        // Per-update keep mask: an update survives to the parent level iff
        // its segment was rejected (binary search into the sorted
        // unique-segment list).
        {
            let unique = &rle.unique;
            let acc = accept;
            let keep = &level_scratch.keep;
            let sid = seg_ids;
            dev.launch("mark_consumed", nupd, |lane| {
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

#[cfg(test)]
mod tests {
    use super::*;
    
    use gpma_sim::DeviceConfig;
    use std::collections::BTreeMap;

    fn dev() -> Device {
        Device::new(DeviceConfig::deterministic())
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
        g.update_batch(&d, &batch);
        g.storage.check_invariants();
        let keys: Vec<(u32, u32)> = oracle_of(&g).into_keys().collect();
        assert_eq!(keys, vec![(0, 1), (0, 2), (1, 5), (3, 2), (7, 0)]);
    }

    #[test]
    fn delete_batch_through_merge_path() {
        let d = dev();
        let mut g = GpmaPlus::build(&d, 4, &edges(&[(0, 1), (1, 2), (2, 3), (3, 0)]));
        let batch = UpdateBatch {
            insertions: vec![],
            deletions: edges(&[(1, 2), (3, 0)]),
        };
        g.update_batch(&d, &batch);
        g.storage.check_invariants();
        let keys: Vec<(u32, u32)> = oracle_of(&g).into_keys().collect();
        assert_eq!(keys, vec![(0, 1), (2, 3)]);
        assert_eq!(g.storage.num_edges(), 2);
    }

    #[test]
    fn modification_updates_weight_in_place() {
        let d = dev();
        let mut g = GpmaPlus::build(&d, 4, &[Edge::weighted(0, 1, 5)]);
        let before_len = g.storage.len();
        g.update_batch(
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
        let stats = g.update_batch(&d, &batch);
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
        let stats = g.update_batch(
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
        let stats = g.update_batch(
            &d,
            &UpdateBatch {
                insertions: vec![],
                deletions: all,
            },
        );
        g.storage.check_invariants();
        assert_eq!(g.storage.num_edges(), 0);
        assert!(
            g.storage.capacity() < cap0 || stats.resizes > 0,
            "mass deletion should shrink ({} -> {})",
            cap0,
            g.storage.capacity()
        );
    }

    #[test]
    fn empty_batch_is_noop() {
        let d = dev();
        let mut g = GpmaPlus::build(&d, 4, &edges(&[(0, 1)]));
        let before = g.storage.host_entries();
        let stats = g.update_batch(&d, &UpdateBatch::default());
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
            // semantics fixed by prepare_updates).
            for e in &batch.deletions {
                oracle.remove(&(e.src, e.dst));
            }
            for e in &batch.insertions {
                oracle.insert((e.src, e.dst), e.weight);
            }
            g.update_batch(&d, &batch);
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
            g_slow.update_batch(d, &batch);
        });
        let d_fast = mk(32);
        let mut g_fast = GpmaPlus::build(&d_fast, n, &initial);
        let (_, t_fast) = d_fast.timed(|d| {
            g_fast.update_batch(d, &batch);
        });
        assert!(
            t_slow.secs() > 1.5 * t_fast.secs(),
            "expected K-scaling: {} vs {}",
            t_slow.secs(),
            t_fast.secs()
        );
    }
}
