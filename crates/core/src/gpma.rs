//! GPMA — the lock-based concurrent update algorithm (Section 4.1,
//! Algorithm 1).
//!
//! Each pending insertion is handled by one device thread which walks
//! bottom-up from its leaf segment, taking a per-segment mutex (device CAS)
//! at every level. Threads synchronize between levels (separate kernel
//! launches); a thread that loses a lock competition aborts and retries in
//! the next attempt round. A winner that finds a segment within its density
//! threshold merges its single entry and re-dispatches the segment.
//!
//! This is the algorithm whose bottlenecks (§5.1: uncoalesced traversals,
//! atomic lock overhead, conflict aborts under clustered updates,
//! unpredictable per-thread workload) motivate GPMA+; the benchmark harness
//! measures exactly those effects.

use gpma_graph::{Edge, UpdateBatch};
use gpma_sim::{launch, primitives, Device, DeviceBuffer, Lane, LaneMode};

use crate::storage::{CompactScratch, GpmaStorage, EMPTY};
use crate::update::UpdateScratch;

/// Per-batch statistics for lock-based GPMA updates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LockStats {
    /// Attempt rounds until every insertion succeeded (line 2's loop).
    pub rounds: usize,
    /// Lock-competition aborts across all rounds (line 11-12).
    pub aborts: u64,
    /// Full-array grows triggered by root overflow (line 20).
    pub grows: u64,
    /// Lazily tombstoned deletions.
    pub lazy_deletes: usize,
}

/// Thread status codes during an attempt round.
const ST_ACTIVE: u32 = 0;
const ST_DONE: u32 = 1;
const ST_ABORT: u32 = 2;
const ST_ROOT: u32 = 3;

/// The lock-based GPMA dynamic graph store.
pub struct Gpma {
    /// The shared device-resident PMA slot array.
    pub storage: GpmaStorage,
}

impl Gpma {
    /// Bulk-build from an initial edge set (same layout as GPMA+).
    pub fn build(dev: &Device, num_vertices: u32, edges: &[Edge]) -> Self {
        Gpma {
            storage: GpmaStorage::build(dev, num_vertices, edges),
        }
    }

    /// Apply a batch: deletions are lazily tombstoned (the paper evaluates
    /// GPMA under the sliding-window model where deletions are "performed
    /// via marking the location as deleted"), insertions run Algorithm 1.
    pub fn update_batch(&mut self, dev: &Device, batch: &UpdateBatch) -> LockStats {
        let lazy = self
            .storage
            .delete_lazy(dev, &batch.deletions, &mut UpdateScratch::default());
        let mut stats = self.insert_batch(dev, &batch.insertions);
        stats.lazy_deletes = lazy;
        stats
    }

    /// Algorithm 1: `GPMAInsert`.
    pub fn insert_batch(&mut self, dev: &Device, insertions: &[Edge]) -> LockStats {
        let mut stats = LockStats::default();
        if insertions.is_empty() {
            return stats;
        }
        for e in insertions {
            assert!(
                e.src < self.storage.num_vertices() && e.dst < self.storage.num_vertices(),
                "edge out of range"
            );
            assert!(e.dst != gpma_graph::GUARD_DST, "guard dst");
        }
        // Pending insertions live on the device; unlike GPMA+ they are NOT
        // sorted — each thread independently walks the tree (this is what
        // makes the traversals uncoalesced, §5.1).
        let mut pend_keys =
            DeviceBuffer::from_slice(&insertions.iter().map(|e| e.key()).collect::<Vec<_>>());
        let mut pend_vals =
            DeviceBuffer::from_slice(&insertions.iter().map(|e| e.weight).collect::<Vec<_>>());

        loop {
            let n = pend_keys.len();
            if n == 0 {
                break;
            }
            stats.rounds += 1;
            assert!(
                stats.rounds < 10_000,
                "GPMA failed to converge — livelock bug"
            );
            self.storage.rebuild_leaf_max(dev);

            let geom = self.storage.geometry();
            let height = geom.height();
            let num_segs = geom.num_segs;
            let seg_len = geom.seg_len;
            let density = self.storage.density_config();

            let status = DeviceBuffer::<u32>::new(n); // ST_ACTIVE
            let levels = DeviceBuffer::<u32>::new(n);
            let leaves = DeviceBuffer::<u32>::new(n);
            let locks = DeviceBuffer::<u32>::new(num_segs * (height + 1));
            let abort_ctr = DeviceBuffer::<u64>::new(1);

            // Line 4: binary-search each insertion's leaf segment.
            {
                let storage = &self.storage;
                let pk = &pend_keys;
                let lv = &leaves;
                launch!(dev, "gpma_locate", n, |lane| {
                    let k = pk.get(lane, lane.tid);
                    let leaf = storage.find_leaf(lane, k) as u32;
                    lv.set(lane, lane.tid, leaf);
                });
            }

            // Lines 9-19: bottom-up TryInsert, synchronized per level.
            for h in 0..=height {
                let storage = &self.storage;
                let tau = density.tau(h, height);
                let window_slots = seg_len << h;
                let max_entries = (tau * window_slots as f64).floor() as usize;
                let pk = &pend_keys;
                let pv = &pend_vals;
                let st = &status;
                let lv = &levels;
                let lf = &leaves;
                let lk = &locks;
                let ac = &abort_ctr;
                launch!(dev, "gpma_tryinsert", n, |lane| {
                    let i = lane.tid;
                    if st.get(lane, i) != ST_ACTIVE || lv.get(lane, i) != h as u32 {
                        return;
                    }
                    let seg = (lf.get(lane, i) >> h) as usize;
                    // Line 11: trylock (held until round end — line 7).
                    if lk.atomic_cas(lane, h * num_segs + seg, 0, 1) != 0 {
                        st.set(lane, i, ST_ABORT);
                        ac.atomic_add(lane, 0, 1);
                        return;
                    }
                    let window = seg * window_slots..(seg + 1) * window_slots;
                    let key = pk.get(lane, i);
                    let val = pv.get(lane, i);
                    match try_insert_window(lane, storage, window, max_entries, key, val) {
                        TryInsert::Done => st.set(lane, i, ST_DONE),
                        TryInsert::TooDense => {
                            // Line 13-14: move up to the parent segment.
                            if h == height {
                                st.set(lane, i, ST_ROOT);
                            } else {
                                lv.set(lane, i, h as u32 + 1);
                            }
                        }
                    }
                });
            }

            stats.aborts += abort_ctr.host_read(0);

            // Line 20: any thread that exhausted the root doubles the array
            // (host-orchestrated; remaining insertions retry next round).
            let statuses = status.to_vec();
            if statuses.contains(&ST_ROOT) {
                let cap = self.storage.capacity();
                let mut scratch = CompactScratch::default();
                let cn = self.storage.compact_window_into(dev, 0..cap, &mut scratch);
                self.storage.resize_to(dev, &scratch.keys, &scratch.vals, cn);
                stats.grows += 1;
            }

            // Retry everything not DONE (aborted, root-blocked).
            let keep = DeviceBuffer::<u32>::new(n);
            {
                let st = &status;
                let k = &keep;
                launch!(dev, "gpma_keep", n, |lane| {
                    let s = st.get(lane, lane.tid);
                    k.set(lane, lane.tid, (s != ST_DONE) as u32);
                });
            }
            (pend_keys, pend_vals) = primitives::compact_pairs_flagged(dev, &pend_keys, &pend_vals, &keep);
            // Line 7: all locks released (buffer dropped each round).
        }
        self.storage.rebuild_leaf_max(dev);
        stats
    }
}

enum TryInsert {
    Done,
    TooDense,
}

/// Single-entry merge into a locked window: counts the window, and if the
/// density threshold holds, inserts (or overwrites) the key and re-dispatches
/// the window's entries evenly (lines 13-19 of Algorithm 1).
fn try_insert_window<M: LaneMode>(
    lane: &mut Lane<'_, M>,
    storage: &GpmaStorage,
    window: std::ops::Range<usize>,
    max_entries: usize,
    key: u64,
    val: u64,
) -> TryInsert {
    let seg_len = storage.geometry().seg_len;
    // Gather live entries; check for modification on the way.
    let mut entries: Vec<(u64, u64)> = Vec::with_capacity(window.len());
    let mut existing = false;
    for i in window.clone() {
        let k = storage.keys.get(lane, i);
        if k == EMPTY {
            continue;
        }
        if k == key {
            existing = true;
        }
        let v = storage.vals.get(lane, i);
        entries.push((k, v));
        lane.work(1);
    }
    if existing {
        // Modification: overwrite in place, no density change.
        let pos = entries.iter().position(|&(k, _)| k == key).unwrap();
        entries[pos].1 = val;
    } else {
        if entries.len() + 1 > max_entries {
            return TryInsert::TooDense;
        }
        let pos = entries.partition_point(|&(k, _)| k < key);
        entries.insert(pos, (key, val));
        storage.add_len_delta(lane, 1);
    }
    // Re-dispatch evenly, left-packing each leaf.
    let leaves = window.len() / seg_len;
    let n = entries.len();
    let base = n / leaves;
    let extra = n % leaves;
    let mut it = entries.into_iter();
    for leaf in 0..leaves {
        let take = base + usize::from(leaf < extra);
        let start = window.start + leaf * seg_len;
        for i in 0..seg_len {
            if i < take {
                let (k, v) = it.next().expect("redispatch count mismatch");
                storage.keys.set(lane, start + i, k);
                storage.vals.set(lane, start + i, v);
            } else {
                storage.keys.set(lane, start + i, EMPTY);
            }
        }
    }
    TryInsert::Done
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_sim::DeviceConfig;
    use std::collections::BTreeMap;

    fn dev() -> Device {
        Device::new(DeviceConfig::deterministic())
    }

    fn pdev() -> Device {
        Device::new(DeviceConfig {
            host_parallelism: 8,
            ..DeviceConfig::default()
        })
    }

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs.iter().map(|&(s, d)| Edge::new(s, d)).collect()
    }

    fn oracle_of(g: &Gpma) -> BTreeMap<(u32, u32), u64> {
        g.storage
            .host_edges()
            .into_iter()
            .map(|e| ((e.src, e.dst), e.weight))
            .collect()
    }

    #[test]
    fn fig4_concurrent_insertions() {
        // Figure 4: concurrent batch {1, 4, 9, 35, 48} — conflicting leaf
        // insertions serialize over rounds; all must eventually land.
        let d = dev();
        let initial: Vec<Edge> = [2u32, 5, 8, 13, 16, 17, 23, 27, 28, 31, 34, 37, 42, 46, 51, 62]
            .iter()
            .map(|&c| Edge::new(0, c))
            .collect();
        let mut g = Gpma::build(&d, 64, &initial);
        let stats = g.insert_batch(&d, &edges(&[(0, 1), (0, 4), (0, 9), (0, 35), (0, 48)]));
        g.storage.check_invariants();
        assert!(stats.rounds >= 1);
        let m = oracle_of(&g);
        for c in [1u32, 4, 9, 35, 48] {
            assert!(m.contains_key(&(0, c)), "missing {c}");
        }
        assert_eq!(m.len(), 16 + 5);
    }

    #[test]
    fn conflicting_inserts_serialize_via_aborts() {
        let d = dev();
        // Start dense so every insertion needs a rebalance, all in one leaf
        // region → heavy lock conflicts (the clustered-update pathology).
        let initial: Vec<Edge> = (0..64u32).map(|i| Edge::new(0, i * 4)).collect();
        let mut g = Gpma::build(&d, 256, &initial);
        let batch: Vec<Edge> = (0..32u32).map(|i| Edge::new(0, i * 4 + 1)).collect();
        let stats = g.insert_batch(&d, &batch);
        g.storage.check_invariants();
        assert_eq!(g.storage.num_edges(), 64 + 32);
        assert!(
            stats.rounds > 1 || stats.aborts > 0,
            "clustered batch should conflict: {stats:?}"
        );
    }

    #[test]
    fn update_batch_with_lazy_deletions() {
        let d = dev();
        let mut g = Gpma::build(&d, 8, &edges(&[(0, 1), (1, 2), (2, 3)]));
        let stats = g.update_batch(
            &d,
            &UpdateBatch {
                insertions: edges(&[(3, 4), (4, 5)]),
                deletions: edges(&[(1, 2)]),
            },
        );
        assert_eq!(stats.lazy_deletes, 1);
        g.storage.check_invariants();
        let keys: Vec<(u32, u32)> = oracle_of(&g).into_keys().collect();
        assert_eq!(keys, vec![(0, 1), (2, 3), (3, 4), (4, 5)]);
    }

    #[test]
    fn grow_on_root_overflow() {
        let d = dev();
        let mut g = Gpma::build(&d, 32, &[]);
        let cap0 = g.storage.capacity();
        // All 32*31 ordered pairs: far beyond the minimal capacity, so the
        // root must double at least once.
        let batch: Vec<Edge> = (0..32u32)
            .flat_map(|s| (0..32u32).filter(move |&t| t != s).map(move |t| Edge::new(s, t)))
            .collect();
        let uniq: std::collections::HashSet<(u32, u32)> =
            batch.iter().map(|e| (e.src, e.dst)).collect();
        let stats = g.insert_batch(&d, &batch);
        g.storage.check_invariants();
        assert_eq!(g.storage.num_edges(), uniq.len());
        // Tiny initial array: growing is expected (possibly multiple times).
        assert!(stats.grows >= 1 || g.storage.capacity() > cap0);
    }

    #[test]
    fn modification_semantics() {
        let d = dev();
        let mut g = Gpma::build(&d, 4, &[Edge::weighted(1, 2, 10)]);
        g.insert_batch(&d, &[Edge::weighted(1, 2, 77)]);
        assert_eq!(oracle_of(&g)[&(1, 2)], 77);
        assert_eq!(g.storage.num_edges(), 1);
        g.storage.check_invariants();
    }

    #[test]
    fn parallel_pool_matches_oracle() {
        // Real host-thread concurrency: locks must keep the structure
        // consistent and all insertions must land exactly once.
        let d = pdev();
        let n = 64u32;
        let mut g = Gpma::build(&d, n, &[]);
        let mut expect = BTreeMap::new();
        let batch: Vec<Edge> = (0..1500u64)
            .map(|i| {
                let s = (i.wrapping_mul(2654435761) % n as u64) as u32;
                let t = (i.wrapping_mul(0x9E3779B9) % (n as u64 - 1)) as u32;
                let t = if t == s { n - 1 } else { t };
                Edge::weighted(s, t, i)
            })
            .collect();
        for e in &batch {
            expect.insert((e.src, e.dst), e.weight);
        }
        g.insert_batch(&d, &batch);
        g.storage.check_invariants();
        assert_eq!(oracle_of(&g), expect);
    }

    #[test]
    fn empty_batch_is_noop() {
        let d = dev();
        let mut g = Gpma::build(&d, 2, &edges(&[(0, 1)]));
        let stats = g.insert_batch(&d, &[]);
        assert_eq!(stats, LockStats::default());
        assert_eq!(g.storage.num_edges(), 1);
    }
}
